import concurrent.futures
import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import pickle
import statistics
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairlab
import pairlab.harness
from pairlab.cli import main as cli_main
from pairlab.degree_model import build_subpower_sequence, write_degree_file
from pairlab.harness import (
    DEFAULT_TOLERANCES,
    MODES,
    ConfigError,
    ExperimentConfig,
    describe,
    resolve_degrees,
    run,
    validate_degree_file,
)


def make_config(tmp_path, **overrides):
    data = {
        "mode": "poisson_check",
        "replicates": 200,
        "seed": 11,
        "workers": 1,
        "output_dir": str(tmp_path / "out"),
        "degrees": {"kind": "regular", "n": 200, "d": 3},
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestConfigParsing:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict({"mode": "nope"})

    def test_bad_replicates(self):
        with pytest.raises(ConfigError, match="replicates"):
            ExperimentConfig.from_dict(
                {"mode": "poisson_check", "replicates": 0,
                 "degrees": {"kind": "regular", "n": 4, "d": 1}}
            )

    def test_largest_enumeration_cap(self):
        config = ExperimentConfig.from_dict(
            {"mode": "oracle_validation", "tolerances": {"enumeration_cap": 7},
             "degrees": {"kind": "regular", "n": 4, "d": 1}}
        )
        assert config.tolerances["enumeration_cap"] == 7

    def test_missing_degrees(self):
        with pytest.raises(ConfigError, match="degrees"):
            ExperimentConfig.from_dict({"mode": "poisson_check"})

    def test_scaling_needs_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_dict({"mode": "scaling"})

    def test_json_error_has_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode": }')
        with pytest.raises(ConfigError, match="bad.json:1"):
            ExperimentConfig.from_file(path)

    def test_hash_ignores_environment(self, tmp_path):
        a = make_config(tmp_path, workers=1)
        b = make_config(tmp_path, workers=8, output_dir=str(tmp_path / "o2"))
        assert a.hash() == b.hash()


class TestResolveDegrees:
    def test_regular(self):
        seq = resolve_degrees({"kind": "regular", "n": 6, "d": 3})
        assert seq.degrees == (3,) * 6

    def test_explicit(self):
        seq = resolve_degrees({"kind": "explicit", "degrees": [2, 2]})
        assert seq.degrees == (2, 2)

    def test_file(self, tmp_path):
        seq = build_subpower_sequence(100, 3.5, 1.0, 0.9)
        path = tmp_path / "d.txt"
        write_degree_file(seq, path)
        assert resolve_degrees({"kind": "file", "path": str(path)}).degrees == seq.degrees

    def test_subpower(self):
        seq = resolve_degrees(
            {"kind": "subpower", "n": 1000, "gamma": 3.5, "c": 1.0, "target_nu": 0.9}
        )
        assert seq.n == 1000


class TestDescribe:
    def test_three_regular(self, tmp_path):
        report = describe(make_config(tmp_path, degrees={"kind": "regular", "n": 100, "d": 3}))
        assert report["nu"] == 2.0
        assert report["predicted_p_simple"] == pytest.approx(math.exp(-2))

    def test_two_singletons(self, tmp_path):
        report = describe(make_config(tmp_path, degrees={"kind": "explicit", "degrees": [1, 1]}))
        assert report["nu"] == 0.0
        assert report["predicted_p_simple"] == 1.0
        assert report["predicted_attempts"] == 1.0

    def test_scaling_describes_first_cell_that_builds(self, tmp_path, capsys):
        # the largest n at the smallest gamma (3.5) fails for this target;
        # n = 1000 at gamma = 4.5 builds, as it does in ``run``
        (scaling,) = [c for c in DIGEST_CONFIGS if c["mode"] == "scaling"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scaling))
        assert cli_main(["describe", "-c", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 1000
        assert report["max_degree"] <= report["degree_cap"]

    def test_scaling_grid_that_never_builds_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scaling",
            "grid": {"gammas": [3.5], "sizes": [300, 1000], "target_nu": 0.2},
        }))
        assert cli_main(["describe", "-c", str(cfg)]) == 2
        assert "error: no scale" in capsys.readouterr().err

    def test_subpower_reports_negative_molloy_reed(self, tmp_path):
        report = describe(make_config(
            tmp_path,
            degrees={"kind": "subpower", "n": 2000, "gamma": 3.5, "c": 1.0, "target_nu": 0.9},
        ))
        assert report["molloy_reed_sum"] < 0
        assert report["degree_cap"] >= report["max_degree"]


class TestRunModes:
    def test_poisson_artifacts(self, tmp_path):
        summary = run(make_config(tmp_path, replicates=300))
        assert summary.cells[0]["nu"] == 2.0
        csv_path, json_path = summary.artifacts
        header = open(csv_path).readline().strip()
        assert header == "replicate,loops,parallel_pairs,simple,largest"
        payload = json.loads(open(json_path).read())
        assert payload["config_hash"] == summary.config_hash
        assert all("tolerance" in v for v in payload["verdicts"])

    @pytest.mark.parametrize("replicates", [1, 2])
    def test_small_poisson_run_warns_nothing(self, tmp_path, replicates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(make_config(tmp_path, replicates=replicates))

    def test_oracle_validation_two_two(self, tmp_path):
        config = make_config(
            tmp_path,
            mode="oracle_validation",
            replicates=3000,
            degrees={"kind": "explicit", "degrees": [2, 2]},
        )
        summary = run(config)
        assert summary.passed
        cell = summary.cells[0]
        assert cell["n_pairings"] == 3
        assert cell["p_simple_exact"] == 0.0

    def test_trajectory_mode(self, tmp_path):
        config = make_config(
            tmp_path,
            mode="trajectory",
            replicates=10,
            degrees={"kind": "subpower", "n": 5000, "gamma": 3.5,
                     "c": 1.0, "target_nu": 0.9},
        )
        summary = run(config)
        assert summary.passed
        assert {c["j"] for c in summary.cells} <= {1, 2, 3, 4, 5}

    def test_huge_j_max_tracks_only_present_degrees(self, tmp_path):
        csvs = {}
        for j_max in (5, 10**300):
            config = make_config(
                tmp_path, mode="trajectory", replicates=4,
                degrees={"kind": "regular", "n": 4, "d": 3},
                tolerances={"trajectory_j_max": j_max},
                output_dir=str(tmp_path / f"j{len(str(j_max))}"),
            )
            start = time.monotonic()
            summary = run(config)
            assert time.monotonic() - start < 10
            csvs[j_max] = Path(summary.artifacts[0]).read_text()
        assert csvs[10**300] == csvs[5]
        assert csvs[5].count("\n") == 1 + 4  # header, then j = 3 per replicate

    def test_scaling_mode(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "mode": "scaling",
            "replicates": 10,
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
            "grid": {"gammas": [3.5], "sizes": [400, 800], "target_nu": 0.9},
        })
        summary = run(config)
        names = [v.name for v in summary.verdicts]
        assert any(name.startswith("q95_factor") for name in names)
        assert any(name.startswith("max_degree_ratio") for name in names)


def scaling_run(tmp_path, gammas, sizes, replicates, seed, out="out"):
    """A scaling run at the grid defaults (c = 1, target_nu = 0.9), and its
    CSV records."""
    summary = run(ExperimentConfig.from_dict({
        "mode": "scaling", "replicates": replicates, "seed": seed,
        "output_dir": str(tmp_path / out),
        "grid": {"gammas": gammas, "sizes": sizes},
    }))
    with open(summary.artifacts[0], newline="") as fh:
        return summary, list(csv.DictReader(fh))


class TestScalingMode:
    def test_records_and_summaries(self, tmp_path):
        summary, records = scaling_run(tmp_path, [3.5], [500, 1000], 20, seed=99)
        assert len(records) == 40
        for rec in records:
            assert float(rec["normalized"]) > 0
            assert int(rec["largest"]) <= int(rec["n"])
        assert len(summary.cells) == 2
        for cell in summary.cells:
            assert 0.5 <= cell["max_degree_ratio"] <= 1.5
            assert cell["q50"] <= cell["q95"] <= cell["q_max"]

    def test_deterministic(self, tmp_path):
        a = scaling_run(tmp_path, [3.5], [500], 5, seed=7, out="a")
        b = scaling_run(tmp_path, [3.5], [500], 5, seed=7, out="b")
        assert a[1] == b[1] and len(a[1]) == 5
        assert a[0].cells == b[0].cells

    def test_max_degree_monotone_in_n(self, tmp_path):
        summary, _ = scaling_run(tmp_path, [4.0], [500, 2000, 8000], 3, seed=1)
        caps = [c["max_degree_ratio"] * c["n"] ** (1 / c["gamma"])
                for c in summary.cells]
        assert len(caps) == 3 and caps == sorted(caps)

    def test_pool_tasks_carry_no_sequence(self, tmp_path, monkeypatch):
        # the sequences reach each worker once, through the pool's
        # initializer; a task names a cell and a replicate range only
        monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
        task_bytes = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                task_bytes.append(len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        seq = build_subpower_sequence(100_000, 3.5, 1.0, 0.9)
        assert len(pickle.dumps(seq)) > 100_000
        summary = run(ExperimentConfig.from_dict({
            "mode": "scaling", "replicates": 4, "seed": 3, "workers": 2,
            "output_dir": str(tmp_path / "out"),
            "grid": {"gammas": [3.5], "sizes": [100_000]},
        }))
        assert "error" not in summary.cells[0]
        # four one-replicate tasks; the parent runs the first
        assert len(task_bytes) == 3
        assert max(task_bytes) < 1024


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
        base = {
            "mode": "poisson_check",
            "replicates": 120,
            "seed": 42,
            "degrees": {"kind": "regular", "n": 100, "d": 3},
        }
        out1 = run(ExperimentConfig.from_dict(
            {**base, "workers": 1, "output_dir": str(tmp_path / "w1")}))
        out2 = run(ExperimentConfig.from_dict(
            {**base, "workers": 3, "output_dir": str(tmp_path / "w3")}))
        for a, b in zip(out1.artifacts, out2.artifacts):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_repeat_run_identical(self, tmp_path):
        config = make_config(tmp_path, replicates=100)
        first = run(config)
        blobs = [open(a, "rb").read() for a in first.artifacts]
        second = run(config)
        assert [open(a, "rb").read() for a in second.artifacts] == blobs


class TestValidateDegreeFile:
    def test_valid_with_subpower(self, tmp_path):
        seq = build_subpower_sequence(500, 3.5, 1.0, 0.9)
        path = tmp_path / "d.txt"
        write_degree_file(seq, path)
        report = validate_degree_file(path, gamma=3.5, c=1.0)
        assert report["valid"]

    def test_invalid_subpower(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("4\n3 3 3 3\n")  # p_3 = 1 >> c * 3**-3.5
        report = validate_degree_file(path, gamma=3.5, c=1.0)
        assert not report["valid"]

    @pytest.mark.parametrize("envelope,message", [
        ({"gamma": 3.5}, "c: required with gamma"),
        ({"c": 1.0}, "gamma: required with c"),
    ])
    def test_gamma_and_c_come_together(self, tmp_path, envelope, message):
        path = tmp_path / "d.txt"
        path.write_text("4\n3 3 2 2\n")
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_degree_file(path, **envelope)


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "oracle_validation",
            "replicates": 2000,
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "degrees": {"kind": "explicit", "degrees": [2, 2]},
        }))
        assert cli_main(["run", "-c", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]

    def test_describe(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "poisson_check",
            "replicates": 1,
            "degrees": {"kind": "regular", "n": 10, "d": 3},
        }))
        assert cli_main(["describe", "-c", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["nu"] == 2.0

    def test_validate(self, tmp_path, capsys):
        seq = build_subpower_sequence(100, 3.5, 1.0, 0.9)
        path = tmp_path / "d.txt"
        write_degree_file(seq, path)
        assert cli_main(["validate", str(path), "--gamma", "3.5", "--c", "1.0"]) == 0

    @pytest.mark.parametrize("flags,message", [
        (["--gamma", "0", "--c", "1"], "error: gamma:"),
        (["--gamma", "-2", "--c", "1"], "error: gamma:"),
        (["--gamma", "inf", "--c", "1"], "error: gamma:"),
        (["--gamma", "nan", "--c", "1"], "error: gamma:"),
        (["--gamma", "3.5", "--c", "-1"], "error: c:"),
        (["--gamma", "3.5", "--c", "0"], "error: c:"),
        (["--gamma", "3.5"], "error: c: required with gamma"),
        (["--c", "1"], "error: gamma: required with c"),
        (["--gamma", "1e-300", "--c", "1"], "gamma=1e-300"),  # cap overflows
    ])
    def test_validate_refuses_bad_subpower_flags(self, tmp_path, capsys, flags,
                                                 message):
        path = tmp_path / "d.txt"
        path.write_text("4\n3 3 2 2\n")
        assert cli_main(["validate", str(path), *flags]) == 2
        assert message in capsys.readouterr().err

    def test_no_verdicts_exit_one(self, tmp_path, capsys):
        # every cell of this grid fails to build, so nothing was checked
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scaling",
            "output_dir": str(tmp_path / "out"),
            "grid": {"gammas": [3.5], "sizes": [300, 1000], "target_nu": 0.2},
        }))
        assert cli_main(["run", "-c", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == [] and not payload["passed"]
        assert all("error" in cell for cell in payload["cells"])

    def test_run_options_replace_file_fields(self, tmp_path, capsys):
        data = {
            "mode": "poisson_check", "replicates": 12, "seed": 1, "workers": 1,
            "output_dir": str(tmp_path / "file_out"),
            "degrees": {"kind": "regular", "n": 50, "d": 3},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        cli_out = tmp_path / "cli_out"
        code = cli_main(["run", "-c", str(cfg), "--seed", "5", "--workers", "2",
                         "-o", str(cli_out)])
        assert code in (0, 1) and not (tmp_path / "file_out").exists()
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({**data, "seed": 5}))
        assert cli_main(["run", "-c", str(seeded)]) == code
        got = sorted(cli_out.iterdir())
        want = sorted((tmp_path / "file_out").iterdir())
        assert [p.name for p in got] == [p.name for p in want]
        assert len(got) == 2 and all("_seed5." in p.name for p in got)
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]
        capsys.readouterr()

        assert cli_main(["run", "-c", str(cfg), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:  # describe takes only -c
            cli_main(["describe", "-c", str(cfg), "--workers", "2"])
        assert exc.value.code == 2

    def test_bad_config_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "nope"}')
        assert cli_main(["run", "-c", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides,field", [
        ({"degrees": {"kind": "regular", "n": 10}}, "degrees.d"),
        ({"degrees": {"kind": "regular", "n": "10", "d": 3}}, "degrees.n"),
        ({"degrees": {"kind": "regular", "n": 10, "d": 2.5}}, "degrees.d"),
        ({"degrees": {"kind": "subpower", "n": 100, "target_nu": 0.9}},
         "degrees.gamma"),
        ({"degrees": {"kind": "subpower", "gamma": 3.5, "target_nu": 0.9}},
         "degrees.n"),
        ({"degrees": {"kind": "subpower", "n": 100, "gamma": 3.5}},
         "degrees.target_nu"),
        ({"degrees": {"kind": "subpower", "n": 100, "gamma": 3.5,
                      "target_nu": "0.9"}}, "degrees.target_nu"),
        ({"degrees": {"kind": "subpower", "n": 100, "gamma": 3.5,
                      "target_nu": 0.9, "c": None}}, "degrees.c"),
        ({"degrees": {"kind": "explicit"}}, "degrees.degrees"),
        ({"degrees": {"kind": "explicit", "degrees": [2, "2"]}},
         "degrees.degrees"),
        ({"degrees": {"kind": "file"}}, "degrees.path"),
        ({"degrees": {"kind": "file", "path": 7}}, "degrees.path"),
        ({"degrees": {"kind": "ring", "n": 10}}, "degrees.kind"),
        ({"degrees": {"kind": "regular", "n": 10, "d": 3, "c": 1.0}},
         "degrees.c"),
        ({"mode": "scaling", "grid": {"gammas": [3.5], "sizes": [100],
                                      "target": 0.9}}, "grid.target"),
        ({"mode": "scaling", "grid": {"gammas": [3.5], "sizes": ["100"]}},
         "grid.sizes"),
        ({"seed": True}, "seed"),
        ({"replicates": True}, "replicates"),
        ({"workers": True}, "workers"),
        ({"tolerances": {"abs_tol_loop": 0.1}}, "tolerances.abs_tol_loop"),
        ({"tolerances": {"sigma": "3"}}, "tolerances.sigma"),
        ({"mode": "scaling", "grid": {"gammas": [3.5], "sizes": [0.5, 1000]}},
         "grid.sizes"),
        ({"tolerances": {"trajectory_j_max": 2.5}}, "tolerances.trajectory_j_max"),
        ({"tolerances": {"enumeration_cap": 6.0}}, "tolerances.enumeration_cap"),
        ({"tolerances": {"max_attempts": 1e3}}, "tolerances.max_attempts"),
        ({"tolerances": {"sigma": math.nan}}, "tolerances.sigma"),
        ({"degrees": {"kind": "subpower", "n": 100, "gamma": 3.5,
                      "target_nu": 0.9, "c": math.inf}}, "degrees.c"),
        ({"mode": "scaling", "grid": {"gammas": [-math.inf], "sizes": [100]}},
         "grid.gammas"),
        # the oracle would hold all 15!! = 2,027,025 pairings in memory
        ({"tolerances": {"enumeration_cap": 8}}, "tolerances.enumeration_cap"),
    ])
    def test_malformed_config_names_field(self, tmp_path, capsys, overrides, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "poisson_check",
            "replicates": 1,
            "output_dir": str(tmp_path / "out"),
            "degrees": {"kind": "regular", "n": 10, "d": 3},
            **overrides,
        }))
        assert cli_main(["run", "-c", str(cfg)]) == 2
        assert field in capsys.readouterr().err


def _exit_code(argv: list[str]) -> int:
    """``pairlab`` exit code, its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main(argv)


def _fresh(tmp_path, body: str):
    """The JSON value ``body`` leaves in ``result``, run in a fresh
    interpreter on pairlab's sources with ``out`` bound to ``tmp_path``."""
    script = (
        "import json, sys\nfrom pathlib import Path\nout = Path(sys.argv[1])\n"
        + textwrap.dedent(body)
        + "\n(out / 'result.json').write_text(json.dumps(result))\n"
    )
    src = str(Path(pairlab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                   check=True, env=env, capture_output=True, timeout=120)
    return json.loads((tmp_path / "result.json").read_text())


def _cli_modules(tmp_path, argvs: list[list[str]]) -> tuple[list, list]:
    """Exit codes of ``pairlab`` on each argv in one fresh interpreter, and
    the modules loaded by the end."""
    (tmp_path / "argvs.json").write_text(json.dumps(argvs))
    return _fresh(tmp_path, """
        from pairlab.cli import main
        codes = [main(argv) for argv in json.loads((out / "argvs.json").read_text())]
        result = [codes, sorted(sys.modules)]
    """)


def _modules_after(tmp_path, configs: list[dict]) -> tuple[list, list]:
    """Exit codes of ``pairlab run`` on each config in one fresh interpreter,
    and the modules loaded by the end."""
    for i, config in enumerate(configs):
        (tmp_path / f"cfg{i}.json").write_text(json.dumps(config))
    return _cli_modules(tmp_path, [["run", "-c", str(tmp_path / f"cfg{i}.json"),
                                    "-o", str(tmp_path)] for i in range(len(configs))])


def test_projection_runs_load_no_scipy(tmp_path):
    codes, mods = _modules_after(tmp_path, [
        {"mode": "poisson_check", "replicates": 5, "seed": 1,
         "degrees": {"kind": "regular", "n": 50, "d": 3}},
        {"mode": "scaling", "replicates": 3, "seed": 2,
         "grid": {"gammas": [3.5], "sizes": [400, 800], "target_nu": 0.9}},
    ])
    assert all(code in (0, 1) for code in codes)  # both ran to verdicts
    assert [m for m in mods if m.split(".")[0] == "scipy"] == []


def test_serial_trajectory_run_loads_no_pool_and_no_numpy_ma(tmp_path):
    codes, mods = _modules_after(tmp_path, [
        {"mode": "trajectory", "replicates": 4, "seed": 4, "workers": 1,
         "degrees": {"kind": "subpower", "n": 2000, "gamma": 3.5,
                     "c": 1.0, "target_nu": 0.9}},
    ])
    assert codes in ([0], [1])  # ran to verdicts
    assert [m for m in mods if m.split(".")[0] == "multiprocessing"
            or m == "numpy.ma" or m.startswith("numpy.ma.")] == []


@given(st.lists(st.floats(0, 1), min_size=1, max_size=40))
def test_trajectory_median_is_numpy_median(column):
    # trajectory takes its medians with statistics.median, which must give
    # the float np.median gave, at odd and even counts alike
    assert statistics.median(column) == float(np.median(column))


def test_oracle_run_loads_scipy_stats(tmp_path):
    codes, mods = _modules_after(tmp_path, [
        {"mode": "oracle_validation", "replicates": 50, "seed": 3,
         "degrees": {"kind": "explicit", "degrees": [2, 2]}},
    ])
    assert codes == [0]
    assert "scipy.stats" in mods


# Arbitrary JSON merged into a small valid config must give exit 0, 1 or 2,
# never a traceback.  Integers stay small so that no draw enumerates or
# samples a large instance; tolerance values stay at most 6 so that an
# oracle run enumerates at most the default cap of 6 pairs.
_FIELDS = sorted({"kind", "n", "d", "gamma", "target_nu", "c", "degrees",
                  "path", "gammas", "sizes"})
_NUMBERS = st.integers(-3, 40) | st.floats()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4)
    | st.sampled_from(MODES + ("regular", "subpower", "explicit", "file")),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4) | st.sampled_from(_FIELDS),
                                     inner, max_size=4)),
    max_leaves=8,
)
_FIELD_VALUES = _NUMBERS | st.lists(_NUMBERS, min_size=1, max_size=3) | _JSON
_SMALL_NUMBERS = st.integers(-3, 6) | st.floats()
_TOP_KEYS = ["mode", "replicates", "seed", "workers", "output_dir", "degrees",
             "grid", "tolerances", "extra"]
_EDITS = st.lists(st.one_of(
    st.tuples(st.none(), st.sampled_from(_TOP_KEYS), _FIELD_VALUES),
    st.tuples(st.sampled_from(["degrees", "grid"]),
              st.sampled_from(_FIELDS) | st.text(max_size=4), _FIELD_VALUES),
    st.tuples(st.just("tolerances"),
              st.sampled_from(sorted(DEFAULT_TOLERANCES)) | st.text(max_size=4),
              _SMALL_NUMBERS | st.lists(_SMALL_NUMBERS, max_size=2) | st.text(max_size=2)),
), max_size=4)
_BASE_DEGREES = st.sampled_from([
    {"kind": "regular", "n": 4, "d": 3},
    {"kind": "subpower", "n": 40, "gamma": 3.5, "c": 1.0, "target_nu": 0.9},
    {"kind": "explicit", "degrees": [2, 2, 1, 1]},
])


@given(mode=st.sampled_from(MODES), degrees=_BASE_DEGREES, edits=_EDITS)
@settings(max_examples=100, deadline=None)
def test_any_config_exits_cleanly(tmp_path_factory, mode, degrees, edits):
    tmp = tmp_path_factory.mktemp("fuzz")
    data = {
        "mode": mode, "replicates": 3, "seed": 1, "degrees": dict(degrees),
        "grid": {"gammas": [4.5], "sizes": [40], "target_nu": 0.9},
        "tolerances": {},
    }
    for section, key, value in edits:
        if section is None:
            data[key] = value
        elif isinstance(data.get(section), dict):
            data[section][key] = value
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(data))
    for argv in (["describe", "-c", str(cfg)],
                 ["run", "-c", str(cfg), "--workers", "1", "-o", str(tmp / "out")]):
        assert _exit_code(argv) in (0, 1, 2)


_TOKENS = (st.integers(-3, 40).map(str)
           | st.sampled_from(["", " ", "\t", "x", "1.5", "-", "2e1", "\u0663"])
           | st.text(max_size=3))


@given(lines=st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=4))
@settings(max_examples=100, deadline=None)
def test_any_degree_file_exits_cleanly(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "degrees.txt"
    path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "poisson_check", "replicates": 2, "output_dir": str(tmp / "out"),
        "degrees": {"kind": "file", "path": str(path)},
    }))
    for argv in (["validate", str(path)],
                 ["validate", str(path), "--gamma", "3.5", "--c", "1.0"],
                 ["run", "-c", str(cfg), "--workers", "1"]):
        assert _exit_code(argv) in (0, 1, 2)


# SHA-256 of every artifact of four small runs, one per harness mode.  A
# change that keeps each replicate's random draws must keep these bytes; one
# that changes RNG consumption must update them deliberately.  So must a
# deliberate change to the config echo (which the file names hash) or to the
# verdicts, though the CSV digests then stay as they were.
DIGEST_CONFIGS = [
    {"mode": "poisson_check", "replicates": 60, "seed": 21,
     "degrees": {"kind": "regular", "n": 300, "d": 3}},
    # gamma 3.5 fails to build at n = 300 and 1000 for this target, so the
    # error cells are pinned too
    {"mode": "scaling", "replicates": 8, "seed": 22,
     "grid": {"gammas": [4.5, 3.5], "sizes": [1000, 100, 300],
              "target_nu": 0.2}},
    {"mode": "trajectory", "replicates": 6, "seed": 23,
     "degrees": {"kind": "subpower", "n": 2000, "gamma": 3.5,
                 "c": 1.0, "target_nu": 0.9}},
    {"mode": "oracle_validation", "replicates": 300, "seed": 24,
     "degrees": {"kind": "explicit", "degrees": [2, 2, 1, 1]}},
]

ARTIFACT_DIGESTS = {
    "poisson_check_cb27c520cb2807c2_seed21.csv":
        "c709f6a200baab3be57a410683ac639609ad1b6f0034547599d0d0343375d709",
    "poisson_check_cb27c520cb2807c2_seed21.json":
        "c8fccc915bd40fe1e6d890977c4c8957c932d11918e4a3038c7827bc269c424a",
    "scaling_f4acd952c550c449_seed22.csv":
        "24ade44417e87a69d92022924689686dd8eba8bba97ba1da28907969fc176b23",
    "scaling_f4acd952c550c449_seed22.json":
        "d2587d6741d54e57fe69b8c72fea3d565bf618e62f57a9b66e1c322a5f6fd7eb",
    "trajectory_9ff77a47a9d7b58a_seed23.csv":
        "53537b5efcb40a2fb2c19ae6ffbee030626d5c592f6171073b3715e953f59a34",
    "trajectory_9ff77a47a9d7b58a_seed23.json":
        "912ff5757798d63012e9eec2bd80bb261f5d1985b0b82b5928be420ebdaf0987",
    "oracle_validation_2f84702608edf8db_seed24.csv":
        "b545463a2dbcbacec8a667266f2089d00b9f5c0bd3dc62fc5610d69bcb24ac76",
    "oracle_validation_2f84702608edf8db_seed24.json":
        "7d13d9404db938b93d29ee86cab6c6e43ce6afd9278723530d428440674e9496",
}


def _digests(tmp_path, workers: int) -> dict[str, str]:
    got = {}
    for data in DIGEST_CONFIGS:
        summary = run(ExperimentConfig.from_dict(
            {**data, "workers": workers,
             "output_dir": str(tmp_path / data["mode"])}))
        for artifact in summary.artifacts:
            path = Path(artifact)
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


def test_artifact_digests(tmp_path):
    assert _digests(tmp_path, workers=1) == ARTIFACT_DIGESTS


def test_artifact_digests_through_pool(tmp_path, monkeypatch):
    # every mode through the process pool, scaling's error cells included
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    assert _digests(tmp_path, workers=2) == ARTIFACT_DIGESTS


def test_pool_takes_over_partway_through_a_task(tmp_path, monkeypatch, caplog):
    # a clock that ticks once a read: the parent runs 3 replicates, then
    # hands the rest to the pool; poisson and oracle have 8 tasks of 8 and
    # 38 replicates, so their first task goes over cut short
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 2.5)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    assert _digests(tmp_path, workers=2) == ARTIFACT_DIGESTS
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("replicates:")] == [
        "replicates: 3 in the parent, 8 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 29 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 3 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 8 tasks to a pool of 2 workers",
    ]


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was started")


_SMALL_POISSON = {"mode": "poisson_check", "replicates": 4, "seed": 5,
                  "degrees": {"kind": "regular", "n": 50, "d": 3}}


def test_run_within_budget_starts_no_pool(tmp_path, monkeypatch):
    # four replicates of well under a millisecond each fit the pool's
    # start-up cost, so a 2-worker run does them in the parent
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    blobs = []
    for workers in (1, 2):
        summary = run(ExperimentConfig.from_dict(
            {**_SMALL_POISSON, "workers": workers,
             "output_dir": str(tmp_path / f"w{workers}")}))
        blobs.append([Path(a).read_bytes() for a in summary.artifacts])
    assert blobs[0] == blobs[1]


def test_one_worker_never_starts_a_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    run(ExperimentConfig.from_dict(
        {**_SMALL_POISSON, "workers": 1, "output_dir": str(tmp_path)}))


@pytest.mark.parametrize("budget, message", [
    (None, "replicates: 4 in the parent, serial"),
    (0, "replicates: 1 in the parent, 3 tasks to a pool of 2 workers"),
])
def test_dispatch_path_is_logged(tmp_path, monkeypatch, caplog, budget, message):
    if budget is not None:
        monkeypatch.setattr(pairlab.harness, "_POOL_START_S", budget)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    run(ExperimentConfig.from_dict(
        {**_SMALL_POISSON, "workers": 2, "output_dir": str(tmp_path)}))
    assert message in [r.getMessage() for r in caplog.records]


# The import rule: a path that samples nothing loads no numpy.  Config
# checks, describe and validate read only the degree model; the samplers and
# numpy load on a run's first replicate, on first access to their names, or
# before the process forks.
def _subpower_file(tmp_path) -> str:
    path = tmp_path / "degrees.txt"
    write_degree_file(build_subpower_sequence(2000, 3.5, 1.0, 0.9), path)
    return str(path)


@pytest.mark.parametrize("config", DIGEST_CONFIGS, ids=lambda c: c["mode"])
def test_describe_loads_no_numpy(tmp_path, config):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    codes, mods = _cli_modules(tmp_path,
                               [["describe", "-c", str(tmp_path / "cfg.json")]])
    assert codes == [0]
    assert "numpy" not in mods


@pytest.mark.parametrize("flags", [[], ["--gamma", "3.5", "--c", "1.0"]],
                         ids=["bare", "subpower"])
def test_validate_loads_no_numpy(tmp_path, flags):
    codes, mods = _cli_modules(tmp_path,
                               [["validate", _subpower_file(tmp_path), *flags]])
    assert codes == [0]
    assert "numpy" not in mods


def test_malformed_config_loads_no_numpy(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"mode": "poisson_check", "degrees": {"kind": "regular", "n": 10}}))
    codes, mods = _cli_modules(tmp_path, [["run", "-c", str(tmp_path / "cfg.json")]])
    assert codes == [2]  # degrees.d: required
    assert "numpy" not in mods


@pytest.mark.parametrize("statement", [
    "import pairlab",
    "from pairlab import DegreeSequence, build_subpower_sequence, nu",
])
def test_degree_model_names_load_no_numpy(tmp_path, statement):
    mods = _fresh(tmp_path, f"""
        {statement}
        from pairlab import empirical_distribution
        from pairlab import build_subpower_sequence as build
        assert 0 < empirical_distribution(build(2000, 3.5, 1.0, 0.9)).d_bar
        result = sorted(sys.modules)
    """)
    assert "numpy" not in mods


def test_run_loads_numpy_itself(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"mode": "poisson_check", "replicates": 3, "seed": 5,
         "degrees": {"kind": "regular", "n": 50, "d": 3}}))
    before, codes, after = _fresh(tmp_path, """
        from pairlab.cli import main
        before = "numpy" in sys.modules
        codes = [main(["run", "-c", str(out / "cfg.json"), "-o", str(out)])]
        result = [before, codes, "numpy" in sys.modules]
    """)
    assert codes in ([0], [1])  # ran to verdicts
    assert (before, after) == (False, True)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_inherits_the_sampling_layers(tmp_path):
    # a fork pool's workers must not each import numpy again: the parent
    # loads the sampling layers before it forks
    before, child_code = _fresh(tmp_path, """
        import os
        from pairlab import DegreeSequence
        before = "numpy" in sys.modules
        pid = os.fork()
        if pid == 0:
            inherited = {"numpy", "pairlab.exploration", "pairlab.rng"} <= set(sys.modules)
            os._exit(0 if inherited else 1)
        result = [before, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])]
    """)
    assert (before, child_code) == (False, 0)


def _package_probe(tmp_path) -> dict:
    """In a fresh interpreter: the pairlab modules that ``import pairlab``
    loads, the error an unknown name raises, ``dir(pairlab)``, and for each
    exported name the module defining the object it resolves to."""
    return _fresh(tmp_path, """
        import pairlab

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "pairlab")

        eager = loaded()
        try:
            pairlab.no_such_name
            unknown = None
        except AttributeError as exc:
            unknown = str(exc)
        after_unknown = loaded()
        listed = dir(pairlab)
        defined = {}
        for name in pairlab.__all__:
            value = getattr(pairlab, name)
            module = getattr(value, "__module__", "pairlab")
            home = sys.modules[module]
            defined[name] = module if getattr(home, name) is value else None
        result = {"eager": eager, "unknown": unknown, "after_unknown": after_unknown,
                  "dir": listed, "defined": defined}
    """)


def test_package_names_resolve_to_their_modules(tmp_path):
    probe = _package_probe(tmp_path)
    assert probe["eager"] == ["pairlab", "pairlab.degree_model"]
    assert set(pairlab.__all__) <= set(probe["dir"])
    assert probe["defined"]["__version__"] == "pairlab"
    assert probe["defined"]["DegreeSequence"] == "pairlab.degree_model"
    assert probe["defined"]["substream"] == "pairlab.rng"
    assert probe["defined"]["PointSpace"] == "pairlab.pairing"
    assert probe["defined"]["explore_component"] == "pairlab.exploration"
    assert None not in probe["defined"].values()
    for name in pairlab.__all__:  # and in this interpreter too
        assert getattr(pairlab, name) is getattr(
            sys.modules[probe["defined"][name]], name)


def test_unknown_package_name_raises_attribute_error(tmp_path):
    probe = _package_probe(tmp_path)
    assert probe["unknown"] == "module 'pairlab' has no attribute 'no_such_name'"
    assert probe["after_unknown"] == probe["eager"] == ["pairlab", "pairlab.degree_model"]
    with pytest.raises(AttributeError, match="no_such_name"):
        pairlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from pairlab import no_such_name  # noqa: F401
