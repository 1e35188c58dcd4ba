import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import math
import os
import pickle
import re
import signal
import statistics
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairlab
import pairlab.harness
from pairlab.cli import main as cli_main
from pairlab.degree_model import DegreeSequence, build_subpower_sequence
from pairlab.harness import (
    DEFAULT_TOLERANCES,
    MODES,
    ConfigError,
    ExperimentConfig,
    RunSummary,
    describe,
    resolve_degrees,
    run,
    validate_degree_file,
)

from degree_files import write_degree_file


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a 2-worker pool is not capped to fewer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


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

    def test_every_field_has_a_check(self):
        assert list(pairlab.harness._CONFIG_FIELDS) == [
            f.name for f in dataclasses.fields(ExperimentConfig)]

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

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "regular", "n": 6}, r"degrees\.d: required$"),
        ({"kind": "regular", "n": 6.7, "d": 3}, r"degrees\.n: must be an integer"),
        ({"kind": "explicit", "degrees": [2.9, 2]}, r"degrees\.degrees: "),
        # 8e18 bytes of tuple: the allocation fails before memory is touched
        ({"kind": "regular", "n": 10**18, "d": 3},
         r"degrees: too large to hold in memory$"),
        (None, r"degrees: must be an object, got None$"),
        ([3, 3], r"degrees: must be an object, got \[3, 3\]$"),
        ("regular", r"degrees: must be an object, got 'regular'$"),
    ])
    def test_refused_spec_names_field(self, spec, message):
        with pytest.raises(ConfigError, match="^" + message):
            resolve_degrees(spec)

    def test_integer_c_prints_as_float_in_grid_errors(self, tmp_path):
        # the degree model prints c, and a grid cell's error is an artifact
        summary = run(make_config(tmp_path, mode="scaling", grid={
            "gammas": [3.5], "sizes": [300, 1000], "target_nu": 0.2, "c": 1}))
        assert len(summary.cells) == 2
        for cell in summary.cells:
            assert cell["error"].startswith("no scale in (0, 1.0] ")


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

    @pytest.mark.parametrize("degrees", [
        {"kind": "regular", "n": 100, "d": 3},
        {"kind": "explicit", "degrees": [3, 1, 1, 1]},
    ])
    def test_memory_estimate_counts_the_projection_arrays(self, tmp_path, degrees):
        # int64 pairs, int32 core map, int32 gathered labels
        report = describe(make_config(tmp_path, degrees=degrees))
        assert report["memory_estimate_bytes"] == report["two_m"] * 16

    def test_scaling_describes_first_cell_that_builds(self, tmp_path, capsys):
        # the largest n at the smallest gamma (3.5) fails for this target;
        # n = 1000 at gamma = 4.5 builds, as it does in ``run``
        (scaling,) = [c for c in DIGEST_CONFIGS if c["mode"] == "scaling"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(scaling))
        assert cli_main(["describe", "-c", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 1000
        # the cell's gamma and the grid's default c: 1000 ** (1 / 4.5) = 4.6
        assert report["max_degree"] == report["degree_cap"] == 4

    @pytest.mark.parametrize("degrees,cap", [
        # 11 ** (1 / 3.5) = 1.98: the cap is 1, and parity repair adds a 2
        ({"kind": "subpower", "n": 11, "gamma": 3.5, "target_nu": 0.9}, 1),
        ({"kind": "explicit", "degrees": [3, 1, 1, 1]}, None),
    ])
    def test_degree_cap_comes_from_the_spec(self, tmp_path, degrees, cap):
        report = describe(make_config(tmp_path, degrees=degrees))
        assert report.get("degree_cap") == cap

    def test_too_large_grid_cells_are_refused(self, tmp_path, capsys):
        # n = 1e18 at gamma 60 (cap 1) asks for 8e18 bytes of degree-1
        # filler, and 1e20 cannot be indexed: both fail before any memory
        # is touched
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scaling", "output_dir": str(tmp_path / "out"),
            "grid": {"gammas": [60], "sizes": [10**18, 10**20]}}))
        assert cli_main(["run", "-c", str(cfg)]) == 1
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert [cell["error"] for cell in cells] == [
            "too large to hold in memory",
            "cannot fit 'int' into an index-sized integer"]
        assert cli_main(["describe", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: grid: cannot fit 'int' into an index-sized integer\n")

    @pytest.mark.parametrize("grid,message", [
        # the degree list is allocated at its final size, 8e15 bytes, so the
        # build fails before it fills any memory
        ({"gammas": [10], "sizes": [10**15]},
         "error: grid: too large to hold in memory\n"),
        # the envelope is checked on the histogram, before any degree list
        ({"gammas": [3.5], "c": 0.5, "sizes": [3 * 10**8]},
         "vertices of degree 1 exceed the envelope"),
    ])
    def test_huge_grid_cell_is_refused_in_little_memory(self, tmp_path, grid,
                                                        message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "scaling", "grid": grid}))
        code, peak_mib, err = _limited_cli(tmp_path, ["describe", "-c", str(cfg)])
        assert code == 2
        assert message in err
        assert peak_mib < 100

    def test_scaling_grid_that_never_builds_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scaling",
            "grid": {"gammas": [3.5], "sizes": [300, 1000], "target_nu": 0.2},
        }))
        assert cli_main(["describe", "-c", str(cfg)]) == 2
        assert "error: grid: no scale" in capsys.readouterr().err

    def test_underflowing_p_simple_prints_strict_json(self, tmp_path, capsys):
        # nu = 999: P(simple) underflows to 0, and 1 / 0 has no JSON form
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "poisson_check",
            "degrees": {"kind": "explicit", "degrees": [1000, 1000]},
        }))
        assert cli_main(["describe", "-c", str(cfg)]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["predicted_p_simple"] == 0.0
        assert report["predicted_attempts"] is None

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

    @pytest.mark.parametrize("kernel", ["_project", "_largest"])
    def test_kernel_builds_no_point_to_label_map(self, kernel):
        # with degree-1 vertices a kernel places the core labels by slot:
        # the 2m-long ``core`` map is never built
        seq = build_subpower_sequence(2000, 3.5, 1.0, 0.9)
        assert seq.n_core < seq.n
        getattr(pairlab.harness, kernel)(seq, np.random.default_rng(0))
        maps = {"core", "core_degrees", "core_labels"} & set(vars(seq))
        assert maps == {"core_degrees", "core_labels"}

    @pytest.mark.parametrize("n", [2000, 100_000])
    def test_poisson_kernel_is_the_public_projection(self, n):
        # on a sequence with degree-1 vertices the kernel draws only the
        # core's slots; all four columns must match the public path
        from pairlab.harness import _project
        from pairlab.pairing import project_components, sample_pairing
        from pairlab.rng import substream

        seq = build_subpower_sequence(n, 3.5, 1.0, 0.9)
        assert seq.n_core < seq.n
        reports = [project_components(sample_pairing(seq, substream(6, 0, rep)))
                   for rep in range(20)]
        assert [_project(seq, substream(6, 0, rep)) for rep in range(20)] == [
            (r.loops, r.parallel_pairs, int(r.simple), r.largest) for r in reports]
        assert any(r.loops or r.parallel_pairs for r in reports)

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

    def test_trajectory_memory_grows_by_the_degrees_alone(self, tmp_path):
        # from n = 1e3 to 1e6 a run adds the degree tuple (8 MB) and the
        # exploration's two flag arrays (2.3 MB), but no per-vertex table
        peaks = []
        for n in (10**3, 10**6):
            cfg = tmp_path / f"n{n}.json"
            cfg.write_text(json.dumps({
                "mode": "trajectory", "replicates": 2,
                "output_dir": str(tmp_path / f"out{n}"),
                "degrees": {"kind": "subpower", "n": n, "gamma": 3.5,
                            "target_nu": 0.9}}))
            code, peak_mib, err = _limited_cli(tmp_path, ["run", "-c", str(cfg)])
            assert code in (0, 1), err  # a verdict may fail at 2 replicates
            peaks.append(peak_mib)
        assert peaks[1] - peaks[0] < 20

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

    def test_repeated_grid_values_repeat_their_cells(self, tmp_path):
        # gamma-major over the sorted lists with each repeat in place, so a
        # cell's index, and with it its substreams, follows the grid as given
        summary, _ = scaling_run(tmp_path, [4.5, 3.5, 4.5], [1000, 300, 1000], 2,
                                 seed=5)
        assert [(c["gamma"], c["n"]) for c in summary.cells] == [
            (g, n) for g in (3.5, 4.5, 4.5) for n in (300, 1000, 1000)]
        assert [v.name for v in summary.verdicts if v.name.startswith("q95")] == [
            "q95_factor[gamma=3.5]", "q95_factor[gamma=4.5]", "q95_factor[gamma=4.5]"]

    def test_max_degree_monotone_in_n(self, tmp_path):
        summary, _ = scaling_run(tmp_path, [4.0], [500, 2000, 8000], 3, seed=1)
        caps = [c["max_degree_ratio"] * c["n"] ** (1 / c["gamma"])
                for c in summary.cells]
        assert len(caps) == 3 and caps == sorted(caps)

    @pytest.mark.parametrize("gamma,n", [(3.5, 1000), (3.5, 10_000),
                                         (3.5, 100_000), (4.5, 1000),
                                         (4.5, 10_000), (4.5, 100_000)])
    def test_kernel_is_the_largest_of_the_public_projection(self, gamma, n):
        # the scaling kernel draws only the core's slots; the replay through
        # ``sample_pairing`` and ``project_components`` must agree with it
        from pairlab.harness import _largest
        from pairlab.pairing import project_components, sample_pairing
        from pairlab.rng import substream

        seq = build_subpower_sequence(n, gamma, 1.0, 0.9)
        kernel = [_largest(seq, substream(5, 1, rep)) for rep in range(20)]
        assert kernel == [
            project_components(sample_pairing(seq, substream(5, 1, rep))).largest
            for rep in range(20)
        ]

    def test_rows_replay_through_the_public_sampler(self, tmp_path):
        # the rows as a replay rebuilds them: each cell's sequence through
        # ``PointSpace``, ``sample_pairing`` and ``project_components``
        from pairlab.pairing import PointSpace, project_components, sample_pairing
        from pairlab.rng import substream

        summary, records = scaling_run(tmp_path, [4.5, 3.5], [300, 1000], 6, seed=17)
        cells = [(g, n) for g in (3.5, 4.5) for n in (300, 1000)]
        assert [(c["gamma"], c["n"]) for c in summary.cells] == cells
        replayed = []
        for cell_index, (gamma, n) in enumerate(cells):
            space = PointSpace.from_degree_sequence(
                build_subpower_sequence(n, gamma, 1.0, 0.9))
            scale = n ** (1.0 / gamma) * math.log(n)
            for rep in range(6):
                largest = project_components(sample_pairing(
                    space, substream(17, cell_index, rep))).largest
                replayed.append([gamma, n, rep, largest, largest / scale])
        assert [[float(r["gamma"]), int(r["n"]), int(r["replicate"]),
                 int(r["largest"]), float(r["normalized"])]
                for r in records] == replayed

    @pytest.mark.usefixtures("two_cpus")
    def test_pool_tasks_carry_no_sequence(self, tmp_path, monkeypatch):
        # the worker inherits the sequences through the fork; a task is a
        # one-byte range number written to the queue pipe, and what comes
        # back is the pickle of the worker's results
        monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
        writes, result_bytes = [], []
        write, loads = os.write, pickle.loads
        monkeypatch.setattr(os, "write",
                            lambda fd, data: writes.append(bytes(data)) or write(fd, data))
        monkeypatch.setattr(pickle, "loads",
                            lambda data: result_bytes.append(len(data)) or loads(data))
        seq = build_subpower_sequence(100_000, 3.5, 1.0, 0.9)
        assert len(pickle.dumps(seq)) > 100_000
        summary = run(ExperimentConfig.from_dict({
            "mode": "scaling", "replicates": 4, "seed": 3, "workers": 2,
            "output_dir": str(tmp_path / "out"),
            "grid": {"gammas": [3.5], "sizes": [100_000]},
        }))
        assert "error" not in summary.cells[0]
        # four one-replicate tasks; the parent runs the first, and the queue
        # holds the other three, each a one-byte range number
        assert writes == [bytes([0, 1, 2])]
        assert len(result_bytes) == 1 and max(result_bytes) < 1024


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
        # the oracle would check all 15!! = 2,027,025 pairings for simplicity
        ({"tolerances": {"enumeration_cap": 8}}, "tolerances.enumeration_cap"),
        # no degree to track, so no verdict
        ({"tolerances": {"trajectory_j_max": 0}}, "tolerances.trajectory_j_max"),
        ({"tolerances": {"enumeration_cap": 0}}, "tolerances.enumeration_cap"),
        ({"tolerances": {"sigma": -1.0}}, "tolerances.sigma"),
        ({"tolerances": {"abs_tol_simple": -0.01}}, "tolerances.abs_tol_simple"),
        # m = 4 is over a valid cap of 3: refused by the oracle, not the parser
        ({"mode": "oracle_validation",
          "degrees": {"kind": "explicit", "degrees": [2, 2, 2, 2]},
          "tolerances": {"enumeration_cap": 3}}, "tolerances.enumeration_cap"),
        # a typo of a top-level field would otherwise run with its default
        ({"replicate": 100}, "replicate"),
        # a section the mode does not read is still echoed and hashed
        ({"mode": "scaling", "grid": {"gammas": [3.5], "sizes": [100]},
          "degrees": 5}, "degrees"),
        ({"grid": 5}, "grid"),
        # well-typed degrees that the degree model refuses
        ({"degrees": {"kind": "explicit", "degrees": []}}, "degrees"),
        ({"degrees": {"kind": "regular", "n": 3, "d": 3}}, "degrees"),
        ({"degrees": {"kind": "subpower", "n": 100, "gamma": 2.5,
                      "target_nu": 0.9}}, "degrees"),
        ({"degrees": {"kind": "regular", "n": -5, "d": 3}}, "degrees"),
        # a grid none of whose cells builds
        ({"mode": "scaling", "grid": {"gammas": [2.5], "sizes": [100]}}, "grid"),
        # too many vertices to index: an OverflowError, not a ValueError
        ({"degrees": {"kind": "regular", "n": 10**20, "d": 2}}, "degrees"),
        # too large to hold: a MemoryError, whose message is empty
        ({"degrees": {"kind": "regular", "n": 10**18, "d": 3}}, "degrees"),
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
        # a scaling run records each cell that does not build and exits 1
        scaling_grid = (overrides.get("mode"), field) == ("scaling", "grid")
        commands = ["describe"] if scaling_grid else ["run", "describe"]
        for command in commands:
            assert cli_main([command, "-c", str(cfg)]) == 2
            # the message opens with the field
            assert f"error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # a refused run writes nothing

    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        deg = tmp_path / "bad.deg"
        deg.write_bytes(b"2\n1 1\xff\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "poisson_check", "output_dir": str(tmp_path / "out"),
            "degrees": {"kind": "file", "path": str(deg)}}))
        for argv, prefix in [
            (["run", "-c", str(bad)], f"{bad}: "),
            (["describe", "-c", str(bad)], f"{bad}: "),
            (["validate", str(deg)], f"{deg}: "),
            (["validate", str(deg), "--gamma", "3.5", "--c", "1"], f"{deg}: "),
            (["run", "-c", str(cfg)], f"degrees: {deg}: "),
            (["describe", "-c", str(cfg)], f"degrees: {deg}: "),
        ]:
            assert cli_main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {prefix}'utf-8' codec")

    def test_deeply_nested_config_names_the_file(self, tmp_path, capsys):
        # deeper than the JSON decoder can recurse
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mode": "poisson_check", "degrees": '
                       + "[" * 100_000 + "]" * 100_000 + "}")
        for command in ("run", "describe"):
            assert cli_main([command, "-c", str(cfg)]) == 2
            assert f"error: {cfg}: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["poisson_check", "trajectory"])
    def test_kernel_allocation_failure_exits_two(self, tmp_path, mode):
        # 2m = 3e9 points: the sequence builds, but a replicate's per-point
        # arrays do not fit in the child's 1.5 GiB
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": mode, "output_dir": str(tmp_path / "out"),
            "degrees": {"kind": "explicit", "degrees": [3_000_000_000, 2]}}))
        code, _, err = _limited_cli(tmp_path, ["run", "-c", str(cfg)])
        assert (code, err) == (2, "error: degrees: too large to hold in memory\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scaling_kernel_allocation_failure_names_its_cell(
            self, tmp_path, capsys, monkeypatch, workers):
        # only the cell of n = 600 fails; a pool must carry its name back too
        def kernel(seq, rng):
            if seq.n == 600:
                raise MemoryError
            return 1

        monkeypatch.setattr(pairlab.harness, "_largest", kernel)
        monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scaling", "output_dir": str(tmp_path / "out"),
            "replicates": 40, "workers": workers,
            "grid": {"gammas": [3.5, 4.5], "sizes": [400, 600]}}))
        assert cli_main(["run", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: grid[gamma=3.5,n=600]: too large to hold in memory\n")
        assert not (tmp_path / "out").exists()

    def test_memory_error_outside_a_kernel_is_not_a_size_refusal(
            self, tmp_path, monkeypatch):
        def median(values):
            raise MemoryError

        monkeypatch.setattr(pairlab.harness.statistics, "median", median)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectory", "output_dir": str(tmp_path / "out"),
            "replicates": 2, "degrees": {"kind": "regular", "n": 10, "d": 3}}))
        with pytest.raises(MemoryError):
            cli_main(["run", "-c", str(cfg)])

    @pytest.mark.parametrize("degrees", [
        {"kind": "explicit", "degrees": [2**63, 2]},
        {"kind": "regular", "n": 2, "d": 2**63}])
    def test_point_count_past_int64_names_degrees(self, tmp_path, capsys, degrees):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "trajectory", "output_dir": str(tmp_path / "out"),
            "degrees": degrees}))
        for command in ("describe", "run"):
            assert cli_main([command, "-c", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: degrees: sum of degrees ")
            assert err.endswith(" reaches 2**63, past int64\n")
        assert not (tmp_path / "out").exists()
        if degrees["kind"] == "explicit":
            deg = tmp_path / "big.deg"
            deg.write_text(f"2\n{2**63} 2\n")
            assert cli_main(["validate", str(deg)]) == 2
            assert capsys.readouterr().err.endswith(" reaches 2**63, past int64\n")


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


def _limited_cli(tmp_path, argv: list[str]) -> tuple[int, float, str]:
    """Exit code, peak resident set in MiB and stderr of ``pairlab`` on
    ``argv``, run in a child process limited to 1.5 GiB of address space.

    A child's peak resident set starts from its parent's at the fork, so a
    fresh interpreter, not the test process, forks the CLI and reads its peak.
    """
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not hasattr(os, "wait4"):
        pytest.skip("needs RLIMIT_AS and os.wait4")
    (tmp_path / "argv.json").write_text(json.dumps(argv))
    code, maxrss, err = _fresh(tmp_path, """
        import os, resource
        argv = json.loads((out / "argv.json").read_text())
        pid = os.fork()
        if pid == 0:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(os.open(out / "err.txt", os.O_WRONLY | os.O_CREAT), 2)
            resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))
            os.execv(sys.executable, [sys.executable, "-m", "pairlab.cli", *argv])
        _, status, usage = os.wait4(pid, 0)
        result = [os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                  (out / "err.txt").read_text()]
    """)
    # ru_maxrss counts KiB, but bytes on macOS
    return code, maxrss / (2**20 if sys.platform == "darwin" else 2**10), err


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
    # nor the sampler, whose module a process would compile for nothing
    assert [m for m in mods if m.split(".")[0] in ("multiprocessing", "concurrent")
            or m in ("numpy.ma", "pairlab.pairing") or m.startswith("numpy.ma.")] == []


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


def test_oracle_memory_does_not_grow_with_pairing_count(tmp_path):
    # the enumeration is streamed and draws are counted by index, so an
    # m = 6 run (10,395 pairings) allocates far less than one object per
    # pairing would; the modules it loads are imported before tracing
    import tracemalloc

    import scipy.stats  # noqa: F401
    import pairlab.pairing  # noqa: F401
    import pairlab.rng  # noqa: F401

    config = make_config(tmp_path, mode="oracle_validation", replicates=2000,
                         degrees={"kind": "explicit", "degrees": [2] * 6})
    tracemalloc.start()
    try:
        summary = run(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.cells[0]["n_pairings"] == 10_395
    assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_oracle_counts_only_perfect_matchings(tmp_path, monkeypatch):
    # a decoder that repeats a point in one row yields a row that is no
    # pairing; the pairing_count verdict must see it
    import pairlab.pairing

    decode = pairlab.pairing.pairing_blocks

    def broken(seq):
        for block in decode(seq):
            block = block.copy()
            block[0, 0, 1] = block[0, 0, 0]
            yield block

    config = make_config(tmp_path, mode="oracle_validation", replicates=300,
                         degrees={"kind": "explicit", "degrees": [2, 2, 1, 1]})
    assert run(config).passed
    monkeypatch.setattr(pairlab.pairing, "pairing_blocks", broken)
    summary = run(config)
    (count,) = [v for v in summary.verdicts if v.name == "pairing_count"]
    assert not count.passed and (count.value, count.target) == (14, 15)
    assert summary.cells[0]["count"] == 14 and not summary.passed


def test_oracle_refuses_a_single_pairing(tmp_path, capsys):
    # m = 1 has one pairing: its chi-square has no degree of freedom and a
    # NaN p-value, which no verdict can come from
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "oracle_validation", "replicates": 50, "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "degrees": {"kind": "explicit", "degrees": [1, 1]},
    }))
    assert cli_main(["run", "-c", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: degrees:") and "m >= 2" in err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("degrees,tolerances,field", [
    ([1, 1], {}, "degrees:"),  # m = 1: one pairing
    ([2, 2, 2, 2], {"enumeration_cap": 3}, "tolerances.enumeration_cap:"),
    ([3] * 10, {}, "tolerances.enumeration_cap:"),  # m = 15 over the default 6
])
def test_refused_oracle_run_leaves_no_output_dir(tmp_path, capsys, degrees,
                                                 tolerances, field):
    # ``describe`` refuses what ``run`` refuses
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "oracle_validation", "replicates": 50, "seed": 3,
        "output_dir": str(tmp_path / "out" / "nested"),
        "degrees": {"kind": "explicit", "degrees": degrees},
        "tolerances": tolerances,
    }))
    for command in ("run", "describe"):
        assert cli_main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("degrees,tolerances", [
    ({"kind": "regular", "n": 100, "d": 8}, {}),  # over the default 5
    ({"kind": "explicit", "degrees": [3, 3, 2, 2]}, {"trajectory_j_max": 1}),
])
def test_trajectory_with_no_degree_to_track_is_refused(tmp_path, capsys,
                                                        degrees, tolerances):
    # with no degree j <= trajectory_j_max there is no verdict, so ``run``
    # and ``describe`` refuse the config before any replicate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "trajectory", "replicates": 5, "seed": 3,
        "output_dir": str(tmp_path / "out"), "degrees": degrees,
        "tolerances": tolerances,
    }))
    for command in ("run", "describe"):
        assert cli_main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: tolerances.trajectory_j_max:")
    assert not (tmp_path / "out").exists()
    argvs = [[command, "-c", str(cfg)] for command in ("run", "describe")]
    codes, mods = _cli_modules(tmp_path, argvs)
    assert codes == [2, 2]
    assert "numpy" not in mods  # refused before any replicate


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
        "f1da57c1a4b3f1569d4712658632c7873daa2ce467ae51bd9b880f4adb5ae06d",
    "scaling_f4acd952c550c449_seed22.json":
        "645f3866c24ee233b41da393c4668ad1dbb530976a69edf8585aa43a2429525e",
    "trajectory_9ff77a47a9d7b58a_seed23.csv":
        "53537b5efcb40a2fb2c19ae6ffbee030626d5c592f6171073b3715e953f59a34",
    "trajectory_9ff77a47a9d7b58a_seed23.json":
        "912ff5757798d63012e9eec2bd80bb261f5d1985b0b82b5928be420ebdaf0987",
    "oracle_validation_2f84702608edf8db_seed24.csv":
        "73ace885b8a3a858fb8fa8c245cd7263b6cd7be120fa61c5473bdeb667016624",
    "oracle_validation_2f84702608edf8db_seed24.json":
        "848543f6d1fe6c92883963d3176559f8f5b1143bbf2e3bc793ade4f0c1dd46cd",
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


@pytest.mark.usefixtures("two_cpus")
def test_pool_takes_over_partway_through_a_task(tmp_path, monkeypatch, caplog):
    # a clock that ticks once a read: the parent runs 3 replicates, then
    # shares the rest with a forked worker in ranges of ceil(left / 256),
    # one replicate each but for the oracle's 297 left
    ranges = []
    share = pairlab.harness._share
    monkeypatch.setattr(pairlab.harness, "_share", lambda work, cut, processes: (
        ranges.append(cut) or share(work, cut, processes)))
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    # trajectory's 3 left would take 4.5 ticks, a share saves 2.25
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 2.2)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    assert _digests(tmp_path, workers=2) == ARTIFACT_DIGESTS
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("replicates:")] == [
        "replicates: 3 in the parent, 57 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 29 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 3 tasks to a pool of 2 workers",
        "replicates: 3 in the parent, 149 tasks to a pool of 2 workers",
    ]
    _, scaling, _, oracle = ranges
    # scaling's 29 left of 4 cells of 8, in queue order across the cells
    assert scaling == [(i, i + 1) for i in range(3, 32)]
    assert oracle[0] == (3, 5) and oracle[-1] == (299, 300)
    # past 256 left a range holds more than one replicate, and one may
    # span two cells: 3 cells of 100, shared after 3 replicates
    monkeypatch.setattr(pairlab.harness, "_share", lambda work, cut, processes: (
        ranges.append(cut) or [0] * 297))
    seq = DegreeSequence.from_runs([(3, 4)])
    pairlab.harness._replicates(lambda seq, rng: 0, [(k, seq) for k in range(3)],
                                1, 100, 2)
    assert ranges[-1][0] == (3, 5) and ranges[-1][-1] == (299, 300)
    assert any(lo // 100 != (hi - 1) // 100 for lo, hi in ranges[-1])


def _no_fork():
    raise AssertionError("a worker was forked")


_SMALL_POISSON = {"mode": "poisson_check", "replicates": 4, "seed": 5,
                  "degrees": {"kind": "regular", "n": 50, "d": 3}}


def test_run_within_budget_starts_no_pool(tmp_path, monkeypatch):
    # four replicates of well under a millisecond each fit the pool's
    # start-up cost, so a 2-worker run does them in the parent
    monkeypatch.setattr(os, "fork", _no_fork)
    blobs = []
    for workers in (1, 2):
        summary = run(ExperimentConfig.from_dict(
            {**_SMALL_POISSON, "workers": workers,
             "output_dir": str(tmp_path / f"w{workers}")}))
        blobs.append([Path(a).read_bytes() for a in summary.artifacts])
    assert blobs[0] == blobs[1]


def test_one_worker_never_starts_a_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    run(ExperimentConfig.from_dict(
        {**_SMALL_POISSON, "workers": 1, "output_dir": str(tmp_path)}))


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["sched_getaffinity", "cpu_count"])
def test_pool_asks_for_no_more_processes_than_cpus(tmp_path, monkeypatch,
                                                   affinity):
    # a share forks every worker it is sized for at once; this stand-in
    # for the share records its size and runs the ranges in this process,
    # and no worker is forked
    asked = []

    def in_process(work, ranges, processes):
        asked.append(processes)
        return [pairlab.harness._replicate(work, i)
                for lo, hi in ranges for i in range(lo, hi)]

    monkeypatch.setattr(pairlab.harness, "_share", in_process)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SMALL_POISSON, "replicates": 100}))
    blobs = []
    for workers in ("10000", "1"):
        out = tmp_path / f"w{workers}"
        assert _exit_code(["run", "-c", str(cfg), "--workers", workers,
                           "-o", str(out)]) in (0, 1)
        blobs.append(sorted(path.read_bytes() for path in out.iterdir()))
    assert asked == [3]
    assert blobs[0] == blobs[1]


@pytest.mark.skipif(sys.platform != "linux", reason="fork is Linux's pool")
@pytest.mark.usefixtures("two_cpus")
def test_pool_starts_with_fork(tmp_path, monkeypatch):
    # ``_POOL_START_S`` was measured for forked workers, so a share of 2
    # processes must fork its one worker, whatever the interpreter's default
    # multiprocessing start method is
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    run(ExperimentConfig.from_dict(
        {**_SMALL_POISSON, "workers": 2, "output_dir": str(tmp_path)}))
    assert forks == [os.getpid()]


@pytest.mark.skipif(sys.platform != "linux", reason="fork is Linux's pool")
@pytest.mark.usefixtures("two_cpus")
def test_fork_pool_pickles_no_sequence(tmp_path, monkeypatch, caplog):
    # forked workers inherit the cells, point maps included; a pickle of a
    # sequence, in this process or a worker, goes through ``__getstate__``,
    # which notes it in a file that the workers' notes reach too
    notes = tmp_path / "pickled"
    notes.touch()
    getstate = DegreeSequence.__getstate__

    def noting(self):
        with open(notes, "a") as fh:
            fh.write(f"{self.n}\n")
        return getstate(self)

    def pickled():
        return [int(line) for line in notes.read_text().split()]

    monkeypatch.setattr(DegreeSequence, "__getstate__", noting)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    run(ExperimentConfig.from_dict({
        "mode": "scaling", "replicates": 4, "seed": 3, "workers": 2,
        "output_dir": str(tmp_path),
        "grid": {"gammas": [3.5], "sizes": [1_000, 100_000], "target_nu": 0.9},
    }))
    assert any("tasks to a pool" in r.getMessage() for r in caplog.records)
    assert pickled() == []
    pickle.dumps(DegreeSequence((1, 1)))
    assert pickled() == [2]  # the count sees a pickle


@pytest.mark.usefixtures("two_cpus")
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


def _run_on_ticking_clock(tmp_path, monkeypatch, caplog, cost: float) -> list[str]:
    """Run 8 one-replicate poisson tasks at 2 workers on a clock that ticks
    once a read, with a pool cost of ``cost`` ticks; the log, and artifacts
    that must equal a 1-worker run's."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", cost)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    blobs = []
    for workers in (1, 2):
        caplog.clear()
        summary = run(ExperimentConfig.from_dict(
            {**_SMALL_POISSON, "replicates": 8, "workers": workers,
             "output_dir": str(tmp_path / f"w{workers}")}))
        blobs.append([Path(a).read_bytes() for a in summary.artifacts])
    assert blobs[0] == blobs[1]
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith(("replicates:", "pool:"))]


@pytest.mark.usefixtures("two_cpus")
def test_saving_below_cost_starts_no_pool(tmp_path, monkeypatch, caplog):
    # the estimates after replicates 3, 4 and 5 save 3.75, 2.67 and 1.88
    # ticks, less than the share's 5.5; the window ends after 6 replicates
    # and 6 ticks: the 2 left would take 2.4 ticks, and a share of 2 saves
    # 1.2 of them
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _run_on_ticking_clock(tmp_path, monkeypatch, caplog, 5.5) == [
        "replicates: 8 in the parent, serial",
        "pool: ~2400 ms left, a pool of 2 saves ~1200 ms, costs 5500 ms",
    ]


@pytest.mark.usefixtures("two_cpus")
def test_saving_above_cost_starts_a_pool(tmp_path, monkeypatch, caplog):
    # the window ends after 3 replicates, 2 of them timed over 3 ticks: the
    # 5 left would take 7.5, and a share of 2 saves 3.75, more than its 2.5
    assert _run_on_ticking_clock(tmp_path, monkeypatch, caplog, 2.5) == [
        "replicates: 3 in the parent, 5 tasks to a pool of 2 workers",
        "pool: ~7500 ms left, a pool of 2 saves ~3750 ms, costs 2500 ms",
    ]


@pytest.mark.usefixtures("two_cpus")
def test_one_cell_run_shares_before_the_window_ends(tmp_path, monkeypatch,
                                                    caplog):
    # after 3 replicates only 3 ticks of the 3.5-tick window have passed,
    # but a one-cell run's timed replicates speak for the 5 left: they
    # would take 7.5 ticks, and a share of 2 saves 3.75, more than 3.5
    assert _run_on_ticking_clock(tmp_path, monkeypatch, caplog, 3.5) == [
        "replicates: 3 in the parent, 5 tasks to a pool of 2 workers",
        "pool: ~7500 ms left, a pool of 2 saves ~3750 ms, costs 3500 ms",
    ]


@pytest.mark.usefixtures("two_cpus")
def test_scaling_grid_waits_for_the_window(tmp_path, monkeypatch, caplog):
    # two cells of 8: after 3 replicates the estimate would already pay,
    # but small cells do not vouch for large ones, so the parent runs until
    # the 5.5-tick window ends, after 6 replicates and 6 ticks, and then
    # shares: 5 timed replicates of the n = 300 cell speak for 2 more and
    # for 8 of the n = 1000 cell, weighed by their core points
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 5.5)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    grid = {"gammas": [4.5], "sizes": [300, 1000], "target_nu": 0.9}
    small, big = (build_subpower_sequence(n, 4.5, 1.0, 0.9).n_core_points
                  for n in grid["sizes"])
    left = 6 * (2 * small + 8 * big) / (5 * small)
    blobs = []
    for workers in (1, 2):
        caplog.clear()
        summary = run(ExperimentConfig.from_dict({
            "mode": "scaling", "replicates": 8, "seed": 9, "workers": workers,
            "output_dir": str(tmp_path / f"w{workers}"), "grid": grid}))
        blobs.append([Path(a).read_bytes() for a in summary.artifacts])
    assert blobs[0] == blobs[1]
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith(("replicates:", "pool:"))] == [
        "replicates: 6 in the parent, 10 tasks to a pool of 2 workers",
        f"pool: ~{1e3 * left:.0f} ms left, a pool of 2 saves "
        f"~{1e3 * left / 2:.0f} ms, costs 5500 ms",
    ]


def test_seconds_left_scales_with_core_points():
    # the parent has run the small cell of a two-cell grid of 8 replicates a
    # cell; the big cell's replicates weigh their core points, not a
    # replicate each
    small, big = (build_subpower_sequence(n, 3.5, 1.0, 0.9)
                  for n in (1_000, 100_000))
    cells = [(0, small), (1, big)]
    ratio = big.n_core_points / small.n_core_points
    assert ratio > 50
    left = pairlab.harness._seconds_left(0.007, cells, 8, 8)
    assert left == pytest.approx(0.007 * 8 * ratio / 7)
    # a window that ends inside a cell: replicates 1-5 timed, 2 small and
    # 8 big left
    left = pairlab.harness._seconds_left(0.005, cells, 8, 6)
    assert left == pytest.approx(0.005 * (2 + 8 * ratio) / 5)
    # one cell, with a core or without: replicates left over replicates timed
    for seq in (small, DegreeSequence((1,) * 20_000)):
        assert pairlab.harness._seconds_left(0.004, [(0, seq)], 8, 5
                                             ) == pytest.approx(0.004 * 3 / 4)


@pytest.mark.usefixtures("two_cpus")
def test_zero_cost_pools_though_no_replicate_was_timed(tmp_path, monkeypatch,
                                                       caplog):
    # a clock that never moves: the window ends at once after the first
    # replicate, which is never timed, so the estimate is unknown, not 0 / 0
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    run(ExperimentConfig.from_dict(
        {**_SMALL_POISSON, "workers": 2, "output_dir": str(tmp_path)}))
    assert [r.getMessage() for r in caplog.records][:2] == [
        "replicates: 1 in the parent, 3 tasks to a pool of 2 workers",
        "pool: ~inf ms left, a pool of 2 saves ~inf ms, costs 0 ms",
    ]


def _scaling_with_kernel(tmp_path, monkeypatch, kernel) -> RunSummary:
    """A two-cell scaling grid of 8 replicates a cell, run at 2 workers with
    ``kernel`` for its largest-component kernel; the parent shares the 15
    replicates after its first, one range each."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    monkeypatch.setattr(pairlab.harness, "_largest", kernel)
    return run(ExperimentConfig.from_dict({
        "mode": "scaling", "replicates": 8, "seed": 5, "workers": 2,
        "output_dir": str(tmp_path),
        "grid": {"gammas": [4.5], "sizes": [300, 1000], "target_nu": 0.9}}))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_worker_memory_error_names_its_cell(tmp_path, monkeypatch):
    # the worker runs out of memory on the n = 1000 cell; the parent, slow
    # on each replicate, leaves it the ranges after its first
    parent = os.getpid()

    def kernel(seq, rng):
        if os.getpid() == parent:
            time.sleep(0.05)
        elif seq.n == 1000:
            raise MemoryError
        return 1

    with pytest.raises(ConfigError, match=r"^grid\[gamma=4\.5,n=1000\]: too large"):
        _scaling_with_kernel(tmp_path, monkeypatch, kernel)
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("error, raised", [
    (MemoryError, ConfigError), (KeyboardInterrupt, KeyboardInterrupt)])
def test_error_in_the_parents_share_kills_the_workers(tmp_path, monkeypatch,
                                                      error, raised):
    # the parent's second replicate, its first in the share, raises while
    # the worker sleeps in its own; the parent must kill it, not wait
    parent, calls = os.getpid(), []

    def kernel(seq, rng):
        if os.getpid() != parent:
            time.sleep(60)
        calls.append(1)
        if len(calls) == 2:
            raise error
        return 1

    start = time.monotonic()
    with pytest.raises(raised):
        _scaling_with_kernel(tmp_path, monkeypatch, kernel)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("die, status", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "killed"])
def test_worker_that_dies_without_a_result_is_an_error(tmp_path, monkeypatch,
                                                       die, status):
    parent = os.getpid()

    def kernel(seq, rng):
        if os.getpid() != parent:
            die()
        time.sleep(0.05)
        return 1

    with pytest.raises(RuntimeError,
                       match=rf"exited with status {status} without a result"):
        _scaling_with_kernel(tmp_path, monkeypatch, kernel)
    _assert_no_child_left()


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("without", ["fork", "threads"])
def test_run_is_serial_where_it_cannot_fork(tmp_path, monkeypatch, caplog,
                                            without):
    # without os.fork, or with a second thread running, which a forked
    # worker would not inherit, a run that a share would pay for is serial
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    caplog.set_level(logging.INFO, logger="pairlab.harness")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if without == "fork":
        monkeypatch.delattr(os, "fork")
    else:
        thread.start()
    try:
        blobs = []
        for workers in (1, 2):
            caplog.clear()
            summary = run(ExperimentConfig.from_dict(
                {**_SMALL_POISSON, "workers": workers,
                 "output_dir": str(tmp_path / f"w{workers}")}))
            blobs.append([Path(a).read_bytes() for a in summary.artifacts])
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith(("replicates:", "pool:"))] == [
        "replicates: 4 in the parent, serial"]
    assert blobs[0] == blobs[1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_shared_run_loads_no_multiprocessing(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({**_SMALL_POISSON, "workers": 2}))
    messages, mods = _fresh(tmp_path, """
        import logging, os
        import pairlab.harness
        from pairlab.cli import main
        os.sched_getaffinity = lambda pid: {0, 1}
        pairlab.harness._POOL_START_S = 0
        messages = []
        handler = logging.Handler()
        handler.emit = lambda record: messages.append(record.getMessage())
        logging.getLogger("pairlab.harness").addHandler(handler)
        logging.getLogger("pairlab.harness").setLevel(logging.INFO)
        main(["run", "-c", str(out / "cfg.json"), "-o", str(out)])
        result = [messages, sorted(sys.modules)]
    """)
    assert "replicates: 1 in the parent, 3 tasks to a pool of 2 workers" in messages
    assert [m for m in mods
            if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


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
    (tmp_path / "typo.json").write_text(json.dumps(
        {"mode": "poisson_check", "replicate": 100,
         "degrees": {"kind": "regular", "n": 10, "d": 3}}))
    codes, mods = _cli_modules(tmp_path, [["run", "-c", str(tmp_path / "cfg.json")],
                                          ["describe", "-c", str(tmp_path / "typo.json")]])
    assert codes == [2, 2]  # degrees.d: required; replicate: unknown field
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


def test_readme_names_only_degree_sequence_attributes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"`DegreeSequence\.(\w+)`", readme))
    assert named
    assert sorted(name for name in named if not hasattr(DegreeSequence, name)) == []


def test_readme_names_every_mode_and_degree_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [m for m in MODES if f"- `{m}` — " not in readme] == []
    assert [k for k in pairlab.harness._DEGREE_KINDS
            if f'{{"kind": "{k}", ' not in readme] == []


def test_readme_window_is_the_pool_start_cost():
    # the dispatch paragraph is the Harness + CLI bullet; each window it
    # states in ms is ``_POOL_START_S``, so a re-measure leaves none stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("- **Harness + CLI**", 1)[1].split("\n\n", 1)[0]
    windows = [float(ms) for ms in re.findall(r"(\d+(?:\.\d+)?) ms\b", bullet)]
    assert len(windows) >= 2
    assert windows == [1e3 * pairlab.harness._POOL_START_S] * len(windows)
