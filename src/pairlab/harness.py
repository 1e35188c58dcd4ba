"""Declarative experiment runner with seeded, scheduling-independent output.

A config (JSON file) picks a mode, a degree specification, a replicate count
and a seed; ``run`` executes the replicates (optionally on a process pool),
writes a records CSV plus a summary JSON, and returns pass/fail verdicts with
the tolerances that produced them.  Replicate streams come from
``substream(seed, cell_index, replicate_index)``, so artifacts are
byte-identical at any worker count.  Wall-clock time is only logged, never
kept on the summary or written to the artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .degree_model import (
    DegreeSequence,
    build_subpower_sequence,
    degree_cap,
    empirical_distribution,
    molloy_reed_sum,
    nu,
    read_degree_file,
    validate_subpower,
)
from .diagnostics import (
    poisson_limit_check,
    scaling_cell_records,
    summarize_scaling_cell,
    trajectory_deviation,
)
from .exploration import explore_component
from .pairing import (
    PointSpace,
    double_factorial_odd,
    enumerate_pairings,
    is_simple,
    predicted_simple_probability,
    project_components,
    sample_pairing,
)
from .rng import substream

log = logging.getLogger(__name__)

MODES = ("poisson_check", "scaling", "trajectory", "oracle_validation")

DEFAULT_TOLERANCES: dict[str, Any] = {
    "sigma": 3.0,
    "enumeration_cap": 6,
    "abs_tol_loops": 0.03,
    "abs_tol_parallel": 0.04,
    "abs_tol_simple": 0.01,
    "chi2_alpha": 1e-3,
    "trajectory_threshold": 0.01,
    "trajectory_j_max": 5,
    "scaling_factor": 3.0,
    "max_degree_ratio_low": 0.5,
    "max_degree_ratio_high": 1.5,
}


class ConfigError(ValueError):
    """Malformed experiment config; the message names the offending field."""


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    """A finite int or float; JSON's NaN and Infinity are refused."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
_INT_LIST = (lambda x: isinstance(x, list) and all(map(_is_int, x)),
             "a list of integers")
_NUMBER_LIST = (
    lambda x: isinstance(x, list) and len(x) > 0 and all(map(_is_number, x)),
    "a non-empty list of finite numbers",
)
_STRING = (lambda x: isinstance(x, str), "a string")
_DEGREE_FIELDS: dict[str, dict[str, tuple[Callable[[Any], bool], str]]] = {
    "regular": {"n": _INT, "d": _INT},
    "subpower": {"n": _INT, "gamma": _NUMBER, "target_nu": _NUMBER, "c": _NUMBER},
    "explicit": {"degrees": _INT_LIST},
    "file": {"path": _STRING},
}
_GRID_FIELDS = {
    "gammas": _NUMBER_LIST,
    "sizes": (lambda x: isinstance(x, list) and len(x) > 0 and all(map(_is_int, x)),
              "a non-empty list of integers"),
    "c": _NUMBER,
    "target_nu": _NUMBER,
}
# tolerances that count something; every other one is any finite number
_INT_TOLERANCES = {"enumeration_cap", "trajectory_j_max"}
# the oracle holds all (2m-1)!! pairings in memory: 135,135 at m = 7
MAX_ENUMERATION_CAP = 7


def _check_fields(
    where: str, spec: dict[str, Any], fields: dict, optional: set[str]
) -> None:
    """Raise ConfigError naming ``where.<field>`` for the first unknown,
    missing or ill-typed field of ``spec``."""
    unknown = sorted(set(spec) - set(fields))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")
    for name, (ok, what) in fields.items():
        if name not in spec and name not in optional:
            raise ConfigError(f"{where}.{name}: required")
        if name in spec and not ok(spec[name]):
            raise ConfigError(f"{where}.{name}: must be {what}, got {spec[name]!r}")


def _check_degrees(spec: Any) -> None:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("degrees: object with 'kind' required")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _DEGREE_FIELDS:
        raise ConfigError(
            f"degrees.kind: expected one of {tuple(_DEGREE_FIELDS)}, got {kind!r}"
        )
    rest = {k: v for k, v in spec.items() if k != "kind"}
    _check_fields("degrees", rest, _DEGREE_FIELDS[kind], optional={"c"})


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    replicates: int
    seed: int
    workers: int
    output_dir: str
    degrees: dict[str, Any] | None
    grid: dict[str, Any] | None
    tolerances: dict[str, Any]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        mode = data.get("mode")
        if mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")
        replicates = data.get("replicates", 1)
        if not _is_int(replicates) or replicates < 1:
            raise ConfigError("replicates: must be a positive integer")
        seed = data.get("seed", 0)
        if not _is_int(seed) or not 0 <= seed < 2**64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        workers = data.get("workers", 1)
        if not _is_int(workers) or workers < 1:
            raise ConfigError("workers: must be a positive integer")
        output_dir = data.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir: must be a string")
        degrees = data.get("degrees")
        grid = data.get("grid")
        if mode == "scaling":
            if not isinstance(grid, dict):
                raise ConfigError("grid: required for scaling mode")
            _check_fields("grid", grid, _GRID_FIELDS, optional={"c", "target_nu"})
        else:
            _check_degrees(degrees)
        tolerances = dict(DEFAULT_TOLERANCES)
        extra = data.get("tolerances", {})
        if not isinstance(extra, dict):
            raise ConfigError("tolerances: must be an object")
        for key, value in extra.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(
                    f"tolerances.{key}: unknown tolerance; "
                    f"known: {', '.join(DEFAULT_TOLERANCES)}"
                )
            if key in _INT_TOLERANCES and not _is_int(value):
                raise ConfigError(f"tolerances.{key}: must be an integer")
            if not _is_number(value):
                raise ConfigError(f"tolerances.{key}: must be a finite number")
            if key == "enumeration_cap" and value > MAX_ENUMERATION_CAP:
                raise ConfigError(
                    f"tolerances.enumeration_cap: must be at most "
                    f"{MAX_ENUMERATION_CAP}, got {value}"
                )
        tolerances.update(extra)
        return cls(
            mode=mode,
            replicates=replicates,
            seed=seed,
            workers=workers,
            output_dir=output_dir,
            degrees=degrees,
            grid=grid,
            tolerances=tolerances,
        )

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "ExperimentConfig":
        """Parse a JSON config file; ``overrides`` replace its top-level fields."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        if isinstance(data, dict):
            data.update(overrides)
        return cls.from_dict(data)

    def echo(self) -> dict[str, Any]:
        """Canonical form of the config, as written into the summary.

        Worker count and output directory are execution environment, not
        experiment identity, so they stay out of the echo and the hash.
        """
        return {
            "mode": self.mode,
            "replicates": self.replicates,
            "seed": self.seed,
            "degrees": self.degrees,
            "grid": self.grid,
            "tolerances": self.tolerances,
        }

    def hash(self) -> str:
        blob = json.dumps(self.echo(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def resolve_degrees(spec: dict[str, Any]) -> DegreeSequence:
    """Materialize a degree spec: explicit list, file, subpower, or regular."""
    kind = spec.get("kind")
    if kind == "file":
        return read_degree_file(spec["path"])
    if kind == "explicit":
        return DegreeSequence(tuple(int(d) for d in spec["degrees"]))
    if kind == "subpower":
        return build_subpower_sequence(
            int(spec["n"]),
            float(spec["gamma"]),
            float(spec.get("c", 1.0)),
            float(spec["target_nu"]),
        )
    if kind == "regular":
        n, d = int(spec["n"]), int(spec["d"])
        return DegreeSequence(tuple([d] * n))
    raise ConfigError(f"degrees.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    value: float
    target: float
    tolerance: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": self.value,
            "target": self.target,
            "tolerance": self.tolerance,
        }


@dataclass
class RunSummary:
    config: dict[str, Any]
    config_hash: str
    version: str
    cells: list[dict[str, Any]]
    verdicts: list[Verdict]
    artifacts: list[str]

    @property
    def passed(self) -> bool:
        """Every verdict passed, and there was at least one to pass."""
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def deterministic_dict(self) -> dict[str, Any]:
        """Everything but the artifact paths, which depend on the output directory."""
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "version": self.version,
            "cells": self.cells,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# chunked replicate execution (deterministic at any worker count)

def _chunks(static: tuple, replicates: int, workers: int) -> list[tuple]:
    """Tasks ``static + (reps,)``, about four per worker, whose ranges of
    replicate indices cover 0 .. replicates-1 in order."""
    chunks = max(1, min(replicates, workers * 4))
    size = math.ceil(replicates / chunks)
    return [static + (range(lo, min(lo + size, replicates)),)
            for lo in range(0, replicates, size)]


def _run_chunked(worker: Callable[..., list], tasks: list[tuple], workers: int) -> list:
    """Rows of ``worker(*task)`` for every task, concatenated in task order."""
    if workers <= 1 or len(tasks) <= 1:
        results = [worker(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, *zip(*tasks)))
    return [row for chunk in results for row in chunk]


class _PoissonRow(NamedTuple):
    """One poisson_check CSV row; also what ``poisson_limit_check`` reads."""

    replicate: int
    loops: int
    parallel_pairs: int
    simple: int
    largest: int


def _poisson_chunk(seq: DegreeSequence, seed: int, cell_index: int,
                   reps: range) -> list[_PoissonRow]:
    space = PointSpace.from_degree_sequence(seq)
    rows = []
    for rep in reps:
        rng = substream(seed, cell_index, rep)
        report = project_components(sample_pairing(space, rng))
        rows.append(_PoissonRow(rep, report.loops, report.parallel_pairs,
                                int(report.simple), report.largest))
    return rows


def _trajectory_chunk(seq: DegreeSequence, seed: int, cell_index: int, root: int,
                      j_max: int, reps: range) -> list[tuple]:
    dist = empirical_distribution(seq)
    track = sorted(j for j in dist.counts if j <= j_max)
    rows = []
    for rep in reps:
        rng = substream(seed, cell_index, rep)
        trace = explore_component(seq, root, rng, record_trace=True)
        for j in track:
            rows.append((rep, j, trajectory_deviation(trace, dist, j)))
    return rows


def _oracle_chunk(seq: DegreeSequence, seed: int, cell_index: int,
                  reps: range) -> list[tuple]:
    space = PointSpace.from_degree_sequence(seq)
    return [(rep, sample_pairing(space, substream(seed, cell_index, rep)).key())
            for rep in reps]


# ---------------------------------------------------------------------------
# mode implementations

def _run_poisson(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    seq = resolve_degrees(config.degrees)
    nu_value = nu(empirical_distribution(seq))
    rows = _run_chunked(
        _poisson_chunk,
        _chunks((seq, config.seed, 0), config.replicates, config.workers),
        config.workers,
    )
    check = poisson_limit_check(rows, nu_value, min_reports=1)
    tol = config.tolerances
    verdicts = [
        Verdict("mean_loops", abs(check.mean_loops - check.target_loops)
                <= tol["abs_tol_loops"], check.mean_loops,
                check.target_loops, tol["abs_tol_loops"]),
        Verdict("mean_parallel", abs(check.mean_parallel - check.target_parallel)
                <= tol["abs_tol_parallel"], check.mean_parallel,
                check.target_parallel, tol["abs_tol_parallel"]),
        Verdict("p_simple", abs(check.p_simple - check.target_simple)
                <= tol["abs_tol_simple"], check.p_simple,
                check.target_simple, tol["abs_tol_simple"]),
        Verdict("corr_z", abs(check.z_corr) <= tol["sigma"],
                check.z_corr, 0.0, tol["sigma"]),
    ]
    cell = {
        "nu": nu_value,
        "n": seq.n,
        "replicates": config.replicates,
        "mean_loops": check.mean_loops,
        "mean_parallel": check.mean_parallel,
        "p_simple": check.p_simple,
        "corr": check.corr,
    }
    return [list(_PoissonRow._fields)] + [list(r) for r in rows], [cell], verdicts


def _grid(grid: dict[str, Any]) -> tuple[list[float], list[int], float, float]:
    """A scaling grid's sorted gammas and sizes, its c and its target_nu."""
    return (sorted(float(g) for g in grid["gammas"]), sorted(grid["sizes"]),
            float(grid.get("c", 1.0)), float(grid.get("target_nu", 0.9)))


def _run_scaling(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    gammas, sizes, c, target_nu = _grid(config.grid)
    tol = config.tolerances
    built: list[tuple[float, int, DegreeSequence | ValueError]] = []
    tasks: list[tuple] = []
    for cell_index, (gamma, n) in enumerate((g, n) for g in gammas for n in sizes):
        try:
            seq = build_subpower_sequence(n, gamma, c, target_nu)
        except ValueError as exc:  # build failure: record, keep the grid going
            built.append((gamma, n, exc))
            continue
        built.append((gamma, n, seq))
        static = (seq, gamma, nu(empirical_distribution(seq)), config.seed, cell_index)
        tasks += _chunks(static, config.replicates, config.workers)
    records = _run_chunked(scaling_cell_records, tasks, config.workers)
    low, high = tol["max_degree_ratio_low"], tol["max_degree_ratio_high"]
    cells: list[dict] = []
    verdicts: list[Verdict] = []
    done = 0  # every built cell contributes its replicates, in cell order
    for gamma, n, seq in built:
        if isinstance(seq, ValueError):
            cells.append({"gamma": gamma, "n": n, "error": str(seq)})
            continue
        summary = summarize_scaling_cell(
            records[done:done + config.replicates], seq.max_degree
        )
        done += config.replicates
        ratio = summary.max_degree_ratio
        cells.append({
            "gamma": gamma, "n": n, "nu": summary.nu_actual,
            "max_degree_ratio": ratio,
            "q50": summary.q50, "q95": summary.q95, "q_max": summary.q_max,
        })
        verdicts.append(Verdict(
            f"max_degree_ratio[gamma={gamma},n={n}]",
            low <= ratio <= high, ratio, (low + high) / 2, (high - low) / 2,
        ))
    for gamma in gammas:
        q95s = [c_["q95"] for c_ in cells
                if c_.get("gamma") == gamma and "q95" in c_]
        if len(q95s) >= 2:
            factor = max(q95s) / min(q95s)
            verdicts.append(Verdict(
                f"q95_factor[gamma={gamma}]",
                factor <= tol["scaling_factor"],
                factor, 1.0, tol["scaling_factor"],
            ))
    header = ["gamma", "n", "nu", "replicate", "largest", "normalized"]
    rows = [[r.gamma, r.n, r.nu_actual, r.replicate, r.largest, r.normalized]
            for r in records]
    return [header] + rows, cells, verdicts


def _run_trajectory(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    seq = resolve_degrees(config.degrees)
    dist = empirical_distribution(seq)
    tol = config.tolerances
    j_max = tol["trajectory_j_max"]
    root = int(np.argmax(seq.degrees))  # max-degree root stresses the path most
    rows = _run_chunked(
        _trajectory_chunk,
        _chunks((seq, config.seed, 0, root, j_max), config.replicates,
                config.workers),
        config.workers,
    )
    cells = []
    verdicts = []
    for j in sorted({r[1] for r in rows}):
        devs = np.array([r[2] for r in rows if r[1] == j])
        med = float(np.median(devs))
        cells.append({
            "j": j,
            "median_deviation": med,
            "max_deviation": float(devs.max()),
        })
        verdicts.append(Verdict(
            f"median_deviation[j={j}]",
            med <= tol["trajectory_threshold"],
            med, 0.0, tol["trajectory_threshold"],
        ))
    header = ["replicate", "j", "deviation"]
    return [header] + [list(r) for r in rows], cells, verdicts


def _run_oracle(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    from scipy import stats  # deferred: the only scipy.stats user, ~0.5 s import

    seq = resolve_degrees(config.degrees)
    tol = config.tolerances
    cap = tol["enumeration_cap"]
    pairings = list(enumerate_pairings(seq, max_pairs=cap))
    keys = [p.key() for p in pairings]
    index = {k: i for i, k in enumerate(keys)}
    exact = {
        "count": len(pairings),
        "double_factorial": double_factorial_odd(seq.two_m // 2),
        "p_simple_exact": sum(map(is_simple, pairings)) / len(pairings),
    }
    rows = _run_chunked(
        _oracle_chunk,
        _chunks((seq, config.seed, 0), config.replicates, config.workers),
        config.workers,
    )
    counts = np.zeros(len(pairings), dtype=np.int64)
    for _, key in rows:
        counts[index[key]] += 1
    chi2_stat, p_value = stats.chisquare(counts)
    expected = config.replicates / len(pairings)
    cells = [{
        "n_pairings": len(pairings),
        "chi2": float(chi2_stat),
        "p_value": float(p_value),
        **exact,
    }]
    verdicts = [
        Verdict("pairing_count", len(pairings) == exact["double_factorial"],
                len(pairings), exact["double_factorial"], 0.0),
        Verdict("uniformity_chi2_p", p_value >= tol["chi2_alpha"],
                float(p_value), 1.0, tol["chi2_alpha"]),
    ]
    out_rows = [["pairing_index", "count", "expected"]]
    out_rows += [[i, int(counts[i]), expected] for i in range(len(pairings))]
    return out_rows, cells, verdicts


_MODE_RUNNERS = {
    "poisson_check": _run_poisson,
    "scaling": _run_scaling,
    "trajectory": _run_trajectory,
    "oracle_validation": _run_oracle,
}


def _write_csv(path: Path, rows: list[list]) -> None:
    def fmt(x):
        if isinstance(x, float):
            return repr(x)
        return x

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def run(config: ExperimentConfig) -> RunSummary:
    """Execute the configured experiment and write records.csv + summary.json."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    rows, cells, verdicts = _MODE_RUNNERS[config.mode](config)
    log.info("mode=%s wall_clock=%.3fs", config.mode, time.monotonic() - t0)

    tag = f"{config.mode}_{config.hash()}_seed{config.seed}"
    csv_path = out / f"{tag}.csv"
    json_path = out / f"{tag}.json"
    _write_csv(csv_path, rows)
    summary = RunSummary(
        config=config.echo(),
        config_hash=config.hash(),
        version=__version__,
        cells=cells,
        verdicts=verdicts,
        artifacts=[str(csv_path), str(json_path)],
    )
    json_path.write_text(
        json.dumps(summary.deterministic_dict(), sort_keys=True, indent=2)
        + "\n"
    )
    return summary


def describe(config: ExperimentConfig) -> dict[str, Any]:
    """Dry-run report: scalar functionals and predictions, no sampling."""
    if config.mode == "scaling":
        gammas, sizes, c, target_nu = _grid(config.grid)
        seq = build_subpower_sequence(sizes[-1], gammas[0], c, target_nu)
    else:
        seq = resolve_degrees(config.degrees)
    dist = empirical_distribution(seq)
    nu_value = nu(dist)
    p_simple = predicted_simple_probability(nu_value)
    report = {
        "n": seq.n,
        "two_m": seq.two_m,
        "d_bar": float(dist.d_bar),
        "max_degree": seq.max_degree,
        "nu": nu_value,
        "molloy_reed_sum": molloy_reed_sum(dist),
        "predicted_p_simple": p_simple,
        "predicted_attempts": math.inf if p_simple == 0 else 1.0 / p_simple,
        # lower bound: the int64 pairs array and point -> owner map of one
        # pairing, 8 bytes per point each; ignores temporaries and Python objects
        "memory_estimate_bytes": seq.two_m * 8 * 2,
    }
    if seq.gamma is not None:
        report["degree_cap"] = degree_cap(seq.n, seq.gamma, seq.c)
    return report


def validate_degree_file(
    path: str | Path, gamma: float | None = None, c: float | None = None
) -> dict[str, Any]:
    """Load a degree file, run invariants, and with ``gamma`` and ``c``
    (both or neither) the subpower check."""
    if (gamma is None) != (c is None):
        given, missing = ("gamma", "c") if c is None else ("c", "gamma")
        raise ValueError(f"{missing}: required with {given}")
    seq = read_degree_file(path)
    report: dict[str, Any] = {
        "n": seq.n,
        "two_m": seq.two_m,
        "max_degree": seq.max_degree,
        "valid": True,
    }
    if gamma is not None:
        sub = validate_subpower(seq, gamma, c)
        report["subpower_valid"] = sub.valid
        report["valid"] = sub.valid
        report["cap"] = sub.cap
    return report
