"""Declarative experiment runner with seeded, scheduling-independent output.

A config (JSON file) picks a mode, a degree specification, a replicate count
and a seed; ``run`` executes the replicates (in the parent, handing the rest
to a process pool when they outlast the pool's start-up cost),
writes a records CSV plus a summary JSON, and returns pass/fail verdicts with
the tolerances that produced them.  Replicate streams come from
``substream(seed, cell_index, replicate_index)``, so artifacts are
byte-identical at any worker count.  Wall-clock time is only logged, never
kept on the summary or written to the artifacts.

Config parsing, ``describe`` and ``validate_degree_file`` need only the
degree model.  The samplers, the exploration, the diagnostics and numpy load
inside the code that runs replicates, so a dry run never imports them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import __version__
from .degree_model import (
    DegreeSequence,
    EmpiricalDistribution,
    build_subpower_sequence,
    degree_cap,
    empirical_distribution,
    molloy_reed_sum,
    nu,
    predicted_simple_probability,
    read_degree_file,
    validate_subpower,
)

if TYPE_CHECKING:
    import numpy as np

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
# replicate execution (deterministic at any worker count)
#
# A kernel ``(seq, rng) -> result`` does one replicate.  A task is a cell's
# position and a range of its replicates; the kernel, the cells and the seed
# reach each pool worker once, through the pool's initializer.

# Measured cost of starting a 2-worker fork pool on a 2-core VM: replicates
# that finish within it are cheaper run in the parent than sent to a pool.
_POOL_START_S = 0.03

_WORK: tuple = ()  # (kernel, cells, seed) inside a pool worker


def _init_worker(*work) -> None:
    global _WORK
    _WORK = work


def _chunk(position: int, reps: range) -> list:
    """In a pool worker, kernel results for replicates ``reps`` of cell
    ``position``; replicate r of the cell with index k draws from
    ``substream(seed, k, r)``."""
    from .rng import substream

    kernel, cells, seed = _WORK
    cell_index, seq = cells[position]
    return [kernel(seq, substream(seed, cell_index, rep)) for rep in reps]


def _in_parent(work: tuple, tasks: list[tuple[int, range]], results: list[list],
               budget: float) -> tuple[int, list[tuple[int, range]]]:
    """Run ``tasks`` in order into ``results`` until ``budget`` seconds have
    passed since the first replicate ended, while more than one task is
    left.  Returns the replicates run and the tasks left, a task cut short
    as its remainder."""
    from .rng import substream

    kernel, cells, seed = work
    deadline = math.inf
    done = 0
    for i, (position, reps) in enumerate(tasks):
        cell_index, seq = cells[position]
        for j, rep in enumerate(reps):
            if i < len(tasks) - 1 and time.perf_counter() >= deadline:
                return done, [(position, reps[j:])] + tasks[i + 1:]
            results[position].append(kernel(seq, substream(seed, cell_index, rep)))
            done += 1
            if done == 1:
                deadline = time.perf_counter() + budget
    return done, []


def _replicates(kernel: Callable, cells: list[tuple[int, DegreeSequence]],
                seed: int, replicates: int, workers: int) -> list[list]:
    """Each cell's ``replicates`` kernel results, in replicate order.

    The work is cut into about four tasks a worker for each
    ``(cell_index, sequence)`` cell.  The parent runs them itself until
    ``_POOL_START_S`` has passed since its first replicate ended (that one
    pays the one-time imports of numpy and the samplers, which the workers
    then inherit);
    only if more than one task is left does a pool of at most ``workers``
    processes take the rest.
    """
    size = math.ceil(replicates / min(replicates, workers * 4))
    tasks = [(position, range(lo, min(lo + size, replicates)))
             for position in range(len(cells)) for lo in range(0, replicates, size)]
    work = (kernel, cells, seed)
    results: list[list] = [[] for _ in cells]
    done, left = _in_parent(work, tasks, results,
                            _POOL_START_S if workers > 1 else math.inf)
    if not left:
        log.info("replicates: %d in the parent, serial", done)
        return results
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

    pool_workers = min(workers, len(left))
    log.info("replicates: %d in the parent, %d tasks to a pool of %d workers",
             done, len(left), pool_workers)
    with ProcessPoolExecutor(pool_workers, initializer=_init_worker,
                             initargs=work) as pool:
        for (position, _), chunk in zip(left, pool.map(_chunk, *zip(*left))):
            results[position] += chunk
    return results


def _project(seq: DegreeSequence, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Loops, parallel pairs, simple (0 or 1) and largest component of one
    uniform pairing."""
    from .pairing import project_components, sample_pairing

    report = project_components(sample_pairing(seq, rng))
    return report.loops, report.parallel_pairs, int(report.simple), report.largest


def _deviations(seq: DegreeSequence, rng: np.random.Generator, root: int,
                dist: EmpiricalDistribution, track: tuple[int, ...]) -> list[float]:
    """Trajectory deviation of each tracked degree over one exploration from
    ``root``; ``dist`` is the distribution of ``seq``."""
    from .diagnostics import trajectory_deviation
    from .exploration import explore_component

    trace = explore_component(seq, root, rng, record_trace=True)
    return [trajectory_deviation(trace, dist, j) for j in track]


def _pairing_key(seq: DegreeSequence, rng: np.random.Generator) -> bytes:
    from .pairing import sample_pairing

    return sample_pairing(seq, rng).key()


class _PoissonRow(NamedTuple):
    """One poisson_check CSV row; also what ``poisson_limit_check`` reads."""

    replicate: int
    loops: int
    parallel_pairs: int
    simple: int
    largest: int


# ---------------------------------------------------------------------------
# mode implementations

def _run_poisson(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    from .diagnostics import poisson_limit_check

    seq = resolve_degrees(config.degrees)
    nu_value = nu(empirical_distribution(seq))
    (results,) = _replicates(_project, [(0, seq)], config.seed,
                             config.replicates, config.workers)
    rows = [_PoissonRow(rep, *r) for rep, r in enumerate(results)]
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
    import numpy as np

    gammas, sizes, c, target_nu = _grid(config.grid)
    tol = config.tolerances
    built: list[tuple[float, int, DegreeSequence | ValueError]] = []
    for gamma, n in ((g, n) for g in gammas for n in sizes):
        try:
            built.append((gamma, n, build_subpower_sequence(n, gamma, c, target_nu)))
        except ValueError as exc:  # build failure: record, keep the grid going
            built.append((gamma, n, exc))
    sampled = [(cell_index, seq) for cell_index, (_, _, seq) in enumerate(built)
               if not isinstance(seq, ValueError)]
    results = iter(_replicates(_project, sampled, config.seed,
                               config.replicates, config.workers))
    low, high = tol["max_degree_ratio_low"], tol["max_degree_ratio_high"]
    cells: list[dict] = []
    verdicts: list[Verdict] = []
    rows: list[list] = [["gamma", "n", "nu", "replicate", "largest", "normalized"]]
    for gamma, n, seq in built:
        if isinstance(seq, ValueError):
            cells.append({"gamma": gamma, "n": n, "error": str(seq)})
            continue
        nu_actual = nu(empirical_distribution(seq))
        scale = n ** (1.0 / gamma) * math.log(n)
        largest = [r[3] for r in next(results)]
        normalized = [size / scale for size in largest]
        rows += [[gamma, n, nu_actual, rep, size, norm]
                 for rep, (size, norm) in enumerate(zip(largest, normalized))]
        ratio = seq.max_degree / n ** (1.0 / gamma)
        cells.append({
            "gamma": gamma, "n": n, "nu": nu_actual,
            "max_degree_ratio": ratio,
            "q50": float(np.quantile(normalized, 0.5)),
            "q95": float(np.quantile(normalized, 0.95)),
            "q_max": max(normalized),
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
    return rows, cells, verdicts


def _run_trajectory(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    seq = resolve_degrees(config.degrees)
    dist = empirical_distribution(seq)
    tol = config.tolerances
    j_max = tol["trajectory_j_max"]
    # the first max-degree vertex: that root stresses the path most
    root = seq.degrees.index(seq.max_degree)
    track = tuple(sorted(j for j in dist.counts if j <= j_max))
    kernel = partial(_deviations, root=root, dist=dist, track=track)
    (results,) = _replicates(kernel, [(0, seq)], config.seed, config.replicates,
                             config.workers)
    cells = []
    verdicts = []
    # statistics.median: np.median's first call imports numpy.ma (~12 ms)
    for j, column in zip(track, zip(*results)):  # one column per degree
        med = statistics.median(column)
        cells.append({
            "j": j,
            "median_deviation": med,
            "max_deviation": max(column),
        })
        verdicts.append(Verdict(
            f"median_deviation[j={j}]",
            med <= tol["trajectory_threshold"],
            med, 0.0, tol["trajectory_threshold"],
        ))
    rows = [[rep, j, dev] for rep, row in enumerate(results)
            for j, dev in zip(track, row)]
    return [["replicate", "j", "deviation"]] + rows, cells, verdicts


def _run_oracle(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    import numpy as np
    from scipy import stats  # deferred: the only scipy.stats user, ~0.5 s import

    from .pairing import double_factorial_odd, enumerate_pairings, is_simple

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
    (drawn,) = _replicates(_pairing_key, [(0, seq)], config.seed,
                           config.replicates, config.workers)
    counts = np.zeros(len(pairings), dtype=np.int64)
    for key in drawn:
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


def _first_buildable(gammas: list[float], sizes: list[int], c: float,
                     target_nu: float) -> DegreeSequence:
    """The grid's first cell that builds, trying the largest n first and
    within each n the smallest gamma first; with none, the first cell's error."""
    errors = []
    for n in reversed(sizes):
        for gamma in gammas:
            try:
                return build_subpower_sequence(n, gamma, c, target_nu)
            except ValueError as exc:
                errors.append(exc)
    raise errors[0]


def describe(config: ExperimentConfig) -> dict[str, Any]:
    """Dry-run report: scalar functionals and predictions, no sampling."""
    if config.mode == "scaling":
        seq = _first_buildable(*_grid(config.grid))
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
