"""Declarative experiment runner with seeded, scheduling-independent output.

A config (JSON file) picks a mode, a degree specification, a replicate count
and a seed; ``run`` executes the replicates (in the parent, sharing the rest
with forked workers only when that would save more than it costs),
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
import itertools
import json
import logging
import math
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Collection, Iterator, NamedTuple,
                    NoReturn)

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


def _all_ints(xs: list) -> bool:
    """``_is_int`` of every item, testing each distinct type once."""
    return all(issubclass(t, int) and t is not bool for t in set(map(type, xs)))


def _is_number(x: Any) -> bool:
    """A finite int or float; JSON's NaN and Infinity are refused."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a finite number")
_INT_LIST = (lambda x: isinstance(x, list) and _all_ints(x),
             "a list of integers")
_NUMBER_LIST = (
    lambda x: isinstance(x, list) and len(x) > 0 and all(map(_is_number, x)),
    "a non-empty list of finite numbers",
)
_STRING = (lambda x: isinstance(x, str), "a string")
_OBJECT = (lambda x: isinstance(x, dict), "an object")
_POSITIVE_INT = (lambda x: _is_int(x) and x >= 1, "a positive integer")
_CONFIG_FIELDS = {
    "mode": (lambda x: x in MODES, f"one of {MODES}"),
    "replicates": _POSITIVE_INT,
    "seed": (lambda x: _is_int(x) and 0 <= x < 2**64, "a 64-bit unsigned integer"),
    "workers": _POSITIVE_INT,
    "output_dir": _STRING,
    "degrees": _OBJECT,
    "grid": _OBJECT,
    "tolerances": _OBJECT,
}


def _envelope(spec: dict[str, Any]) -> tuple[float, float]:
    """The (gamma, c) of a subpower spec or grid cell, as the floats it prints."""
    return float(spec["gamma"]), float(spec.get("c", 1.0))


# each degree kind's fields and builder; the builders look
# ``build_subpower_sequence`` up in this module at each call, so that patching
# it here sees every build
_DEGREE_KINDS: dict[str, tuple[dict, Callable[[dict[str, Any]], DegreeSequence]]] = {
    "regular": ({"n": _INT, "d": _INT},
                lambda spec: DegreeSequence.from_runs([(spec["d"], spec["n"])])),
    "subpower": (
        {"n": _INT, "gamma": _NUMBER, "target_nu": _NUMBER, "c": _NUMBER},
        lambda spec: build_subpower_sequence(
            spec["n"], *_envelope(spec), float(spec["target_nu"]))),
    "explicit": ({"degrees": _INT_LIST},
                 lambda spec: DegreeSequence(tuple(spec["degrees"]))),
    "file": ({"path": _STRING}, lambda spec: read_degree_file(spec["path"])),
}
_GRID_FIELDS = {
    "gammas": _NUMBER_LIST,
    "sizes": (lambda x: isinstance(x, list) and len(x) > 0 and _all_ints(x),
              "a non-empty list of integers"),
    "c": _NUMBER,
    "target_nu": _NUMBER,
}
# the oracle's chi-square over 2,027,025 pairings at m = 8 needs ~10M draws
MAX_ENUMERATION_CAP = 7
# a tolerance that counts something is an integer >= 1, since with 0 no
# pairing or degree could be checked; every other one is a bound >= 0
_TOLERANCE_FIELDS = {
    **dict.fromkeys(DEFAULT_TOLERANCES, (lambda x: _is_number(x) and x >= 0,
                                         "a finite number >= 0")),
    "enumeration_cap": (lambda x: _is_int(x) and 1 <= x <= MAX_ENUMERATION_CAP,
                        f"an integer from 1 to {MAX_ENUMERATION_CAP}"),
    "trajectory_j_max": (lambda x: _is_int(x) and x >= 1, "an integer >= 1"),
}


def _check_fields(
    where: str, spec: dict[str, Any], fields: dict, optional: Collection[str]
) -> None:
    """Raise ConfigError naming the dotted path (``where.<field>``, or the
    bare field at the top level) of the first unknown, missing or ill-typed
    field of ``spec``."""
    def path(name: str) -> str:
        return f"{where}.{name}" if where else name

    unknown = sorted(set(spec) - set(fields))
    if unknown:
        raise ConfigError(
            f"{path(unknown[0])}: unknown field; known: {', '.join(fields)}")
    for name, (ok, what) in fields.items():
        if name not in spec and name not in optional:
            raise ConfigError(f"{path(name)}: required")
        if name in spec and not ok(spec[name]):
            raise ConfigError(f"{path(name)}: must be {what}, got {spec[name]!r}")


def _check_degrees(spec: dict[str, Any]) -> None:
    """The fields of a degrees object are those of its kind."""
    _check_fields("", {"degrees": spec}, {"degrees": _OBJECT}, optional=())
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _DEGREE_KINDS:
        raise ConfigError(
            f"degrees.kind: must be one of {tuple(_DEGREE_KINDS)}, got {kind!r}"
        )
    _check_fields("degrees", spec, {"kind": _STRING, **_DEGREE_KINDS[kind][0]},
                  optional={"c"})


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    replicates: int = 1
    seed: int = 0
    workers: int = 1
    output_dir: str = "out"
    degrees: dict[str, Any] | None = None
    grid: dict[str, Any] | None = None
    tolerances: dict[str, Any] = field(default_factory=DEFAULT_TOLERANCES.copy)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Check every field of ``data`` and fill in the defaults of the
        ones it leaves out; the mode decides whether ``degrees`` or ``grid``
        is required, and either one that is present is checked."""
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        section = "grid" if data.get("mode") == "scaling" else "degrees"
        _check_fields("", data, _CONFIG_FIELDS,
                      optional=set(_CONFIG_FIELDS) - {"mode", section})
        if "degrees" in data:
            _check_degrees(data["degrees"])
        if "grid" in data:
            _check_fields("grid", data["grid"], _GRID_FIELDS,
                          optional={"c", "target_nu"})
        tolerances = data.get("tolerances", {})
        _check_fields("tolerances", tolerances, _TOLERANCE_FIELDS,
                      optional=_TOLERANCE_FIELDS)
        return cls(**{**data, "tolerances": {**DEFAULT_TOLERANCES, **tolerances}})

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "ExperimentConfig":
        """Parse a JSON config file; ``overrides`` replace its top-level fields."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except RecursionError as exc:  # the decoder recurses once per level
            raise ConfigError(f"{path}: nested too deeply") from exc
        if isinstance(data, dict):
            data.update(overrides)
        return cls.from_dict(data)

    def echo(self) -> dict[str, Any]:
        """Canonical form of the config, as written into the summary.

        Worker count and output directory are execution environment, not
        experiment identity, so they stay out of the echo and the hash.
        """
        return {name: getattr(self, name) for name in _CONFIG_FIELDS
                if name not in ("workers", "output_dir")}

    def hash(self) -> str:
        blob = json.dumps(self.echo(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _build(kind: str, spec: dict[str, Any]) -> DegreeSequence:
    """Build a checked spec; a size too large to index or hold is a ValueError."""
    try:
        return _DEGREE_KINDS[kind][1](spec)
    except (OverflowError, MemoryError) as exc:  # a failed repeat has no message
        raise ValueError(str(exc) or "too large to hold in memory") from exc


def resolve_degrees(spec: dict[str, Any]) -> DegreeSequence:
    """Materialize a degree spec with its kind's builder, once it passes the
    checks of a config's ``degrees``, whose errors name ``degrees.<field>``.

    The degree model's errors, a size too large to index or to hold, and an
    unreadable degree file are re-raised as ConfigError naming ``degrees``.
    """
    _check_degrees(spec)
    try:
        return _build(spec["kind"], spec)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"degrees: {exc}") from exc


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    value: float
    target: float
    tolerance: float


def _within(name: str, value: float, target: float, tolerance: float) -> Verdict:
    """The verdict that ``value`` lies within ``tolerance`` of ``target``."""
    return Verdict(name, bool(abs(value - target) <= tolerance), value, target,
                   tolerance)


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
        """The fields but the artifact paths, which depend on the output
        directory, plus ``passed``."""
        summary = asdict(self)
        del summary["artifacts"]
        return {**summary, "passed": self.passed}


# ---------------------------------------------------------------------------
# replicate execution (deterministic at any worker count)
#
# A kernel ``(seq, rng) -> result`` does one replicate.  The run's replicates
# form one queue: replicate i is replicate ``i % replicates`` of the cell at
# position ``i // replicates``.  The parent runs a prefix of the queue, and
# it may share the rest, cut into ranges, with workers it forks; they inherit
# the kernel, the cells and the seed, so no sequence is pickled.

# What sharing the replicates left costs, measured on a 2-core VM (Python
# 3.11; fresh processes that had imported numpy and the samplers, built
# scaling's six cells and run a replicate): 2-3 ms from the fork to a worker
# running, 4-5 ms more when the package's at-fork hook still has a sampling
# module to import, and 0.3-0.5 ms to join a worker.  Two processes on the 2
# cores each run a replicate about 30-40% slower than one alone, so a share
# of 2 saves about a third of the time left, not the half that
# ``left × (1 − 1/W)`` counts.  The 45 ms measured for the process pool this
# share replaced is kept as the cost: it shares only work of more than 90 ms
# at 2 workers, which the slowdown still cuts by about 30 ms, and it keeps
# scaling's and trajectory's sub-100 ms runs serial, where no lower value
# was timed to be no slower.
_POOL_START_S = 0.045


class _KernelMemoryError(Exception):
    """A kernel's MemoryError; ``args[0]`` is the index of its cell."""


def _replicate(work: tuple, i: int) -> Any:
    """The kernel result of the run's replicate ``i``; replicate r of the
    cell with index k draws from ``substream(seed, k, r)``."""
    from .rng import substream

    kernel, cells, seed, replicates = work
    position, rep = divmod(i, replicates)
    cell_index, seq = cells[position]
    try:
        return kernel(seq, substream(seed, cell_index, rep))
    except MemoryError as exc:
        raise _KernelMemoryError(cell_index) from exc


def _seconds_left(elapsed: float, cells: list[tuple[int, DegreeSequence]],
                  replicates: int, done: int) -> float:
    """Seconds the run's replicates from ``done`` on would take in the
    parent, which spent ``elapsed`` seconds on replicates 1 to ``done - 1``
    (replicate 0 pays the one-time imports): ``elapsed`` scaled by the core
    points left over the core points timed, a replicate of a cell counting
    its sequence's ``n_core_points`` (at least 1: a replicate with no core
    still costs a call).  Infinite when no replicate was timed."""
    def points(lo: int, hi: int) -> int:
        return sum(max(seq.n_core_points, 1)
                   * max(0, min(hi, (k + 1) * replicates) - max(lo, k * replicates))
                   for k, (_, seq) in enumerate(cells))

    timed, left = points(1, done), points(done, len(cells) * replicates)
    return elapsed * left / timed if timed else math.inf


def _replicates(kernel: Callable, cells: list[tuple[int, DegreeSequence]],
                seed: int, replicates: int, workers: int) -> list[list]:
    """Each cell's ``replicates`` kernel results, in replicate order.

    The ``(cell_index, sequence)`` cells' replicates form one queue, cell by
    cell, and the parent runs it from the start.  Its first replicate pays
    the one-time imports of numpy and the samplers, which forked workers
    then inherit; the replicates after it are timed.  While two or more
    replicates are left, the parent estimates the seconds they would still
    take it (``_seconds_left``) and shares them with forked workers, W
    processes in all, only if that would save more than ``_POOL_START_S``:
    ``left × (1 − 1/W)``.  It decides after each replicate from the third
    on when the replicates timed and left are all of the cell it is running,
    as in a one-cell run, and otherwise once ``_POOL_START_S`` has passed
    since its first replicate ended, so that small cells never vouch for
    large ones.  Once that window has ended without a share, the parent
    finishes the run.  ``workers`` is first capped at the CPUs this process
    may run on; without ``os.fork``, or in a process that runs threads (a
    forked worker would inherit only the thread that forked it), the run is
    serial.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        cpus = 1
    workers = min(workers, cpus)
    work = (kernel, cells, seed, replicates)
    total = len(cells) * replicates
    results: list = []
    first_end = math.inf  # when replicate 0 ended
    while len(results) < total:
        done = len(results)
        if workers > 1 and total - done >= 2:
            now = time.perf_counter()
            window_over = now - first_end >= _POOL_START_S
            if window_over or (len(cells) == 1 and done >= 3):
                processes = min(workers, total - done)
                left_s = _seconds_left(now - first_end, cells, replicates, done)
                saving = left_s * (1 - 1 / processes)
                if saving > _POOL_START_S or window_over:
                    break
        results.append(_replicate(work, done))
        if not done:
            first_end = time.perf_counter()
    done = len(results)
    if done == total:
        log.info("replicates: %d in the parent, serial", done)
    else:
        # as many ranges as a one-byte range number can name, so that the
        # processes of a share finish within one range of each other
        size = math.ceil((total - done) / 256)
        ranges = [(lo, min(lo + size, total)) for lo in range(done, total, size)]
        shared = saving > _POOL_START_S
        if shared:
            log.info("replicates: %d in the parent, %d tasks to a pool of %d "
                     "workers", done, len(ranges), processes)
        else:
            log.info("replicates: %d in the parent, serial", total)
        log.info("pool: ~%.0f ms left, a pool of %d saves ~%.0f ms, costs %.0f ms",
                 1e3 * left_s, processes, 1e3 * saving, 1e3 * _POOL_START_S)
        results += (_share(work, ranges, processes) if shared
                    else [_replicate(work, i) for i in range(done, total)])
    return [results[lo:lo + replicates] for lo in range(0, total, replicates)]


def _claim(queue: int, ranges: list[tuple[int, int]], work: tuple
           ) -> tuple[dict[int, list], float]:
    """The kernel results of each range this process claims from the pipe
    ``queue``, by range number, until the pipe is empty, and the seconds
    spent on them.  Each range number is one byte, and a one-byte read is
    atomic, so one process claims it."""
    results: dict[int, list] = {}
    busy = 0.0
    while claimed := os.read(queue, 1):
        start = time.perf_counter()
        lo, hi = ranges[claimed[0]]
        results[claimed[0]] = [_replicate(work, i) for i in range(lo, hi)]
        busy += time.perf_counter() - start
    return results, busy


def _work_in_child(queue: int, ranges: list[tuple[int, int]], work: tuple,
                   out: int) -> NoReturn:
    """A forked worker's life: claim ranges, write a pickle of what
    ``_claim`` returns, or of the ``Exception`` it raised, to the pipe
    ``out``, and exit with status 0 only if that pickle was written whole."""
    import pickle  # loaded by ``_share`` before it forked

    status = 1
    try:
        try:
            result: Any = _claim(queue, ranges, work)
        except Exception as exc:  # the parent re-raises it
            result = exc
        with open(out, "wb") as fh:
            pickle.dump(result, fh)
        status = 0
    finally:  # never return into the parent's code
        os._exit(status)


def _share(work: tuple, ranges: list[tuple[int, int]], processes: int) -> list:
    """Kernel results of the replicates of ``ranges``, in order, from this
    process and ``processes - 1`` forked workers, which claim the ranges from
    one pipe.  A worker's error is re-raised here; on any error, and on an
    interrupt, the workers still running are killed, and every worker is
    waited for."""
    import pickle  # a serial run never loads these
    import signal

    start = time.perf_counter()
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(ranges))))
    os.close(fill)
    workers: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(processes - 1):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work_in_child(queue, ranges, work, out_w)
            os.close(out_w)
            workers[pid] = out_r
        results, busy = _claim(queue, ranges, work)
        worker_busy = []
        for pid, out_r in list(workers.items()):
            with open(out_r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(workers.pop(pid))
            if status or not data:
                raise RuntimeError(f"replicate worker {pid} exited with status "
                                   f"{status} without a result")
            result = pickle.loads(data)  # written by a worker forked above
            if isinstance(result, Exception):
                raise result
            results.update(result[0])
            worker_busy.append(result[1])
    finally:
        os.close(queue)
        for pid, out_r in workers.items():
            os.close(out_r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    log.info("share: wall %.0f ms; busy %.0f ms in the parent, %s ms in the "
             "workers", 1e3 * (time.perf_counter() - start), 1e3 * busy,
             ", ".join(f"{1e3 * b:.0f}" for b in worker_busy))
    return [r for k in range(len(ranges)) for r in results[k]]


def _project(seq: DegreeSequence, rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Loops, parallel pairs, simple (0 or 1) and largest component of one
    uniform pairing: ``project_components(sample_pairing(seq, rng))``, from
    the core pairs alone."""
    from .pairing import core_report, sample_core_pairs

    report = core_report(seq, *sample_core_pairs(seq, rng))
    return report.loops, report.parallel_pairs, int(report.simple), report.largest


def _largest(seq: DegreeSequence, rng: np.random.Generator) -> int:
    """Largest component of one uniform pairing, from its core pairs alone."""
    from .pairing import core_largest, sample_core_pairs

    return core_largest(seq, *sample_core_pairs(seq, rng))


def _deviations(seq: DegreeSequence, rng: np.random.Generator, root: int,
                dist: EmpiricalDistribution, track: tuple[int, ...]) -> list[float]:
    """Trajectory deviation of each tracked degree over one exploration from
    ``root``; ``dist`` is the distribution of ``seq``."""
    from .diagnostics import trajectory_deviation
    from .exploration import explore_component

    trace = explore_component(seq, root, rng, record_trace=True)
    return [trajectory_deviation(trace, dist, j) for j in track]


def _pairing_index(seq: DegreeSequence, rng: np.random.Generator) -> int:
    from .pairing import sample_pairing

    return sample_pairing(seq, rng).index()


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
        _within("mean_loops", check.mean_loops, check.target_loops,
                tol["abs_tol_loops"]),
        _within("mean_parallel", check.mean_parallel, check.target_parallel,
                tol["abs_tol_parallel"]),
        _within("p_simple", check.p_simple, check.target_simple,
                tol["abs_tol_simple"]),
        _within("corr_z", check.z_corr, 0.0, tol["sigma"]),
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


def _grid_cells(grid: dict[str, Any], order: Callable | None = None
                ) -> Iterator[tuple[float, int, DegreeSequence | ValueError]]:
    """Each (gamma, n) cell of a scaling grid, built when it is reached, with
    its ``subpower`` sequence or the ValueError that refused it; gamma-major
    over the sorted gammas and sizes, or stably sorted by the key ``order``."""
    cells = itertools.product(sorted(float(g) for g in grid["gammas"]),
                              sorted(grid["sizes"]))
    for gamma, n in sorted(cells, key=order) if order else cells:
        spec = {**grid, "n": n, "gamma": gamma,
                "target_nu": grid.get("target_nu", 0.9)}
        try:
            yield gamma, n, _build("subpower", spec)
        except ValueError as exc:
            yield gamma, n, exc


def _run_scaling(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    import numpy as np

    tol = config.tolerances
    # a cell that does not build is recorded with its error; the grid goes on
    built = list(_grid_cells(config.grid))
    sampled = [(cell_index, seq) for cell_index, (_, _, seq) in enumerate(built)
               if not isinstance(seq, ValueError)]
    try:
        results = iter(_replicates(_largest, sampled, config.seed,
                                   config.replicates, config.workers))
    except _KernelMemoryError as exc:  # the grid's other cells are lost too
        gamma, n, _ = built[exc.args[0]]
        raise ConfigError(f"grid[gamma={gamma},n={n}]: too large to hold in memory")
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
        largest = next(results)
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
    for gamma in sorted(float(g) for g in config.grid["gammas"]):
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


def _tracked_degrees(config: ExperimentConfig, seq: DegreeSequence) -> tuple[int, ...]:
    """The degrees up to ``trajectory_j_max`` that occur in ``seq``, in
    order, refused if there is none: with no degree to track, no verdict."""
    j_max = config.tolerances["trajectory_j_max"]
    track = tuple(sorted(j for j in seq.histogram if j <= j_max))
    if not track:
        raise ConfigError(f"tolerances.trajectory_j_max: no degree <= {j_max} "
                          "occurs in the sequence, so no degree to track")
    return track


def _run_trajectory(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    seq = resolve_degrees(config.degrees)
    track = _tracked_degrees(config, seq)
    dist = empirical_distribution(seq)
    tol = config.tolerances
    # the first max-degree vertex: that root stresses the path most
    root = seq.max_degree_vertex
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
        verdicts.append(_within(f"median_deviation[j={j}]", med, 0.0,
                                tol["trajectory_threshold"]))
    rows = [[rep, j, dev] for rep, row in enumerate(results)
            for j, dev in zip(track, row)]
    return [["replicate", "j", "deviation"]] + rows, cells, verdicts


def _oracle_pairs(config: ExperimentConfig, seq: DegreeSequence) -> int:
    """The m pairs of an oracle instance, refused unless 2 <= m <= its cap."""
    m, cap = seq.two_m // 2, config.tolerances["enumeration_cap"]
    if m < 2:  # one pairing: the chi-square has no degree of freedom
        raise ConfigError(f"degrees: {config.mode} needs m >= 2 pairs, got m = {m}")
    if m > cap:
        raise ConfigError(f"tolerances.enumeration_cap: m = {m} exceeds "
                          f"enumeration cap {cap}")
    return m


def _run_oracle(config: ExperimentConfig) -> tuple[list, list[dict], list[Verdict]]:
    import numpy as np
    from scipy import stats  # deferred: the only scipy.stats user, ~0.5 s import

    from .pairing import double_factorial_odd, pairing_blocks, simple_mask

    seq = resolve_degrees(config.degrees)
    tol, m = config.tolerances, _oracle_pairs(config, seq)
    count = simple = 0
    points = np.arange(seq.two_m)
    for block in pairing_blocks(seq):  # no block outlives its simplicity mask
        # only a row that holds each point once is a pairing
        matching = np.all(np.sort(block.reshape(len(block), -1)) == points, axis=1)
        count += int(np.count_nonzero(matching))
        simple += int(np.count_nonzero(simple_mask(seq, block) & matching))
    exact = {
        "count": count,
        "double_factorial": double_factorial_odd(m),
        "p_simple_exact": simple / count,
    }
    (drawn,) = _replicates(_pairing_index, [(0, seq)], config.seed,
                           config.replicates, config.workers)
    counts = np.bincount(drawn, minlength=count)
    chi2_stat, p_value = stats.chisquare(counts)
    expected = config.replicates / count
    cells = [{
        "n_pairings": count,
        "chi2": float(chi2_stat),
        "p_value": float(p_value),
        **exact,
    }]
    verdicts = [
        _within("pairing_count", count, exact["double_factorial"], 0.0),
        Verdict("uniformity_chi2_p", float(p_value) >= tol["chi2_alpha"],
                float(p_value), 1.0, tol["chi2_alpha"]),
    ]
    out_rows = [["pairing_index", "count", "expected"]]
    out_rows += [[i, int(c), expected] for i, c in enumerate(counts)]
    return out_rows, cells, verdicts


_MODE_RUNNERS = {
    "poisson_check": _run_poisson,
    "scaling": _run_scaling,
    "trajectory": _run_trajectory,
    "oracle_validation": _run_oracle,
}


def _write_csv(path: Path, rows: list[list]) -> None:
    """``rows`` as CSV; ``csv.writer`` writes a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def run(config: ExperimentConfig) -> RunSummary:
    """Execute the configured experiment and write records.csv + summary.json."""
    t0 = time.monotonic()
    try:
        rows, cells, verdicts = _MODE_RUNNERS[config.mode](config)
    except _KernelMemoryError as exc:  # the one cell of a mode with ``degrees``
        raise ConfigError("degrees: too large to hold in memory") from exc
    log.info("mode=%s wall_clock=%.3fs", config.mode, time.monotonic() - t0)
    # made only now, so that a run its runner refuses leaves no directory
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

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
    if config.mode == "scaling":  # first cell that builds: largest n, smallest gamma
        refused = None
        for gamma, _, seq in _grid_cells(config.grid, lambda cell: (-cell[1], cell[0])):
            if not isinstance(seq, ValueError):
                break
            refused = refused or seq
        else:
            raise ConfigError(f"grid: {refused}")
        spec = {**config.grid, "gamma": gamma}
    else:
        spec = config.degrees
        seq = resolve_degrees(spec)
        if config.mode == "oracle_validation":
            _oracle_pairs(config, seq)
        elif config.mode == "trajectory":
            _tracked_degrees(config, seq)
    dist = empirical_distribution(seq)
    nu_value = nu(dist)
    p_simple = predicted_simple_probability(nu_value)
    # null where 1 / P(simple) overflows, as when P(simple) underflows to 0
    attempts = 1.0 / p_simple if p_simple else math.inf
    report = {
        "n": seq.n,
        "two_m": seq.two_m,
        "d_bar": float(dist.d_bar),
        "max_degree": seq.max_degree,
        "nu": nu_value,
        "molloy_reed_sum": molloy_reed_sum(dist),
        "predicted_p_simple": p_simple,
        "predicted_attempts": attempts if math.isfinite(attempts) else None,
        # the per-point arrays of one replicate that samples a pairing, namely
        # the int32 core labels, the int32 labels gathered through them or
        # placed by slot, and int64 points: a Pairing's pairs, the permutation
        # of a sequence with no degree-1 vertex, or the slot range rng.choice
        # shuffles to place a core of over about 2m/50 points (a smaller core
        # needs none); ignores other temporaries and objects, so it is a lower
        # bound for the modes that sample pairings, but no bound for
        # trajectory, whose exploration allocates none of these arrays
        "memory_estimate_bytes": seq.two_m * 16,
    }
    if "gamma" in spec:  # a subpower spec or grid cell
        report["degree_cap"] = degree_cap(seq.n, *_envelope(spec))
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
        sub = validate_subpower(empirical_distribution(seq), gamma, c)
        report["subpower_valid"] = sub.valid
        report["valid"] = sub.valid
        report["cap"] = sub.cap
    return report
