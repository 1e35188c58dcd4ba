#!/usr/bin/env python3
"""pairlab benchmark: end-to-end runs and a traced per-layer replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root.  ``--trace 0`` times fresh ``pairlab run``
processes at 1 and 2 workers and a fresh set-up probe, for ``--seconds``
seconds, rescales the times to the reference VM's speed (README.md, "End-to-end
metrics") and prints the end-to-end metrics.  ``--trace 1`` runs the workload
in this process, then replays its replicate loop with a span around every
call into pairlab, and prints the per-layer metrics.  Every run checks its
outputs (see README.md); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, sleep

import tracing
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work directories, results and spans
CHILD_TIMEOUT_S = 100
GROUP_GRACE_S = 10  # how long a finished child's descendants may outlive it
IMPORT_PROBES = 3
SETUP_PROBES = 3  # set-up probes per untraced run, one per early iteration
SPOT_REPLICATES = 2  # replicates per cell replayed by an untraced run
CALIBRATION_REF_S = 0.2  # calibration_s() on the reference VM

END_TO_END = {
    "replicates_per_s.w1": "1/s",
    "replicates_per_s.w2": "1/s",
    "setup_s": "s",
    "peak_rss_mb.w1": "MiB",
}


def _per_layer() -> dict[str, str]:
    units = {
        "cli.import_s": "s",
        "rng.substream.calls": "count",
        "rng.substream.busy_s": "s",
        "degree_model.build_subpower_sequence.calls": "count",
        "degree_model.build_subpower_sequence.busy_s": "s",
        "degree_model.empirical_distribution.busy_s": "s",
        "harness.resolve_degrees.busy_s": "s",
        "harness.run.busy_s.w1": "s",
        "harness.run.busy_s.w2": "s",
        "harness.self_s.w1": "s",
        "harness.parallel_efficiency": "ratio",
    }
    for suffix in ("", ".n1000", ".n10000", ".n100000"):
        for fn in ("sample_pairing", "project_components"):
            for stat, unit in (("calls", "count"), ("busy_s", "s"), ("p50_ms", "ms")):
                units[f"pairing.{fn}.{stat}{suffix}"] = unit
        units[f"pairing.points_per_s{suffix}"] = "1/s"
    units.update({
        "exploration.start_exploration.calls": "count",
        "exploration.start_exploration.busy_s": "s",
        "exploration.explore_component.calls": "count",
        "exploration.explore_component.busy_s": "s",
        "exploration.explore_component.p50_ms": "ms",
        "exploration.largest_component_via_exploration.calls": "count",
        "exploration.largest_component_via_exploration.busy_s": "s",
        "exploration.largest_component_via_exploration.p50_ms": "ms",
        "exploration.steps": "count",
        "exploration.us_per_step": "us",
        "exploration.init_share": "ratio",
        "diagnostics.trajectory_deviation.calls": "count",
        "diagnostics.trajectory_deviation.busy_s": "s",
        "diagnostics.poisson_limit_check.busy_s": "s",
        "trace.overhead_s": "s",
        "trace.span_coverage": "ratio",
    })
    return units


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall: float
    code: int
    stderr: str
    rss_mib: float
    slowdown: float = 1.0  # host slowdown while it ran; 1 = the reference VM


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux), so
    that ``spawn`` can reap them; without it they are only waited for."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _signal_group(pgid: int, sig: int) -> bool:
    """Send ``sig`` to process group ``pgid``; False if the group is empty."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _end_group(pgid: int) -> None:
    """Wait until every process of group ``pgid`` has ended, reaping those
    re-parented here; kill what outlives ``GROUP_GRACE_S``."""
    deadline = perf_counter() + GROUP_GRACE_S
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        late = perf_counter() > deadline
        if not _signal_group(pgid, signal.SIGKILL if late else 0):
            return
        if perf_counter() > deadline + 2:
            return  # zombies another process has to reap
        sleep(0.005)


def spawn(argv: list[str], env: dict, work: Path) -> Child:
    """Run ``argv`` to completion in a process group of its own, and wait
    for everything it started to end; wall time includes interpreter
    start-up, peak RSS is the child's own (its rusage, not its pool
    workers')."""
    with open(work / "child.err", "w+") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _signal_group, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except BaseException:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            _end_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(wall, proc.returncode, err.read()[-400:], usage.ru_maxrss / 1024)


def artifacts(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def csv_text(files: dict[str, bytes]) -> str:
    (name,) = [k for k in files if k.endswith(".csv")]
    return files[name].decode()


def output_problems(w: workloads.Workload, files: dict[str, bytes]) -> list[str]:
    """Failed verdicts (harness) or decompositions whose sizes miss n."""
    if not files:
        return ["no artifacts written"]
    if w.harness:
        (name,) = [k for k in files if k.endswith(".json")]
        summary = json.loads(files[name])
        return [f"verdict {v['name']} failed" for v in summary["verdicts"] if not v["passed"]]
    rows = csv_text(files).splitlines()[1:]
    n = w.config["n"]
    return [f"decomposition {r} does not sum to {n}" for r in rows
            if int(r.rsplit(",", 1)[1]) != n]


def replay_problem(w, tracer: Tracer, csv: str, limit: int | None = None) -> str | None:
    """Replay, compare with the program's CSV, and describe any difference."""
    try:
        rows = w.replay(tracer, limit)
    except Exception as exc:  # a program defect: report it, keep the run going
        return f"replay raised {exc!r}"
    mismatch = workloads.replay_mismatch(rows, csv, partial=limit is not None)
    return mismatch and f"replay: {mismatch}"


# ---------------------------------------------------------------------------
# the two kinds of run


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # wall clock, not rescaled
    host_slowdown: float | None = None

    @property
    def spread(self) -> dict[str, float]:
        return {k: _spread(v) for k, v in self.samples.items()}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values: list[float]) -> float:
    """Interquartile range over median, the run-to-run spread of a sample."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _window(deadline: float):
    """Yield iteration numbers while the next iteration should still end
    by ``deadline`` (a ``perf_counter`` time); always at least one."""
    last = 0.0
    i = 0
    while i == 0 or perf_counter() + last <= deadline:
        began = perf_counter()
        yield i
        last = perf_counter() - began
        i += 1


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop in this process.

    The reference VM runs it in about ``CALIBRATION_REF_S``.  Its speed
    drifts by up to 40% over tens of seconds, the same for this loop as for
    pairlab, so dividing a child's wall time by the loop time measured
    around it removes most of that drift.
    """
    start = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return perf_counter() - start


def untraced(w: workloads.Workload, seconds: float, work: Path, env: dict) -> Outcome:
    deadline = perf_counter() + seconds
    config = work / "config.json"
    config.write_text(json.dumps(w.config, sort_keys=True))
    spawn([sys.executable, "-c", "import pairlab.cli"], env, work)  # byte-compile once
    loops = [calibration_s()]

    def child(argv: list[str]) -> Child:
        c = spawn(argv, env, work)
        loops.append(calibration_s())
        c.slowdown = (loops[-2] + loops[-1]) / 2 / CALIBRATION_REF_S
        return c

    keys = ("w1", "w2", "setup", "w1_raw", "w2_raw", "setup_raw", "rss", "host")
    samples: dict[str, list[float]] = {k: [] for k in keys}
    outcome = Outcome()
    reference = None
    for i in _window(deadline):
        outcome.attempted += 1
        problems = []
        setup = child(w.setup_argv(config)) if i < SETUP_PROBES else None
        if setup and setup.code:
            problems.append(f"set-up probe exited {setup.code}: {setup.stderr}")
        runs = {}
        for workers in (1, 2):
            out = work / f"w{workers}"
            shutil.rmtree(out, ignore_errors=True)
            c = child(w.run_argv(config, workers, out))
            files = artifacts(out)
            if c.code:
                problems.append(f"w{workers} exited {c.code}: {c.stderr}")
            problems += [f"w{workers}: {p}" for p in output_problems(w, files)]
            runs[workers] = (c, files)
        if runs[1][1] != runs[2][1]:
            problems.append("w1 and w2 artifacts differ")
        if reference is None:
            reference = runs[1][1]
        elif runs[1][1] != reference:
            problems.append("artifacts differ from the first iteration's")
        if problems:
            outcome.failed += 1
            outcome.problems += problems
            continue
        if setup:
            samples["setup"].append(setup.wall / setup.slowdown)
            samples["setup_raw"].append(setup.wall)
        for workers, (c, _) in runs.items():
            samples[f"w{workers}"].append(w.replicates * c.slowdown / c.wall)
            samples[f"w{workers}_raw"].append(w.replicates / c.wall)
            samples["host"].append(c.slowdown)
        samples["rss"].append(runs[1][0].rss_mib)

    # The replay imports pairlab here, so it waits until the children are
    # done: a child's ru_maxrss starts from this process's resident set.
    if reference:
        problem = replay_problem(w, Tracer(False), csv_text(reference), SPOT_REPLICATES)
        if problem:
            # every iteration wrote the first one's artifacts, so all fail
            outcome.problems.append(problem)
            outcome.failed = outcome.attempted
            samples = {k: [] for k in keys}

    outcome.metrics = {
        "replicates_per_s.w1": _median(samples["w1"]),
        "replicates_per_s.w2": _median(samples["w2"]),
        "setup_s": _median(samples["setup"]),
        "peak_rss_mb.w1": _median(samples["rss"]),
    }
    outcome.raw = {
        "replicates_per_s.w1": _median(samples["w1_raw"]),
        "replicates_per_s.w2": _median(samples["w2_raw"]),
        "setup_s": _median(samples["setup_raw"]),
    }
    outcome.host_slowdown = _median(samples["host"])
    outcome.samples = samples
    return outcome


@dataclass
class Pass:
    spans: list[tuple]
    steps: int
    points: dict[int, int]
    wall: float


def traced(w: workloads.Workload, seconds: float, work: Path, env: dict) -> tuple[Outcome, list[Pass]]:
    deadline = perf_counter() + seconds
    probes = [spawn([sys.executable, "-c", "import pairlab.cli"], env, work)
              for _ in range(IMPORT_PROBES)]
    outcome = Outcome()
    outcome.problems += [f"import probe exited {c.code}: {c.stderr}" for c in probes if c.code]
    import_s = _median([c.wall for c in probes if c.code == 0])
    import pairlab.harness  # noqa: F401  (imported here, outside the timed runs)

    walls: dict[str, list[float]] = {"w1": [], "w2": [], "off": []}
    passes: list[Pass] = []
    for _ in _window(deadline):
        outcome.attempted += 1
        problems = []
        out = {k: work / f"w{k}" for k in (1, 2)}
        run_s = {}
        for workers, path in out.items():
            shutil.rmtree(path, ignore_errors=True)
            try:
                run_s[workers] = w.run_inprocess(workers, path)
            except Exception as exc:  # report the program's failure, keep the run going
                problems.append(f"in-process run at w{workers} raised {exc!r}")
        files = artifacts(out[1])
        problems += output_problems(w, files)
        if files != artifacts(out[2]):
            problems.append("w1 and w2 artifacts differ")

        text = csv_text(files) if files else ""
        start = perf_counter()
        off_problem = replay_problem(w, Tracer(False), text)
        off_wall = perf_counter() - start
        on = Tracer(True)
        start = perf_counter()
        on_problem = replay_problem(w, on, text)
        on_wall = perf_counter() - start
        problems += [p for p in (off_problem, on_problem) if p]
        if problems:
            outcome.failed += 1
            outcome.problems += problems
            continue
        walls["w1"].append(run_s[1])
        walls["w2"].append(run_s[2])
        walls["off"].append(off_wall)
        passes.append(Pass(on.spans, on.steps, on.points, on_wall))

    outcome.metrics = layer_metrics(w, passes, walls, import_s)
    outcome.samples = {**walls, "on": [p.wall for p in passes]}
    return outcome, passes


def layer_metrics(w, passes: list[Pass], walls: dict, import_s: float) -> dict[str, float]:
    stats = [tracing.layer_stats(p.spans, w.sizes, p.points) for p in passes] or [{}]

    def calls(key):
        return stats[0].get(key, {}).get("calls", 0)

    def busy(key):
        return _median([s.get(key, {}).get("busy_s", 0.0) for s in stats])

    def p50(key):
        durations = [d for s in stats for d in s.get(key, {}).get("durations", [])]
        return tracing.median_ms(durations)

    m: dict[str, float] = {"cli.import_s": import_s}
    for key in ("rng.substream", "degree_model.build_subpower_sequence"):
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.busy_s"] = busy(key)
    m["degree_model.empirical_distribution.busy_s"] = busy("degree_model.empirical_distribution")
    m["harness.resolve_degrees.busy_s"] = busy("harness.resolve_degrees")
    run_w1, run_w2 = _median(walls["w1"]), _median(walls["w2"])
    m["harness.run.busy_s.w1"] = run_w1
    m["harness.run.busy_s.w2"] = run_w2
    m["harness.self_s.w1"] = run_w1 - _median(walls["off"])
    m["harness.parallel_efficiency"] = run_w1 / (2 * run_w2) if run_w2 else 0.0

    for suffix in ("", ".n1000", ".n10000", ".n100000"):
        for fn in ("sample_pairing", "project_components"):
            key = f"pairing.{fn}{suffix}"
            m[f"pairing.{fn}.calls{suffix}"] = calls(key)
            m[f"pairing.{fn}.busy_s{suffix}"] = busy(key)
            m[f"pairing.{fn}.p50_ms{suffix}"] = p50(key)
        sampled = stats[0].get(f"pairing.sample_pairing{suffix}", {}).get("points", 0)
        pairing_busy = (busy(f"pairing.sample_pairing{suffix}")
                        + busy(f"pairing.project_components{suffix}"))
        m[f"pairing.points_per_s{suffix}"] = sampled / pairing_busy if pairing_busy else 0.0

    start, explore = "exploration.start_exploration", "exploration.explore_component"
    decompose = "exploration.largest_component_via_exploration"
    for key in (start, explore, decompose):
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.busy_s"] = busy(key)
    m[f"{explore}.p50_ms"] = p50(explore)
    m[f"{decompose}.p50_ms"] = p50(decompose)
    steps = passes[0].steps if passes else 0
    stepping = busy(explore) - busy(start) + busy(decompose)
    m["exploration.steps"] = steps
    m["exploration.us_per_step"] = stepping / steps * 1e6 if steps else 0.0
    m["exploration.init_share"] = busy(start) / busy(explore) if busy(explore) else 0.0

    m["diagnostics.trajectory_deviation.calls"] = calls("diagnostics.trajectory_deviation")
    m["diagnostics.trajectory_deviation.busy_s"] = busy("diagnostics.trajectory_deviation")
    m["diagnostics.poisson_limit_check.busy_s"] = busy("diagnostics.poisson_limit_check")
    m["trace.overhead_s"] = _median([p.wall for p in passes]) - _median(walls["off"])
    m["trace.span_coverage"] = _median([tracing.coverage(p.spans, p.wall) for p in passes])
    return m


# ---------------------------------------------------------------------------
# environment and reporting


def environment(w: workloads.Workload, args) -> dict:
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # ROOT sits inside some other repository
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": w.name,
        "seed": w.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_one(name: str, args, env: dict) -> tuple[Outcome, dict]:
    w = workloads.make(name, args.seed, tiny=args.tiny)
    work = STATE / "work" / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            outcome, passes = traced(w, args.seconds, work, env)
        else:
            outcome, passes = untraced(w, args.seconds, work, env), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = environment(w, args)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}_seed{args.seed}_trace{args.trace}"
    if passes:
        tracing.write_spans(results / f"{stem}.spans.jsonl", [p.spans for p in passes])
    (results / f"{stem}.json").write_text(json.dumps({
        "environment": info,
        "metrics": outcome.metrics,
        "spread": outcome.spread,
        "samples": outcome.samples,
        "raw": outcome.raw,
        "host_slowdown": outcome.host_slowdown,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_run_ratio": outcome.failed / outcome.attempted,
        "problems": outcome.problems,
    }, indent=2, sort_keys=True) + "\n")
    return outcome, info


def print_metrics(prefix: str, outcome: Outcome, units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"{prefix}{name} = {outcome.metrics[name]:.6g} {unit}")
    for name, value in outcome.raw.items():
        print(f"{prefix}{name} (wall clock, not rescaled) = {value:.6g} {units[name]}")
    if outcome.host_slowdown is not None:
        print(f"{prefix}host_slowdown = {outcome.host_slowdown:.6g} ratio")
    print(f"{prefix}failed_run_ratio = {outcome.failed}/{outcome.attempted} "
          f"= {outcome.failed / outcome.attempted:.6g} ratio")
    for problem in outcome.problems:
        print(f"{prefix}problem: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "pairlab" / "__init__.py").is_file():
        print(f"error: no pairlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    become_subreaper()
    # on SIGTERM, unwind through spawn() so that its children are stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        outcome, info = run_one(args.workload, args, env)
        print_metrics("", outcome, PER_LAYER if args.trace else END_TO_END)
        print("environment: " + json.dumps(info, sort_keys=True))
        print("spread: " + json.dumps(outcome.spread, sort_keys=True))
        print(json.dumps({
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": outcome.metrics[name], "unit": unit}
                for name, unit in (PER_LAYER if args.trace else END_TO_END).items()
            },
        }))
        return 0

    attempted = failed = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            args.trace = trace
            outcome, _ = run_one(name, args, env)
            print_metrics(f"{name}: ", outcome, PER_LAYER if trace else END_TO_END)
            attempted += outcome.attempted
            failed += outcome.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
