"""The four benchmark workloads and their replays.

Each workload is one pairlab config (or, for ``decompose``, one config of
``decompose.py``) built from the benchmark seed.  ``replay`` runs the same
replicate loop in this process through pairlab's public functions only,
with a span around every call, and returns the rows the program writes to
its CSV, formatted the same way.  A refactor that keeps the public API keeps
this file working.

Why each workload:

- ``poisson``: the loop / parallel-edge lemma on a 3-regular sequence.
  Sampling and projection do nearly all the work; exploration and
  ``build_subpower_sequence`` do none.
- ``scaling``: the largest-component theorem over a (gamma, n) grid.
  Heavy-tailed sequences at three sizes expose per-call floors at small n;
  the only workload where building sequences and the harness's per-cell
  fan-out cost anything.
- ``trajectory``: inactive-count trajectories from the max-degree root at
  n = 1e5.  Exploration set-up dominates; the pairing layer is bypassed.
- ``decompose``: full decompositions of a 3-regular sequence.  Every one of
  the m steps runs, so set-up is amortised and late steps see most points
  matched.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
NAMES = ("poisson", "scaling", "trajectory", "decompose")


def _poisson_tolerances(replicates: int) -> dict:
    """Five standard errors at this replicate count.

    Loops and parallel pairs tend to Poisson(1) on a 3-regular sequence, so
    each mean has standard error 1/sqrt(R); simplicity is Bernoulli(e^-2).
    The package defaults are calibrated for 10^4 replicates and would fail
    on a correct sampler at the benchmark's smaller count.
    """
    se = 1 / math.sqrt(replicates)
    p = math.exp(-2)
    return {
        "abs_tol_loops": 5 * se,
        "abs_tol_parallel": 5 * se,
        "abs_tol_simple": 5 * math.sqrt(p * (1 - p) / replicates),
        "sigma": 5.0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config: dict  # what goes into the config file
    replicates: int  # replicates per run, summed over cells
    sizes: list[int]  # vertex count of each cell, by cell index

    @property
    def harness(self) -> bool:
        return self.name != "decompose"

    def run_argv(self, config_path: Path, workers: int, out_dir: Path) -> list[str]:
        return [*self._program(), "run", "-c", str(config_path),
                "--workers", str(workers), "-o", str(out_dir)]

    def setup_argv(self, config_path: Path) -> list[str]:
        return [*self._program(), "describe", "-c", str(config_path)]

    def _program(self) -> list[str]:
        if self.harness:
            return [sys.executable, "-m", "pairlab.cli"]
        return [sys.executable, str(HERE / "decompose.py")]

    def run_inprocess(self, workers: int, out_dir: Path) -> float:
        """Run the workload as the program does, in this process; returns
        the wall time and leaves the artifacts in ``out_dir``."""
        if self.harness:
            from pairlab.harness import ExperimentConfig, run

            config = ExperimentConfig.from_dict(
                {**self.config, "workers": workers, "output_dir": str(out_dir)}
            )
            start = perf_counter()
            run(config)
        else:
            import decompose

            start = perf_counter()
            decompose.run(self.config, workers, out_dir)
        return perf_counter() - start

    def replay(self, tracer, limit: int | None = None) -> list[list]:
        """Rows of the run's CSV, header first.  ``limit`` replays only the
        first ``limit`` replicates of each cell."""
        with _instrumented(tracer):
            return _REPLAYS[self.name](self, tracer, limit)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Workload ``name`` at benchmark seed ``seed``; ``tiny`` shrinks every
    size so the self-test finishes in seconds."""
    if name == "poisson":
        n, reps = (200, 40) if tiny else (10_000, 250)
        config = {
            "mode": "poisson_check", "replicates": reps, "seed": seed,
            "degrees": {"kind": "regular", "n": n, "d": 3},
            "tolerances": _poisson_tolerances(reps),
        }
        return Workload(name, seed, config, reps, [n])
    if name == "scaling":
        sizes, reps = ([300, 1000], 4) if tiny else ([1_000, 10_000, 100_000], 20)
        gammas = [3.5, 4.5]
        config = {
            "mode": "scaling", "replicates": reps, "seed": seed,
            "grid": {"gammas": gammas, "sizes": sizes, "target_nu": 0.9},
            # The default factor 3 is calibrated for 200 replicates per cell.
            # At 20, each q95 is nearly a sample maximum: 6 of 239 seeds
            # exceeded 3 (largest 4.36), so allow 6.
            "tolerances": {"scaling_factor": 6.0},
        }
        return Workload(name, seed, config, reps * len(gammas) * len(sizes),
                        [n for _ in gammas for n in sizes])
    if name == "trajectory":
        n, reps = (3_000, 4) if tiny else (100_000, 20)
        config = {
            "mode": "trajectory", "replicates": reps, "seed": seed,
            "degrees": {"kind": "subpower", "n": n, "gamma": 3.5,
                        "c": 1.0, "target_nu": 0.9},
        }
        return Workload(name, seed, config, reps, [n])
    if name == "decompose":
        n, reps = (200, 3) if tiny else (10_000, 8)
        config = {"n": n, "d": 3, "replicates": reps, "seed": seed}
        return Workload(name, seed, config, reps, [n])
    raise ValueError(f"unknown workload {name!r}")


def format_rows(rows: list[list]) -> str:
    """CSV text exactly as the harness writes it (floats through repr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in r])
    return buf.getvalue()


def replay_mismatch(rows: list[list], csv_text: str, partial: bool) -> str | None:
    """None when the replayed rows match the program's CSV, else the first
    differing line.  A partial replay must find each of its lines in the CSV
    (every row carries its own replicate key)."""
    mine = format_rows(rows).splitlines()
    theirs = csv_text.splitlines()
    if partial:
        present = set(theirs)
        missing = [line for line in mine if line not in present]
        return f"replay row {missing[0]!r} not in the run's CSV" if missing else None
    if mine == theirs:
        return None
    for a, b in zip(mine, theirs):
        if a != b:
            return f"replay {a!r} != run {b!r}"
    return f"replay has {len(mine)} lines, run has {len(theirs)}"


# ---------------------------------------------------------------------------
# replays: one per workload, mirroring the program's replicate loop


def _instrumented(tracer):
    from contextlib import ExitStack

    import pairlab.exploration
    import pairlab.harness

    stack = ExitStack()
    stack.enter_context(tracer.instrument(
        pairlab.exploration, "start_exploration", "exploration.start_exploration"))
    stack.enter_context(tracer.instrument(
        pairlab.harness, "build_subpower_sequence",
        "degree_model.build_subpower_sequence"))
    return stack


def _replicates(limit: int | None, total: int) -> range:
    return range(total if limit is None else min(limit, total))


def _replay_poisson(w: Workload, tr, limit):
    import pairlab
    from pairlab.diagnostics import poisson_limit_check
    from pairlab.harness import resolve_degrees

    tr.rep = (0, -1)
    seq = tr.call("harness.resolve_degrees", resolve_degrees, w.config["degrees"])
    dist = tr.call("degree_model.empirical_distribution", pairlab.empirical_distribution, seq)
    nu_value = tr.call("degree_model.nu", pairlab.nu, dist)
    space = tr.call("pairing.PointSpace", pairlab.PointSpace.from_degree_sequence, seq)
    tr.points[0] = space.total_points
    rows, reports = [], []
    for rep in _replicates(limit, w.config["replicates"]):
        tr.rep = (0, rep)
        rng = tr.call("rng.substream", pairlab.substream, w.seed, 0, rep)
        pairing = tr.call("pairing.sample_pairing", pairlab.sample_pairing, space, rng)
        report = tr.call("pairing.project_components", pairlab.project_components, pairing)
        reports.append(report)
        rows.append([rep, report.loops, report.parallel_pairs,
                     int(report.simple), report.largest])
    tr.rep = (0, -1)
    # min_reports=1 as the harness calls it, so the replay does the same work
    tr.call("diagnostics.poisson_limit_check", poisson_limit_check,
            reports, nu_value, min_reports=1)
    return [["replicate", "loops", "parallel_pairs", "simple", "largest"]] + rows


def _replay_scaling(w: Workload, tr, limit):
    import pairlab

    grid = w.config["grid"]
    cells = [(g, n) for g in sorted(grid["gammas"]) for n in sorted(grid["sizes"])]
    rows = []
    for cell, (gamma, n) in enumerate(cells):
        tr.rep = (cell, -1)
        seq = tr.call("degree_model.build_subpower_sequence",
                      pairlab.build_subpower_sequence, n, float(gamma), 1.0,
                      float(grid["target_nu"]))
        dist = tr.call("degree_model.empirical_distribution", pairlab.empirical_distribution, seq)
        nu_actual = tr.call("degree_model.nu", pairlab.nu, dist)
        space = tr.call("pairing.PointSpace", pairlab.PointSpace.from_degree_sequence, seq)
        tr.points[cell] = space.total_points
        scale = n ** (1.0 / gamma) * math.log(n)
        for rep in _replicates(limit, w.config["replicates"]):
            tr.rep = (cell, rep)
            rng = tr.call("rng.substream", pairlab.substream, w.seed, cell, rep)
            pairing = tr.call("pairing.sample_pairing", pairlab.sample_pairing, space, rng)
            report = tr.call("pairing.project_components", pairlab.project_components, pairing)
            rows.append([gamma, n, nu_actual, rep, report.largest, report.largest / scale])
    return [["gamma", "n", "nu", "replicate", "largest", "normalized"]] + rows


def _replay_trajectory(w: Workload, tr, limit):
    import numpy as np

    import pairlab
    from pairlab.diagnostics import trajectory_deviation
    from pairlab.harness import DEFAULT_TOLERANCES, resolve_degrees

    tr.rep = (0, -1)
    seq = tr.call("harness.resolve_degrees", resolve_degrees, w.config["degrees"])
    dist = tr.call("degree_model.empirical_distribution", pairlab.empirical_distribution, seq)
    root = int(np.argmax(seq.degrees))
    j_max = int(DEFAULT_TOLERANCES["trajectory_j_max"])
    track = [j for j in range(1, j_max + 1) if j in dist.counts]
    rows = []
    for rep in _replicates(limit, w.config["replicates"]):
        tr.rep = (0, rep)
        rng = tr.call("rng.substream", pairlab.substream, w.seed, 0, rep)
        trace = tr.call("exploration.explore_component", pairlab.explore_component,
                        seq, root, rng, record_trace=True)
        tr.steps += len(trace.steps)
        for j in track:
            rows.append([rep, j, tr.call("diagnostics.trajectory_deviation",
                                         trajectory_deviation, trace, dist, j)])
    return [["replicate", "j", "deviation"]] + rows


def _replay_decompose(w: Workload, tr, limit):
    import decompose
    import pairlab

    tr.rep = (0, -1)
    seq = decompose.degree_sequence(w.config)
    rows = []
    for rep in _replicates(limit, w.config["replicates"]):
        tr.rep = (0, rep)
        rng = tr.call("rng.substream", pairlab.substream, w.seed, 0, rep)
        sizes = tr.call("exploration.largest_component_via_exploration",
                        pairlab.largest_component_via_exploration, seq, rng)
        tr.steps += seq.two_m // 2  # a full decomposition matches all m pairs
        rows.append(decompose.row(rep, sizes))
    return [decompose.HEADER] + rows


_REPLAYS = {
    "poisson": _replay_poisson,
    "scaling": _replay_scaling,
    "trajectory": _replay_trajectory,
    "decompose": _replay_decompose,
}
