"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are fixed here, not calibrated at runtime.  Thresholds marked
as pilot-fixed were frozen from a seeded pilot run (seeds recorded next to
the constants).
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import stats

import pairlab.harness
from pairlab.degree_model import (
    DegreeSequence,
    build_subpower_sequence,
    empirical_distribution,
    nu,
)
from pairlab.diagnostics import (
    drift_estimate,
    exact_initial_drift,
    martingale_one_step_error,
)
from pairlab.exploration import (
    ExplorationState,
    explore_component,
    largest_component_via_exploration,
    start_exploration,
)
from pairlab.harness import ExperimentConfig, run
from pairlab.pairing import enumerate_pairings, project_components, sample_pairing
from pairlab.rng import substream


def verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"[ACCEPTANCE {criterion}] {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_exact_oracle_equivalence():
    """d=(2,2): sampler frequencies within 3 sigma of 1/3 over 1e5 draws;
    enumeration reproduces P(X=2)=1/3, P(Y=1)=2/3, P(simple)=0; under 5 s."""
    t0 = time.monotonic()
    seq = DegreeSequence((2, 2))
    pairings = list(enumerate_pairings(seq))
    reports = [project_components(p) for p in pairings]
    x_dist = Counter(r.loops for r in reports)
    y_dist = Counter(r.parallel_pairs for r in reports)
    simple = sum(r.loops == 0 and r.parallel_pairs == 0 for r in reports)
    oracle_ok = (
        len(pairings) == 3
        and x_dist[2] == 1  # P(X=2) = 1/3
        and y_dist[1] == 2  # P(Y=1) = 2/3
        and simple == 0  # P(simple) = 0
    )

    draws = 100_000
    rng = substream(101)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(draws):
        counts[sample_pairing(seq, rng).index()] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
    worst = np.max(np.abs(counts / draws - 1 / 3))
    elapsed = time.monotonic() - t0
    verdict(
        1,
        oracle_ok and worst <= 3 * sigma and elapsed < 5.0,
        f"max |freq - 1/3| = {worst:.5f} (3 sigma = {3 * sigma:.5f}), "
        f"oracle_ok={oracle_ok}, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_poisson_lemma(tmp_path):
    """3-regular n=1e4, 1e4 replicates: mean X = 1.00 +/- 0.03,
    mean Y = 1.00 +/- 0.04, P{X=0,Y=0} = exp(-2) +/- 0.010; under 2 min.

    Runs the ``poisson_check`` config (seed 202, 2 workers) whose default
    tolerances are these bounds, so it also needs the mode's fourth verdict,
    ``corr_z``: the loops/parallel-pairs correlation within 3 sigma of 0."""
    t0 = time.monotonic()
    summary = run(ExperimentConfig.from_dict({
        "mode": "poisson_check",
        "replicates": 10_000,
        "seed": 202,
        "workers": 2,
        "output_dir": str(tmp_path),
        "degrees": {"kind": "regular", "n": 10_000, "d": 3},
    }))
    elapsed = time.monotonic() - t0
    verdict(
        2,
        summary.passed and elapsed < 120.0,
        ", ".join(f"{v.name} = {v.value:.4f} (target {v.target:.4f} +/- "
                  f"{v.tolerance})" for v in summary.verdicts)
        + f", runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_3_conservation():
    """A(t) + I(t) = 2m - 2t asserted at every one of >= 1e6 steps."""
    seq = DegreeSequence((3,) * 10_000)
    steps = 0
    runs = 0
    while steps < 1_000_000:
        state = ExplorationState(seq)
        rng = substream(303, runs)
        for v in range(seq.n):
            if state.visited[v]:
                continue
            state.begin(v)
            while state.active > 0:
                state.step(rng)  # raises ConservationError on any violation
        steps += state.t_global
        runs += 1
    verdict(3, steps >= 1_000_000, f"{steps} steps, zero violations")


def test_criterion_4_martingale_identity():
    """On >= 1e3 reachable subcritical states, the analytic one-step mean of
    the normalized inactive count equals its current value to 1e-12."""
    seq = build_subpower_sequence(20_000, 3.5, 1.0, 0.9)
    snapshots = []
    seed = 0
    while len(snapshots) < 1000:
        root = seed % seq.n
        state = start_exploration(seq, root)
        rng = substream(404, seed)
        while state.active > 0 and state.inactive_points > 0:
            snapshots.append(state.snapshot())
            state.step(rng)
        seed += 1
    snapshots = snapshots[:1500]
    worst = max(
        martingale_one_step_error(snap, j)
        for snap in snapshots
        for j in snap.inactive_counts
    )
    verdict(
        4,
        worst <= 1e-12,
        f"{len(snapshots)} states, worst relative error {worst:.2e} <= 1e-12",
    )


def test_criterion_5_drift():
    """Exact initial drift within C/n of nu - 1, error decreasing on a
    doubling n-grid; empirical early-window drift within 3 sigma of exact."""
    errors = []
    for k in range(7):
        n = 1000 * 2**k
        seq = build_subpower_sequence(n, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        errors.append(abs(exact_initial_drift(dist, 1) - (nu(dist) - 1)))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    bounded = all(
        err <= 2.0 / (1000 * 2**k) for k, err in enumerate(errors)
    )

    seq = build_subpower_sequence(16_000, 3.5, 1.0, 0.9)
    dist = empirical_distribution(seq)
    root = seq.degrees.index(1)
    traces = [
        explore_component(seq, root, substream(505, rep), record_trace=True)
        for rep in range(400)
    ]
    est = drift_estimate(traces, window=1)
    exact = exact_initial_drift(dist, 1)
    empirical_ok = abs(est.mean - exact) <= 3 * est.sem
    verdict(
        5,
        monotone and bounded and empirical_ok,
        f"errors {['%.2e' % e for e in errors]} monotone={monotone}, "
        f"empirical drift {est.mean:.4f} vs exact {exact:.4f} "
        f"(3 sigma = {3 * est.sem:.4f})",
    )


def test_criterion_6_trajectory(tmp_path):
    """gamma=3.5, n=1e5, max-degree roots, 100 replicates: for j <= 5 the
    median max_t |I_j(t) - prediction|/n is at most 0.01; under 5 min.

    Runs the ``trajectory`` config (seed 606, 1 worker) whose default
    ``trajectory_threshold`` and ``trajectory_j_max`` are 0.01 and 5; the
    mode explores from the first max-degree vertex.  Threshold 0.01 fixed by
    the pilot run with seed 606 (medians there were below 2e-3 for every j)."""
    t0 = time.monotonic()
    summary = run(ExperimentConfig.from_dict({
        "mode": "trajectory",
        "replicates": 100,
        "seed": 606,
        "workers": 1,
        "output_dir": str(tmp_path),
        "degrees": {"kind": "subpower", "n": 100_000, "gamma": 3.5, "c": 1.0,
                    "target_nu": 0.9},
    }))
    medians = {cell["j"]: cell["median_deviation"] for cell in summary.cells}
    elapsed = time.monotonic() - t0
    verdict(
        6,
        summary.passed and elapsed < 300.0,
        f"median deviation by j: "
        f"{ {j: '%.2e' % m for j, m in medians.items()} }, "
        f"runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_7_theorem_scaling(tmp_path):
    """gamma in {3.5, 4.5}, n in {1e3, 1e4, 1e5}, 200 replicates per cell:
    the 95th percentile of C_n/(n^(1/gamma) ln n) varies by at most a factor
    of 3 across the n-grid, and max degree / n^(1/gamma) stays in
    [0.5, 1.5]; under 15 min."""
    t0 = time.monotonic()
    cells = run(ExperimentConfig.from_dict({
        "mode": "scaling",
        "replicates": 200,
        "seed": 707,
        "workers": 1,
        "output_dir": str(tmp_path),
        "grid": {"gammas": [3.5, 4.5], "sizes": [1_000, 10_000, 100_000],
                 "target_nu": 0.9},
    })).cells
    errors = [cell["error"] for cell in cells if "error" in cell]
    assert not errors, errors
    factors = {}
    for gamma in (3.5, 4.5):
        q95s = [cell["q95"] for cell in cells if cell["gamma"] == gamma]
        factors[gamma] = max(q95s) / min(q95s)
    ratios_ok = all(0.5 <= cell["max_degree_ratio"] <= 1.5 for cell in cells)
    elapsed = time.monotonic() - t0
    ok = all(f <= 3.0 for f in factors.values()) and ratios_ok and elapsed < 900.0
    verdict(
        7,
        ok,
        f"q95 factors {{3.5: {factors[3.5]:.2f}, 4.5: {factors[4.5]:.2f}}} "
        f"<= 3, max-degree ratios ok={ratios_ok}, runtime {elapsed:.0f}s < 900s",
    )


def _two_sample_chi2(a: Counter, b: Counter, min_count: int = 10) -> float:
    """Two-sample chi-squared p-value, pooling rare categories."""
    keys = sorted(set(a) | set(b))
    rows_a, rows_b = [], []
    pooled_a = pooled_b = 0
    for key in keys:
        if a[key] + b[key] < min_count:
            pooled_a += a[key]
            pooled_b += b[key]
        else:
            rows_a.append(a[key])
            rows_b.append(b[key])
    if pooled_a + pooled_b > 0:
        rows_a.append(pooled_a)
        rows_b.append(pooled_b)
    _, p_value, _, _ = stats.chi2_contingency([rows_a, rows_b])
    return float(p_value)


def test_criterion_8_pipeline_agreement():
    """Component-size distributions from exploration-based decomposition and
    full-pairing projection agree (chi-squared at 1e-3), with exact support
    equality on the enumerable instances."""
    results = []
    for seq, draws in [
        (DegreeSequence((2, 2)), 4000),
        (DegreeSequence((1, 1, 1, 1)), 4000),
        (DegreeSequence((3,) * 10), 10_000),
    ]:
        explo = Counter(
            tuple(sorted(largest_component_via_exploration(seq, substream(808, 0, rep))))
            for rep in range(draws)
        )
        proj = Counter(
            tuple(sorted(project_components(
                sample_pairing(seq, substream(808, 1, rep))
            ).component_sizes))
            for rep in range(draws)
        )
        p_value = _two_sample_chi2(explo, proj)
        support_ok = True
        if seq.two_m // 2 <= 2:  # enumerable: compare against exact support
            exact = {
                tuple(sorted(project_components(p).component_sizes))
                for p in enumerate_pairings(seq)
            }
            support_ok = set(explo) == exact == set(proj)
        results.append((seq.degrees, p_value, support_ok))
    ok = all(p >= 1e-3 and s for _, p, s in results)
    verdict(
        8,
        ok,
        "; ".join(
            f"d={d}: p={p:.3f}, support_ok={s}" for d, p, s in results
        ),
    )


def test_criterion_9_determinism(tmp_path, monkeypatch):
    """Identical config and seed yield byte-identical artifacts at worker
    counts 1 and 8."""
    # the pool must run, however quickly the parent could finish alone
    monkeypatch.setattr(pairlab.harness, "_POOL_START_S", 0)
    base_poisson = {
        "mode": "poisson_check",
        "replicates": 240,
        "seed": 909,
        "degrees": {"kind": "regular", "n": 300, "d": 3},
    }
    base_scaling = {
        "mode": "scaling",
        "replicates": 40,
        "seed": 910,
        "grid": {"gammas": [3.5], "sizes": [300, 600], "target_nu": 0.9},
    }
    identical = True
    details = []
    for base in (base_poisson, base_scaling):
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"{base['mode']}_w{workers}"
            summary = run(ExperimentConfig.from_dict(
                {**base, "workers": workers, "output_dir": str(out)}
            ))
            blobs.append([open(a, "rb").read() for a in summary.artifacts])
        same = blobs[0] == blobs[1]
        identical = identical and same
        details.append(f"{base['mode']}: identical={same}")
    verdict(9, identical, "; ".join(details))
