"""Theory-side verifiers for the exploration chain and the pairing model.

Covers the normalized inactive-count martingale, the deterministic trajectory
the counts follow, drift of the active-point count, Poisson statistics of the
loop / parallel-edge counts, and the scaling experiment for the largest
component in the subcritical phase.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .degree_model import (
    DegreeSequence,
    EmpiricalDistribution,
    build_subpower_sequence,
    empirical_distribution,
    nu,
)
from .exploration import ExplorationTrace, StateSnapshot
from .pairing import ComponentReport, PointSpace, project_components, sample_pairing
from .rng import substream


class HorizonExceededError(ValueError):
    """Requested step is beyond the point-depletion horizon 2t < 2m."""


class InsufficientSamplesError(ValueError):
    """Too few reports for a meaningful statistical check."""


def depletion_factors(j: int, t: int, total_points: int) -> np.ndarray:
    """Factors (1 - j/(2m - 2*tau - 1)) for tau = 0 .. t-1.

    Defined up to t = m, where the last denominator reaches 1.
    """
    if 2 * (t - 1) >= total_points - 1:
        raise HorizonExceededError(f"t = {t} beyond horizon m = {total_points // 2}")
    denom = total_points - 2 * np.arange(t, dtype=np.float64) - 1
    return 1.0 - j / denom


def depletion_product(j: int, t: int, total_points: int) -> float:
    """Product of the depletion factors up to step t (empty product at t=0)."""
    return float(np.prod(depletion_factors(j, t, total_points)))


def depletion_products(j: int, t_max: int, total_points: int) -> np.ndarray:
    """Running products for t = 0 .. t_max; entry 0 is 1."""
    factors = depletion_factors(j, t_max, total_points)
    return np.concatenate([[1.0], np.cumprod(factors)])


def martingale_value(snapshot: StateSnapshot, j: int) -> float:
    """I_j(t) divided by the running depletion product: constant in mean."""
    i_j = snapshot.inactive_counts.get(j, 0)
    return i_j / depletion_product(j, snapshot.t, snapshot.total_points)


def martingale_one_step_error(snapshot: StateSnapshot, j: int) -> float:
    """Relative gap between X_j(t) and the analytic mean of X_j(t+1).

    Valid for pre-stopping states (A > 0 and I > 0).  The one-step transition
    law drops I_j with probability j*I_j/(A + I - 1), so the conditional mean
    of the normalized count reproduces its current value exactly.
    """
    i_j = snapshot.inactive_counts.get(j, 0)
    a, i_total = snapshot.active, snapshot.inactive_points
    expected_i = i_j * (1.0 - j / (a + i_total - 1))
    expected_x = expected_i / depletion_product(
        j, snapshot.t + 1, snapshot.total_points
    )
    x_now = martingale_value(snapshot, j)
    if x_now == 0.0:
        return abs(expected_x)
    return abs(expected_x - x_now) / abs(x_now)


@dataclass(frozen=True)
class TrajectoryPrediction:
    """Deterministic path of I_j(t): exact product and closed-form versions."""

    j: int
    t: int
    predicted: float  # (n p_j - [j = d_root]) * running product
    closed_form: float  # n p_j * (1 - 2t/(2m))**(j/2)


def predict_trajectory(
    dist: EmpiricalDistribution, d_root: int, j: int, t: int
) -> TrajectoryPrediction:
    two_m = dist.two_m
    if 2 * t >= two_m:
        raise HorizonExceededError(f"2t = {2 * t} >= 2m = {two_m}")
    count_j = dist.counts.get(j, 0)
    start = count_j - (1 if j == d_root else 0)
    predicted = start * depletion_product(j, t, two_m)
    closed = count_j * (1.0 - 2 * t / two_m) ** (j / 2)
    return TrajectoryPrediction(j=j, t=t, predicted=predicted, closed_form=closed)


def trajectory_deviation(
    trace: ExplorationTrace, dist: EmpiricalDistribution, j: int
) -> float:
    """max over recorded t of |I_j(t) - predicted path| / n."""
    series = trace.inactive_series(j)
    t_max = len(series) - 1
    start = dist.counts.get(j, 0) - (1 if j == trace.root_degree else 0)
    preds = start * depletion_products(j, t_max, trace.total_points)
    return float(np.max(np.abs(series - preds)) / trace.n)


def expected_active_change(snapshot: StateSnapshot) -> float:
    """Analytic one-step mean of A(t+1) - A(t) at the given state."""
    a, i_total = snapshot.active, snapshot.inactive_points
    denom = a + i_total - 1
    cross = sum(
        j * k * (j - 2) for j, k in snapshot.inactive_counts.items()
    )
    return (-2 * (a - 1) + cross) / denom


def exact_initial_drift(dist: EmpiricalDistribution, d_root: int) -> float:
    """Mean first-step change of A for a fresh exploration rooted at degree
    d_root; approaches nu - 1 as n grows."""
    counts = dict(dist.counts)
    counts[d_root] -= 1  # the root is active, no longer inactive
    return expected_active_change(StateSnapshot(0, d_root, counts, dist.two_m))


@dataclass(frozen=True)
class DriftEstimate:
    """Empirical per-step increment of A over an early-step window."""

    mean: float
    sem: float
    steps: int


def drift_estimate(traces: list[ExplorationTrace], window: int) -> DriftEstimate:
    """Mean observed delta-A over steps t <= window, pooled across traces."""
    deltas = [
        rec.delta_active
        for trace in traces
        for rec in trace.steps
        if rec.t <= window
    ]
    if not deltas:
        raise ValueError("no steps inside the window")
    arr = np.array(deltas, dtype=np.float64)
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return DriftEstimate(mean=float(arr.mean()), sem=sem, steps=len(arr))


@dataclass(frozen=True)
class PoissonCheck:
    """Loop / parallel-edge statistics against their Poisson limits."""

    mean_loops: float
    mean_parallel: float
    p_simple: float
    corr: float
    target_loops: float  # nu / 2
    target_parallel: float  # (nu / 2)**2
    target_simple: float  # exp(-nu/2 - nu**2/4)
    z_corr: float


def poisson_limit_check(
    reports: Sequence[ComponentReport], nu_value: float, min_reports: int = 1000
) -> PoissonCheck:
    """Sample means, simplicity rate and X-Y correlation (with its z-score)
    beside the Poisson limits (rates nu/2 and (nu/2)**2, independent).

    Only ``loops``, ``parallel_pairs`` and ``simple`` of each report are read,
    so any record carrying those three serves as well.
    """
    if len(reports) < min_reports:
        raise InsufficientSamplesError(
            f"{len(reports)} reports < floor {min_reports}"
        )
    x = np.array([r.loops for r in reports], dtype=np.float64)
    y = np.array([r.parallel_pairs for r in reports], dtype=np.float64)
    simple = np.array([r.simple for r in reports], dtype=np.float64)
    if x.std() > 0 and y.std() > 0:
        corr = float(np.corrcoef(x, y)[0, 1])
    else:
        corr = 0.0
    return PoissonCheck(
        mean_loops=float(x.mean()),
        mean_parallel=float(y.mean()),
        p_simple=float(simple.mean()),
        corr=corr,
        target_loops=nu_value / 2,
        target_parallel=(nu_value / 2) ** 2,
        target_simple=math.exp(-nu_value / 2 - nu_value**2 / 4),
        z_corr=corr * math.sqrt(len(reports)),
    )


@dataclass(frozen=True)
class ScalingRecord:
    """Largest component of one replicate, normalized by n**(1/gamma) * ln n."""

    n: int
    gamma: float
    nu_actual: float
    replicate: int
    largest: int
    normalized: float


@dataclass(frozen=True)
class ScalingCellSummary:
    n: int
    gamma: float
    nu_actual: float
    max_degree_ratio: float  # max_v d_v / n**(1/gamma)
    q50: float
    q95: float
    q_max: float


def scaling_cell_records(
    seq: DegreeSequence, gamma: float, nu_actual: float,
    seed: int, cell_index: int, reps: range,
) -> list[ScalingRecord]:
    """Replicates ``reps`` of one (gamma, n) cell; replicate r draws from
    ``substream(seed, cell_index, r)``."""
    n, space = seq.n, PointSpace.from_degree_sequence(seq)
    scale = n ** (1.0 / gamma) * math.log(n)
    records = []
    for rep in reps:
        rng = substream(seed, cell_index, rep)
        size = project_components(sample_pairing(space, rng)).largest
        records.append(ScalingRecord(n, gamma, nu_actual, rep, size, size / scale))
    return records


def summarize_scaling_cell(
    records: list[ScalingRecord], max_degree: int
) -> ScalingCellSummary:
    """Quantiles of the normalized largest component over one cell."""
    first = records[0]
    normalized = np.array([r.normalized for r in records])
    return ScalingCellSummary(
        n=first.n,
        gamma=first.gamma,
        nu_actual=first.nu_actual,
        max_degree_ratio=max_degree / first.n ** (1.0 / first.gamma),
        q50=float(np.quantile(normalized, 0.5)),
        q95=float(np.quantile(normalized, 0.95)),
        q_max=float(normalized.max()),
    )


def scaling_experiment(
    gammas: list[float],
    sizes: list[int],
    replicates: int,
    seed: int,
    target_nu: float = 0.9,
    c: float = 1.0,
) -> tuple[list[ScalingRecord], list[ScalingCellSummary]]:
    """Monte Carlo grid over (gamma, n): normalized largest-component sizes.

    Cells run in sorted order, cell k drawing from ``substream(seed, k, rep)``;
    a sequence that cannot be built raises the builder's ValueError.
    """
    records: list[ScalingRecord] = []
    summaries: list[ScalingCellSummary] = []
    cells = [(g, n) for g in sorted(gammas) for n in sorted(sizes)]
    for cell_index, (gamma, n) in enumerate(cells):
        seq = build_subpower_sequence(n, gamma, c, target_nu)
        cell = scaling_cell_records(seq, gamma, nu(empirical_distribution(seq)),
                                    seed, cell_index, range(replicates))
        records.extend(cell)
        summaries.append(summarize_scaling_cell(cell, seq.max_degree))
    return records, summaries
