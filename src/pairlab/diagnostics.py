"""Theory-side verifiers for the exploration chain and the pairing model.

Covers the normalized inactive-count martingale, the deterministic trajectory
the counts follow, drift of the active-point count, and Poisson statistics of
the loop / parallel-edge counts.  The largest-component scaling experiment is
the harness's ``scaling`` mode.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import rng
from .degree_model import EmpiricalDistribution, predicted_simple_probability

if TYPE_CHECKING:  # annotations only: a Poisson check loads no exploration
    import numpy as np

    from .exploration import ExplorationTrace, StateSnapshot
    from .pairing import ComponentReport


class HorizonExceededError(ValueError):
    """Requested step is beyond the point-depletion horizon t = m."""


class InsufficientSamplesError(ValueError):
    """Too few reports for a meaningful statistical check."""


def _check_horizon(t_max: int, total_points: int) -> None:
    """Refuse a step t_max past m, where the running product's last
    denominator 2m - 2(t_max - 1) - 1 would fall below 1."""
    if 2 * (t_max - 1) >= total_points - 1:
        raise HorizonExceededError(
            f"t = {t_max} beyond horizon m = {total_points // 2}"
        )


def depletion_products(j: int, t_max: int, total_points: int) -> np.ndarray:
    """Running products of (1 - j/(2m - 2*tau - 1)) over tau < t, for
    t = 0 .. t_max; entry 0 is the empty product 1.

    Defined up to t = m, where the last denominator reaches 1.
    """
    import numpy as np

    _check_horizon(t_max, total_points)
    denom = total_points - 2 * np.arange(t_max, dtype=np.float64) - 1
    return np.concatenate([[1.0], np.cumprod(1.0 - j / denom)])


def depletion_product(j: int, t: int, total_points: int) -> float:
    """The running product at step t (the empty product 1 at t = 0)."""
    return float(depletion_products(j, t, total_points)[-1])


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


def predicted_path(
    dist: EmpiricalDistribution, root_degree: int, j: int, t_max: int
) -> np.ndarray:
    """The deterministic path of I_j(t) for t = 0 .. t_max from a root of
    degree ``root_degree``: (n p_j - [j = root_degree]) times the running
    depletion product.  Defined up to t = m."""
    start = dist.counts.get(j, 0) - (1 if j == root_degree else 0)
    return start * depletion_products(j, t_max, dist.two_m)


def trajectory_deviation(
    trace: ExplorationTrace, dist: EmpiricalDistribution, j: int
) -> float:
    """max over recorded t of |I_j(t) - predicted path| / n.

    While numpy is unloaded (``rng.numpy_loaded``), one Python pass
    computes the same float (``_deviation_in_python``); otherwise numpy's
    array form, which is faster past a few dozen steps, does.
    """
    if not rng.numpy_loaded():
        return _deviation_in_python(trace, dist, j)
    import numpy as np

    series = trace.inactive_series(j)
    preds = predicted_path(dist, trace.root_degree, j, len(series) - 1)
    return float(np.max(np.abs(series - preds)) / trace.n)


def _deviation_in_python(
    trace: ExplorationTrace, dist: EmpiricalDistribution, j: int
) -> float:
    """``trajectory_deviation`` in one pass over the steps, keeping the
    running product, I_j and the running max of |I_j - path|.  Each float
    operation is the one numpy applies to that element, in the same order
    (``cumprod`` multiplies left to right), so the result is the same float.
    """
    _check_horizon(len(trace.steps), dist.two_m)
    start = dist.counts.get(j, 0) - (1 if j == trace.root_degree else 0)
    i_j = trace.initial_inactive_counts.get(j, 0)
    product, denom = 1.0, float(dist.two_m - 1)
    worst = abs(i_j - start * product)
    for degree in trace.steps:
        product *= 1.0 - j / denom
        denom -= 2.0
        if degree == j:
            i_j -= 1
        gap = abs(i_j - start * product)
        if gap > worst:
            worst = gap
    return worst / trace.n


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
    from .exploration import StateSnapshot

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
    import numpy as np

    first = max(window, 0)
    arr = np.concatenate(
        [np.empty(0)] + [np.diff(trace.active_series())[:first] for trace in traces]
    )
    if not arr.size:
        raise ValueError("no steps inside the window")
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
    import numpy as np

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
        target_simple=predicted_simple_probability(nu_value),
        z_corr=corr * math.sqrt(len(reports)),
    )
