import math

import numpy as np
import pytest

from pairlab.degree_model import (
    DegreeSequence,
    build_subpower_sequence,
    empirical_distribution,
    nu,
)
from pairlab.diagnostics import (
    HorizonExceededError,
    InsufficientSamplesError,
    depletion_product,
    depletion_products,
    drift_estimate,
    exact_initial_drift,
    expected_active_change,
    martingale_one_step_error,
    martingale_value,
    poisson_limit_check,
    predicted_path,
    trajectory_deviation,
)
from pairlab.exploration import explore_component, start_exploration
from pairlab.pairing import enumerate_pairings, project_components
from pairlab.rng import substream


def _pool(state):
    """The unmatched points in pool order."""
    return [state._slot[i] for i in range(state._size)]


def subcritical_states(seq, seeds, max_steps=200):
    """Pre-stopping snapshots harvested from fresh explorations."""
    snaps = []
    for seed in seeds:
        state = start_exploration(seq, 0)
        rng = substream(seed)
        for _ in range(max_steps):
            if state.active == 0 or state.inactive_points == 0:
                break
            snaps.append(state.snapshot())
            state.step(rng)
    return snaps


class TestMartingale:
    def test_initial_value_root_degree_class(self):
        seq = build_subpower_sequence(1000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        d_root = seq.degrees[0]
        snap = start_exploration(seq, 0).snapshot()
        assert martingale_value(snap, d_root) == dist.counts[d_root] - 1

    def test_initial_value_other_class(self):
        seq = build_subpower_sequence(1000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        snap = start_exploration(seq, 0).snapshot()  # root has the max degree
        assert martingale_value(snap, 1) == dist.counts[1]

    def test_one_step_identity_on_reachable_states(self):
        seq = build_subpower_sequence(5000, 3.5, 1.0, 0.9)
        snaps = subcritical_states(seq, seeds=range(40))
        assert len(snaps) >= 100
        worst = max(
            martingale_one_step_error(snap, j)
            for snap in snaps
            for j in snap.inactive_counts
        )
        assert worst <= 1e-12


class TestTrajectory:
    def test_initial_point(self):
        seq = build_subpower_sequence(1000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        d_root = seq.degrees[0]
        assert predicted_path(dist, d_root, d_root, 0)[0] == dist.counts[d_root] - 1
        assert predicted_path(dist, d_root, 1, 0)[0] == dist.counts[1]

    def test_absent_degree_class_stays_zero(self):
        dist = empirical_distribution(DegreeSequence((3,) * 4))
        assert predicted_path(dist, 3, 5, 2).tolist() == [0.0] * 3

    def test_monotone_nonincreasing_in_t(self):
        seq = build_subpower_sequence(1000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        values = predicted_path(dist, seq.degrees[0], 2, 49).tolist()
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_product_close_to_closed_form(self):
        # agreement with n p_j (1 - 2t/2m)^(j/2) within 5*j*(t+1)/(2m) in
        # the j*t << n regime
        seq = DegreeSequence((1,) * 99_988 + (3,) * 4 + (2,) * 8)
        dist = empirical_distribution(seq)
        two_m = dist.two_m
        for j, t in [(3, 1000), (2, 500), (1, 2000)]:
            predicted = predicted_path(dist, 1, j, t)[t]
            closed_form = dist.counts[j] * (1.0 - 2 * t / two_m) ** (j / 2)
            rel = abs(predicted - closed_form) / closed_form
            assert rel <= 5 * j * (t + 1) / two_m

    def test_horizon_guard(self):
        # the path runs through t = m, which a full component reaches
        dist = empirical_distribution(DegreeSequence((1, 1)))
        assert predicted_path(dist, 1, 1, 1).tolist() == [1.0, 0.0]
        with pytest.raises(HorizonExceededError):
            predicted_path(dist, 1, 1, 2)

    def test_forced_instance_deviation_zero(self):
        seq = DegreeSequence((1, 1))
        dist = empirical_distribution(seq)
        trace = explore_component(seq, 0, substream(1), record_trace=True)
        assert trajectory_deviation(trace, dist, 1) == 0.0

    def test_deviation_nonnegative_and_small_subcritical(self):
        seq = build_subpower_sequence(20_000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        devs = [
            trajectory_deviation(
                explore_component(seq, 0, substream(2, rep), record_trace=True),
                dist,
                j,
            )
            for rep in range(10)
            for j in (1, 2, 3)
        ]
        assert all(d >= 0 for d in devs)
        assert np.median(devs) <= 0.01

    def test_depletion_products_consistent(self):
        prods = depletion_products(3, 10, 1000)
        assert prods[0] == 1.0
        assert prods[7] == pytest.approx(depletion_product(3, 7, 1000), rel=1e-15)


class TestDrift:
    def test_all_ones_drift_is_minus_one(self):
        dist = empirical_distribution(DegreeSequence((1,) * 100))
        # -(n-1)/(n-1) exactly: every step consumes the root point
        assert exact_initial_drift(dist, 1) == pytest.approx(-1.0)
        assert nu(dist) - 1 == -1.0

    def test_three_regular_supercritical_drift(self):
        dist = empirical_distribution(DegreeSequence((3,) * 10_000))
        drift = exact_initial_drift(dist, 3)
        assert drift == pytest.approx(1.0, abs=1e-3)  # nu - 1 = 1

    def test_matches_state_formula_at_start(self):
        seq = build_subpower_sequence(3000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        snap = start_exploration(seq, 0).snapshot()
        assert exact_initial_drift(dist, seq.degrees[0]) == pytest.approx(
            expected_active_change(snap), rel=1e-12
        )

    def test_point_level_enumeration_matches_formula(self):
        # classify every point in the partner pool individually; the weighted
        # mean of the resulting delta-A must reproduce the analytic value
        seq = DegreeSequence((3, 2, 2, 1))
        state = start_exploration(seq, 0)
        snap = state.snapshot()
        owner = np.repeat(np.arange(seq.n), seq.degrees)
        deltas = []
        for s in _pool(state):
            if s in seq.points_of(0):
                continue  # the dequeued point itself is excluded separately
            if state.is_active[s]:
                deltas.append(-2)
            else:
                deltas.append(seq.degrees[int(owner[s])] - 2)
        # pool minus the point being matched: 2 other actives + 5 inactive
        by_hand = (2 * (-2) + sum(
            seq.degrees[int(owner[s])] - 2
            for s in _pool(state)
            if not state.is_active[s]
        )) / (snap.active + snap.inactive_points - 1)
        assert by_hand == pytest.approx(expected_active_change(snap), rel=1e-12)

    def test_empirical_drift_within_ci(self):
        seq = build_subpower_sequence(8000, 3.5, 1.0, 0.9)
        dist = empirical_distribution(seq)
        root = seq.n - 1
        assert seq.degrees[root] == 1
        traces = [
            explore_component(seq, root, substream(3, rep), record_trace=True)
            for rep in range(300)
        ]
        est = drift_estimate(traces, window=1)
        exact = exact_initial_drift(dist, 1)
        assert abs(est.mean - exact) <= 3 * est.sem


class TestPoissonCheck:
    def test_exact_enumeration_stream_two_two(self):
        reports = [project_components(p) for p in enumerate_pairings(DegreeSequence((2, 2)))]
        reports = reports * 400  # exact distribution, replicated
        check = poisson_limit_check(reports, nu_value=1.0, min_reports=1000)
        assert check.mean_loops == pytest.approx(2 / 3)
        assert check.mean_parallel == pytest.approx(2 / 3)
        assert check.p_simple == 0.0

    def test_degree_one_degenerate(self):
        reports = [project_components(p) for p in enumerate_pairings(DegreeSequence((1, 1)))]
        check = poisson_limit_check(reports * 1000, nu_value=0.0, min_reports=1000)
        assert check.mean_loops == 0.0
        assert check.mean_parallel == 0.0
        assert check.p_simple == 1.0
        assert check.target_simple == 1.0

    def test_sample_floor(self):
        with pytest.raises(InsufficientSamplesError):
            poisson_limit_check([], 1.0)
