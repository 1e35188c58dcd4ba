import hashlib
from collections import Counter
from itertools import accumulate, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pairlab.degree_model import DegreeSequence, build_subpower_sequence
from pairlab.exploration import (
    CannotStepError,
    ConservationError,
    ExplorationState,
    _decomposition_state,
    _walk,
    explore_component,
    largest_component_via_exploration,
    start_exploration,
)
from pairlab.pairing import project_components
from pairlab.rng import substream

D11 = DegreeSequence((1, 1))
D22 = DegreeSequence((2, 2))


def _pool(state):
    """The unmatched points in pool order."""
    return [state._slot[i] for i in range(state._size)]


def even_degree_lists(max_n=12, max_d=4):
    def fix_parity(degrees):
        if sum(degrees) % 2 != 0:
            degrees = degrees + [1]
        return degrees

    return st.lists(
        st.integers(min_value=1, max_value=max_d), min_size=2, max_size=max_n
    ).map(fix_parity)


class TestStart:
    def test_regular_root(self):
        state = start_exploration(DegreeSequence((3, 3, 3, 3)), 1)
        assert state.active == 3
        assert state.inactive_counts == {3: 3}
        assert state.inactive_points == 9

    def test_two_singletons(self):
        state = start_exploration(D11, 1)
        assert state.active == 1
        assert state.inactive_counts == {1: 1}

    def test_mixed_degrees(self):
        state = start_exploration(DegreeSequence((1, 2, 2, 3)), 3)
        assert state.active == 3
        assert state.inactive_counts == {1: 1, 2: 2}
        assert state.inactive_points == 5

    def test_initial_conservation(self):
        seq = DegreeSequence((1, 2, 2, 3))
        for v in range(4):
            state = start_exploration(seq, v)
            assert state.active + state.inactive_points == seq.two_m

    def test_root_must_be_a_vertex(self):
        seq = DegreeSequence((3, 3, 2, 2))
        for root in (-1, 4, 1.0, "1", None):
            with pytest.raises(ValueError, match="root"):
                start_exploration(seq, root)
        state = start_exploration(seq, np.int64(3))  # numpy integers pass
        assert (state.active, state.visited, list(state.queue)) == (
            2, bytearray(b"\0\0\0\1"), [8, 9])

    def test_begin_refuses_while_points_are_active(self):
        seq = DegreeSequence((3,) * 10)
        state = start_exploration(seq, 0)
        state.step(substream(1))
        assert state.active == 4
        before = (bytes(state.visited), bytes(state.is_active), list(state.queue),
                  dict(state.inactive_counts), state.inactive_points, state.t)
        with pytest.raises(ValueError, match="4 active points"):
            state.begin(9)
        assert before == (bytes(state.visited), bytes(state.is_active),
                          list(state.queue), dict(state.inactive_counts),
                          state.inactive_points, state.t)
        state.step(substream(2))  # the state is still whole


class TestStep:
    def test_forced_transition_two_singletons(self):
        state = start_exploration(D11, 0)
        assert state.active == 1
        assert state.step(substream(1)) == 1  # the partner's degree
        assert state.active == 0
        assert state.cluster_size == 2

    def test_active_partner_when_inactive_exhausted(self):
        # root is the whole graph: after one step I = 0, partner must be active
        seq = DegreeSequence((2, 2))
        state = start_exploration(seq, 0)
        rng = substream(2)
        if state.step(rng) != 0:  # pulled in vertex 1; now I = 0, A = 2
            assert (state.active, state.inactive_points) == (2, 0)
            assert state.step(rng) == 0
            assert state.active == 0

    def test_cannot_step_when_component_done(self):
        state = start_exploration(D11, 0)
        state.step(substream(3))
        with pytest.raises(CannotStepError):
            state.step(substream(3))

    def test_one_step_law_normalizes_exactly(self):
        # jI_j weights plus the A-1 active partners equal the pool exactly
        seq = build_subpower_sequence(500, 3.5, 1.0, 0.9)
        state = start_exploration(seq, 0)
        rng = substream(4)
        for _ in range(30):
            if state.active == 0:
                break
            weights = sum(j * k for j, k in state.inactive_counts.items())
            assert weights + (state.active - 1) == len(_pool(state)) - 1
            assert weights == state.inactive_points
            state.step(rng)

    def test_transition_probability_example(self):
        # A=3, I_2=2: P{join a degree-2 vertex} = 2*2/(3+4-1); check the
        # weight bookkeeping that realizes it
        seq = DegreeSequence((3, 2, 2, 1))  # root deg 3; I = {2: 2, 1: 1}
        state = start_exploration(seq, 0)
        assert state.active == 3
        assert 2 * state.inactive_counts[2] == 4
        assert state.active + state.inactive_points - 1 == 7


def _even(degrees):
    """``degrees`` with a 1 appended when their sum is odd."""
    return degrees + [1] * (sum(degrees) % 2)


def run_lists():
    """Degree lists of many runs: free ones, alternating ones (a run per
    vertex), and ones whose maximum degree recurs in several runs."""
    pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
        lambda p: p[0] != p[1])
    return st.one_of(
        even_degree_lists(max_n=16, max_d=6),
        st.tuples(pairs, st.integers(1, 20)).map(lambda t: _even(list(t[0]) * t[1])),
        st.lists(st.integers(1, 3), min_size=1, max_size=8).map(
            lambda xs: _even([5] + xs + [5] + xs + [5])),
    )


def _block_ends(active):
    """The times at which the drivers' blocks end, from the series A(t)."""
    ends, t = set(), 0
    while t < len(active) - 1:
        t += (active[t] + 1) // 2
        ends.add(t)
    return ends


class TestSparsePool:
    @given(even_degree_lists(max_n=30), st.integers(min_value=0, max_value=2**31))
    @example([1] * 60, 0)  # 30 one-step components: the pool empties fully
    @example([1] * 60, 5)
    @example([3] * 40, 6)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_swap_remove(self, degrees, seed):
        # _advance swap-removes inline; check it against a list pool over a
        # whole decomposition, so every root sees the pool its forerunners
        # left, once on a walk's maps and once on the decomposition's arrays
        seq = DegreeSequence(tuple(degrees))
        for state in (ExplorationState(seq), _decomposition_state(seq)):
            dense = list(range(seq.two_m))  # reference: the list swap-remove pool

            def swap_remove(point):
                dense[dense.index(point)] = dense[-1]
                dense.pop()

            rng = substream(seed)
            for v in range(seq.n):
                if state.visited[v]:
                    continue
                state.begin(v)
                while state.active > 0:
                    s1 = next(s for s in state.queue if state.is_active[s])
                    x = rng.random()
                    swap_remove(s1)
                    s2 = dense[int(x * len(dense))]
                    swap_remove(s2)
                    state._advance([x])
                    assert state.pairs[-1] == (s1, s2)
                    assert _pool(state) == dense
                    assert all(state._index[s] == i for i, s in enumerate(dense))
            assert dense == [] and len(state.pairs) == seq.two_m // 2

    @pytest.mark.parametrize("seq,steps", [
        (DegreeSequence((3,) * 100_000), 2000),  # giant component: stop early
        (build_subpower_sequence(100_000, 3.5, 1.0, 0.9), None),  # whole one
    ])
    def test_state_grows_with_the_component(self, seq, steps):
        root = max(range(seq.n), key=seq.degrees.__getitem__)
        state = start_exploration(seq, root)
        assert state.pairs == [] and state._slot == state._index == {}
        rng = substream(13)
        while state.active > 0 and state.t_global != steps:
            state.step(rng)
        t = state.t_global
        assert 0 < 4 * t < seq.two_m // 10
        assert len(state.pairs) == t
        # the maps keep the dead entries they no longer read
        assert len(state._slot) <= 2 * t and len(state._index) <= 2 * t


def _component_by_steps(seq, v, rng):
    """Reference for ``explore_component``: one ``step`` (one uniform) at a
    time, with A(t) and the counts I_j(t) read off the chain after each."""
    state = start_exploration(seq, v)
    steps, stop_time = [], 0
    active, inactive = [state.active], [dict(state.inactive_counts)]
    while state.active > 0:
        steps.append(state.step(rng))
        active.append(state.active)
        inactive.append(dict(state.inactive_counts))
        if stop_time == 0 and (state.active == 0 or state.inactive_points == 0):
            stop_time = state.t
    return steps, active, inactive, stop_time, state.cluster_size


def _sizes_by_steps(seq, rng):
    """Reference for ``largest_component_via_exploration``."""
    state = ExplorationState(seq)
    sizes = []
    for v in range(seq.n):
        if not state.visited[v]:
            state.begin(v)
            while state.active > 0:
                state.step(rng)
            sizes.append(state.cluster_size)
    return sizes


class TestBlockDraws:
    """The drivers draw ceil(A/2) uniforms at a time; the result, and every
    uniform drawn, must match a loop of single ``step`` calls."""

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @example([3] * 300, 1)
    @example([9] * 40, 2)
    @settings(max_examples=80, deadline=None)
    def test_explore_component_matches_steps(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        ref_rng = substream(seed)
        steps, active, inactive, stop_time, size = _component_by_steps(
            seq, 0, ref_rng
        )
        for record_trace in (True, False):
            rng = substream(seed)
            trace = explore_component(seq, 0, rng, record_trace=record_trace)
            assert list(trace.steps) == (steps if record_trace else [])
            if record_trace:  # the series derived from the degrees are the chain's
                assert trace.active_series().tolist() == active
                for j in seq.histogram:
                    assert trace.inactive_series(j).tolist() == [
                        counts.get(j, 0) for counts in inactive
                    ]
            assert (trace.stop_time, trace.component_size) == (stop_time, size)
            # the same number of uniforms was drawn: the streams go on alike
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @example([3] * 300, 3)
    @settings(max_examples=80, deadline=None)
    def test_decomposition_matches_steps(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        rng, ref_rng = substream(seed), substream(seed)
        assert largest_component_via_exploration(seq, rng) == _sizes_by_steps(
            seq, ref_rng
        )
        assert rng.random() == ref_rng.random()

    @given(run_lists(), st.integers(min_value=0, max_value=2**31))
    @example([6, 1, 1], 31)  # I hits 0 inside the first block of 3 steps
    @example([8, 1, 1, 2], 10)  # and here inside a later block
    @example([1, 3] * 30, 4)  # a run per vertex
    @example([4, 1, 4, 4, 2, 4, 1, 2], 5)  # the max degree in three runs
    @settings(max_examples=150, deadline=None)
    def test_runs_map_and_block_drivers_match_steps(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        offsets = list(accumulate(degrees, initial=0))  # the per-vertex layout
        assert [seq.points_of(v) for v in range(seq.n)] == [
            range(offsets[v], offsets[v + 1]) for v in range(seq.n)]
        runs, v = [], 0
        for d, group in groupby(degrees):
            runs.append((offsets[v], v, d))
            v += len(list(group))
        assert list(zip(*seq.runs)) == runs
        root = seq.max_degree_vertex
        assert root == degrees.index(max(degrees))

        ref_rng = substream(seed)
        steps, active, _, stop_time, size = _component_by_steps(seq, root, ref_rng)
        rng = substream(seed)
        trace = explore_component(seq, root, rng, record_trace=True)
        assert trace.root_degree == degrees[root]
        assert (list(trace.steps), trace.stop_time, trace.component_size) == (
            steps, stop_time, size)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if (degrees, seed) in (([6, 1, 1], 31), ([8, 1, 1, 2], 10)):
            assert stop_time not in _block_ends(active)

        # a whole decomposition: blocks through ``_walk`` on the array pool
        # against step calls on the map pool
        walked, stepped = _decomposition_state(seq), ExplorationState(seq)
        rng, ref_rng = substream(seed, 1), substream(seed, 1)
        sizes = []
        for v in range(seq.n):
            assert walked.visited[v] == stepped.visited[v]
            if walked.visited[v]:
                continue
            walked.begin(v)
            stepped.begin(v)
            partners = []
            while stepped.active:
                partners.append(stepped.step(ref_rng))
            assert [d for block in _walk(walked, rng) for d in block] == partners
            assert walked.cluster_size == stepped.cluster_size
            sizes.append(walked.cluster_size)
        assert walked.pairs == stepped.pairs
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert largest_component_via_exploration(seq, substream(seed, 1)) == sizes

    def test_corrupt_state_raises_in_step_and_driver(self):
        # drift on either side of A + I = 2m - 2t is caught
        seq = DegreeSequence((3,) * 20)
        for side in ("inactive_points", "active"):
            for run in (lambda state, rng: state.step(rng),
                        lambda state, rng: list(_walk(state, rng))):
                state = start_exploration(seq, 0)
                setattr(state, side, getattr(state, side) - 1)
                with pytest.raises(ConservationError):
                    run(state, substream(14))


class TestGoldenDigests:
    """Outputs of the exploration path, pinned before its uniforms were drawn
    in blocks; no harness mode reaches the full decomposition."""

    def test_trace_csv(self):
        # root degree, partner degrees, stopping time and component size
        # determine every column of a per-step trace CSV (t, A, delta_A,
        # partner_degree, component_id), so this digest pins those bytes too
        seq = build_subpower_sequence(10_000, 3.5, 1.0, 0.9)
        root = int(np.argmax(seq.degrees))
        traces = [
            explore_component(seq, root, substream(2024, 0, rep), record_trace=True)
            for rep in range(20)
        ]
        fields = [(t.root_degree, t.steps, t.stop_time, t.component_size)
                  for t in traces]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
            "f4ca26ce1284f3e6240446ca42058ce04fb6b22d1f06bc9aa30e77dad7a22325"
        )

    def test_decomposition_sizes(self):
        seq = DegreeSequence((3,) * 2000)
        sizes = [
            largest_component_via_exploration(seq, substream(2024, 1, rep))
            for rep in range(5)
        ]
        assert hashlib.sha256(repr(sizes).encode()).hexdigest() == (
            "e509fad68af37d3a33ebc3ea8b0f20a9ffd33d76909a627aad9ee5c39f67e686"
        )


class TestExploreComponent:
    def test_two_singletons(self):
        trace = explore_component(D11, 0, substream(5), record_trace=True)
        assert trace.stop_time == 1
        assert trace.component_size == 2

    def test_two_two_size_distribution(self):
        # loop at the root: size 1 with probability exactly 1/3
        sizes = Counter(
            explore_component(D22, 0, substream(6, rep)).component_size
            for rep in range(6000)
        )
        frac = sizes[1] / 6000
        assert abs(frac - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / 6000)

    def test_conservation_along_trace(self):
        seq = build_subpower_sequence(2000, 3.5, 1.0, 0.9)
        trace = explore_component(seq, 0, substream(7), record_trace=True)
        active = trace.active_series()
        inactive = sum(
            j * trace.inactive_series(j)
            for j in trace.initial_inactive_counts
        )
        t = np.arange(len(active))
        assert np.array_equal(active + inactive, seq.two_m - 2 * t)

    def test_termination_bound(self):
        seq = build_subpower_sequence(1000, 3.5, 1.0, 0.9)
        for rep in range(20):
            trace = explore_component(seq, 0, substream(8, rep))
            assert trace.stop_time <= seq.two_m // 2
            assert trace.component_size <= trace.stop_time + 1

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_trace_invariants(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        trace = explore_component(seq, 0, substream(seed), record_trace=True)
        assert 1 <= trace.component_size <= seq.n
        assert 1 <= trace.stop_time <= seq.two_m // 2
        assert trace.component_size <= trace.stop_time + 1
        for j in trace.initial_inactive_counts:
            series = trace.inactive_series(j)
            assert np.all(np.diff(series) >= -1)
            assert np.all(series >= 0)


class TestFullDecomposition:
    def test_four_singletons(self):
        for rep in range(10):
            sizes = largest_component_via_exploration(
                DegreeSequence((1, 1, 1, 1)), substream(9, rep)
            )
            assert sorted(sizes) == [2, 2]

    def test_two_two_split_probability(self):
        hits = sum(
            largest_component_via_exploration(D22, substream(10, rep)) == [1, 1]
            for rep in range(6000)
        )
        assert abs(hits / 6000 - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / 6000)

    @pytest.mark.parametrize("seq", [
        DegreeSequence((3,) * 10),
        build_subpower_sequence(2000, 3.5, 1.0, 0.9),  # mostly degree 1
        DegreeSequence((4, 2, 1, 1)),
    ], ids=["regular", "subpower", "mixed"])
    def test_completes_a_uniform_pairing(self, seq):
        # on a walk's maps and on the decomposition's arrays, alike
        matched = []
        for state in (ExplorationState(seq), _decomposition_state(seq)):
            rng = substream(11)
            sizes = []
            for v in range(seq.n):
                if state.visited[v]:
                    continue
                state.begin(v)
                while state.active > 0:
                    state.step(rng)
                sizes.append(state.cluster_size)
            assert state.t_global == len(state.pairs) == seq.two_m // 2
            pairing = state.finished_pairing()
            assert np.array_equal(np.sort(pairing.pairs.ravel()), np.arange(seq.two_m))
            report = project_components(pairing)
            assert sorted(report.component_sizes) == sorted(sizes)
            matched.append(state.pairs)
        assert matched[0] == matched[1]

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_sizes_partition_vertices(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        sizes = largest_component_via_exploration(seq, substream(seed))
        assert sum(sizes) == seq.n

