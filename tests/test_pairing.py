import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pairlab.degree_model import (
    DegreeSequence,
    build_subpower_sequence,
    predicted_simple_probability,
)
from pairlab.pairing import (
    _BLOCK,
    _component_roots,
    _core_pairs,
    _loops_and_parallel,
    AttemptsExhaustedError,
    ComponentReport,
    Pairing,
    PointSpace,
    double_factorial_odd,
    enumerate_pairings,
    core_largest,
    core_report,
    pairing_blocks,
    project_components,
    sample_core_pairs,
    sample_pairing,
    sample_simple_graph,
    simple_mask,
)
from pairlab.rng import substream

D22 = DegreeSequence((2, 2))
D11 = DegreeSequence((1, 1))
D1111 = DegreeSequence((1, 1, 1, 1))


def pairing_by_pairs(seq, pairs):
    """Pick the enumerated pairing matching the given point pairs."""
    want = frozenset(frozenset(p) for p in pairs)
    for p in enumerate_pairings(seq):
        got = frozenset(frozenset(pair) for pair in p.pairs.tolist())
        if got == want:
            return p
    raise AssertionError(f"no pairing with pairs {pairs}")


def even_degree_lists(max_n=8, max_d=4):
    def fix_parity(degrees):
        if sum(degrees) % 2 != 0:
            degrees = degrees + [1]
        return degrees

    return st.lists(
        st.integers(min_value=1, max_value=max_d), min_size=2, max_size=max_n
    ).map(fix_parity)


class TestPointSpace:
    def test_owner_blocks(self):
        seq = DegreeSequence((1, 2, 2, 3))
        space = PointSpace.from_degree_sequence(seq)
        assert space.total_points == 8
        assert list(map(list, seq.runs)) == [[0, 1, 5], [0, 1, 3], [1, 2, 3]]
        assert list(seq.core) == [-1, 0, 0, 1, 1, 2, 2, 2]
        assert list(seq.core[seq.points_of(3)]) == [2, 2, 2]

    def test_wraps_the_sequence_layout(self):
        seq = DegreeSequence((3, 1, 2, 2, 1, 3))
        assert PointSpace.from_degree_sequence(seq).seq is seq
        for rep in range(5):
            direct = sample_pairing(seq, substream(17, rep))
            spaced = sample_pairing(PointSpace.from_degree_sequence(seq),
                                    substream(17, rep))
            assert np.array_equal(direct.pairs, spaced.pairs)


class TestEnumeration:
    def test_single_pairing(self):
        assert len(list(enumerate_pairings(D11))) == 1

    def test_three_pairings(self):
        assert len(list(enumerate_pairings(D22))) == 3

    def test_fifteen_pairings(self):
        assert len(list(enumerate_pairings(DegreeSequence((2, 2, 2))))) == 15

    def test_counts_match_double_factorial(self):
        for seq in (D11, D22, D1111, DegreeSequence((3, 3))):
            m = seq.two_m // 2
            assert len(list(enumerate_pairings(seq))) == double_factorial_odd(m)

    def test_all_distinct(self):
        indices = [p.index() for p in enumerate_pairings(DegreeSequence((2, 2, 2)))]
        assert indices == list(range(double_factorial_odd(3)))

    @pytest.mark.parametrize("degrees", [(1, 1), (2, 2), (2, 2, 2), (3, 3, 1, 1),
                                         (1,) * 8])
    def test_index_is_enumeration_position(self, degrees):
        seq = DegreeSequence(degrees)
        for position, p in enumerate(enumerate_pairings(seq)):
            assert p.index() == position
        rng = substream(12, len(degrees))
        for _ in range(20):
            drawn = sample_pairing(seq, rng)
            want = pairing_by_pairs(seq, drawn.pairs.tolist())
            assert drawn.index() == want.index()


class TestPairingBlocks:
    def test_order_is_pinned(self):
        # round trips cannot see the encoder and the decoder move together
        rows = [p.pairs.tolist()
                for p in enumerate_pairings(DegreeSequence((2, 2, 2)))]
        assert rows[0] == [[0, 1], [2, 3], [4, 5]]
        assert rows[1] == [[0, 1], [2, 4], [3, 5]]
        assert rows[2] == [[0, 1], [2, 5], [3, 4]]
        assert rows[14] == [[0, 5], [1, 4], [2, 3]]

    def test_positions_and_masks_across_block_boundaries(self):
        # m = 6 with degree-1 vertices: 10,395 pairings in two full blocks
        # and a partial third; a block of only degree-1 vertices; and one
        # whose rows of a single vertex pair start and end on the same key
        for degrees, sizes in [((3, 3, 1, 1, 1, 1, 2), [_BLOCK, _BLOCK, 10_395 - 2 * _BLOCK]),
                               ((1, 1, 1, 1), [3]), ((3, 3), [15])]:
            seq = DegreeSequence(degrees)
            blocks = list(pairing_blocks(seq))
            assert [len(b) for b in blocks] == sizes
            position = 0
            for block in blocks:
                mask = simple_mask(seq, block)
                assert mask.shape == (len(block),)
                # the count simple_mask reads, row by row
                counts = _loops_and_parallel(seq.core[block[..., 0]],
                                             seq.core[block[..., 1]], seq.n_core)
                for pairs, simple, loops, parallel in zip(block, mask, *counts):
                    p = Pairing(pairs=pairs, seq=seq)
                    assert np.array_equal(np.sort(p.pairs.ravel()), np.arange(seq.two_m))
                    assert p.index() == position
                    report = project_components(p)
                    assert simple == report.simple
                    assert (loops, parallel) == (report.loops, report.parallel_pairs)
                    position += 1

    @pytest.mark.parametrize("degrees,simple", [
        ((2,) * 7, 59_520), ((3, 3, 2, 2, 2, 2), 31_104),
        ((3, 3, 1, 1, 1, 1, 2, 2), 44_784),
    ])
    def test_exact_pass_at_the_largest_cap(self, degrees, simple):
        # the oracle's exact pass over all 135,135 pairings at m = 7
        seq = DegreeSequence(degrees)
        t0 = time.perf_counter()
        counted = [(len(b), int(np.count_nonzero(simple_mask(seq, b))))
                   for b in pairing_blocks(seq)]
        elapsed = time.perf_counter() - t0
        assert tuple(map(sum, zip(*counted))) == (135_135, simple)
        assert elapsed < 0.5, f"exact pass took {elapsed:.2f} s"


class TestLoopAndParallelCounts:
    def test_unique_pairing_no_loops(self):
        (p,) = enumerate_pairings(D11)
        assert project_components(p).loops == 0

    def test_both_internal(self):
        report = project_components(pairing_by_pairs(D22, [(0, 1), (2, 3)]))
        assert (report.loops, report.parallel_pairs) == (2, 0)

    def test_double_edge(self):
        report = project_components(pairing_by_pairs(D22, [(0, 2), (1, 3)]))
        assert (report.loops, report.parallel_pairs) == (0, 1)

    def test_degree_one_never_parallel(self):
        for p in enumerate_pairings(D1111):
            assert project_components(p).parallel_pairs == 0

    def test_triple_edge(self):
        p = pairing_by_pairs(DegreeSequence((3, 3)), [(0, 3), (1, 4), (2, 5)])
        assert project_components(p).parallel_pairs == math.comb(3, 2) == 3

    def test_dense_multigraph_in_one_pass(self):
        # two vertices of degree 2 * 10**5: the pairs that are not loops form
        # one vertex pair of multiplicity k, about 10**5, so C(k, 2) parallel
        # pairs; a count that passes over the keys once per multiplicity
        # takes minutes here
        seq = DegreeSequence.from_runs([(200_000, 2)])
        p = sample_pairing(seq, substream(3))
        t0 = time.perf_counter()
        report = project_components(p)
        elapsed = time.perf_counter() - t0
        k = seq.two_m // 2 - report.loops
        assert k > 10**4
        assert report.parallel_pairs == math.comb(k, 2)
        assert elapsed < 1.0
        labels = seq.core[p.pairs[:, 0]], seq.core[p.pairs[:, 1]]
        rows = _loops_and_parallel(*(np.stack((x, x[::-1])) for x in labels),
                                   seq.n_core)
        assert rows[0].tolist() == [report.loops] * 2
        assert rows[1].tolist() == [report.parallel_pairs] * 2

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        m = seq.two_m // 2
        p = sample_pairing(seq, substream(seed))
        assert np.array_equal(np.sort(p.pairs.ravel()), np.arange(seq.two_m))
        report = project_components(p)
        assert 0 <= report.loops <= m
        assert 0 <= report.parallel_pairs <= math.comb(m, 2)


class TestProjection:
    def test_single_edge(self):
        (p,) = enumerate_pairings(D11)
        report = project_components(p)
        assert report.component_sizes == (2,)
        assert report.largest == 2
        assert report.simple

    def test_two_loops_two_singletons(self):
        p = pairing_by_pairs(D22, [(0, 1), (2, 3)])
        report = project_components(p)
        assert report.component_sizes == (1, 1)
        assert report.loops == 2

    def test_two_matched_pairs(self):
        p = pairing_by_pairs(D1111, [(0, 1), (2, 3)])
        report = project_components(p)
        assert report.component_sizes == (2, 2)
        assert report.largest == 2

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_sizes_sum_to_n(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        report = project_components(sample_pairing(seq, substream(seed)))
        assert sum(report.component_sizes) == seq.n
        assert report.largest == max(report.component_sizes)
        assert report.simple == (report.loops == 0 and report.parallel_pairs == 0)

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_simple_iff_multiplicities(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        assert_counts_by_hand(sample_pairing(seq, substream(seed)))

    @pytest.mark.parametrize("degrees,highest", [
        ((3, 3, 2), 3), ((4, 4), 4), ((3, 3, 3, 3), 3),
    ])
    def test_multiplicities_of_every_pairing(self, degrees, highest):
        # every pairing, so triple and quadruple edges occur, some beside
        # single and double ones
        pairings = enumerate_pairings(DegreeSequence(degrees))
        assert max(map(assert_counts_by_hand, pairings)) == highest


def assert_counts_by_hand(p) -> int:
    """Check loops, parallel pairs and simplicity of ``p`` against a count
    by hand; returns the largest vertex-pair multiplicity."""
    owner = np.repeat(np.arange(p.seq.n), p.seq.degrees)
    edges = Counter()
    loops = 0
    for a, b in p.pairs:
        u, v = int(owner[a]), int(owner[b])
        if u != v:
            edges[(min(u, v), max(u, v))] += 1
        else:
            loops += 1
    by_hand = loops == 0 and all(k <= 1 for k in edges.values())
    assert simple_mask(p.seq, p.pairs[None])[0] == by_hand
    report = project_components(p)
    assert report.loops == loops
    assert report.parallel_pairs == sum(math.comb(k, 2) for k in edges.values())
    return max(edges.values(), default=0)


def union_find_roots(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Smallest vertex of each vertex's component, by plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


class TestComponentRoots:
    @given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=20),
    )))
    @settings(max_examples=200, deadline=None)
    def test_matches_union_find(self, case):
        # loops, repeated pairs and isolated vertices all occur in the draws;
        # the kernels pass int32 core labels
        n, edges = case
        for dtype in (np.int32, np.int64):
            u = np.array([a for a, _ in edges], dtype=dtype)
            v = np.array([b for _, b in edges], dtype=dtype)
            roots = _component_roots(u, v, n)
            # each component's root is its smallest vertex
            assert roots.tolist() == union_find_roots(n, edges)

    @pytest.mark.parametrize("seq", [
        DegreeSequence((3,) * 10_000),
        build_subpower_sequence(100_000, 3.5, 1.0, 0.9),
    ], ids=["regular-3-n1e4", "subpower-n1e5"])
    def test_matches_union_find_on_a_workload_draw(self, seq):
        u, v = sample_core_pairs(seq, substream(101, 0, 0))
        roots = _component_roots(u, v, seq.n_core)
        assert roots.tolist() == union_find_roots(
            seq.n_core, list(zip(u.tolist(), v.tolist())))

    @pytest.mark.parametrize("labels", ["random", "ascending", "descending"])
    def test_long_path(self, labels):
        n = 100_000
        order = {
            "random": np.random.default_rng(3).permutation(n),
            "ascending": np.arange(n),
            "descending": np.arange(n)[::-1],
        }[labels]
        roots = _component_roots(order[:-1], order[1:], n)
        assert np.all(roots == 0)

    def test_star_centred_on_largest_label(self):
        # every pair hooks the centre; taking the minimum settles it at once
        n = 20_000
        leaves = np.arange(n - 1)
        roots = _component_roots(leaves, np.full(n - 1, n - 1), n)
        assert np.all(roots == 0)


def full_multigraph_report(p):
    """(component sizes descending, loops, parallel pairs) of the multigraph
    on every vertex that ``p`` projects to, by union-find over owners."""
    owner = np.repeat(np.arange(p.seq.n), p.seq.degrees)
    edges = [(int(owner[a]), int(owner[b])) for a, b in p.pairs]
    sizes = Counter(union_find_roots(p.seq.n, edges)).values()
    multiplicity = Counter((min(e), max(e)) for e in edges if e[0] != e[1])
    return (tuple(sorted(sizes, reverse=True)),
            sum(a == b for a, b in edges),
            sum(math.comb(k, 2) for k in multiplicity.values()))


def assert_core_projection_exact(p):
    sizes, loops, parallel = full_multigraph_report(p)
    report = project_components(p)
    assert report.component_sizes == sizes
    assert report.largest == sizes[0] == core_largest(p.seq, *_core_pairs(p))
    assert (report.loops, report.parallel_pairs) == (loops, parallel)
    assert simple_mask(p.seq, p.pairs[None])[0] == (loops == parallel == 0)


class TestCoreProjection:
    """Pairs of two degree-1 points, and degree-1 partners of core points,
    are added to the core's components without projecting them."""

    @given(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 4]), min_size=2,
                    max_size=30).map(lambda d: d + [1] * (sum(d) % 2)),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200, deadline=None)
    def test_matches_union_find_on_the_full_multigraph(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        assert_core_projection_exact(sample_pairing(seq, substream(seed)))

    @pytest.mark.parametrize("degrees", [(2, 1, 1), (3, 1, 1, 1), (2, 2, 1, 1),
                                         (3, 3, 1, 1), (1,) * 6])
    def test_every_pairing(self, degrees):
        for p in enumerate_pairings(DegreeSequence(degrees)):
            assert_core_projection_exact(p)

    @pytest.mark.parametrize("degrees,support", [
        ((1, 1, 1, 1), {(2, 2)}),  # no core at all
        ((1,) * 8, {(2, 2, 2, 2)}),
        ((2, 1, 1), {(3,), (2, 1)}),  # a single core vertex
        ((4, 1, 1, 1, 1), {(5,), (3, 2), (2, 2, 1)}),
    ])
    def test_no_pair_of_two_core_points(self, degrees, support):
        pairings = list(enumerate_pairings(DegreeSequence(degrees)))
        for p in pairings:
            assert_core_projection_exact(p)
        assert {project_components(p).component_sizes for p in pairings} == support

    def test_no_degree_one_vertex(self):
        seq = DegreeSequence((3, 3, 2, 2, 2))
        for rep in range(20):
            assert_core_projection_exact(sample_pairing(seq, substream(32, rep)))

    def test_pair_keys_do_not_wrap_past_int32(self):
        # 2**17 degree-2 vertices: the pair keys u * n + v of the edges
        # (0, 40000) and (2**15, 40000) differ by exactly 2**32, so int32 keys
        # would collide and report one parallel pair
        n = 2**17
        seq = DegreeSequence((2,) * n)
        pairs = np.arange(2 * n).reshape(-1, 2)  # every vertex a loop
        pairs[[0, 2**15, 40000]] = [[0, 80000], [1, 2**16], [2**16 + 1, 80001]]
        p = Pairing(pairs=pairs, seq=seq)
        assert np.array_equal(np.sort(p.pairs.ravel()), np.arange(seq.two_m))
        report = project_components(p)
        assert (report.loops, report.parallel_pairs) == (n - 3, 0)
        assert report.largest == 3


def earlier_core_pairs(seq, rng):
    """The core pairs drawn with fresh arrays: the ``core_labels`` of the m
    points of ``rng.choice(2m, m)`` and of the others in ascending order, or
    placed at the slots of ``rng.choice`` and kept where both ends are in
    the core."""
    if seq.n_core == seq.n:
        first = rng.choice(seq.two_m, seq.two_m // 2, replace=False)
        second = np.setdiff1d(np.arange(seq.two_m), first)
        return seq.core_labels[first], seq.core_labels[second]
    labels = np.full(seq.two_m, -1)
    labels[rng.choice(seq.two_m, seq.n_core_points, replace=False)] = seq.core_labels
    both = np.minimum(labels[0::2], labels[1::2]) >= 0
    return labels[0::2][both], labels[1::2][both]


def assert_same_report(got: ComponentReport, want: ComponentReport):
    assert (got.loops, got.parallel_pairs, got.largest) == (
        want.loops, want.parallel_pairs, want.largest)
    assert np.array_equal(got.counts, want.counts)


class TestReusedBuffers:
    """A run keeps one dict of buffers for all its replicates; every draw
    and projection into it must give what fresh arrays give."""

    # no degree-1 vertex and degree-1 vertices, loop-heavy small draws, and
    # sizes that grow and shrink, so that later draws use the start of
    # arrays made for larger ones
    SEQUENCES = [
        DegreeSequence((3,) * 2000),
        DegreeSequence((4, 4)),
        build_subpower_sequence(2000, 3.5, 1.0, 0.9),
        DegreeSequence((2, 2, 2)),
        DegreeSequence((3, 1, 1, 1)),
        build_subpower_sequence(10_000, 4.5, 1.0, 0.9),
        DegreeSequence((5, 3, 2, 1, 1)),
        DegreeSequence((3,) * 200),
    ]

    def test_draws_match_the_earlier_draw_and_fresh_projections(self):
        buffers = {}
        stats = Counter()
        for k, seq in enumerate(self.SEQUENCES * 2):
            for rep in range(20):
                rng, earlier = substream(9, k, rep), substream(9, k, rep)
                u, v = sample_core_pairs(seq, rng, buffers)
                want = earlier_core_pairs(seq, earlier)
                assert np.array_equal(u, want[0]) and np.array_equal(v, want[1])
                # the same random numbers, so every later draw is the same too
                assert rng.bit_generator.state == earlier.bit_generator.state
                report = core_report(seq, u, v, buffers)
                fresh = core_report(seq, *want)
                assert_same_report(report, fresh)
                again = sample_core_pairs(seq, substream(9, k, rep), buffers)
                assert core_largest(seq, *again, buffers) == fresh.largest
                stats.update(loops=report.loops > 0,
                             parallel=report.parallel_pairs > 0,
                             leaves=seq.n_core < seq.n)
        assert min(stats["loops"], stats["parallel"], stats["leaves"]) > 0

    def test_pair_keys_do_not_wrap_past_int32_in_reused_buffers(self):
        # the pairing of ``test_pair_keys_do_not_wrap_past_int32``, projected
        # into buffers that a smaller and a larger draw used before it
        n = 2**17
        seq = DegreeSequence((2,) * n)
        pairs = np.arange(2 * n).reshape(-1, 2)
        pairs[[0, 2**15, 40000]] = [[0, 80000], [1, 2**16], [2**16 + 1, 80001]]
        u, v = _core_pairs(Pairing(pairs=pairs, seq=seq))
        buffers = {}
        for other in (DegreeSequence((2,) * 1000), DegreeSequence((2,) * (2 * n))):
            core_report(other, *sample_core_pairs(other, substream(4), buffers), buffers)
            report = core_report(seq, u, v, buffers)
            assert (report.loops, report.parallel_pairs, report.largest) == (n - 3, 0, 3)
            assert_same_report(report, core_report(seq, u, v))

    def test_one_off_calls_make_their_own_arrays(self):
        # without buffers, a draw's pairs are never overwritten by the next
        seq = DegreeSequence((3,) * 100)
        first = sample_core_pairs(seq, substream(2, 0))
        kept = [x.copy() for x in first]
        sample_core_pairs(seq, substream(2, 1))
        core_report(seq, *first)
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))


class TestSamplingUniformity:
    @pytest.mark.parametrize(
        "seq,draws",
        [
            (D22, 30_000),
            (D1111, 30_000),
            (DegreeSequence((2, 2, 2)), 60_000),
            (DegreeSequence((3, 3, 1, 1)), 100_000),  # m = 4, 105 pairings
        ],
    )
    def test_uniform_against_enumeration(self, seq, draws):
        counts = np.zeros(double_factorial_odd(seq.two_m // 2), dtype=np.int64)
        rng = substream(20_240_601, seq.two_m)
        space = PointSpace.from_degree_sequence(seq)
        for _ in range(draws):
            counts[sample_pairing(space, rng).index()] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value >= 1e-3

    def test_deterministic_given_seed(self):
        a = sample_pairing(D22, substream(5, 0, 0))
        b = sample_pairing(D22, substream(5, 0, 0))
        assert np.array_equal(a.pairs, b.pairs)


class _ScriptedRng:
    """Stands in for a Generator: ``choice`` returns the given slots, and
    ``permutation(x)`` orders x by the given order, as a Generator's
    ``permutation(x)`` orders it by ``permutation(len(x))``."""

    def __init__(self, seq, slots, order=()):
        self.seq, self.slots, self.order = seq, slots, order

    def choice(self, a, size, replace):
        seq = self.seq  # the core points, or with no degree-1 vertex m points
        drawn = seq.n_core_points if seq.n_core < seq.n else seq.two_m // 2
        assert (a, size, replace) == (seq.two_m, drawn, False)
        return np.array(self.slots, dtype=np.int64)

    def permutation(self, x):
        return np.asarray(x)[list(self.order)]


class TestTwoStageSampler:
    """With a degree-1 vertex, the core points take their slots first and
    the degree-1 points fill the rest; ``sample_core_pairs`` is the first
    stage alone."""

    @pytest.mark.parametrize("degrees", [(2, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1),
                                         (1, 1, 1, 1)])
    def test_exact_law_over_both_stages(self, degrees):
        # every ordered injection of the core points into the slots, and
        # every order of the degree-1 points, each once: as a uniform draw
        # of both stages gives them, every pairing must get equal weight
        seq = DegreeSequence(degrees)
        core, leaves = seq.n_core_points, seq.two_m - seq.n_core_points
        weights = Counter(
            sample_pairing(seq, _ScriptedRng(seq, slots, order)).index()
            for slots in itertools.permutations(range(seq.two_m), core)
            for order in itertools.permutations(range(leaves))
        )
        assert sorted(weights) == list(range(double_factorial_odd(seq.two_m // 2)))
        assert len(set(weights.values())) == 1

    def test_permuting_an_array_orders_it_by_a_permutation_of_its_length(self):
        # what ``_ScriptedRng`` assumes of a Generator
        points = np.arange(7, 1007)
        got = np.random.default_rng(3).permutation(points)
        assert np.array_equal(got, points[np.random.default_rng(3).permutation(1000)])

    def test_chi_square_with_degree_one_vertices(self):
        seq = DegreeSequence((2, 2, 1, 1))
        rng = substream(20_261_019)
        counts = np.bincount([sample_pairing(seq, rng).index()
                              for _ in range(30_000)], minlength=15)
        assert counts.size == 15
        _, p_value = stats.chisquare(counts)
        assert p_value >= 1e-3

    def test_no_degree_one_vertex_keeps_one_permutation(self):
        seq = DegreeSequence((3, 2, 3, 2, 2))
        got = sample_pairing(seq, substream(41)).pairs
        first = substream(41).choice(12, 6, replace=False)
        second = np.setdiff1d(np.arange(12), first)
        assert np.array_equal(got, np.column_stack((first, second)))

    @given(even_degree_lists(max_n=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_core_pairs_are_the_first_stage(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        p = sample_pairing(seq, substream(seed))
        assert np.array_equal(np.sort(p.pairs.ravel()), np.arange(seq.two_m))
        for got, want in zip(sample_core_pairs(seq, substream(seed)), _core_pairs(p)):
            assert np.array_equal(got, want)


class TestNoDegreeOneSampler:
    """With no degree-1 vertex, m ordered draws pick the first end of each
    pair, and the points left over, in ascending order, are the second."""

    @pytest.mark.parametrize("degrees", [(2, 2), (2, 2, 2), (3, 3), (4, 2, 2),
                                         (2, 2, 2, 2)])
    def test_exact_law_over_ordered_halves(self, degrees):
        # every ordered m-subset of the points once, as a uniform draw gives
        # them: each pairing takes one end of each pair in 2^m ways
        seq = DegreeSequence(degrees)
        m = seq.two_m // 2
        weights = Counter(
            sample_pairing(seq, _ScriptedRng(seq, first)).index()
            for first in itertools.permutations(range(seq.two_m), m)
        )
        assert sorted(weights) == list(range(double_factorial_odd(m)))
        assert set(weights.values()) == {2**m}

    def test_chi_square_without_degree_one_vertices(self):
        seq = DegreeSequence((2, 2, 2))
        rng = substream(20_261_020)
        counts = np.bincount([sample_pairing(seq, rng).index()
                              for _ in range(30_000)], minlength=15)
        assert counts.size == 15
        _, p_value = stats.chisquare(counts)
        assert p_value >= 1e-3


class TestSimpleGraphSampling:
    def test_trivial_always_first_attempt(self):
        for rep in range(10):
            _, attempts = sample_simple_graph(D11, substream(6, rep), 5)
            assert attempts == 1

    def test_two_two_always_fails(self):
        with pytest.raises(AttemptsExhaustedError):
            sample_simple_graph(D22, substream(7), max_attempts=50)

    def test_accepted_graph_is_simple(self):
        seq = DegreeSequence((3,) * 20)
        p, attempts = sample_simple_graph(seq, substream(8), max_attempts=500)
        assert project_components(p).simple
        assert attempts >= 1

    def test_three_regular_acceptance_rate(self):
        # limit exp(-1 - 1) for d = 3; matches the regular-graph count formula
        seq = DegreeSequence((3,) * 1000)
        space = PointSpace.from_degree_sequence(seq)
        rng = substream(9)
        hits = sum(project_components(sample_pairing(space, rng)).simple
                   for _ in range(3000))
        assert abs(hits / 3000 - predicted_simple_probability(2.0)) < 0.02



def test_pairings_compare_by_identity():
    # a generated __eq__ would compare the pairs arrays, whose truth value
    # is ambiguous
    space = PointSpace.from_degree_sequence(DegreeSequence((3,) * 10))
    rng = substream(5)
    p, q = sample_pairing(space, rng), sample_pairing(space, rng)
    assert (p == q) is False and (p == p) is True
    assert p not in [q]
    assert hash(p) == hash(p)
