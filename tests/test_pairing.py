import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pairlab.degree_model import DegreeSequence, predicted_simple_probability
from pairlab.pairing import (
    _component_roots,
    AttemptsExhaustedError,
    InstanceTooLargeError,
    PointSpace,
    count_loops,
    count_parallel_pairs,
    double_factorial_odd,
    enumerate_pairings,
    is_simple,
    project_components,
    read_pairing,
    sample_pairing,
    sample_simple_graph,
    write_edge_list,
    write_pairing,
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
        assert list(space.owner) == [0, 1, 1, 2, 2, 3, 3, 3]
        assert list(space.owner[seq.offsets[3]:seq.offsets[4]]) == [3, 3, 3]

    def test_wraps_the_sequence_layout(self):
        seq = DegreeSequence((3, 1, 2, 2, 1, 3))
        assert PointSpace.from_degree_sequence(seq).owner is seq.owner
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
        keys = [p.key() for p in enumerate_pairings(DegreeSequence((2, 2, 2)))]
        assert len(set(keys)) == len(keys)

    def test_cap_enforced(self):
        with pytest.raises(InstanceTooLargeError):
            list(enumerate_pairings(DegreeSequence((2,) * 8)))

    def test_cap_configurable(self):
        assert len(list(enumerate_pairings(DegreeSequence((2,) * 7), max_pairs=7)))


class TestLoopAndParallelCounts:
    def test_unique_pairing_no_loops(self):
        (p,) = enumerate_pairings(D11)
        assert count_loops(p) == 0

    def test_both_internal(self):
        p = pairing_by_pairs(D22, [(0, 1), (2, 3)])
        assert count_loops(p) == 2
        assert count_parallel_pairs(p) == 0

    def test_double_edge(self):
        p = pairing_by_pairs(D22, [(0, 2), (1, 3)])
        assert count_loops(p) == 0
        assert count_parallel_pairs(p) == 1

    def test_degree_one_never_parallel(self):
        for p in enumerate_pairings(D1111):
            assert count_parallel_pairs(p) == 0

    def test_triple_edge(self):
        p = pairing_by_pairs(DegreeSequence((3, 3)), [(0, 3), (1, 4), (2, 5)])
        assert count_parallel_pairs(p) == math.comb(3, 2) == 3

    @given(even_degree_lists(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, degrees, seed):
        seq = DegreeSequence(tuple(degrees))
        m = seq.two_m // 2
        p = sample_pairing(seq, substream(seed))
        p.validate()
        assert 0 <= count_loops(p) <= m
        assert 0 <= count_parallel_pairs(p) <= math.comb(m, 2)


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
    edges = Counter()
    loops = 0
    for a, b in p.pairs:
        u, v = int(p.space.owner[a]), int(p.space.owner[b])
        if u != v:
            edges[(min(u, v), max(u, v))] += 1
        else:
            loops += 1
    by_hand = loops == 0 and all(k <= 1 for k in edges.values())
    assert is_simple(p) == by_hand
    assert count_loops(p) == loops
    assert count_parallel_pairs(p) == sum(math.comb(k, 2) for k in edges.values())
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
        # loops, repeated pairs and isolated vertices all occur in the draws
        n, edges = case
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        roots = _component_roots(u, v, n)
        # each component's root is its smallest vertex
        assert roots.tolist() == union_find_roots(n, edges)

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
        keys = [p.key() for p in enumerate_pairings(seq)]
        index = {k: i for i, k in enumerate(keys)}
        counts = np.zeros(len(keys), dtype=np.int64)
        rng = substream(20_240_601, seq.two_m)
        space = PointSpace.from_degree_sequence(seq)
        for _ in range(draws):
            counts[index[sample_pairing(space, rng).key()]] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value >= 1e-3

    def test_deterministic_given_seed(self):
        a = sample_pairing(D22, substream(5, 0, 0))
        b = sample_pairing(D22, substream(5, 0, 0))
        assert a.key() == b.key()


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
        assert is_simple(p)
        assert attempts >= 1

    def test_three_regular_acceptance_rate(self):
        # limit exp(-1 - 1) for d = 3; matches the regular-graph count formula
        seq = DegreeSequence((3,) * 1000)
        space = PointSpace.from_degree_sequence(seq)
        rng = substream(9)
        hits = sum(is_simple(sample_pairing(space, rng)) for _ in range(3000))
        assert abs(hits / 3000 - predicted_simple_probability(2.0)) < 0.02


class TestSerialization:
    def test_pairing_roundtrip(self, tmp_path):
        seq = DegreeSequence((2, 3, 1, 2))
        p = sample_pairing(seq, substream(10))
        path = tmp_path / "pairing.txt"
        write_pairing(p, path)
        loaded = read_pairing(path, p.space)
        assert loaded.key() == p.key()

    @pytest.mark.parametrize("text,message", [
        ("0 1\n2 9\n", r"pairing\.txt:2: .*'2 9'"),  # index beyond 2m
        ("0 1\n2 -1\n", r"pairing\.txt:2: .*'2 -1'"),  # negative index
        ("0 1\n2\n", r"pairing\.txt:2"),  # one token
        ("0 1\nx 3\n", r"pairing\.txt:2"),  # not an integer
        ("0 0\n1 1\n", "point 0 is matched 2 times"),  # self-pair
        ("0 1\n1 2\n", "point 1 is matched 2 times"),  # repeated point
        ("0 1\n", "expected 2 pairs"),  # points 2 and 3 missing
    ])
    def test_read_malformed(self, tmp_path, text, message):
        path = tmp_path / "pairing.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_pairing(path, PointSpace.from_degree_sequence(D22))

    def test_write_is_sorted(self, tmp_path):
        seq = DegreeSequence((3,) * 6)
        p = sample_pairing(seq, substream(13))
        path = tmp_path / "pairing.txt"
        write_pairing(p, path)
        pairs = [tuple(map(int, line.split()))
                 for line in path.read_text().splitlines()]
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(pairs)

    def test_edge_list_format(self, tmp_path):
        p = pairing_by_pairs(D22, [(0, 1), (2, 3)])
        path = tmp_path / "edges.txt"
        write_edge_list(p, path)
        lines = sorted(path.read_text().splitlines())
        assert lines == ["0 0", "1 1"]  # two loops
