import itertools
import math
import pickle
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pairlab.degree_model
from pairlab.degree_model import (
    DegreeSequence,
    DegreeSequenceError,
    EmpiricalDistribution,
    InfeasibleTargetError,
    build_subpower_sequence,
    degree_cap,
    empirical_distribution,
    molloy_reed_sum,
    molloy_reed_sum_exact,
    nu,
    nu_exact,
    offspring_law,
    read_degree_file,
    validate_subpower,
)

from pairlab.harness import resolve_degrees

from degree_files import write_degree_file


def even_degree_lists(max_n=40, max_d=6):
    """Random degree lists with even sum (pad one vertex if odd)."""

    def fix_parity(degrees):
        if sum(degrees) % 2 != 0:
            degrees = degrees + [1]
        return degrees

    return st.lists(
        st.integers(min_value=1, max_value=max_d), min_size=2, max_size=max_n
    ).map(fix_parity)


class TestDegreeSequence:
    def test_rejects_zero_degree(self):
        with pytest.raises(DegreeSequenceError):
            DegreeSequence((0, 2))

    def test_rejects_odd_sum(self):
        with pytest.raises(DegreeSequenceError):
            DegreeSequence((1, 2))

    def test_rejects_single_vertex(self):
        with pytest.raises(DegreeSequenceError):
            DegreeSequence((2,))

    def test_two_m(self):
        assert DegreeSequence((1, 2, 2, 3)).two_m == 8

    @pytest.mark.parametrize("build", [
        DegreeSequence, lambda degrees: DegreeSequence.from_runs((d, 1) for d in degrees),
    ], ids=["degrees", "from_runs"])
    def test_point_count_must_fit_int64(self, build, monkeypatch):
        # 2m = 2**63 - 2 points, the largest even count below the bound
        assert build((2**63 - 4, 2)).two_m == 2**63 - 2
        # refused before any int64 column of the runs is written
        monkeypatch.setattr("pairlab.degree_model.array", None)
        for degrees in ((2**62, 2**62), (2**63, 2)):
            with pytest.raises(DegreeSequenceError, match=r"reaches 2\*\*63"):
                build(degrees)

    def test_point_layout(self):
        seq = DegreeSequence((2, 1, 3, 2))
        assert [seq.points_of(v) for v in range(seq.n)] == [
            range(0, 2), range(2, 3), range(3, 6), range(6, 8)]
        assert list(map(list, seq.runs)) == [[0, 2, 3, 6], [0, 1, 2, 3], [2, 1, 3, 2]]
        assert list(seq.histogram.items()) == [(2, 2), (1, 1), (3, 1)]

    def test_cached_layout_keeps_identity(self):
        seq = DegreeSequence((1, 2, 2, 3))
        seq.runs, seq.histogram  # populate the caches
        other = pickle.loads(pickle.dumps(seq))
        assert other == seq and hash(other) == hash(seq)
        assert other.runs == seq.runs

    def test_point_maps_stay_out_of_pickles(self):
        seq = build_subpower_sequence(2000, 3.5, 1.0, 0.9)
        size = len(pickle.dumps(seq))
        seq.core, seq.core_degrees, seq.core_labels  # populate
        assert len(pickle.dumps(seq)) == size
        other = pickle.loads(pickle.dumps(seq))
        maps = {"core", "core_degrees", "core_labels"}
        assert not maps & set(vars(other))
        for name in sorted(maps):
            assert np.array_equal(getattr(other, name), getattr(seq, name))
            assert not getattr(other, name).flags.writeable

    @pytest.mark.parametrize("degrees,core", [
        ((2, 1, 3, 1, 1), [0, 0, -1, 1, 1, 1, -1, -1]),
        ((1, 1, 1, 1), [-1, -1, -1, -1]),
        ((3, 3), [0, 0, 0, 1, 1, 1]),
    ])
    def test_core_labels_degree_two_and_up(self, degrees, core):
        seq = DegreeSequence(degrees)
        layout = seq.core
        assert layout.dtype == np.int32 and layout.tolist() == core
        assert not layout.flags.writeable
        assert seq.core is layout
        assert seq.n_core == sum(d > 1 for d in degrees)
        assert seq.core_degrees.tolist() == [d for d in degrees if d > 1]

    @pytest.mark.parametrize("degrees,first,labels", [
        ((2, 1, 3, 1, 1), [0, 1, 3, 4, 5, 2, 6, 7], [0, 0, 1, 1, 1]),
        ((1, 1, 1, 1), [0, 1, 2, 3], []),
        ((3, 3), [0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1]),
    ])
    def test_core_points_come_first(self, degrees, first, labels):
        seq = DegreeSequence(degrees)
        assert seq.n_core_points == len(labels)
        # the order in which sample_pairing's two stages take the points
        assert [*np.flatnonzero(seq.core >= 0), *np.flatnonzero(seq.core < 0)] == first
        assert seq.core_labels.dtype == np.int32
        assert seq.core_labels.tolist() == labels
        assert not seq.core_labels.flags.writeable
        assert not seq.core_degrees.flags.writeable


class TestEmpiricalDistribution:
    def test_all_ones(self):
        dist = empirical_distribution(DegreeSequence((1, 1)))
        assert dist.p == {1: Fraction(1)}

    def test_regular(self):
        dist = empirical_distribution(DegreeSequence((3, 3, 3, 3)))
        assert dist.p == {3: Fraction(1)}
        assert dist.d_bar == 3

    def test_mixed(self):
        dist = empirical_distribution(DegreeSequence((1, 1, 2, 2)))
        assert dist.p == {1: Fraction(1, 2), 2: Fraction(1, 2)}
        assert dist.d_bar == Fraction(3, 2)

    @given(even_degree_lists())
    def test_histogram_totals(self, degrees):
        seq = DegreeSequence(tuple(degrees))
        dist = empirical_distribution(seq)
        assert sum(dist.counts.values()) == seq.n
        assert sum(j * k for j, k in dist.counts.items()) == seq.two_m


class TestNu:
    def test_regular_collapses(self):
        for d in (2, 3, 5):
            dist = empirical_distribution(DegreeSequence((d,) * 6))
            assert nu(dist) == d - 1

    def test_all_ones_zero(self):
        assert nu(empirical_distribution(DegreeSequence((1, 1)))) == 0

    def test_two_two_critical(self):
        assert nu(empirical_distribution(DegreeSequence((2, 2)))) == 1.0


class TestOffspringLaw:
    def test_degree_one_only(self):
        law = offspring_law(empirical_distribution(DegreeSequence((1, 1))))
        assert law.q == {0: Fraction(1)}

    def test_degree_three_only(self):
        law = offspring_law(empirical_distribution(DegreeSequence((3,) * 4)))
        assert law.q == {2: Fraction(1)}
        assert law.mean() == 2

    def test_half_and_half(self):
        dist = empirical_distribution(DegreeSequence((1, 1, 2, 2)))
        law = offspring_law(dist)
        assert law.q == {0: Fraction(1, 3), 1: Fraction(2, 3)}
        assert law.mean() == Fraction(2, 3)

    @given(even_degree_lists())
    def test_mean_equals_nu_exactly(self, degrees):
        dist = empirical_distribution(DegreeSequence(tuple(degrees)))
        law = offspring_law(dist)
        assert law.total() == 1
        assert law.mean() == nu_exact(dist)


class TestMolloyReed:
    def test_two_regular_zero(self):
        assert molloy_reed_sum(empirical_distribution(DegreeSequence((2, 2)))) == 0

    def test_all_ones_minus_one(self):
        dist = empirical_distribution(DegreeSequence((1, 1)))
        assert molloy_reed_sum(dist) == -1
        assert dist.d_bar * (nu_exact(dist) - 1) == -1

    @given(even_degree_lists())
    def test_identity_with_nu(self, degrees):
        dist = empirical_distribution(DegreeSequence(tuple(degrees)))
        assert molloy_reed_sum_exact(dist) == dist.d_bar * (nu_exact(dist) - 1)


@given(st.dictionaries(st.integers(1, 10**4), st.integers(1, 10**6),
                       min_size=1, max_size=30))
def test_float_functionals_round_their_exact_values(counts):
    # Fraction.__float__ divides its reduced integers, and int / int is
    # correctly rounded: the same float as one division of the raw sums
    dist = EmpiricalDistribution(counts=counts, n=sum(counts.values()))
    s1 = sum(j * k for j, k in counts.items())
    s2 = sum(j * (j - 1) * k for j, k in counts.items())
    assert nu(dist) == float(nu_exact(dist)) == s2 / s1
    assert (molloy_reed_sum(dist) == float(molloy_reed_sum_exact(dist))
            == (s2 - s1) / dist.n)


class TestBuildSubpower:
    @pytest.mark.parametrize("build,tail", [
        (lambda: build_subpower_sequence(1000, 3.5, 1.0, 0.9), (1, 1)),
        # parity repair: the last filler vertex is promoted to degree 2
        (lambda: build_subpower_sequence(1000, 4.5, 1.0, 0.9), (1, 2)),
        (lambda: build_subpower_sequence(100_000, 3.5, 1.0, 0.9), (1, 2)),
        (lambda: build_subpower_sequence(10_000, 3.5, 1.0, 0.55), (1, 2)),
        (lambda: build_subpower_sequence(5000, 4.5, 1.0, 0.9), (1, 1)),
        (lambda: resolve_degrees({"kind": "regular", "n": 500, "d": 3}), (3, 3)),
        # adjacent runs of one degree merge, and empty runs are dropped
        (lambda: DegreeSequence.from_runs([(3, 2), (2, 1), (2, 3), (1, 0),
                                           (4, 0), (1, 2)]), (1, 1)),
    ], ids=["subpower", "repair", "repair-1e5", "bisected", "gamma-4.5",
            "regular", "merged"])
    def test_seeded_caches_match_the_degrees(self, build, tail):
        seq = build()
        assert seq.degrees[-2:] == tail
        assert list(seq.histogram.items()) == list(Counter(seq.degrees).items())
        runs, v, p = [], 0, 0
        for d, group in itertools.groupby(seq.degrees):
            k = len(list(group))
            runs.append((p, v, d))
            v, p = v + k, p + d * k
        assert list(zip(*seq.runs)) == runs
        assert DegreeSequence(seq.degrees).runs == seq.runs  # the one-pass scan

    def test_tiny_instance_all_ones(self):
        seq = build_subpower_sequence(2, 3.5, 1.0, 0.5)
        assert seq.degrees == (1, 1)
        assert nu(empirical_distribution(seq)) == 0

    def test_reference_instance(self):
        seq = build_subpower_sequence(10_000, 3.5, 1.0, 0.9)
        assert seq.max_degree <= math.floor(10_000 ** (1 / 3.5)) == 13
        assert nu_exact(empirical_distribution(seq)) <= Fraction(9, 10)

    def test_even_sum_always(self):
        for n in (2, 3, 10, 101, 1000):
            seq = build_subpower_sequence(n, 3.5, 1.0, 0.9)
            assert seq.two_m % 2 == 0

    def test_deterministic(self):
        a = build_subpower_sequence(5000, 4.0, 1.0, 0.8)
        b = build_subpower_sequence(5000, 4.0, 1.0, 0.8)
        assert a.degrees == b.degrees

    def test_rejects_gamma_at_most_3(self):
        with pytest.raises(ValueError):
            build_subpower_sequence(100, 3.0, 1.0, 0.9)

    def test_subcritical_target_gives_negative_molloy_reed(self):
        seq = build_subpower_sequence(10_000, 3.5, 1.0, 0.9)
        assert molloy_reed_sum(empirical_distribution(seq)) < 0

    def test_binary_search_engages_for_tight_target(self):
        # at scale c the branching ratio is ~0.59 here, so force a lower one
        seq = build_subpower_sequence(10_000, 3.5, 1.0, 0.55)
        dist = empirical_distribution(seq)
        assert nu_exact(dist) <= Fraction(55, 100)
        assert seq.max_degree == degree_cap(10_000, 3.5, 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_bad_c_raises_as_validate_does(self, c):
        with pytest.raises(ValueError, match="^c: must be a finite positive"):
            build_subpower_sequence(100, 3.5, c, 0.9)

    def test_filler_over_envelope_raises(self):
        # at most c*n + 1 = 501 of the 1000 vertices may have degree 1
        with pytest.raises(InfeasibleTargetError,
                           match=r"^\d+ vertices of degree 1 exceed the envelope"):
            build_subpower_sequence(1000, 3.5, 0.5, 0.9)

    def test_infeasible_target_raises(self):
        # keeping a vertex at the cap forces a scale whose nu is far above
        # such a minuscule target
        with pytest.raises(InfeasibleTargetError):
            build_subpower_sequence(10_000, 3.5, 1.0, 1e-3)

    def test_cap_beyond_n_raises_without_search(self):
        # a cap of about 1e9 used to be walked degree by degree; no degree
        # below n = 40 can reach it, so the build fails at once
        with pytest.raises(InfeasibleTargetError, match="cap"):
            build_subpower_sequence(40, 3.5, 1e30, 0.9)

    def test_overflowing_cap_raises_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            build_subpower_sequence(40, 3.5, 1e308, 0.9)

    @pytest.mark.parametrize("args,message", [
        ((1000, 3.5, 0.5, 0.9), "vertices of degree 1 exceed the envelope"),
        ((10_000, 3.5, 1.0, 1e-3), "while keeping a vertex at the cap"),
    ])
    def test_refused_spec_builds_no_sequence(self, monkeypatch, args, message):
        # the checks read the histogram: no degree list for a refused spec
        built = []

        class Counted(DegreeSequence):
            def __post_init__(self):
                built.append(self.n)
                super().__post_init__()

        monkeypatch.setattr(pairlab.degree_model, "DegreeSequence", Counted)
        with pytest.raises(InfeasibleTargetError, match=message):
            build_subpower_sequence(*args)
        assert built == []
        assert build_subpower_sequence(1000, 3.5, 1.0, 0.9).n == 1000
        assert built == [1000]  # the patch sees the builds that pass

    def test_output_validates(self):
        seq = build_subpower_sequence(4000, 3.5, 1.0, 0.9)
        assert validate_subpower(empirical_distribution(seq), 3.5, 1.0).valid


# the whole-sequence reference: each trial's degrees assembled in full

def _assemble(n: int, counts: dict[int, int]) -> tuple[int, ...] | None:
    """Degrees sorted descending, degree-1 filler, parity repair on one filler.

    Returns None when the counts leave no room for filler but parity needs it.
    """
    heavy = sum(counts.values())
    if heavy > n:
        return None
    degrees = []
    for j in sorted(counts, reverse=True):
        degrees.extend([j] * counts[j])
    degrees.extend([1] * (n - heavy))
    if sum(degrees) % 2 != 0:
        if degrees[-1] != 1:
            return None
        degrees[-1] = 2  # parity repair: promote one degree-1 vertex
    return tuple(degrees)


def _counts_for_scale(n: int, gamma: float, scale: float, cap: int) -> dict[int, int]:
    counts = {}
    for j in range(2, cap + 1):
        k = math.floor(scale * n * j ** (-gamma))
        if k > 0:
            counts[j] = k
    return counts


def _whole_sequence_build(n, gamma, c, target_nu):
    """build_subpower_sequence's search with every trial scale assembling and
    measuring the whole sequence, for cap < n: the degrees (None when
    infeasible, or outside the subpower envelope) and whether the bisection
    ran."""
    cap = degree_cap(n, gamma, c)

    def try_scale(scale):
        degrees = _assemble(n, _counts_for_scale(n, gamma, scale, cap))
        if degrees is None or max(degrees) >= n:
            return None
        if nu_exact(empirical_distribution(DegreeSequence(degrees))) > target_nu:
            return None
        return degrees

    degrees = try_scale(c)
    bisected = degrees is None
    if bisected:
        lo, hi = 0.0, c
        for _ in range(80):
            mid = (lo + hi) / 2
            cand = try_scale(mid)
            if cand is None:
                hi = mid
            else:
                degrees, lo = cand, mid
    if degrees is None or degrees.count(cap) < 1:
        return None, bisected
    dist = empirical_distribution(DegreeSequence(degrees))
    if not validate_subpower(dist, gamma, c).valid:
        return None, bisected
    return degrees, bisected


def test_build_matches_whole_sequence_trials():
    # the search measures nu from the counts alone; it must pick the same
    # sequence, or fail, wherever the whole-sequence search did
    outcomes, caps = [], set()
    for n, gamma, c, target in itertools.product(
            (3, 10, 57, 300, 1000, 4001), (3.2, 3.5, 4.5), (0.2, 0.5, 1.0, 3.0),
            (0.05, 0.2, 0.55, 0.9, 1.0)):
        cap = degree_cap(n, gamma, c)
        if cap >= n:
            continue
        caps.add(cap)
        expected, bisected = _whole_sequence_build(n, gamma, c, target)
        if expected is None:
            with pytest.raises(InfeasibleTargetError):
                build_subpower_sequence(n, gamma, c, target)
        else:
            seq = build_subpower_sequence(n, gamma, c, target)
            assert seq.degrees == expected
            assert validate_subpower(empirical_distribution(seq), gamma, c).valid
        outcomes.append((expected is not None, bisected))
    # every branch is covered: built with and without bisection, and refused
    assert {(True, False), (True, True), (False, True)} <= set(outcomes)
    assert {0, 1} <= caps  # c*n < 1 (c = 0.2 at n = 3), and a cap below 2


class TestValidateSubpower:
    def test_all_ones_valid(self):
        seq = DegreeSequence((1,) * 100)
        assert validate_subpower(empirical_distribution(seq), 3.5, 1.0).valid

    def test_huge_degree_invalid(self):
        degrees = tuple([9999] + [1] * 9999)
        dist = empirical_distribution(DegreeSequence(degrees))
        report = validate_subpower(dist, 3.5, 1.0)
        assert not report.max_degree_ok
        assert not report.valid

    def test_cap_value(self):
        dist = empirical_distribution(DegreeSequence((1,) * 10_000))
        assert validate_subpower(dist, 3.5, 1.0).cap == 13

    @pytest.mark.parametrize("gamma,c,name", [
        (0.0, 1.0, "gamma"),  # 1/gamma
        (-2.0, 1.0, "gamma"),
        (math.inf, 1.0, "gamma"),
        (math.nan, 1.0, "gamma"),
        (3.5, -1.0, "c"),  # a negative base to a fractional power
        (3.5, 0.0, "c"),
    ])
    def test_bad_envelope_raises_value_error(self, gamma, c, name):
        with pytest.raises(ValueError, match=f"^{name}: must be a finite positive"):
            validate_subpower(
                empirical_distribution(DegreeSequence((3, 3, 2, 2))), gamma, c)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        seq = build_subpower_sequence(500, 3.5, 1.0, 0.9)
        path = tmp_path / "degrees.txt"
        write_degree_file(seq, path)
        loaded = read_degree_file(path)
        assert loaded.degrees == seq.degrees

    def test_loader_rejects_odd_sum(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n")
        with pytest.raises(DegreeSequenceError):
            read_degree_file(path)

    def test_loader_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 1\n")
        with pytest.raises(DegreeSequenceError):
            read_degree_file(path)

    def test_loader_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\n1 1\n")
        with pytest.raises(DegreeSequenceError,
                           match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_degree_file(path)

    def test_loader_rejects_trailing_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n9 9 9\n")
        with pytest.raises(DegreeSequenceError, match=r"bad\.txt:3: "):
            read_degree_file(path)
        path.write_text("2\n1 1\n\n \t\n")  # trailing blank lines stay legal
        assert read_degree_file(path).degrees == (1, 1)
