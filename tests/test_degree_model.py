import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pairlab.degree_model import (
    DegreeSequence,
    DegreeSequenceError,
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
    write_degree_file,
)


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

    def test_metadata_cap_enforced(self):
        degrees = tuple([13] + [1] * 99)  # sum even, max beyond (1*100)**(1/3.5)
        with pytest.raises(DegreeSequenceError):
            DegreeSequence(degrees, gamma=3.5, c=1.0)

    def test_two_m(self):
        assert DegreeSequence((1, 2, 2, 3)).two_m == 8

    def test_point_layout(self):
        seq = DegreeSequence((2, 1, 3, 2))
        assert seq.offsets == (0, 2, 3, 6, 8)
        assert list(seq.histogram.items()) == [(2, 2), (1, 1), (3, 1)]

    def test_cached_layout_keeps_identity(self):
        seq = DegreeSequence((1, 2, 2, 3))
        seq.offsets, seq.histogram  # populate the caches
        other = pickle.loads(pickle.dumps(seq))
        assert other == seq and hash(other) == hash(seq)
        assert other.offsets == seq.offsets


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


class TestBuildSubpower:
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

    def test_output_validates(self):
        seq = build_subpower_sequence(4000, 3.5, 1.0, 0.9)
        assert validate_subpower(seq, 3.5, 1.0).valid


class TestValidateSubpower:
    def test_all_ones_valid(self):
        seq = DegreeSequence((1,) * 100)
        assert validate_subpower(seq, 3.5, 1.0).valid

    def test_huge_degree_invalid(self):
        degrees = tuple([9999] + [1] * 9999)
        report = validate_subpower(DegreeSequence(degrees), 3.5, 1.0)
        assert not report.max_degree_ok
        assert not report.valid

    def test_cap_value(self):
        report = validate_subpower(DegreeSequence((1,) * 10_000), 3.5, 1.0)
        assert report.cap == 13

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
            validate_subpower(DegreeSequence((3, 3, 2, 2)), gamma, c)


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

    def test_loader_rejects_trailing_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 1\n9 9 9\n")
        with pytest.raises(DegreeSequenceError, match=r"bad\.txt:3: "):
            read_degree_file(path)
        path.write_text("2\n1 1\n\n \t\n")  # trailing blank lines stay legal
        assert read_degree_file(path).degrees == (1, 1)
