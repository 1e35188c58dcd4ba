"""Degree sequences with a subpower-law degree cap and their scalar functionals.

A sequence is a fixed tuple of positive vertex degrees with even sum.  From its
exact histogram we derive the branching ratio (expected outdegree of a
non-root vertex), the size-biased offspring law, and the Molloy-Reed sum that
separates the subcritical and supercritical phases.  All functionals are
computed from integer sums, with at most one final division, so the algebraic
identities between them hold exactly.

Nothing here but the point maps of ``DegreeSequence`` (``core``,
``core_degrees`` and ``core_labels``) and the ``runs`` of a sequence not
built by ``from_runs`` need numpy, which they import on first use:
``describe``, ``validate`` and config checks never load it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    import numpy as np


class DegreeSequenceError(ValueError):
    """The degree list violates a structural invariant."""


class InfeasibleTargetError(ValueError):
    """No positive scale factor meets the branching-ratio target within the
    subpower envelope."""


def degree_cap(n: int, gamma: float, c: float) -> int:
    """Largest degree j at which c*n/j**gamma can still round to >= 1 vertex.

    Above this cap a subpower histogram is forced to be empty, so it bounds the
    maximum degree of any sequence satisfying the j**-gamma envelope.
    """
    for name, value in (("gamma", gamma), ("c", c)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name}: must be a finite positive number, got {value}")
    try:
        root = (c * n) ** (1.0 / gamma)
    except OverflowError:
        root = math.inf
    if not math.isfinite(root):
        raise ValueError(
            f"degree cap (c*n)**(1/gamma) overflows for gamma={gamma}, c={c}, n={n}"
        )
    return math.floor(root)


# cached arrays that a pickle leaves out and its receiver rebuilds on first use
_POINT_MAPS = ("core", "core_degrees", "core_labels")


class _RunDegrees:
    """The degrees of (degree, count) runs, sized by their counts: ``tuple``
    allocates them at once, so a size too large to hold fails at once."""

    def __init__(self, runs: list[tuple[int, int]]):
        self.runs = runs

    def __len__(self) -> int:
        return sum(k for _, k in self.runs)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(repeat(j, k) for j, k in self.runs)


@dataclass(frozen=True)
class DegreeSequence:
    """Fixed tuple of positive vertex degrees with an even sum.

    The point layout (``two_m``, ``runs``, ``histogram`` and the point
    maps ``core``, ``core_degrees`` and ``core_labels``, read off the runs)
    is computed on first use and cached, so every chain or sampler built on
    the sequence shares it.
    """

    degrees: tuple[int, ...]

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> DegreeSequence:
        """The sequence of k vertices of degree j for each (j, k) of ``runs``
        in turn, with its ``histogram`` and ``runs`` seeded from them."""
        runs = [(j, k) for j, k in runs if k > 0]
        histogram: dict[int, int] = {}
        columns: tuple[list, list, list] = ([], [], [])  # as in ``runs``
        two_m = n = 0
        for j, k in runs:
            if not columns[2] or columns[2][-1] != j:  # adjacent runs merge
                for column, value in zip(columns, (two_m, n, j)):
                    column.append(value)
            histogram[j] = histogram.get(j, 0) + k
            two_m, n = two_m + j * k, n + k
        seq = cls.__new__(cls)
        vars(seq).update(degrees=tuple(_RunDegrees(runs)), histogram=histogram)
        seq.__post_init__()  # before the int64 columns, whose bound it checks
        vars(seq)["runs"] = tuple(array("q", column) for column in columns)
        return seq

    def __post_init__(self):
        if len(self.degrees) < 2:
            raise DegreeSequenceError("need at least 2 vertices")
        # multigraph instances like (2, 2) or (3, 3) are legal: the pairing
        # model needs only positivity and parity, not d_i < n; both are read
        # from the histogram, which ``from_runs`` seeds and any other
        # sequence counts in one pass over its degrees
        if min(self.histogram) < 1:
            raise DegreeSequenceError(f"degree {min(self.histogram)} < 1")
        if self.two_m % 2 != 0:
            raise DegreeSequenceError("sum of degrees is odd")
        if self.two_m >= 2**63:  # points, runs and maps are int64-indexed
            raise DegreeSequenceError(
                f"sum of degrees {self.two_m} reaches 2**63, past int64")

    @property
    def n(self) -> int:
        return len(self.degrees)

    @cached_property
    def two_m(self) -> int:
        """Total number of half-edge points (= twice the edge count)."""
        return sum(j * k for j, k in self.histogram.items())

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Degree -> vertex count, in order of first appearance; do not mutate."""
        return dict(Counter(self.degrees))

    @cached_property
    def runs(self) -> tuple[array, array, array]:
        """The maximal runs of equal degrees in vertex order, as three
        ``array('q')`` columns ``(points, vertices, degrees)``: run r holds
        the vertices from ``vertices[r]`` on, each of degree ``degrees[r]``,
        and their points from ``points[r]`` on.  Found in one pass over the
        degrees.  The arrays hold no int object per run, which matters for a
        sequence with a run per vertex."""
        import numpy as np

        degrees = np.fromiter(self.degrees, np.int64, self.n)
        starts = np.ones(self.n, bool)  # v starts a run unless d_v = d_(v-1)
        np.not_equal(degrees[1:], degrees[:-1], out=starts[1:])
        vertices = np.flatnonzero(starts).astype(np.int64, copy=False)
        heads = degrees[vertices]
        points = np.cumsum(degrees)[vertices] - heads
        return tuple(array("q", c.tobytes()) for c in (points, vertices, heads))

    def points_of(self, v: int) -> range:
        """The points of vertex v, from its run's first point and degree."""
        points, vertices, degrees = self.runs
        r = bisect_right(vertices, v) - 1
        first = points[r] + (v - vertices[r]) * degrees[r]
        return range(first, first + degrees[r])

    @property
    def max_degree_vertex(self) -> int:
        """The first vertex of maximum degree: its first run's first vertex."""
        _, vertices, degrees = self.runs
        return vertices[degrees.index(self.max_degree)]

    @cached_property
    def core(self) -> np.ndarray:
        """Point -> label of its owner among the core, the vertices of degree
        >= 2 numbered 0, 1, ... in vertex order, or -1 for the point of a
        degree-1 vertex; a read-only int32 array of length 2m: ``core_labels``
        spread over the points of the runs of degree >= 2."""
        import numpy as np

        points, _, heads = self.runs
        in_core = np.repeat(np.array(heads) > 1, np.diff(points, append=self.two_m))
        core = np.full(self.two_m, -1, np.int32)
        core[in_core] = self.core_labels
        core.setflags(write=False)
        return core

    @cached_property
    def core_degrees(self) -> np.ndarray:
        """Core label -> degree, as a read-only int64 array of length
        ``n_core``: each degree >= 2 repeated over its runs' vertices."""
        import numpy as np

        _, vertices, heads = self.runs
        heads = np.array(heads, np.int64)
        degrees = np.repeat(heads, np.diff(vertices, append=self.n) * (heads > 1))
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def core_labels(self) -> np.ndarray:
        """The core points in point order -> their owners' core labels, each
        label repeated over its degree; a read-only int32 array of length
        ``n_core_points``."""
        import numpy as np

        labels = np.repeat(np.arange(self.n_core, dtype=np.int32),
                           self.core_degrees)
        labels.setflags(write=False)
        return labels

    @property
    def n_core(self) -> int:
        """Number of vertices of degree >= 2."""
        return self.n - self.histogram.get(1, 0)

    @property
    def n_core_points(self) -> int:
        """Number of points of the vertices of degree >= 2."""
        return self.two_m - self.histogram.get(1, 0)

    def __getstate__(self) -> dict:
        # the point maps: up to 12 bytes a point
        return {k: v for k, v in self.__dict__.items() if k not in _POINT_MAPS}

    @property
    def max_degree(self) -> int:
        return max(self.histogram)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Exact degree histogram of a sequence: integer counts over n vertices."""

    counts: Mapping[int, int]
    n: int

    @property
    def two_m(self) -> int:
        return sum(j * k for j, k in self.counts.items())

    @property
    def p(self) -> dict[int, Fraction]:
        """Fraction of vertices of each degree, exact."""
        return {j: Fraction(k, self.n) for j, k in sorted(self.counts.items())}

    @property
    def d_bar(self) -> Fraction:
        """Average vertex degree, exact."""
        return Fraction(self.two_m, self.n)


@dataclass(frozen=True)
class OffspringLaw:
    """Size-biased offspring distribution q_j = (j+1) p_{j+1} / d_bar."""

    q: Mapping[int, Fraction]

    def mean(self) -> Fraction:
        return sum((Fraction(j) * qj for j, qj in self.q.items()), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.q.values(), Fraction(0))


def empirical_distribution(seq: DegreeSequence) -> EmpiricalDistribution:
    """Exact integer-count histogram of the sequence."""
    return EmpiricalDistribution(counts=dict(seq.histogram), n=seq.n)


def _factorial_sums(dist: EmpiricalDistribution) -> tuple[int, int]:
    """(sum of d_i, sum of d_i*(d_i - 1)) as exact integers."""
    s1 = sum(j * k for j, k in dist.counts.items())
    s2 = sum(j * (j - 1) * k for j, k in dist.counts.items())
    return s1, s2


def nu_exact(dist: EmpiricalDistribution) -> Fraction:
    """Branching ratio sum_j j(j-1)p_j / sum_j j p_j, exact."""
    s1, s2 = _factorial_sums(dist)
    return Fraction(s2, s1)


def nu(dist: EmpiricalDistribution) -> float:
    """Branching ratio as a float, ``nu_exact`` correctly rounded."""
    return float(nu_exact(dist))


def offspring_law(dist: EmpiricalDistribution) -> OffspringLaw:
    """Law of the outdegree of a non-root vertex reached along an edge."""
    s1, _ = _factorial_sums(dist)
    q = {
        j - 1: Fraction(j * k, s1)
        for j, k in sorted(dist.counts.items())
    }
    return OffspringLaw(q=q)


def molloy_reed_sum_exact(dist: EmpiricalDistribution) -> Fraction:
    """sum_j j(j-2) p_j = (s2 - s1)/n, exact; equals d_bar * (nu - 1)
    identically."""
    s1, s2 = _factorial_sums(dist)
    return Fraction(s2 - s1, dist.n)


def molloy_reed_sum(dist: EmpiricalDistribution) -> float:
    """sum_j j(j-2) p_j, correctly rounded; negative in the subcritical phase."""
    return float(molloy_reed_sum_exact(dist))


def predicted_simple_probability(nu_value: float) -> float:
    """Limit of the simplicity probability, exp(-nu/2 - nu**2/4)."""
    return math.exp(-nu_value / 2 - nu_value**2 / 4)


@dataclass(frozen=True)
class SubpowerReport:
    """Per-degree verdicts of the j**-gamma envelope check (report, no raise)."""

    per_degree_ok: dict[int, bool]
    max_degree_ok: bool
    cap: int

    @property
    def valid(self) -> bool:
        # parity and positivity need no verdict: DegreeSequence refuses both
        return all(self.per_degree_ok.values()) and self.max_degree_ok


def validate_subpower(dist: EmpiricalDistribution, gamma: float,
                      c: float) -> SubpowerReport:
    """Check a histogram's subpower envelope: n_j <= c*n*j**-gamma + 1
    vertices of each degree j >= 1, and a max degree <= cap + 1 (``degree_cap``).

    The +1 slacks absorb the single vertex moved by parity repair.
    """
    counts, n = dist.counts, dist.n
    cap = degree_cap(n, gamma, c)
    per_degree = {
        j: counts[j] <= c * n * j ** (-gamma) + 1 for j in sorted(counts)
    }
    return SubpowerReport(
        per_degree_ok=per_degree,
        max_degree_ok=max(counts) <= cap + 1,
        cap=cap,
    )


def _runs(n: int, gamma: float, scale: float, cap: int) -> list[tuple[int, int]] | None:
    """A trial scale's (degree, vertex count) runs in vertex order: the
    floor(scale*n*j**-gamma) vertices of each degree j from the cap down to 2,
    the degree-1 filler, and last the filler vertex promoted to degree 2 when
    the degree sum is odd; None when no filler is left to promote."""
    runs = [(j, math.floor(scale * n * j ** (-gamma))) for j in range(cap, 1, -1)]
    filler = n - sum(k for _, k in runs)
    repair = (sum(j * k for j, k in runs) + filler) % 2
    if filler < repair:
        return None
    runs += [(1, filler - repair), (2, repair)]
    return [(j, k) for j, k in runs if k > 0]


def build_subpower_sequence(
    n: int, gamma: float, c: float, target_nu: float
) -> DegreeSequence:
    """Deterministic subpower sequence with branching ratio at most target_nu.

    Counts are floor(c' * n * j**-gamma) for j from the cap down to 2, with
    c' <= c the largest scale (bisected) keeping nu within target; remaining
    vertices get degree 1, and parity is repaired by promoting the last of
    them to degree 2: degrees >= 2 descending, filler, promoted vertex.  The
    sequence must keep a vertex at the cap and obey the subpower envelope,
    n_j <= c*n*j**-gamma + 1 for every degree j >= 1 and max degree <= cap + 1:
    the builder refuses what ``validate_subpower`` refuses.  The checks read
    the histogram, so a refused spec writes no degree list.  Identical inputs
    always produce the identical sequence.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if gamma <= 3:
        raise ValueError("gamma must exceed 3")
    if not 0 < target_nu <= 1:
        raise ValueError("target_nu must lie in (0, 1]")

    cap = degree_cap(n, gamma, c)
    infeasible = InfeasibleTargetError(
        f"no scale in (0, {c}] reaches nu <= {target_nu} "
        f"while keeping a vertex at the cap {cap}"
    )
    if cap >= n:  # every degree stays below n, so none reaches the cap
        raise infeasible

    def try_scale(scale: float) -> tuple[list, EmpiricalDistribution] | None:
        runs = _runs(n, gamma, scale, cap)
        if runs is None:
            return None  # too many heavy vertices, or no filler to repair
        counts: dict[int, int] = {}
        for j, k in runs:
            counts[j] = counts.get(j, 0) + k
        dist = EmpiricalDistribution(counts, n)
        return None if nu_exact(dist) > target_nu else (runs, dist)

    found = try_scale(c)
    if found is None:
        lo, hi = 0.0, c  # feasible scales form (0, x]; bisect for x
        for _ in range(80):
            mid = (lo + hi) / 2
            cand = try_scale(mid)
            if cand is None:
                hi = mid
            else:
                found = cand
                lo = mid
    if found is None or cap not in found[1].counts:
        raise infeasible
    runs, dist = found
    report = validate_subpower(dist, gamma, c)
    if not report.valid:
        # the max degree is at most max(cap, 2) <= cap + 1: a count broke it
        j = min(j for j, ok in report.per_degree_ok.items() if not ok)
        raise InfeasibleTargetError(
            f"{dist.counts[j]} vertices of degree {j} exceed the envelope "
            f"c*n*j**-gamma + 1 = {c * n * j ** -gamma + 1} for c = {c}")
    return DegreeSequence.from_runs(runs)


def read_degree_file(path: str | Path) -> DegreeSequence:
    """Load and validate a degree file: plain text, the vertex count n on
    the first line and the n degrees, separated by spaces, on the second.

    Only blank lines may follow the degrees.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DegreeSequenceError(f"{path}: {exc}") from exc
    if len(lines) < 2:
        raise DegreeSequenceError(f"{path}: expected two lines")
    for lineno, line in enumerate(lines[2:], 3):
        if line.strip():
            raise DegreeSequenceError(
                f"{path}:{lineno}: only blank lines may follow the degrees, "
                f"got {line!r}"
            )
    try:
        n = int(lines[0])
        degrees = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise DegreeSequenceError(f"{path}: {exc}") from exc
    if len(degrees) != n:
        raise DegreeSequenceError(
            f"{path}: header says {n} vertices, found {len(degrees)} degrees"
        )
    return DegreeSequence(degrees)
