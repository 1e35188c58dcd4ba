"""Degree sequences with a subpower-law degree cap and their scalar functionals.

A sequence is a fixed tuple of positive vertex degrees with even sum.  From its
exact histogram we derive the branching ratio (expected outdegree of a
non-root vertex), the size-biased offspring law, and the Molloy-Reed sum that
separates the subcritical and supercritical phases.  All functionals are
computed from integer sums, with at most one final division, so the algebraic
identities between them hold exactly.

Nothing here but ``DegreeSequence.owner`` needs numpy, which it imports on
first use: ``describe``, ``validate`` and config checks never load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np


class DegreeSequenceError(ValueError):
    """The degree list violates a structural invariant."""


class InfeasibleTargetError(ValueError):
    """No positive scale factor meets the branching-ratio target."""


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


@dataclass(frozen=True)
class DegreeSequence:
    """Fixed tuple of positive vertex degrees with an even sum.

    ``gamma``/``c`` are optional subpower metadata: when present, the maximum
    degree must respect the corresponding cap.  The point layout
    (``two_m``, ``offsets``, ``histogram``, ``owner``) is computed on first
    use and cached, so every chain or sampler built on the sequence shares it.
    """

    degrees: tuple[int, ...]
    gamma: float | None = None
    c: float | None = None

    def __post_init__(self):
        n = len(self.degrees)
        if n < 2:
            raise DegreeSequenceError("need at least 2 vertices")
        # multigraph instances like (2, 2) or (3, 3) are legal: the pairing
        # model needs only positivity and parity, not d_i < n; both are read
        # from the histogram, which costs one pass over the degrees
        if min(self.histogram) < 1:
            raise DegreeSequenceError(f"degree {min(self.histogram)} < 1")
        if self.two_m % 2 != 0:
            raise DegreeSequenceError("sum of degrees is odd")
        if (self.gamma is None) != (self.c is None):
            raise DegreeSequenceError("gamma and c must be given together")
        if self.gamma is not None:
            cap = degree_cap(n, self.gamma, self.c)
            if self.max_degree > cap:
                raise DegreeSequenceError(
                    f"max degree {self.max_degree} exceeds cap {cap}"
                )

    @property
    def n(self) -> int:
        return len(self.degrees)

    @cached_property
    def two_m(self) -> int:
        """Total number of half-edge points (= twice the edge count)."""
        return sum(j * k for j, k in self.histogram.items())

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Vertex v owns points offsets[v] .. offsets[v+1]-1; n+1 entries."""
        return tuple(accumulate(self.degrees, initial=0))

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Degree -> vertex count, in order of first appearance; do not mutate."""
        return dict(Counter(self.degrees))

    @cached_property
    def owner(self) -> np.ndarray:
        """Point -> owner vertex, as a read-only int64 array of length 2m."""
        import numpy as np  # the one numpy use here; a dry run never reaches it

        owner = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        owner.setflags(write=False)
        return owner

    def __getstate__(self) -> dict:
        # 8 bytes a point that the receiver rebuilds on first use
        return {k: v for k, v in self.__dict__.items() if k != "owner"}

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

    @property
    def max_degree(self) -> int:
        return max(self.counts)


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
    """Branching ratio as a float: integer sums, one final division."""
    s1, s2 = _factorial_sums(dist)
    return s2 / s1


def offspring_law(dist: EmpiricalDistribution) -> OffspringLaw:
    """Law of the outdegree of a non-root vertex reached along an edge."""
    s1, _ = _factorial_sums(dist)
    q = {
        j - 1: Fraction(j * k, s1)
        for j, k in sorted(dist.counts.items())
    }
    return OffspringLaw(q=q)


def molloy_reed_sum_exact(dist: EmpiricalDistribution) -> Fraction:
    """sum_j j(j-2) p_j, exact; equals d_bar * (nu - 1) identically."""
    return Fraction(
        sum(j * (j - 2) * k for j, k in dist.counts.items()), dist.n
    )


def molloy_reed_sum(dist: EmpiricalDistribution) -> float:
    """sum_j j(j-2) p_j; negative in the subcritical phase."""
    return sum(j * (j - 2) * k for j, k in dist.counts.items()) / dist.n


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


def validate_subpower(seq: DegreeSequence, gamma: float, c: float) -> SubpowerReport:
    """Check n*p_j <= c*n*j**-gamma + 1 per degree, plus the degree cap.

    The +1 slack absorbs the single vertex moved by parity repair.
    """
    counts = seq.histogram
    n = seq.n
    cap = degree_cap(n, gamma, c)
    per_degree = {
        j: counts[j] <= c * n * j ** (-gamma) + 1 for j in sorted(counts)
    }
    return SubpowerReport(
        per_degree_ok=per_degree,
        max_degree_ok=max(counts) <= cap + 1,
        cap=cap,
    )


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


def build_subpower_sequence(
    n: int, gamma: float, c: float, target_nu: float
) -> DegreeSequence:
    """Deterministic subpower sequence with branching ratio at most target_nu.

    Counts are floor(c' * n * j**-gamma) for j from the cap down to 2, with
    c' <= c the largest scale (bisected) keeping nu within target; remaining
    vertices get degree 1, and parity is repaired by promoting one of them to
    degree 2.  Identical inputs always produce the identical sequence.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if gamma <= 3:
        raise ValueError("gamma must exceed 3")
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0 < target_nu <= 1:
        raise ValueError("target_nu must lie in (0, 1]")

    cap = degree_cap(n, gamma, c)
    infeasible = InfeasibleTargetError(
        f"no scale in (0, {c}] reaches nu <= {target_nu} "
        f"while keeping a vertex at the cap {cap}"
    )
    if cap >= n:  # every degree stays below n, so none reaches the cap
        raise infeasible

    def try_scale(scale: float) -> dict[int, int] | None:
        # nu of _assemble's sequence from the counts alone: filler degree-1
        # vertices add 1 to sum d and 0 to sum d(d-1), and the parity repair
        # turns one of them into a 2, adding 1 and 2
        counts = _counts_for_scale(n, gamma, scale, cap)
        filler = n - sum(counts.values())
        s1 = sum(j * k for j, k in counts.items()) + filler
        s2 = sum(j * (j - 1) * k for j, k in counts.items())
        repair = s1 % 2
        if filler < repair or max(counts, default=1 + repair) >= n:
            return None  # too many heavy vertices, or no filler to repair
        if Fraction(s2 + 2 * repair, s1 + repair) > target_nu:
            return None
        return counts

    if cap < 2:
        degrees = _assemble(n, {})
        if degrees is None:
            raise InfeasibleTargetError("cannot repair parity at this size")
        if max(degrees) > cap:
            # parity repair overshot a sub-2 cap; drop the metadata claim
            return DegreeSequence(degrees)
        return DegreeSequence(degrees, gamma=gamma, c=c)

    counts = try_scale(c)
    if counts is None:
        lo, hi = 0.0, c  # feasible scales form (0, x]; bisect for x
        for _ in range(80):
            mid = (lo + hi) / 2
            cand = try_scale(mid)
            if cand is None:
                hi = mid
            else:
                counts = cand
                lo = mid
    degrees = None if counts is None else _assemble(n, counts)
    if degrees is None or degrees.count(cap) < 1:
        raise infeasible
    return DegreeSequence(degrees, gamma=gamma, c=c)


def write_degree_file(seq: DegreeSequence, path: str | Path) -> None:
    """Plain text: first line n, second line the n degrees space-separated."""
    Path(path).write_text(
        f"{seq.n}\n{' '.join(str(d) for d in seq.degrees)}\n"
    )


def read_degree_file(path: str | Path) -> DegreeSequence:
    """Load and validate a degree file written by :func:`write_degree_file`.

    Only blank lines may follow the degrees.
    """
    lines = Path(path).read_text().split("\n")
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
