"""Uniform pairing (configuration) model on half-edge points.

Each vertex i owns d_i points; a pairing is a uniform perfect matching on all
2m points, and projecting matched points to their owner vertices yields a
multigraph with the prescribed degrees.  Alongside the sampler there is an
exhaustive enumerator for small instances (the exact oracle used by the
tests), loop / parallel-edge counters, a component projector, and rejection
sampling of simple graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .degree_model import DegreeSequence


class InstanceTooLargeError(ValueError):
    """Instance exceeds the exhaustive-enumeration cap."""


class AttemptsExhaustedError(RuntimeError):
    """Rejection sampling failed to produce a simple graph."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph in {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True)
class PointSpace:
    """The 2m half-edge points, grouped contiguously by owner vertex."""

    owner: np.ndarray  # point index -> vertex index
    degrees: tuple[int, ...]

    @classmethod
    def from_degree_sequence(cls, seq: DegreeSequence) -> "PointSpace":
        """The sequence's cached layout; building a space costs nothing."""
        return cls(owner=seq.owner, degrees=seq.degrees)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def total_points(self) -> int:
        return len(self.owner)


@dataclass(frozen=True)
class Pairing:
    """A perfect matching of the point space, as an (m, 2) array of pairs."""

    pairs: np.ndarray  # row k = the two points of matching-pair k
    space: PointSpace

    def validate(self) -> None:
        total = self.space.total_points
        flat = self.pairs.ravel()
        if self.pairs.shape != (total // 2, 2) or np.any((flat < 0) | (flat >= total)):
            raise ValueError(f"expected {total // 2} pairs of points in [0, {total})")
        times = np.bincount(flat, minlength=total)
        if np.any(times != 1):
            s = int(np.flatnonzero(times != 1)[0])
            raise ValueError(f"point {s} is matched {times[s]} times, not once")

    def index(self) -> int:
        """This pairing's position in ``enumerate_pairings``' order: a
        mixed-radix number, radices 2m-1, 2m-3, ..., 1, whose digits are the
        positions of each lowest free point's partner among the others."""
        partner = [0] * self.space.total_points
        for s, t in self.pairs.tolist():
            partner[s], partner[t] = t, s
        free = list(range(self.space.total_points))
        index = 0
        while free:
            i = free.index(partner[free.pop(0)])
            index = index * len(free) + i
            del free[i]
        return index


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Component sizes plus loop / parallel-edge counts of one realization."""

    counts: np.ndarray = field(repr=False)  # root vertex -> component size; 0 elsewhere
    largest: int
    loops: int
    parallel_pairs: int

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """Component sizes sorted descending; sorted on first access only."""
        return tuple(np.sort(self.counts[self.counts > 0])[::-1].tolist())

    @property
    def simple(self) -> bool:
        return self.loops == 0 and self.parallel_pairs == 0


def _as_space(seq: DegreeSequence | PointSpace) -> PointSpace:
    if isinstance(seq, PointSpace):
        return seq
    return PointSpace.from_degree_sequence(seq)


def sample_pairing(
    seq: DegreeSequence | PointSpace, rng: np.random.Generator
) -> Pairing:
    """Draw a uniform pairing: all (2m-1)!! matchings are equally likely.

    A uniform permutation of the points is folded into consecutive pairs,
    which induces the uniform matching; deterministic given the rng state.
    """
    space = _as_space(seq)
    perm = rng.permutation(space.total_points)
    return Pairing(pairs=perm.reshape(-1, 2), space=space)


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = 1 * 3 * ... * (2m-1), the number of pairings on 2m points."""
    out = 1
    for k in range(1, 2 * m, 2):
        out *= k
    return out


def enumerate_pairings(
    seq: DegreeSequence | PointSpace, max_pairs: int = 6
) -> Iterator[Pairing]:
    """Yield all (2m-1)!! pairings once each, the k-th with ``index()`` k.

    Capped by default at m = 6 (10395 pairings) to keep oracle runs fast.
    """
    space = _as_space(seq)
    total = space.total_points
    if total // 2 > max_pairs:
        raise InstanceTooLargeError(
            f"m = {total // 2} exceeds enumeration cap {max_pairs}"
        )

    pairs: list[tuple[int, int]] = []

    def rec(points: list[int]) -> Iterator[Pairing]:
        if not points:
            yield Pairing(pairs=np.array(pairs, dtype=np.int64), space=space)
            return
        first = points[0]
        rest = points[1:]
        for i, partner in enumerate(rest):
            pairs.append((first, partner))
            yield from rec(rest[:i] + rest[i + 1 :])
            pairs.pop()

    yield from rec(list(range(total)))


def _loops_and_parallel(u: np.ndarray, v: np.ndarray, n: int) -> tuple[int, int]:
    """Loop count, and the sum over distinct non-loop vertex pairs of
    C(multiplicity, 2), of the multigraph with edges (u, v)."""
    loop = u == v
    keys = np.sort((np.minimum(u, v) * n + np.maximum(u, v))[~loop])
    # a run of r equal keys is one vertex pair of multiplicity r and adds
    # C(r, 2); it repeats its key at r - 1 consecutive positions, and a
    # pairing has only a handful of repeats.  ``ends`` holds the last repeat
    # of every run but the final one, and ``repeated`` each run's r - 1.
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    ends = np.flatnonzero(np.diff(repeats) != 1)
    repeated = np.diff(np.concatenate(([-1], ends, [repeats.size - 1])))
    return int(np.count_nonzero(loop)), int(np.sum(repeated * (repeated + 1) // 2))


def _pair_stats(p: Pairing) -> tuple[int, int]:
    """(loops, parallel_pairs) of the multigraph that p projects to."""
    return _loops_and_parallel(*p.space.owner[p.pairs.T], p.space.n)


def count_loops(p: Pairing) -> int:
    """Matching-pairs whose two points share an owner vertex."""
    return _pair_stats(p)[0]


def count_parallel_pairs(p: Pairing) -> int:
    """Sum over distinct vertex pairs of C(multiplicity, 2); loops excluded."""
    return _pair_stats(p)[1]


def is_simple(p: Pairing) -> bool:
    """No loops and every vertex-pair multiplicity at most 1."""
    return _pair_stats(p) == (0, 0)


def _component_roots(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Vertex -> root of its component in the multigraph on n vertices with
    edges (u, v); two vertices are connected iff they share a root.

    Hook and shortcut: each round hooks the larger root of every pair whose
    ends lie in different trees under the smallest root paired with it,
    pointer-jumps the hooked roots to their new roots, and drops the pairs
    now inside one tree.  Each round hooks at least one root of every
    unfinished component and roots only decrease, so the rounds end.
    Hooking under the minimum, rather than under whichever write lands last,
    keeps a star whose centre has the largest label to two rounds.
    """
    parent = np.arange(n)
    while True:  # u, v hold the current roots of each pair's two ends
        cross = u != v
        u, v = u[cross], v[cross]
        if not u.size:
            break
        hooked = np.maximum(u, v)
        np.minimum.at(parent, hooked, np.minimum(u, v))
        up = parent[hooked]
        while True:
            upup = parent[up]
            moving = upup != up
            if not moving.any():
                break
            hooked, up = hooked[moving], upup[moving]
            parent[hooked] = up
        u, v = parent[u], parent[v]
    while True:  # shortcut every vertex to its root
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def project_components(p: Pairing) -> ComponentReport:
    """Connected components of the projected multigraph, plus loop stats."""
    u, v = p.space.owner[p.pairs.T]  # owner vertices of the m pairs
    n = p.space.n
    loops, parallel = _loops_and_parallel(u, v, n)
    counts = np.bincount(_component_roots(u, v, n))
    return ComponentReport(
        counts=counts,
        largest=int(counts.max()),
        loops=loops,
        parallel_pairs=parallel,
    )


def sample_simple_graph(
    seq: DegreeSequence | PointSpace,
    rng: np.random.Generator,
    max_attempts: int,
) -> tuple[Pairing, int]:
    """Rejection-sample pairings until simple; returns (pairing, attempts).

    The accepted graph is uniform over all simple graphs with the degree
    sequence; the attempt count is geometric with the simplicity probability.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    space = _as_space(seq)
    for attempt in range(1, max_attempts + 1):
        p = sample_pairing(space, rng)
        if is_simple(p):
            return p, attempt
    raise AttemptsExhaustedError(max_attempts)

