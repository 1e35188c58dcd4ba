"""Uniform pairing (configuration) model on half-edge points.

Each vertex i owns d_i points; a pairing is a uniform perfect matching on all
2m points, and projecting matched points to their owner vertices yields a
multigraph with the prescribed degrees.  Alongside the sampler there is an
exhaustive enumerator for small instances (the exact oracle), which decodes
pairings from their positions in blocks, a projector that reports loops,
parallel pairs (one count serves a pairing and a block) and component sizes,
and rejection sampling of simple graphs.  The projector reads only the pairs
of two core points, those of vertices of degree >= 2; the degree-1 vertices
join components by counting.  The sampler places the core points first, so
``sample_core_pairs`` draws those pairs alone, with the same random numbers
that begin ``sample_pairing``'s draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .degree_model import DegreeSequence


class AttemptsExhaustedError(RuntimeError):
    """Rejection sampling failed to produce a simple graph."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph in {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True)
class PointSpace:
    """The 2m half-edge points of a degree sequence, grouped contiguously by
    owner vertex.  ``sample_pairing`` accepts one in place of its sequence."""

    seq: DegreeSequence

    @classmethod
    def from_degree_sequence(cls, seq: DegreeSequence) -> "PointSpace":
        """The sequence's cached layout; building a space costs nothing."""
        return cls(seq)

    @property
    def total_points(self) -> int:
        return self.seq.two_m


@dataclass(frozen=True, eq=False)
class Pairing:
    """A perfect matching of seq's 2m points, as an (m, 2) array of pairs."""

    pairs: np.ndarray  # row k = the two points of matching-pair k
    seq: DegreeSequence

    def index(self) -> int:
        """This pairing's position in ``enumerate_pairings``' order: a
        mixed-radix number, radices 2m-1, 2m-3, ..., 1, whose digits are the
        positions of each lowest free point's partner among the others."""
        partner = [0] * self.seq.two_m
        for s, t in self.pairs.tolist():
            partner[s], partner[t] = t, s
        free = list(range(self.seq.two_m))
        index = 0
        while free:
            i = free.index(partner[free.pop(0)])
            index = index * len(free) + i
            del free[i]
        return index


@dataclass(frozen=True, eq=False)
class ComponentReport:
    """Component sizes plus loop / parallel-edge counts of one realization."""

    # core vertex -> size of the component it roots, 0 for a non-root; then a
    # 2 for each component of two degree-1 vertices
    counts: np.ndarray = field(repr=False)
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


def _core_slots(seq: DegreeSequence, rng: np.random.Generator) -> np.ndarray:
    """The first stage of ``sample_pairing`` on a sequence with a degree-1
    vertex: the slots of the core points, in point order."""
    return rng.choice(seq.two_m, seq.n_core_points, replace=False)


def sample_pairing(
    seq: DegreeSequence | PointSpace, rng: np.random.Generator
) -> Pairing:
    """Draw a uniform pairing: all (2m-1)!! matchings are equally likely.

    The points are laid out over 2m slots, and slots 2k and 2k + 1 hold pair
    k; a uniform layout induces the uniform matching.  With no degree-1
    vertex the layout is one ``rng.permutation(2m)``.  Otherwise it takes two
    stages: ``rng.choice(2m, P, replace=False)``, a uniform ordered draw of
    distinct slots, places the P core points in point order, and a uniform
    permutation of the 2m - P degree-1 points fills the free slots in
    ascending order.  The first stage alone fixes every pair of two core
    points, which is all that ``sample_core_pairs`` draws.  Deterministic
    given the rng state.
    """
    if isinstance(seq, PointSpace):
        seq = seq.seq
    if seq.n_core == seq.n:
        return Pairing(pairs=rng.permutation(seq.two_m).reshape(-1, 2), seq=seq)
    slots = _core_slots(seq, rng)
    in_core = seq.core >= 0  # the core that projecting the pairing reads
    points = np.empty(seq.two_m, dtype=np.int64)
    points[slots] = np.flatnonzero(in_core)
    free = np.ones(seq.two_m, dtype=bool)
    free[slots] = False
    # leaves shuffled as rng.permutation(2m - P) would order them; assigning
    # through the free slots' indices is faster than through the mask
    points[np.flatnonzero(free)] = rng.permutation(np.flatnonzero(~in_core))
    return Pairing(pairs=points.reshape(-1, 2), seq=seq)


def sample_core_pairs(
    seq: DegreeSequence, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The core pairs (u, v) of ``sample_pairing(seq, rng)``, as
    ``project_components`` reads them, from the sampler's first stage alone.

    ``core_report`` or ``core_largest`` project them; the degree-1 points
    are never placed, no ``Pairing`` is built and ``core`` is not read.
    """
    if seq.n_core == seq.n:
        perm = rng.permutation(seq.two_m)
        return seq.core_labels[perm[0::2]], seq.core_labels[perm[1::2]]
    labels = np.full(seq.two_m, -1, dtype=np.int32)  # slot -> its core label
    labels[_core_slots(seq, rng)] = seq.core_labels
    return _both_in_core(labels[0::2], labels[1::2])


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! = 1 * 3 * ... * (2m-1), the number of pairings on 2m points."""
    out = 1
    for k in range(1, 2 * m, 2):
        out *= k
    return out


_BLOCK = 2**12  # positions decoded at once: 0.4 MiB of pairs at m = 6


def pairing_blocks(seq: DegreeSequence) -> Iterator[np.ndarray]:
    """All (2m-1)!! pairings in enumeration order, as (N, m, 2) arrays of at
    most ``_BLOCK`` rows: the inverse of ``Pairing.index()``, whose digits
    each pick the lowest free point's partner among the other free points."""
    m = seq.two_m // 2
    total = double_factorial_odd(m)
    for start in range(0, total, _BLOCK):
        rest = np.arange(start, min(start + _BLOCK, total))
        free = np.broadcast_to(np.arange(seq.two_m), (rest.size, seq.two_m))
        pairs = np.empty((rest.size, m, 2), dtype=np.int64)
        for k in range(m):  # digit k has radix 2(m-k)-1; free stays sorted
            digit, rest = np.divmod(rest, double_factorial_odd(m - 1 - k))
            keep = np.arange(free.shape[1] - 1) != digit[:, None]
            pairs[:, k, 0], pairs[:, k, 1] = free[:, 0], free[:, 1:][~keep]
            free = free[:, 1:][keep].reshape(len(rest), -1)
        yield pairs


def enumerate_pairings(seq: DegreeSequence) -> Iterator[Pairing]:
    """Yield all (2m-1)!! pairings once each, the k-th with ``index()`` k."""
    for block in pairing_blocks(seq):
        for pairs in block:
            yield Pairing(pairs=pairs, seq=seq)


def _loops_and_parallel(u: np.ndarray, v: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray]:
    """Loops, and the sum over distinct non-loop vertex pairs of
    C(multiplicity, 2), of each multigraph whose edges are the core-label
    pairs (u, v) along the last axis, of one pairing or of each row of a
    block; a pair with a degree-1 end (label -1) counts in neither."""
    low = np.minimum(u, v, dtype=np.int64)  # n * n can pass 2**31
    skip = (u == v) | (low < 0)
    keys = low * n + np.maximum(u, v)
    keys[skip] = -1 - np.flatnonzero(skip)  # a key of its own
    keys.sort(axis=-1)
    # a run of r equal keys, one vertex pair of multiplicity r, holds C(r, 2):
    # each repeat adds its distance from the run's first key (a row's first
    # key is no repeat, so in flat order no run spans two rows)
    repeat = np.zeros(keys.shape, bool)
    np.equal(keys[..., 1:], keys[..., :-1], out=repeat[..., 1:])
    at = np.flatnonzero(repeat)
    first = np.maximum.accumulate(np.where(repeat.flat[at - 1], 0, at - 1))
    parallel = np.zeros(keys.shape[:-1], np.int64)
    np.add.at(parallel.reshape(-1), at // keys.shape[-1], at - first)
    return ((u == v) & (low >= 0)).sum(axis=-1), parallel


def _both_in_core(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs whose ends' core labels u and v are both >= 0."""
    both = np.minimum(u, v) >= 0
    return u[both], v[both]


def _core_pairs(p: Pairing) -> tuple[np.ndarray, np.ndarray]:
    """p projected on its core, the vertices of degree >= 2: the core labels
    u, v of the two ends of each pair of two core points.

    A degree-1 vertex has one point, so it has no loop and no parallel pair.
    With no degree-1 vertex the core is every vertex and every pair is kept.
    """
    seq = p.seq
    # one contiguous gather per column: the rows of core[p.pairs.T] are strided
    u, v = seq.core[p.pairs[:, 0]], seq.core[p.pairs[:, 1]]
    return (u, v) if seq.n_core == seq.n else _both_in_core(u, v)


def _core_components(seq: DegreeSequence, u: np.ndarray,
                     v: np.ndarray) -> tuple[np.ndarray, int]:
    """Core vertex -> size of the component it roots (0 for a non-root), and
    the number of components of two degree-1 vertices, from the core pairs.

    A point of a core vertex that is in no core pair has a degree-1 partner,
    whose vertex joins that component.  The m pairs are the u.size core
    pairs, one pair per such partner, and the pairs of two degree-1 points.
    """
    n_core = seq.n_core
    roots = _component_roots(u, v, n_core)
    if u.size == seq.two_m // 2:  # every pair is a core pair
        return np.bincount(roots), 0
    vertices = (seq.core_degrees + 1 - np.bincount(u, minlength=n_core)
                - np.bincount(v, minlength=n_core))
    counts = np.bincount(roots, weights=vertices, minlength=n_core)
    return counts.astype(np.int64), seq.n - n_core - seq.two_m // 2 + u.size


def simple_mask(seq: DegreeSequence, block: np.ndarray) -> np.ndarray:
    """Whether each pairing of an (N, m, 2) block of seq's points is simple."""
    loops, parallel = _loops_and_parallel(seq.core[block[..., 0]],
                                          seq.core[block[..., 1]], seq.n_core)
    return (loops == 0) & (parallel == 0)


def _component_roots(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Vertex -> root of its component in the multigraph on n vertices with
    edges (u, v): the component's smallest vertex, as intp.

    Hook and shortcut: each round hooks the larger root of every pair under
    the smallest root paired with it, pointer-jumps the whole parent array
    until every vertex points at its root, and re-gathers each pair's roots.
    Each round hooks at least one root of every unfinished component and
    roots only decrease, so the rounds end when every pair lies in one tree.
    Hooking under the minimum keeps a star whose centre has the largest
    label to two rounds.  A pair inside one tree hooks its root under
    itself, a no-op.  The labels are cast to intp once: numpy casts any
    other index to intp on every gather.
    """
    u, v = u.astype(np.intp, copy=False), v.astype(np.intp, copy=False)
    parent = np.arange(n, dtype=np.intp)
    while True:  # u, v hold the current roots of each pair's two ends
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
        u, v = parent[u], parent[v]
        if np.array_equal(u, v):
            return parent


def core_report(seq: DegreeSequence, u: np.ndarray,
                v: np.ndarray) -> ComponentReport:
    """Components and loop stats of a pairing of seq, from its core pairs:
    those of ``_core_pairs`` or ``sample_core_pairs``."""
    loops, parallel = _loops_and_parallel(u, v, seq.n_core)
    counts, twos = _core_components(seq, u, v)
    if twos:
        counts = np.concatenate((counts, np.full(twos, 2, dtype=counts.dtype)))
    return ComponentReport(
        counts=counts,
        largest=int(counts.max()),
        loops=int(loops),
        parallel_pairs=int(parallel),
    )


def core_largest(seq: DegreeSequence, u: np.ndarray, v: np.ndarray) -> int:
    """``core_report(seq, u, v).largest``, without the loop and parallel-pair
    counts or the sizes of the components of two degree-1 vertices."""
    counts, twos = _core_components(seq, u, v)
    largest = int(counts.max(initial=0))
    return max(largest, 2) if twos else largest


def project_components(p: Pairing) -> ComponentReport:
    """Connected components of the projected multigraph, plus loop stats."""
    return core_report(p.seq, *_core_pairs(p))


def sample_simple_graph(
    seq: DegreeSequence, rng: np.random.Generator, max_attempts: int
) -> tuple[Pairing, int]:
    """Rejection-sample pairings until simple; returns (pairing, attempts).

    The accepted graph is uniform over all simple graphs with the degree
    sequence; the attempt count is geometric with the simplicity probability.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    for attempt in range(1, max_attempts + 1):
        p = sample_pairing(seq, rng)
        if simple_mask(seq, p.pairs[None])[0]:
            return p, attempt
    raise AttemptsExhaustedError(max_attempts)

