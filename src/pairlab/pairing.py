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
that begin ``sample_pairing``'s draw.  With no degree-1 vertex both draw the
whole pairing as m distinct points in order, the k-th matched with the k-th
smallest point not drawn.

A run projects many pairings of one sequence, so the draw of the core pairs,
the count and the components write their per-point arrays into ``buffers``:
a dict that the caller keeps from one pairing to the next, where each array
is made once and reused.  Without it a call makes its arrays afresh.  The
arrays of a 2m-point draw are large enough that the allocator returns them
to the system when they are freed, so making them on every call faults
their pages in again each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

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


def _buffer(buffers: dict[str, np.ndarray] | None, name: str,
            shape: tuple[int, ...], dtype: type, make: Callable = np.empty
            ) -> np.ndarray:
    """An array of ``shape`` over the start of ``buffers[name]``, which is
    ``make(size, dtype=dtype)`` made when it is missing or too small; its
    values are those left by the last call that wrote it.  Without
    ``buffers``, a fresh array.  A size too large to hold is a MemoryError."""
    size = math.prod(shape)
    held = None if buffers is None else buffers.get(name)
    if held is None or held.size < size:
        try:
            held = make(size, dtype=dtype)
        except ValueError as exc:  # "array is too big"
            raise MemoryError(str(exc)) from exc
        if buffers is not None:
            buffers[name] = held
    return held[:size].reshape(shape)


def _first_ends(two_m: int, rng: np.random.Generator,
                buffers: dict[str, np.ndarray] | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """A uniform pairing of 2m points: the first ends of its pairs in pair
    order, ``rng.choice(2m, m, replace=False)``, and the mask of the second
    ends, in ``buffers``; the k-th first end is matched with the k-th
    smallest second end.  Above 10,000 points the choice takes m bounded
    draws, against 2m - 1 for a permutation.  Each pairing is drawn from 2^m
    of the (2m)!/m! ordered m-subsets, one for each choice of an end of each
    pair, taken in the order of their partners, so all (2m-1)!! are equally
    likely."""
    # made before the draw, so that a 2m too large to hold is a MemoryError
    second = _buffer(buffers, "second ends", (two_m,), bool)
    first = rng.choice(two_m, two_m // 2, replace=False)
    second.fill(True)
    second[first] = False
    return first, second


def _core_slots(seq: DegreeSequence, rng: np.random.Generator) -> np.ndarray:
    """The first stage of ``sample_pairing`` on a sequence with a degree-1
    vertex: the slots of the core points, in point order."""
    return rng.choice(seq.two_m, seq.n_core_points, replace=False)


def sample_pairing(
    seq: DegreeSequence | PointSpace, rng: np.random.Generator
) -> Pairing:
    """Draw a uniform pairing: all (2m-1)!! matchings are equally likely.

    With no degree-1 vertex, ``rng.choice(2m, m, replace=False)`` draws the
    first point of each pair k, and the points it leaves out, in ascending
    order, are the second (``_first_ends``).  Otherwise the points are laid
    out over 2m slots, slots 2k and 2k + 1 holding pair k, in two stages:
    ``rng.choice(2m, P, replace=False)``, a uniform ordered draw of distinct
    slots, places the P core points in point order, and a uniform
    permutation of the 2m - P degree-1 points fills the free slots in
    ascending order; a uniform layout induces the uniform matching.  The
    first stage alone fixes every pair of two core points, which is all that
    ``sample_core_pairs`` draws.  Deterministic given the rng state.
    """
    if isinstance(seq, PointSpace):
        seq = seq.seq
    if seq.n_core == seq.n:
        first, second = _first_ends(seq.two_m, rng, None)
        pairs = np.empty((first.size, 2), dtype=np.int64)
        pairs[:, 0] = first
        pairs[:, 1] = second.nonzero()[0]
        return Pairing(pairs=pairs, seq=seq)
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
    seq: DegreeSequence, rng: np.random.Generator,
    buffers: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The core pairs (u, v) of ``sample_pairing(seq, rng)``, as
    ``project_components`` reads them, from the sampler's first stage alone.

    ``core_report`` or ``core_largest`` project them; the degree-1 points
    are never placed, no ``Pairing`` is built and ``core`` is not read.
    With no degree-1 vertex, u and v are the ``core_labels`` of the first
    and the second ends, gathered into ``buffers``, which the next draw into
    them overwrites.
    """
    if seq.n_core == seq.n:
        first, second = _first_ends(seq.two_m, rng, buffers)
        labels, half = seq.core_labels, first.shape
        # every drawn point is in range, which mode="clip" takes unchecked
        return (np.take(labels, first, mode="clip",
                        out=_buffer(buffers, "first labels", half, labels.dtype)),
                np.compress(second, labels,
                            out=_buffer(buffers, "second labels", half, labels.dtype)))
    labels = _buffer(buffers, "labels", (seq.two_m,), np.intp)  # slot -> its core label
    labels.fill(-1)
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


def _ends(u: np.ndarray, v: np.ndarray, buffers: dict[str, np.ndarray] | None
          ) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger label of each pair (u, v), as int64 (so
    that n * n can pass 2**31), in ``buffers``."""
    return (np.minimum(u, v, out=_buffer(buffers, "low", u.shape, np.int64)),
            np.maximum(u, v, out=_buffer(buffers, "high", u.shape, np.int64)))


def _loops_and_parallel(u: np.ndarray, v: np.ndarray, n: int,
                        buffers: dict[str, np.ndarray] | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Loops, and the sum over distinct non-loop vertex pairs of
    C(multiplicity, 2), of each multigraph whose edges are the core-label
    pairs (u, v) along the last axis, of one pairing or of each row of a
    block; a pair with a degree-1 end (label -1) counts in neither."""
    low, high = _ends(u, v, buffers)
    skip = np.equal(low, high, out=_buffer(buffers, "skip", low.shape, bool))
    leaf = np.less(low, 0, out=_buffer(buffers, "leaf", low.shape, bool))
    np.logical_or(skip, leaf, out=skip)  # a loop, or a degree-1 end
    loops = np.count_nonzero(skip, axis=-1) - np.count_nonzero(leaf, axis=-1)
    keys = np.multiply(low, n, out=_buffer(buffers, "keys", low.shape, np.int64))
    keys += high
    keys[skip] = -1 - np.flatnonzero(skip)  # a key of its own
    keys.sort(axis=-1)
    # a run of r equal keys, one vertex pair of multiplicity r, holds C(r, 2):
    # each repeat adds its distance from the run's first key (a row's first
    # key is no repeat, so in flat order no run spans two rows)
    repeat = _buffer(buffers, "repeat", keys.shape, bool)
    repeat[..., :1] = False
    np.equal(keys[..., 1:], keys[..., :-1], out=repeat[..., 1:])
    at = np.flatnonzero(repeat)
    first = np.maximum.accumulate(np.where(repeat.flat[at - 1], 0, at - 1))
    parallel = np.zeros(keys.shape[:-1], np.int64)
    np.add.at(parallel.reshape(-1), at // keys.shape[-1], at - first)
    return loops, parallel


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


def _core_components(seq: DegreeSequence, u: np.ndarray, v: np.ndarray,
                     buffers: dict[str, np.ndarray] | None
                     ) -> tuple[np.ndarray, int]:
    """Core vertex -> size of the component it roots (0 for a non-root), and
    the number of components of two degree-1 vertices, from the core pairs.

    A point of a core vertex that is in no core pair has a degree-1 partner,
    whose vertex joins that component.  The m pairs are the u.size core
    pairs, one pair per such partner, and the pairs of two degree-1 points.
    """
    n_core = seq.n_core
    roots = _component_roots(u, v, n_core, buffers)
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


def _component_roots(u: np.ndarray, v: np.ndarray, n: int,
                     buffers: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Vertex -> root of its component in the multigraph on n vertices with
    edges (u, v): the component's smallest vertex, as intp, in ``buffers``.

    Hook and shortcut: each round hooks the larger root of every pair under
    the smallest root paired with it, pointer-jumps the whole parent array
    until every vertex points at its root, and re-gathers each pair's roots.
    Each round hooks at least one root of every unfinished component and
    roots only decrease, so the rounds end when every pair lies in one tree.
    Hooking under the minimum keeps a star whose centre has the largest
    label to two rounds.  A pair inside one tree hooks its root under
    itself, a no-op.  Every gather's indices lie in range, which
    ``mode="clip"`` takes without checking.
    """
    low, high = _ends(u, v, buffers)  # each pair's current roots, in order
    parent, grand = (_buffer(buffers, name, (n,), np.intp)
                     for name in ("parent", "grand"))
    np.copyto(parent, _buffer(buffers, "identity", (n,), np.intp, np.arange))
    ru, rv = (_buffer(buffers, name, low.shape, np.intp)
              for name in ("low roots", "high roots"))
    while True:
        np.minimum.at(parent, high, low)
        while not np.array_equal(np.take(parent, parent, out=grand, mode="clip"),
                                 parent):
            parent, grand = grand, parent
        np.take(parent, low, out=ru, mode="clip")
        np.take(parent, high, out=rv, mode="clip")
        if np.array_equal(ru, rv):
            return parent
        np.minimum(ru, rv, out=low)
        np.maximum(ru, rv, out=high)


def core_report(seq: DegreeSequence, u: np.ndarray, v: np.ndarray,
                buffers: dict[str, np.ndarray] | None = None) -> ComponentReport:
    """Components and loop stats of a pairing of seq, from its core pairs:
    those of ``_core_pairs`` or ``sample_core_pairs``."""
    loops, parallel = _loops_and_parallel(u, v, seq.n_core, buffers)
    counts, twos = _core_components(seq, u, v, buffers)
    if twos:
        counts = np.concatenate((counts, np.full(twos, 2, dtype=counts.dtype)))
    return ComponentReport(
        counts=counts,
        largest=int(counts.max()),
        loops=int(loops),
        parallel_pairs=int(parallel),
    )


def core_largest(seq: DegreeSequence, u: np.ndarray, v: np.ndarray,
                 buffers: dict[str, np.ndarray] | None = None) -> int:
    """``core_report(seq, u, v).largest``, without the loop and parallel-pair
    counts or the sizes of the components of two degree-1 vertices."""
    counts, twos = _core_components(seq, u, v, buffers)
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

