"""Component discovery by lazy one-pair-at-a-time generation of the pairing.

Starting from a root vertex, the points of the current cluster that are not
yet matched are "active"; each step matches the first active point (FIFO on
global point index) with a partner drawn uniformly from all other unmatched
points.  A fresh partner pulls its vertex into the cluster; an active partner
closes a pair inside it.  The chain state is (A(t), {I_j(t)}): active point
count and inactive vertex counts per degree, and the conservation law
A(t) + I(t) = 2m - 2t is asserted at every step.

One transition takes a block of uniforms.  ``ExplorationState.step`` passes
it one.  The drivers (``explore_component``,
``largest_component_via_exploration``) pass it blocks: a step lowers A by at
most 2, so with A active points at least ceil(A/2) more steps follow, and a
block of exactly that many ``rng.random`` values is used up in full.
``Generator.random(k)`` yields the same doubles as k scalar calls, so the
steps, the uniforms drawn and the generator's final state match a loop of
``step`` calls.

The unmatched points form a swap-remove pool, and who owns the state picks
its container.  A walk (``start_exploration``, ``explore_component``,
``step``) touches O(t) pool slots, so it keeps two maps of moved entries,
each at most 2t keys.  A full decomposition matches all m pairs and so
touches every slot: it keeps two flat 8-byte arrays, 16 bytes a point, whose
reads are cheaper than a map's.  One transition serves both.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from operator import index as as_index
from typing import TYPE_CHECKING

import numpy as np

from .degree_model import DegreeSequence

if TYPE_CHECKING:
    from .pairing import Pairing


class ConservationError(AssertionError):
    """A(t) + I(t) drifted from 2m - 2t; the chain state is corrupt."""


class CannotStepError(RuntimeError):
    """No active points remain; the current component is complete."""


@dataclass(frozen=True)
class StateSnapshot:
    """Frozen view of the chain for analytic checks (single-root runs)."""

    t: int
    active: int
    inactive_counts: dict[int, int]
    total_points: int

    @property
    def inactive_points(self) -> int:
        return sum(j * k for j, k in self.inactive_counts.items())


@dataclass(frozen=True)
class ExplorationTrace:
    """Recorded path of one exploration up to (and past) its stopping time."""

    root_degree: int
    n: int
    initial_inactive_counts: dict[int, int]
    steps: tuple[int, ...]  # each step's partner degree, 0 for an active partner
    stop_time: int
    component_size: int

    def active_series(self) -> np.ndarray:
        """A(t) for t = 0 .. number of recorded steps: a partner of degree d
        adds d - 2 active points, an active partner (d = 0) removes 2."""
        degrees = np.array(self.steps, dtype=np.int64)
        delta = np.where(degrees == 0, -2, degrees - 2)
        return self.root_degree + np.concatenate([[0], np.cumsum(delta)])

    def inactive_series(self, j: int) -> np.ndarray:
        """I_j(t) for t = 0 .. number of recorded steps: each partner of
        degree j removes one inactive vertex of degree j."""
        drops = np.cumsum(np.array(self.steps, dtype=np.int64) == j)
        return self.initial_inactive_counts.get(j, 0) - np.concatenate([[0], drops])


class _Moved(dict):
    """The moved entries of a swap-remove pool that starts as the identity:
    a key it lacks is its own value.  ``operator.index`` returns an int key
    as it is without entering a Python frame, which a ``def __missing__``
    would do on every read of an unmoved slot."""

    __slots__ = ()
    __missing__ = staticmethod(as_index)


class ExplorationState:
    """Mutable chain state; supports one root at a time, reusable for a full
    decomposition that completes a single uniform pairing across roots.

    Set-up copies the degree histogram and zero-fills two flag arrays, one
    byte a point (``is_active``) and one a vertex (``visited``): a point's
    vertex comes from the sequence's ``runs``, by bisecting the runs' first
    points and one division.  ``pairs`` holds the matched pairs ``(s1, s2)``
    in match order.  The unmatched points form a swap-remove pool that
    starts as the identity on [0, 2m): ``_slot`` (pool index -> point) and
    ``_index`` (point -> pool index), with ``_size`` = 2m - 2t live slots.
    A walk's pool is two maps of moved entries, each at most 2t keys; the
    full decomposition's (``_decomposition_state``) is two flat 8-byte
    arrays, 16 bytes a point.
    """

    def __init__(self, seq: DegreeSequence):
        self.seq = seq
        self.pairs: list[tuple[int, int]] = []
        self._slot: _Moved | memoryview = _Moved()
        self._index: _Moved | memoryview = _Moved()
        self._size = seq.two_m  # unmatched points left in the pool
        self.is_active = bytearray(seq.two_m)
        self.visited = bytearray(seq.n)
        self.queue: deque[int] = deque()
        self.active = 0
        self.inactive_counts = dict(seq.histogram)
        self.inactive_points = seq.two_m
        self._t_begin = 0  # pairs matched before the current root
        self.cluster_size = 0

    @property
    def t_global(self) -> int:
        """Pairs matched overall."""
        return len(self.pairs)

    @property
    def t(self) -> int:
        """Steps since the current root was activated."""
        return len(self.pairs) - self._t_begin

    def begin(self, v: int) -> None:
        """Activate root vertex v; resets the per-root step counter.  Refuses,
        before touching the state, a root that is no vertex, one already
        explored, or any root while the current component has active points."""
        try:
            v = as_index(v)
        except TypeError:
            raise ValueError(f"root {v!r} is not an integer") from None
        if not 0 <= v < self.seq.n:
            raise ValueError(f"root {v} is not a vertex in range({self.seq.n})")
        if self.active:
            raise ValueError(
                f"cannot begin root {v}: the current component has "
                f"{self.active} active points"
            )
        if self.visited[v]:
            raise ValueError(f"vertex {v} already explored")
        self.visited[v] = 1
        points = self.seq.points_of(v)
        d_v = len(points)
        self.inactive_counts[d_v] -= 1
        if self.inactive_counts[d_v] == 0:
            del self.inactive_counts[d_v]
        self.inactive_points -= d_v
        self.queue.extend(points)
        self.is_active[points.start:points.stop] = b"\x01" * d_v
        self.active = d_v
        self._t_begin = len(self.pairs)
        self.cluster_size = 1
        self._check_conservation()

    def _check_conservation(self) -> None:
        if self.active + self.inactive_points != self._size:
            raise ConservationError(
                f"A + I = {self.active + self.inactive_points} != "
                f"2m - 2t = {self._size}"
            )

    def snapshot(self) -> StateSnapshot:
        return StateSnapshot(
            t=self.t,
            active=self.active,
            inactive_counts=dict(self.inactive_counts),
            total_points=self.seq.two_m,
        )

    def step(self, rng: np.random.Generator) -> int:
        """Match the first active point with a uniform unmatched partner;
        returns the partner's degree, 0 when it was active."""
        if self.active == 0:
            raise CannotStepError("no active points")
        return self._advance([rng.random()])[0]

    def _advance(self, xs: list[float]) -> list[int]:
        """The one transition, once per uniform ``x`` of ``xs``: match the
        first active point with the unmatched point in pool slot
        ``int(x * size)``.  Returns each step's partner degree, 0 for an
        active partner.  The caller ensures A > 0 before each step.

        Each of ``s1`` and ``s2`` is swap-removed: the last pool slot moves
        into its slot and the pool shrinks by one.  A removed point's slot
        and index are dead and never read again, so they are left stale.
        The counters live in locals, written back after the block or at a
        conservation failure.
        """
        queue, is_active, visited = self.queue, self.is_active, self.visited
        slot, index, pairs = self._slot, self._index, self.pairs
        counts = self.inactive_counts
        run_points, run_vertices, run_degrees = self.seq.runs
        active, inactive, size = self.active, self.inactive_points, self._size
        cluster = self.cluster_size
        partners = []
        for x in xs:
            s1 = queue.popleft()
            while not is_active[s1]:  # lazy deletion: matched as a partner
                s1 = queue.popleft()  # while it waited
            size -= 1
            i = index[s1]
            last = slot[i] = slot[size]
            index[last] = i
            j = int(x * size)
            s2 = slot[j]
            size -= 1
            last = slot[j] = slot[size]
            index[last] = j
            pairs.append((s1, s2))
            is_active[s1] = 0

            if is_active[s2]:
                is_active[s2] = 0
                degree = 0
                active -= 2
            else:  # s2's vertex: its run, then whole degrees into the run
                r = bisect_right(run_points, s2) - 1
                degree = run_degrees[r]
                within = s2 - run_points[r]
                visited[run_vertices[r] + within // degree] = 1
                first = s2 - within % degree
                cluster += 1
                if counts[degree] == 1:
                    del counts[degree]
                else:
                    counts[degree] -= 1
                inactive -= degree
                for s in range(first, first + degree):
                    if s != s2:
                        queue.append(s)
                        is_active[s] = 1
                active += degree - 2
            partners.append(degree)
            if active + inactive != size:
                break  # the check below raises
        self.active, self.inactive_points, self._size = active, inactive, size
        self.cluster_size = cluster
        self._check_conservation()  # raises, naming both sides, on a drift
        return partners

    def finished_pairing(self) -> Pairing:
        """The completed pairing after a full decomposition."""
        from .pairing import Pairing  # an exploration alone needs no sampler

        if self._size:
            raise RuntimeError("pairing incomplete")
        pairs = np.array(sorted(map(sorted, self.pairs)), dtype=np.int64)
        return Pairing(pairs=pairs.reshape(-1, 2), seq=self.seq)


def _decomposition_state(seq: DegreeSequence) -> ExplorationState:
    """A state whose pool is two flat arrays: a full decomposition touches
    every slot, so it reads arrays rather than maps of moved entries."""
    state = ExplorationState(seq)
    state._slot = memoryview(np.arange(seq.two_m, dtype=np.intp))
    state._index = memoryview(np.arange(seq.two_m, dtype=np.intp))
    return state


def _walk(state: ExplorationState, rng: np.random.Generator) -> Iterator[list[int]]:
    """Advance ``state`` until A = 0, yielding each block's partner degrees.

    A step lowers A by at most 2, so A active points need at least
    ceil(A/2) more steps: the uniforms are drawn that many at a time, and each
    one is used, in the order per-step ``rng.random()`` calls would use them.
    """
    while state.active:
        yield state._advance(rng.random((state.active + 1) // 2).tolist())


def start_exploration(seq: DegreeSequence, v: int) -> ExplorationState:
    """Fresh chain rooted at vertex v: A(0) = d_v, I_j(0) = n p_j - [j = d_v]."""
    state = ExplorationState(seq)
    state.begin(v)
    return state


def explore_component(
    seq: DegreeSequence,
    v: int,
    rng: np.random.Generator,
    record_trace: bool = False,
) -> ExplorationTrace:
    """Run the chain from root v until its component is fully matched.

    The stopping time is the first step with min(A, I) = 0; when I hits zero
    first, remaining active points are drained against each other so the
    component (and its portion of the pairing) is completed.  Within a block
    of ceil(A/2) steps A reaches 0 only at the last step, and I at the last
    partner of positive degree.
    """
    state = start_exploration(seq, v)
    root_degree, initial = state.active, dict(state.inactive_counts)
    steps: list[int] = []
    stop_time = 0
    for block in _walk(state, rng):
        if record_trace:
            steps += block
        if stop_time == 0 and (state.active == 0 or state.inactive_points == 0):
            end = len(block)
            if state.inactive_points == 0:
                while block[end - 1] == 0:
                    end -= 1
            stop_time = state.t - len(block) + end
    return ExplorationTrace(
        root_degree=root_degree,
        n=seq.n,
        initial_inactive_counts=initial,
        steps=tuple(steps),
        stop_time=stop_time,
        component_size=state.cluster_size,
    )


def largest_component_via_exploration(
    seq: DegreeSequence, rng: np.random.Generator
) -> list[int]:
    """Full decomposition: explore from the lowest unvisited vertex until all
    vertices are placed, completing one uniform pairing; returns the sizes."""
    state = _decomposition_state(seq)
    sizes: list[int] = []
    v = state.visited.find(0)
    while v >= 0:
        state.begin(v)
        for _ in _walk(state, rng):
            pass
        sizes.append(state.cluster_size)
        v = state.visited.find(0, v + 1)
    return sizes

