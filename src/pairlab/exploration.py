"""Component discovery by lazy one-pair-at-a-time generation of the pairing.

Starting from a root vertex, the points of the current cluster that are not
yet matched are "active"; each step matches the first active point (FIFO on
global point index) with a partner drawn uniformly from all other unmatched
points.  A fresh partner pulls its vertex into the cluster; an active partner
closes a pair inside it.  The chain state is (A(t), {I_j(t)}): active point
count and inactive vertex counts per degree, and the conservation law
A(t) + I(t) = 2m - 2t is asserted at every step.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .degree_model import DegreeSequence
from .pairing import Pairing, PointSpace


class ConservationError(AssertionError):
    """A(t) + I(t) drifted from 2m - 2t; the chain state is corrupt."""


class CannotStepError(RuntimeError):
    """No active points remain; the current component is complete."""


@dataclass(frozen=True)
class StepRecord:
    """One transition: resulting time t, A(t), and what the partner was."""

    t: int
    active: int
    delta_active: int
    partner_degree: int  # 0 when the partner point was already active


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

    root: int
    root_degree: int
    n: int
    total_points: int
    initial_inactive_counts: dict[int, int]
    steps: tuple[StepRecord, ...]
    stop_time: int
    component_size: int

    def active_series(self) -> np.ndarray:
        """A(t) for t = 0 .. number of recorded steps."""
        return np.concatenate(
            [[self.root_degree], [rec.active for rec in self.steps]]
        ).astype(np.int64)

    def inactive_series(self, j: int) -> np.ndarray:
        """I_j(t) for t = 0 .. number of recorded steps."""
        start = self.initial_inactive_counts.get(j, 0)
        drops = np.array(
            [1 if rec.partner_degree == j else 0 for rec in self.steps],
            dtype=np.int64,
        )
        return start - np.concatenate([[0], np.cumsum(drops)])


class ExplorationState:
    """Mutable chain state; supports one root at a time, reusable for a full
    decomposition that completes a single uniform pairing across roots.

    Set-up copies only the degree histogram; everything else grows with the
    pairs matched.  The unmatched points form a swap-remove pool that starts
    as the identity on [0, 2m): ``_slot`` (pool index -> point) and
    ``_index`` (point -> pool index) record only the entries that moved.
    """

    def __init__(self, seq: DegreeSequence):
        self.seq = seq
        self.degrees = seq.degrees
        self.offsets = seq.offsets
        self.two_m = seq.two_m
        self.n = seq.n
        self.mate: dict[int, int] = {}
        self._slot: dict[int, int] = {}
        self._index: dict[int, int] = {}
        self._size = self.two_m  # unmatched points left in the pool
        self.is_active = bytearray(self.two_m)
        self.visited = bytearray(self.n)
        self.queue: deque[int] = deque()
        self.active = 0
        self.inactive_counts = dict(seq.histogram)
        self.inactive_points = self.two_m
        self.t_global = 0  # pairs matched overall
        self.t = 0  # steps since the current root was activated
        self.cluster_size = 0

    @cached_property
    def space(self) -> PointSpace:
        """Built on first use; only ``finished_pairing`` needs the owner map."""
        return PointSpace.from_degree_sequence(self.seq)

    @property
    def pool(self) -> list[int]:
        """The unmatched points in pool order (a fresh list; O(2m))."""
        return [self._slot.get(i, i) for i in range(self._size)]

    def _pool_remove(self, point: int) -> None:
        """Move the last pool slot into ``point``'s slot and shrink the pool."""
        i = self._index.pop(point, point)
        self._size -= 1
        last = self._slot.pop(self._size, self._size)
        if i != self._size:
            self._slot[i] = last
            self._index[last] = i

    def points_of(self, v: int) -> range:
        return range(self.offsets[v], self.offsets[v + 1])

    def begin(self, v: int) -> None:
        """Activate root vertex v; resets the per-root step counter."""
        if self.visited[v]:
            raise ValueError(f"vertex {v} already explored")
        self.visited[v] = 1
        d_v = self.degrees[v]
        self.inactive_counts[d_v] -= 1
        if self.inactive_counts[d_v] == 0:
            del self.inactive_counts[d_v]
        self.inactive_points -= d_v
        for s in self.points_of(v):
            self.queue.append(s)
            self.is_active[s] = 1
        self.active = d_v
        self.t = 0
        self.cluster_size = 1
        self._check_conservation()

    def _check_conservation(self) -> None:
        if self.active + self.inactive_points != self.two_m - 2 * self.t_global:
            raise ConservationError(
                f"A + I = {self.active + self.inactive_points} != "
                f"2m - 2t = {self.two_m - 2 * self.t_global}"
            )

    def snapshot(self) -> StateSnapshot:
        return StateSnapshot(
            t=self.t,
            active=self.active,
            inactive_counts=dict(self.inactive_counts),
            total_points=self.two_m,
        )

    def step(self, rng: np.random.Generator) -> StepRecord:
        """Match the first active point with a uniform unmatched partner."""
        if self.active == 0:
            raise CannotStepError("no active points")
        mate = self.mate
        # lazy deletion: skip queue entries matched while waiting
        while True:
            s1 = self.queue.popleft()
            if s1 not in mate:
                break
        self._pool_remove(s1)
        j = int(rng.random() * self._size)
        s2 = self._slot.get(j, j)
        self._pool_remove(s2)
        mate[s1] = s2
        mate[s2] = s1
        self.is_active[s1] = 0

        if self.is_active[s2]:
            self.is_active[s2] = 0
            delta = -2
            partner_degree = 0
        else:
            u = bisect_right(self.offsets, s2) - 1
            d_u = self.degrees[u]
            self.visited[u] = 1
            self.cluster_size += 1
            self.inactive_counts[d_u] -= 1
            if self.inactive_counts[d_u] == 0:
                del self.inactive_counts[d_u]
            self.inactive_points -= d_u
            for s in self.points_of(u):
                if s != s2:
                    self.queue.append(s)
                    self.is_active[s] = 1
            delta = d_u - 2
            partner_degree = d_u
        self.active += delta
        self.t += 1
        self.t_global += 1
        self._check_conservation()
        return StepRecord(
            t=self.t,
            active=self.active,
            delta_active=delta,
            partner_degree=partner_degree,
        )

    def finished_pairing(self) -> Pairing:
        """The completed pairing after a full decomposition."""
        if len(self.mate) != self.two_m:
            raise RuntimeError("pairing incomplete")
        lower = sorted(s for s, t in self.mate.items() if s < t)
        pairs = np.array([(s, self.mate[s]) for s in lower], dtype=np.int64)
        return Pairing(pairs=pairs.reshape(-1, 2), space=self.space)


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
    component (and its portion of the pairing) is completed.
    """
    state = start_exploration(seq, v)
    initial = dict(state.inactive_counts)
    steps: list[StepRecord] = []
    stop_time = 0
    while state.active > 0:
        rec = state.step(rng)
        if record_trace:
            steps.append(rec)
        if stop_time == 0 and (state.active == 0 or state.inactive_points == 0):
            stop_time = state.t
    return ExplorationTrace(
        root=v,
        root_degree=seq.degrees[v],
        n=seq.n,
        total_points=seq.two_m,
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
    state = ExplorationState(seq)
    sizes: list[int] = []
    for v in range(seq.n):
        if state.visited[v]:
            continue
        state.begin(v)
        while state.active > 0:
            state.step(rng)
        sizes.append(state.cluster_size)
    return sizes


def write_trace_csv(
    traces: list[ExplorationTrace], path: str | Path
) -> None:
    """One row per step: t, A, delta_A, partner_degree, component_id."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "A", "delta_A", "partner_degree", "component_id"])
        for cid, trace in enumerate(traces):
            for rec in trace.steps:
                writer.writerow(
                    [rec.t, rec.active, rec.delta_active, rec.partner_degree, cid]
                )
