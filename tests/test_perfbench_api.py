"""The pairlab names that ``perfbench/workloads.py`` and
``perfbench/decompose.py`` use, each called once on a tiny sequence.

``perfbench/selftest.py`` runs the benchmark's replays end to end but takes
about a minute; this test fails at once when a change to the package renames,
removes or reshapes one of the names the replays reach.
"""

import numpy as np

import pairlab
import pairlab.exploration
import pairlab.harness
from pairlab.diagnostics import poisson_limit_check, trajectory_deviation
from pairlab.harness import DEFAULT_TOLERANCES, resolve_degrees


def _counting(monkeypatch, module, attr):
    """Wrap ``module.attr`` the way perfbench's tracer does; returns the list
    that each call through the attribute appends to."""
    calls = []
    original = getattr(module, attr)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapped)
    return calls


def test_poisson_and_scaling_replay_names():
    seq = resolve_degrees({"kind": "regular", "n": 8, "d": 3})
    nu_value = pairlab.nu(pairlab.empirical_distribution(seq))
    space = pairlab.PointSpace.from_degree_sequence(seq)
    assert space.total_points == seq.two_m == 24
    reports = []
    for rep in range(3):
        pairing = pairlab.sample_pairing(space, pairlab.substream(5, 0, rep))
        report = pairlab.project_components(pairing)
        assert report.simple == (report.loops == report.parallel_pairs == 0)
        assert report.largest == max(report.component_sizes)
        reports.append(report)
    check = poisson_limit_check(reports, nu_value, min_reports=1)
    assert check.target_loops == nu_value / 2


def test_trajectory_replay_names():
    seq = resolve_degrees({"kind": "explicit", "degrees": [4, 3, 2, 2, 1, 1, 1]})
    dist = pairlab.empirical_distribution(seq)
    root = int(np.argmax(seq.degrees))
    j_max = int(DEFAULT_TOLERANCES["trajectory_j_max"])
    track = [j for j in range(1, j_max + 1) if j in dist.counts]
    trace = pairlab.explore_component(seq, root, pairlab.substream(5, 0, 0),
                                      record_trace=True)
    assert len(trace.steps) >= 1
    for j in track:
        assert trajectory_deviation(trace, dist, j) >= 0.0


def test_decompose_names():
    seq = pairlab.DegreeSequence((3,) * 10)
    sizes = pairlab.largest_component_via_exploration(seq, pairlab.substream(5, 0, 0))
    assert sum(sizes) == seq.n and max(sizes) >= 1 and seq.two_m // 2 == 15


def test_instrumented_attributes_are_called_through_their_modules(monkeypatch):
    # perfbench replaces these two module attributes to time the calls the
    # package makes to them, so the package must look them up at call time
    starts = _counting(monkeypatch, pairlab.exploration, "start_exploration")
    builds = _counting(monkeypatch, pairlab.harness, "build_subpower_sequence")
    seq = resolve_degrees({"kind": "subpower", "n": 200, "gamma": 3.5,
                           "target_nu": 0.9})
    assert len(builds) == 1
    pairlab.explore_component(seq, 0, pairlab.substream(5, 0, 0), record_trace=True)
    assert len(starts) == 1
