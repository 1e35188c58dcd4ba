"""Simulation lab for uniform random (multi)graphs with a fixed subpower-law
degree sequence: pairing-model sampling, component exploration, and the
statistical diagnostics that go with them.

The degree-model names load with the package.  The exploration, pairing and
rng names load their module, and numpy with it, on first access, so a dry
run that only reads degrees never imports numpy.  A process that forks loads
them first, so forked pool workers inherit one import instead of each
repeating it.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

from .degree_model import (
    DegreeSequence,
    EmpiricalDistribution,
    OffspringLaw,
    build_subpower_sequence,
    empirical_distribution,
    molloy_reed_sum,
    nu,
    offspring_law,
    validate_subpower,
)

# name -> submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    "ExplorationState": "exploration",
    "ExplorationTrace": "exploration",
    "explore_component": "exploration",
    "largest_component_via_exploration": "exploration",
    "start_exploration": "exploration",
    "ComponentReport": "pairing",
    "Pairing": "pairing",
    "PointSpace": "pairing",
    "count_loops": "pairing",
    "count_parallel_pairs": "pairing",
    "enumerate_pairings": "pairing",
    "project_components": "pairing",
    "sample_pairing": "pairing",
    "sample_simple_graph": "pairing",
    "substream": "rng",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


def _load_lazy_modules() -> None:
    for module in dict.fromkeys(_LAZY.values()):
        import_module(f".{module}", __name__)


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(before=_load_lazy_modules)


__all__ = [
    "DegreeSequence",
    "EmpiricalDistribution",
    "OffspringLaw",
    "build_subpower_sequence",
    "empirical_distribution",
    "molloy_reed_sum",
    "nu",
    "offspring_law",
    "validate_subpower",
    "ExplorationState",
    "ExplorationTrace",
    "explore_component",
    "largest_component_via_exploration",
    "start_exploration",
    "ComponentReport",
    "Pairing",
    "PointSpace",
    "count_loops",
    "count_parallel_pairs",
    "enumerate_pairings",
    "project_components",
    "sample_pairing",
    "sample_simple_graph",
    "substream",
    "__version__",
]
