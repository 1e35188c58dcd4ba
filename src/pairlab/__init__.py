"""Simulation lab for uniform random (multi)graphs with a fixed subpower-law
degree sequence: pairing-model sampling, component exploration, and the
statistical diagnostics that go with them.

The degree-model names load with the package.  The exploration, pairing and
rng names load their module on first access.  Of those, only the pairing
module imports numpy as it loads; the others import it inside the functions
that make arrays.  So a dry run that only reads degrees never imports numpy,
and a trajectory run of short walks, which draws and takes its deviations in
Python, does not either.  A process that forks loads all three first, numpy
with them, so forked pool workers inherit one import instead of each
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

# name -> submodule, imported on first access (PEP 562): what perfbench reads
_LAZY = {
    "explore_component": "exploration",
    "largest_component_via_exploration": "exploration",
    "PointSpace": "pairing",
    "project_components": "pairing",
    "sample_pairing": "pairing",
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
    *_LAZY,
    "__version__",
]
