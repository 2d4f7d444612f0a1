"""Collapse of three zero-range-interacting particles, end to end.

The package follows one thread: the hyperangular eigenvalue nu^2(rho)
of the zero-range three-body problem drops below -1/4 at short
distances, turning the hyperradial potential into a supercritical
-C/rho^2 attraction whose regularized spectrum is a geometric tower of
levels; a companion mean-field module classifies when power-law
stabilizing terms can or cannot restore a bounded energy density.

Importing the package loads `core` alone: its names, the error classes
among them, are bound here at once.  The names of `hyperangular`,
`meanfield` and `radial`, and those modules themselves, load on first
use (PEP 562), so that a command-line run imports only the modules its
subcommand computes with.
"""

import importlib

from .core import (
    ConfigError,
    EfimovLabError,
    GridError,
    InsufficientNodesError,
    LogGrid,
    PoleError,
    SolverError,
    SystemConfig,
    UnregularizedPotentialError,
    make_config,
)

__version__ = "0.1.0"
# stays only until ROADMAP item 3 drops perfbench/run.py's read of it
KERNEL_BACKEND = "pure"

_LAZY_MODULES = ("hyperangular", "meanfield", "radial")
# public name -> the module it is defined in
_LAZY = {name: module for module, names in (
    ("hyperangular", ("LHS_AT_ZERO", "AdiabaticBranch", "Cap", "EfimovConstants", "HardWall",
                      "NuSquared", "branch_interval", "constant_branch", "effective_potential",
                      "efimov_constants", "eigen_lhs", "solve_branch0", "solve_branches",
                      "tabulate_branch")),
    ("meanfield", ("CORRELATION_CAVEAT", "Classification", "MatterModel", "StabilityReport",
                   "Stabilizer", "StabilizerKind", "Statistics", "classify_stability",
                   "energy_density", "energy_per_particle", "kinetic_density_fermi")),
    ("radial", ("BoundStateSpectrum", "NodeReport", "ProbeResult", "RadialSolution",
                "collapse_probe", "find_spectrum", "integrate_radial", "node_analysis")),
) for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
