"""Collapse of three zero-range-interacting particles, end to end.

The package follows one thread: the hyperangular eigenvalue nu^2(rho)
of the zero-range three-body problem drops below -1/4 at short
distances, turning the hyperradial potential into a supercritical
-C/rho^2 attraction whose regularized spectrum is a geometric tower of
levels; a companion mean-field module classifies when power-law
stabilizing terms can or cannot restore a bounded energy density.
"""

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
from .hyperangular import (
    LHS_AT_ZERO,
    AdiabaticBranch,
    Cap,
    EfimovConstants,
    HardWall,
    NuSquared,
    branch_interval,
    constant_branch,
    effective_potential,
    efimov_constants,
    eigen_lhs,
    solve_branch0,
    solve_branches,
    tabulate_branch,
)
from .meanfield import (
    CORRELATION_CAVEAT,
    Classification,
    MatterModel,
    StabilityReport,
    Stabilizer,
    StabilizerKind,
    Statistics,
    classify_stability,
    energy_density,
    energy_per_particle,
    kinetic_density_fermi,
)
from .radial import (
    BoundStateSpectrum,
    NodeReport,
    ProbeResult,
    RadialSolution,
    collapse_probe,
    find_spectrum,
    integrate_radial,
    node_analysis,
)

__version__ = "0.1.0"
# stays only until ROADMAP item 5 drops perfbench/run.py's read of it
KERNEL_BACKEND = "pure"
