"""Solver and verification toolkit for time-inconsistent mean-field
stochastic linear-quadratic control with initial-time-dependent data.

The package computes open-loop time-consistent equilibrium controls via
coupled backward matrix recursions and cross-checks costs by Monte Carlo
simulation.  `verify` certifies the controls exactly from closed-form
moment forms of the restarted costs; an exact binary scenario tree, which
never consults the recursions, is the independent oracle for both.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyConfig,
    EpsilonNonPositive,
    HorizonMismatch,
    MeanfieldLQError,
    NonFinite,
    NonSquare,
    NumericalBreakdown,
    ProblemFormatError,
)
from .matrices import EquilibriumCertificate, PsdVerdict, pinv, psd_check, range_residual
from .model import (
    InitialPair,
    ProblemData,
    bundled_example,
    from_no_meanfield,
    from_time_invariant,
    validate,
)
from .recursion import (
    GainSchedule,
    RecursionTables,
    SolvabilityReport,
    convexity_margins,
    solve_gdre_global,
    solve_shifts,
    solve_symmetric,
)
from .montecarlo import SimConfig, SimResult, simulate
from .tree import (
    AdaptedProcess,
    ScenarioTree,
    certify_equilibrium,
    cost,
    difference_formula_check,
    variation_cost,
    representation_check,
    roll_forward,
    solve_bsde,
    stationarity_residuals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
