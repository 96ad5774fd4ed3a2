"""Solver and verification toolkit for time-inconsistent mean-field
stochastic linear-quadratic control with initial-time-dependent data.

The package computes open-loop time-consistent equilibrium controls via
coupled backward matrix recursions and cross-checks costs by Monte Carlo
simulation.  `verify` certifies the controls exactly from closed-form
moment forms of the restarted costs; an exact binary scenario tree, which
never consults the recursions, is the independent oracle for both.

The root holds only ``__version__``: each module is imported by its own
name, as in ``from meanfield_lq import model, recursion, tree``.
"""

__version__ = "0.1.0"
