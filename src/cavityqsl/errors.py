"""Exception types shared across the package.

Two families: ValidationError for bad inputs or configuration, and
NumericalError for computations that ran but failed a quality gate.
The CLI maps them to exit codes 1 and 2 respectively. A sweep row that
fails records the class name in its flag as error:<ClassName>.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Bad argument, parameter set, or configuration."""


class NumericalError(RuntimeError):
    """A numerical routine failed a convergence or physicality gate."""


class NoConvergence(NumericalError):
    """Eigensolver failed to converge, or a propagation left the float range."""


class CutoffNotConverged(NumericalError):
    """Raising the Fock cutoff still changes the reduced state."""


class PositivityViolated(NumericalError):
    """A trajectory state developed a significantly negative eigenvalue."""


class NotPure(NumericalError):
    """Reference state failed the purity check."""
