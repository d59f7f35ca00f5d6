"""Exception hierarchy shared across the package.

Each class carries the CLI exit code of its category as ``exit_code``: 2
for configuration errors, 4 for an infeasible matching target, 5 for an
unreachable tuning target and 3, inherited from the base class, for every
data error. The CLI exits with it without inspecting messages.
"""


class TrialEmuError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(TrialEmuError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class SchemaError(TrialEmuError):
    """Data does not match the declared covariate schema."""


class CohortParseError(TrialEmuError):
    """A cohort file could not be parsed (bad cell, bad header)."""


class IntegrityError(TrialEmuError):
    """Structural data problem, e.g. duplicate patient ids."""


class DegenerateModelError(TrialEmuError):
    """Training data contains a single class."""


class InsufficientDataError(TrialEmuError):
    """Too few samples to fit the requested model."""


class TargetInfeasibleError(TrialEmuError):
    """No matching selection can reach the trial target."""

    exit_code = 4


class InvalidSolutionError(TrialEmuError):
    """A match solution violates a constraint of the problem."""


class UnreachableTargetError(TrialEmuError):
    """Weight tuning cannot reach the trial target within rho_max."""

    exit_code = 5

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidRewardsError(TrialEmuError):
    """Reward matrix entries outside [0, 1]."""


class UndefinedStatisticError(TrialEmuError):
    """A statistic is undefined for the given input (e.g. no events)."""


class ArtifactError(TrialEmuError):
    """A pipeline artifact is missing or fails its hash check."""
