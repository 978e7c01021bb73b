"""Exception hierarchy.

``ValueError`` is reserved for plain argument validation; everything that
reflects a *mathematical* failure mode (singular coefficient, spectrum on the
imaginary axis, frame degeneration, ...) gets its own class so callers can
react to it.
"""

__all__ = [
    "RelaxstabError",
    "EvaluationError",
    "ModelError",
    "ConvergenceError",
    "NumericError",
    "PathResolutionError",
    "CenterSpectrumError",
    "FrameConditioningError",
    "TurningPointSuspectedError",
    "StabilityError",
    "WindowOverflowError",
    "StepError",
    "InstabilityError",
    "ConfigError",
    "CompatibilityError",
    "CertificateError",
]


class RelaxstabError(Exception):
    """Base class for all toolkit-specific errors."""


class EvaluationError(RelaxstabError):
    """A user-supplied evaluator returned non-finite or ill-shaped data."""


class ModelError(RelaxstabError):
    """Model-level inconsistency (singular coefficient, bad parameters)."""


class ConvergenceError(RelaxstabError):
    """An iterative solve did not reach its target residual.

    Carries the final ``residual`` when available.
    """

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class NumericError(RelaxstabError):
    """A linear-algebra kernel failed (eigensolver, factorization, ...)."""


class PathResolutionError(RelaxstabError):
    """Eigenvalue matching along a parameter path was ambiguous.

    Usually fixed by refining the path.
    """


class CenterSpectrumError(RelaxstabError):
    """A limit matrix has spectrum too close to the imaginary axis.

    Raised when a frequency lies on (or near) the singular set where no
    exponential splitting exists.
    """


class FrameConditioningError(RelaxstabError):
    """A coordinate frame became too ill-conditioned to invert reliably."""


class TurningPointSuspectedError(RelaxstabError):
    """Propagated subspaces nearly collided; a turning point is suspected."""


class StabilityError(RelaxstabError):
    """A block expected to be uniformly stable (or anti-stable) is not."""


class WindowOverflowError(RelaxstabError):
    """A chained propagator product became non-finite or vanished."""


class StepError(RelaxstabError):
    """Invalid time step (CFL violation or non-finite input)."""


class InstabilityError(RelaxstabError):
    """A simulated trajectory blew up beyond the configured cap."""


class ConfigError(RelaxstabError):
    """Run configuration failed schema validation; names the field path."""


class CompatibilityError(RelaxstabError):
    """Output files were produced by an incompatible schema version, or
    neither numpy nor scipy provides a LAPACK routine the package calls."""


class CertificateError(RelaxstabError):
    """A certificate prerequisite was violated (non-Hermitian input, ...)."""
