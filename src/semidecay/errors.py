"""Exception types shared across the package."""


class SemidecayError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SemidecayError):
    """Vector or matrix dimensions do not match the attached space."""


class SingularityError(SemidecayError):
    """A shift sits too close to the spectrum for a reliable solve.

    Carries ``distance``, an estimate of the distance from the shift to
    the nearest eigenvalue, and ``witness``, the offending point.
    """

    def __init__(self, message, distance=None, witness=None):
        super().__init__(message)
        self.distance = distance
        self.witness = witness


class SeparationError(SemidecayError):
    """A circle or ball does not cleanly separate spectral groups."""


class EigenConvergenceError(SemidecayError):
    """The dense eigensolver failed to converge."""


class ProjectorMismatchError(SemidecayError):
    """Contour and Schur-form projectors disagree beyond tolerance."""


class MagnitudeGuardError(SemidecayError):
    """A computation left the representable floating-point range or would
    exceed a dense size limit."""


class InsufficientSignalError(SemidecayError):
    """All trajectory samples are below the numerical noise floor."""


class AssemblyError(SemidecayError):
    """A discrete operator violates an identity it must satisfy by construction."""


class DomainTooSmallError(SemidecayError, ValueError):
    """The truncated domain does not resolve the equilibrium tail."""


class InfeasibleParameterError(SemidecayError, ValueError):
    """Requested parameters cannot produce a valid object."""


class CertificateError(SemidecayError):
    """A decay certificate failed its admissibility checks."""


class StepRejectionError(SemidecayError):
    """An implicit time step did not meet its solve tolerance."""


class ConfigError(SemidecayError):
    """A configuration file or mapping violates the strict schema."""
