"""Exception hierarchy for truncops.

Every exception raised on purpose by the library derives from TruncOpsError,
so callers (in particular the verification harness, which must survive
per-trial failures) can catch one type.
"""


class TruncOpsError(Exception):
    """Base class for all truncops errors."""


class ZeroOnOrOutsideCircle(TruncOpsError):
    """A Blaschke zero is not strictly inside the unit disk."""


class NotUnimodular(TruncOpsError):
    """A constant that must have modulus one does not."""


class PoleHit(TruncOpsError):
    """Evaluation requested at (or too close to) a pole."""


class PoleOnCircle(TruncOpsError):
    """A rational symbol has a denominator root too close to the unit circle."""


class NoConvergence(TruncOpsError):
    """Adaptive circle quadrature hit its node cap without stabilizing."""


class DegenerateSpectrum(TruncOpsError):
    """Two eigenvalues coincide where a simple spectrum is required."""


class SingularDenominator(TruncOpsError):
    """A scalar or symbol denominator vanishes (or nearly does)."""


class SpaceMismatch(TruncOpsError):
    """Operator composition or application across incompatible model spaces."""


class NotRealSymmetric(TruncOpsError):
    """An operation requiring a real symmetric inner function got one that is not."""


class NotTTO(TruncOpsError):
    """An operand required to be a truncated Toeplitz operator is not."""


class NotTHO(TruncOpsError):
    """An operand required to be a truncated Hankel operator is not."""


class ZeroAnchor(TruncOpsError):
    """A cross decomposition anchor vector is (numerically) zero."""


class SymbolRecoveryFailed(TruncOpsError):
    """Could not recover symbol parts needed by a product criterion."""


class SymbolNotInClass(TruncOpsError):
    """A supplied symbol fails its required model-space membership."""


class NoCertificate(TruncOpsError):
    """A certificate rebuild (a symbol or a class multiplier) exceeded its tolerance."""


class Singular(TruncOpsError):
    """A matrix required to be invertible is singular or too ill conditioned."""


class InvalidRange(TruncOpsError):
    """An instance-generation parameter is out of its permitted range."""
