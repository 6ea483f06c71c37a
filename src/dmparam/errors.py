"""Exception types raised throughout the package.

Everything derives from :class:`DmParamError` (a ``ValueError``), so callers
that do not care about the exact failure mode can catch a single class.
"""


class DmParamError(ValueError):
    """Base class for all validation and numerical errors in dmparam."""


class NotSquareError(DmParamError):
    """Input matrix is not square."""


class NotHermitianError(DmParamError):
    """Hermiticity deviation exceeds the allowed tolerance."""


class NotSkewHermitianError(DmParamError):
    """Matrix is not skew-Hermitian within tolerance."""


class NotPsdError(DmParamError):
    """An eigenvalue lies below the admissible negative tolerance."""


class NotUnitaryError(DmParamError):
    """Matrix is not unitary within tolerance."""


class ConvergenceFailureError(DmParamError):
    """The underlying eigensolver failed to converge or verify."""


class DimensionMismatchError(DmParamError):
    """Array shapes are inconsistent with the declared dimensions."""


class InvalidSimplexError(DmParamError):
    """Eigenvalue vector is not a (canonically ordered) probability simplex point."""


class SingularAngleError(DmParamError):
    """The matrix angle is singular, so the normalized blocks ``Zh`` are not
    unique.

    Raised only by ``normalize_blocks``, which returns ``Zh`` itself.  The
    block unitary ``V_j`` is unique at every angle: the chain builds it from
    the polar factor of the blocks, which exists at singular angles too.
    """


class MissingFactorizationError(DmParamError):
    """A bipartite operation was requested on a matrix without (n, m) dims."""


class UnsupportedShapeError(DmParamError):
    """Operation defined only for a specific factorization (e.g. n = 2)."""


class AngleOutOfRangeError(DmParamError):
    """Angle parameter lies outside the documented range."""


class OutOfRangeError(DmParamError):
    """Scalar family parameter lies outside its admissible interval."""


class BadNormalizationError(DmParamError):
    """Block traces do not sum to one within tolerance."""


class ConditionViolatedError(DmParamError):
    """A structural precondition (commutation / intertwining) fails.

    Attributes
    ----------
    condition : str
        Name of the violated condition.
    residual : float
        Frobenius norm of the violation.
    """

    def __init__(self, condition, residual, tol):
        self.condition = condition
        self.residual = float(residual)
        super().__init__(
            f"condition {condition!r} violated: residual {self.residual:.3e} "
            f"exceeds tolerance {tol:.1e}"
        )
