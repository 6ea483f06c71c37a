"""Exception types raised throughout the package.

Validation and numerical errors are :class:`DmParamError` (a
``ValueError``), whose message names the cause.  The three subclasses mark
numerical failures, which the CLI answers with exit 3 instead of exit 2.
"""


class DmParamError(ValueError):
    """Base class for all validation and numerical errors in dmparam."""


class NotPsdError(DmParamError):
    """An eigenvalue lies below the admissible negative tolerance."""


class ConvergenceFailureError(DmParamError):
    """The underlying eigensolver failed to converge or verify."""


class SingularAngleError(DmParamError):
    """The matrix angle is singular, so the normalized blocks ``Zh`` are not
    unique.

    Raised only by ``normalize_blocks``, which returns ``Zh`` itself.  The
    block unitary ``V_j`` is unique at every angle: the chain builds it from
    the polar factor of the blocks, which exists at singular angles too.
    """
