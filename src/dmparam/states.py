"""The density-matrix carrier type.

A :class:`DensityMatrix` is an ``nm x nm`` Hermitian, positive-semidefinite,
trace-one matrix together with its declared bipartite split ``(n, m)``.
Single-system states use ``m = 1``.  Instances are validated on construction
and immutable afterwards, so they are safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadNormalizationError,
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
)
from .linalg import DEFAULT_TOL, TRACE_TOL, Tolerances

__all__ = ["DensityMatrix", "check_states"]


def _frobenius(x):
    """Frobenius norm of each matrix of a ``(..., d, d)`` complex stack.

    Like ``np.linalg.norm`` (a BLAS dot), ``einsum`` overflows to ``inf``
    without a floating-point warning; the infinite norm then fails its check.
    """
    v = x.reshape(x.shape[:-2] + (-1,)).view(float)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def check_states(mats, tol: Tolerances = DEFAULT_TOL):
    """The density-matrix gate over a ``(..., d, d)`` complex stack.

    Each matrix must be finite, Hermitian within ``tol.tol_herm`` relative
    to its Frobenius norm (or 1), of trace one within ``TRACE_TOL`` and PSD
    within ``tol.tol_psd``; the checks run in that order.  Returns the
    ascending eigenvalues ``(..., d)`` and ``None`` when every matrix
    passes, else ``(index, error)`` for the first failing matrix in
    row-major order: its index into the leading axes and the exception (not
    raised) for the first check it fails.  A matrix that fails before the
    PSD check is replaced by zeros for the eigensolver.
    """
    finite = np.logical_and.reduce(np.isfinite(mats), axis=(-2, -1))
    if np.count_nonzero(finite) < finite.size:
        mats = np.where(finite[..., None, None], mats, 0.0)
    herm_dev = _frobenius(mats - mats.conj().swapaxes(-1, -2))
    # The bound tol_herm * max(||M||, 1) is never below tol_herm, so the
    # norms of the matrices are needed only where the deviation exceeds that.
    not_herm = herm_dev > tol.tol_herm
    if np.count_nonzero(not_herm):
        not_herm &= herm_dev > tol.tol_herm * np.maximum(_frobenius(mats), 1.0)
    trace_dev = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    failed = ~finite | not_herm | (trace_dev > TRACE_TOL)
    if np.count_nonzero(failed):
        mats = np.where(failed[..., None, None], 0.0, mats)
    w = np.linalg.eigvalsh(mats)
    failed |= w[..., 0] < -tol.tol_psd
    if not np.count_nonzero(failed):
        return w, None
    i = np.unravel_index(np.argmax(failed), failed.shape)
    if not finite[i]:
        error = DimensionMismatchError("matrix contains non-finite entries")
    elif not_herm[i]:
        error = NotHermitianError(
            f"state Hermiticity deviation {herm_dev[i]:.3e} exceeds tolerance"
        )
    elif trace_dev[i] > TRACE_TOL:
        error = BadNormalizationError(f"state trace deviates from 1 by {trace_dev[i]:.3e}")
    else:
        error = NotPsdError(
            f"state has eigenvalue {w[i][0]:.3e} below -tol_psd = {-tol.tol_psd:.1e}"
        )
    return w, (i, error)


class DensityMatrix:
    """Validated quantum state with an ``(n, m)`` factorization.

    Parameters
    ----------
    n, m : int
        Dimensions of the two tensor factors (``m = 1`` for single systems).
    mat : array_like
        The ``nm x nm`` matrix.  Must be Hermitian within ``tol.tol_herm``,
        PSD within ``tol.tol_psd`` and trace-one within ``1e-10``.

    Attributes
    ----------
    mat : numpy.ndarray
        Read-only matrix data.
    eigenvalues : numpy.ndarray
        Ascending eigenvalues, cached from the positivity check.
    """

    __slots__ = ("n", "m", "mat", "eigenvalues")

    def __init__(self, n: int, m: int, mat, tol: Tolerances = DEFAULT_TOL):
        n = int(n)
        m = int(m)
        if n < 1 or m < 1:
            raise DimensionMismatchError(f"dims must be positive, got n={n}, m={m}")
        mat = np.array(mat, dtype=complex)
        d = n * m
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"expected a {d}x{d} matrix for n={n}, m={m}, got shape {mat.shape}"
            )
        w, failure = check_states(mat, tol)
        if failure is not None:
            raise failure[1]
        mat.flags.writeable = False
        w.flags.writeable = False
        self.n = n
        self.m = m
        self.mat = mat
        self.eigenvalues = w

    @property
    def dims(self):
        """The ``(n, m)`` factorization."""
        return self.n, self.m

    def purity(self) -> float:
        """``Tr(rho^2)``, computed from the cached spectrum."""
        return float(np.sum(self.eigenvalues**2))

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        """Number of eigenvalues above ``tol.tol_psd``."""
        return int(np.count_nonzero(self.eigenvalues > tol.tol_psd))

    def __repr__(self):
        return f"DensityMatrix(n={self.n}, m={self.m}, purity={self.purity():.6f})"
