"""The density-matrix carrier type.

A :class:`DensityMatrix` is an ``nm x nm`` Hermitian, positive-semidefinite,
trace-one matrix together with its declared bipartite split ``(n, m)``.
Single-system states use ``m = 1``.  Instances are validated on construction;
the matrix is read-only, and the spectrum is computed on first read and
cached.  Two threads reading it at once may both compute it, with the same
result.  A state the package builds reaches the gate as the Hermitian part of
its matrix, through ``_built_state``, unless an array formula of ``families``
makes it exactly Hermitian; a matrix from outside is judged as given.
"""

from __future__ import annotations

import numpy as np

from .errors import DmParamError, NotPsdError
from .linalg import DEFAULT_TOL, TRACE_TOL, Tolerances, _check_dims, _frobenius

__all__ = ["DensityMatrix", "check_states"]

_EPS = float(np.finfo(float).eps)
#: The Cholesky verdict is trusted only where ``tol_psd`` is this many times
#: its rounding error ``d * eps`` (2.2e-11 at ``d = 100``).
_CHOLESKY_MARGIN = 1000.0


def _factors(mats):
    """Whether ``np.linalg.cholesky`` factors every matrix of the stack."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return False
    return True


def check_states(mats, tol: Tolerances = DEFAULT_TOL):
    """The density-matrix gate over a ``(..., d, d)`` complex stack.

    Each matrix must be finite, Hermitian within ``tol.tol_herm`` relative
    to its Frobenius norm (or 1), of trace one within ``TRACE_TOL`` and PSD
    within ``tol.tol_psd``; the checks run in that order.  Returns ``None``
    when every matrix passes, else ``(index, error)`` for the first failing
    matrix in row-major order: its index into the leading axes and the
    exception (not raised) for the first check it fails.

    Positivity is proved for the whole stack by one Cholesky factorization
    of ``rho + tol_psd I``, which exists iff every eigenvalue exceeds
    ``-tol_psd`` up to the factorization's rounding error, about
    ``d * eps`` for a trace-one matrix.  Only when it fails are the
    eigenvalues computed, to find the failing matrix and report its
    smallest eigenvalue.  The verdict is therefore that of
    ``eigvalsh(rho)[0] < -tol_psd`` except for a smallest eigenvalue within
    that rounding error of ``-tol_psd``, where ``eigvalsh``'s own rounding
    decides as much.  For a ``tol_psd`` below ``_CHOLESKY_MARGIN * d * eps``
    that band would be more than a thousandth of ``tol_psd``, so there the
    eigenvalues decide alone.  Each matrix of a stack gets the verdict it
    gets alone: where the factorization is trusted, a matrix that the
    eigenvalues flag but that factors by itself passes.  A matrix that fails
    before the PSD check is replaced by zeros for both.
    """
    finite = np.logical_and.reduce(np.isfinite(mats), axis=(-2, -1))
    if np.count_nonzero(finite) < finite.size:
        mats = np.where(finite[..., None, None], mats, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as inf or NaN, quietly
        herm_dev = _frobenius(mats - mats.conj().swapaxes(-1, -2))
        trace_dev = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    not_herm = herm_dev > tol.tol_herm  # the floor of the bound: norms are needed only past it
    if np.count_nonzero(not_herm):
        bound = tol.tol_herm * np.maximum(_frobenius(mats), 1.0)
        not_herm &= (herm_dev > bound) | np.isinf(herm_dev)  # an overflow fails regardless
    bad_trace = ~(trace_dev <= TRACE_TOL)  # so does a NaN trace
    failed = ~finite | not_herm | bad_trace
    if np.count_nonzero(failed):
        mats = np.where(failed[..., None, None], 0.0, mats)
    d = mats.shape[-1]
    trusted = tol.tol_psd >= _CHOLESKY_MARGIN * d * _EPS
    shifted = mats + tol.tol_psd * np.eye(d) if trusted else None
    if not (trusted and _factors(shifted)):
        w = np.linalg.eigvalsh(mats)
        flagged = w[..., 0] < -tol.tol_psd
        if trusted and flagged.size > 1:
            # each matrix gets its verdict alone: up to the first flagged one
            # that does not factor by itself, a flagged matrix passes
            for i in map(tuple, np.argwhere(flagged)):
                if not _factors(shifted[i]):
                    break
                flagged[i] = False
        failed |= flagged
    if not np.count_nonzero(failed):
        return None
    i = np.unravel_index(np.argmax(failed), failed.shape)
    if not finite[i]:
        error = DmParamError("matrix contains non-finite entries")
    elif not_herm[i]:
        error = DmParamError(f"state Hermiticity deviation {herm_dev[i]:.3e} exceeds tolerance")
    elif bad_trace[i]:
        error = DmParamError(f"state trace deviates from 1 by {trace_dev[i]:.3e}")
    else:
        error = NotPsdError(
            f"state has eigenvalue {w[i][0]:.3e} below -tol_psd = {-tol.tol_psd:.1e}"
        )
    return i, error


def _built_state(n, m, rho, tol=DEFAULT_TOL):
    """The :class:`DensityMatrix` of a matrix the package built, Hermitian up to
    rounding: the gate judges ``(rho + rho^dag) / 2``.  An outside matrix is
    judged as given."""
    with np.errstate(over="ignore", invalid="ignore"):  # the gate rejects what overflows
        rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(n, m, rho, tol)


class DensityMatrix:
    """Validated quantum state with an ``(n, m)`` factorization.

    Parameters
    ----------
    n, m : int
        Positive dimensions of the two tensor factors (``m = 1`` for single systems).
    mat : array_like
        The ``nm x nm`` matrix.  Must be Hermitian within ``tol.tol_herm``,
        PSD within ``tol.tol_psd`` and trace-one within ``1e-10``.

    Attributes
    ----------
    mat : numpy.ndarray
        Read-only matrix data.
    eigenvalues : numpy.ndarray
        Read-only ascending eigenvalues, computed on first read and cached.
    """

    __slots__ = ("n", "m", "mat", "_eigenvalues")

    def __init__(self, n: int, m: int, mat, tol: Tolerances = DEFAULT_TOL):
        n, m = _check_dims("DensityMatrix", n=n, m=m)
        mat = np.array(mat, dtype=complex)
        d = n * m
        if mat.shape != (d, d):
            raise DmParamError(
                f"expected a {d}x{d} matrix for n={n}, m={m}, got shape {mat.shape}"
            )
        failure = check_states(mat, tol)
        if failure is not None:
            raise failure[1]
        mat.flags.writeable = False
        self.n = n
        self.m = m
        self.mat = mat
        self._eigenvalues = None

    @property
    def eigenvalues(self):
        """Ascending eigenvalues, ``eigvalsh(mat)`` on first read, then cached."""
        if self._eigenvalues is None:
            w = np.linalg.eigvalsh(self.mat)
            w.flags.writeable = False
            self._eigenvalues = w
        return self._eigenvalues

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
