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

__all__ = ["DensityMatrix"]


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
        if not np.all(np.isfinite(mat)):
            raise DimensionMismatchError("matrix contains non-finite entries")
        herm_dev = np.linalg.norm(mat - mat.conj().T)
        if herm_dev > tol.tol_herm * max(np.linalg.norm(mat), 1.0):
            raise NotHermitianError(
                f"state Hermiticity deviation {herm_dev:.3e} exceeds tolerance"
            )
        trace_dev = abs(np.trace(mat) - 1.0)
        if trace_dev > TRACE_TOL:
            raise BadNormalizationError(
                f"state trace deviates from 1 by {trace_dev:.3e}"
            )
        w = np.linalg.eigvalsh(mat)
        if w[0] < -tol.tol_psd:
            raise NotPsdError(
                f"state has eigenvalue {w[0]:.3e} below -tol_psd = {-tol.tol_psd:.1e}"
            )
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
