"""Dense complex linear-algebra kernel.

All matrix functions in this module are evaluated spectrally, i.e. through a
Hermitian eigendecomposition, never through truncated power series.  This
guarantees that ``expm_skew`` returns a matrix that is unitary to rounding
and that ``matfun_psd`` returns exactly Hermitian results, which the
assembly code downstream relies on.

Every function is pure: inputs are never modified and no module state is
kept.  Randomness enters only through the explicit ``seed`` argument of
:func:`haar_unitary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    NotHermitianError,
    NotPsdError,
    NotSkewHermitianError,
    NotSquareError,
    NotUnitaryError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "TRACE_TOL",
    "Spectrum",
    "herm_eig",
    "expm_skew",
    "matfun_psd",
    "polar",
    "psd_check",
    "haar_unitary",
    "kron",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by validation routines.

    Attributes
    ----------
    tol_herm : float
        Relative Hermiticity deviation, ``||M - M^dag|| <= tol_herm * ||M||``.
    tol_psd : float
        Most negative admissible eigenvalue (absolute).
    tol_unitary : float
        Allowed deviation of ``U^dag U`` from the identity.
    tol_recon : float
        Allowed eigendecomposition reconstruction residual.
    """

    tol_herm: float = 1e-12
    tol_psd: float = 1e-10
    tol_unitary: float = 1e-10
    tol_recon: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 < value < 1e-6:
                raise ValueError(f"{name} must lie in (0, 1e-6), got {value!r}")


DEFAULT_TOL = Tolerances()

#: Allowed deviation of a state's (or a core's) trace from 1.
TRACE_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns, so that
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(M, who):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquareError(f"{who}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionMismatchError(f"{who}: matrix contains non-finite entries")
    return M


def _require_hermitian(M, tol, who):
    M = _as_square(M, who)
    dev = np.linalg.norm(M - M.conj().T)
    if dev > tol.tol_herm * max(np.linalg.norm(M), 1.0):
        raise NotHermitianError(
            f"{who}: Hermiticity deviation {dev:.3e} exceeds tolerance"
        )
    return M


def _require_unitary(U, tol, who):
    U = _as_square(U, who)
    dev = np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]))
    if dev > tol.tol_unitary:
        raise NotUnitaryError(f"{who}: unitarity deviation {dev:.3e} exceeds tolerance")
    return U


def herm_eig(M, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Eigendecompose a Hermitian matrix.

    Parameters
    ----------
    M : array_like
        Square matrix, Hermitian within ``tol.tol_herm`` (relative).
    tol : Tolerances, optional

    Returns
    -------
    Spectrum
        Ascending real eigenvalues and unitary eigenvector matrix.

    Raises
    ------
    NotSquareError, NotHermitianError, ConvergenceFailureError
    """
    M = _require_hermitian(M, tol, "herm_eig")
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailureError(f"herm_eig: eigensolver failed: {exc}") from exc
    residual = np.linalg.norm((V * w) @ V.conj().T - M)
    if residual > tol.tol_recon * max(np.linalg.norm(M), 1.0):
        raise ConvergenceFailureError(
            f"herm_eig: reconstruction residual {residual:.3e} exceeds tolerance"
        )
    return Spectrum(eigenvalues=w, eigenvectors=V)


def expm_skew(X, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, exactly unitary up to rounding.

    ``iX`` is Hermitian, so ``exp(X) = V diag(exp(-i w)) V^dag`` where
    ``(w, V)`` diagonalize ``iX``.  No series truncation is involved.

    Raises
    ------
    NotSquareError, NotSkewHermitianError
    """
    X = _as_square(X, "expm_skew")
    dev = np.linalg.norm(X + X.conj().T)
    if dev > tol.tol_herm * max(np.linalg.norm(X), 1.0):
        raise NotSkewHermitianError(
            f"expm_skew: skew-Hermiticity deviation {dev:.3e} exceeds tolerance"
        )
    w, V = np.linalg.eigh(1j * X)
    return (V * np.exp(-1j * w)) @ V.conj().T


_MATFUNS = {"cos": np.cos, "sin": np.sin, "sqrt": np.sqrt}


def matfun_psd(P, kind: str, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Apply ``cos``, ``sin`` or ``sqrt`` to the spectrum of a PSD matrix.

    Eigenvalues in ``[-tol.tol_psd, 0)`` are numerical dust and are clipped
    to zero before the function is applied; anything more negative raises.

    Parameters
    ----------
    P : array_like
        Hermitian positive-semidefinite matrix.
    kind : {"cos", "sin", "sqrt"}

    Returns
    -------
    numpy.ndarray
        ``V diag(f(w)) V^dag``, exactly Hermitian.
    """
    if kind not in _MATFUNS:
        raise ValueError(f"matfun_psd: unknown function {kind!r}")
    P = _require_hermitian(P, tol, "matfun_psd")
    w, V = np.linalg.eigh(P)
    if w.size and w[0] < -tol.tol_psd:
        raise NotPsdError(
            f"matfun_psd: eigenvalue {w[0]:.3e} below -tol_psd = {-tol.tol_psd:.1e}"
        )
    w = np.clip(w, 0.0, None)
    F = (V * _MATFUNS[kind](w)) @ V.conj().T
    return (F + F.conj().T) / 2.0


def polar(Z, tol: Tolerances = DEFAULT_TOL):
    """Left polar decomposition ``Z = P @ U`` with ``P = sqrt(Z Z^dag)`` PSD.

    Computed from the SVD ``Z = W S Vh``: ``P = W S W^dag`` and
    ``U = W Vh``.  The unitary factor is therefore complete (exactly
    unitary) even when ``Z`` is singular: the SVD supplies an orthonormal
    basis on the kernel/cokernel.

    Returns
    -------
    (P, U) : tuple of numpy.ndarray
    """
    Z = _as_square(Z, "polar")
    W, s, Vh = np.linalg.svd(Z)
    P = (W * s) @ W.conj().T
    P = (P + P.conj().T) / 2.0
    U = W @ Vh
    return P, U


def psd_check(M, tol: Tolerances = DEFAULT_TOL):
    """Smallest eigenvalue test for positive semidefiniteness.

    Returns
    -------
    (is_psd, min_eig) : tuple of (bool, float)
        ``is_psd`` is true iff ``min_eig >= -tol.tol_psd``.
    """
    M = _require_hermitian(M, tol, "psd_check")
    w = np.linalg.eigvalsh(M)
    min_eig = float(w[0])
    return min_eig >= -tol.tol_psd, min_eig


def haar_unitary(m: int, seed: int) -> np.ndarray:
    """Draw an m x m Haar-distributed unitary, deterministically from `seed`.

    Standard construction: QR of a complex Ginibre matrix with the diagonal
    of R phase-fixed, which makes the distribution exactly Haar.
    """
    if m < 1:
        raise DimensionMismatchError(f"haar_unitary: m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return Q * (d / np.abs(d))


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) of the result equals ``A[i, j] * B``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return np.kron(A, B)
