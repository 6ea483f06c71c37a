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

from .errors import ConvergenceFailureError, DmParamError, NotPsdError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "TRACE_TOL",
    "UNITARY_TOL",
    "RECON_TOL",
    "herm_eig",
    "expm_skew",
    "matfun_psd",
    "polar",
    "haar_unitary",
]


@dataclass(frozen=True)
class Tolerances:
    """The two tolerances a caller sets; every other bound is a module constant.

    Attributes
    ----------
    tol_herm : float
        Relative Hermiticity deviation, ``||M - M^dag|| <= tol_herm * ||M||``.
    tol_psd : float
        Most negative admissible eigenvalue (absolute).
    """

    tol_herm: float = 1e-12
    tol_psd: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 < value < 1e-6:
                raise DmParamError(f"{name} must lie in (0, 1e-6), got {value!r}")


DEFAULT_TOL = Tolerances()

#: Allowed deviation of a state's (or a core's) trace from 1.
TRACE_TOL = 1e-10

#: Allowed Frobenius deviation of ``U^dag U`` from the identity.
UNITARY_TOL = 1e-10

#: Allowed eigendecomposition reconstruction residual, relative to ``max(||M||, 1)``.
RECON_TOL = 1e-10


def _as_square(M, who):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DmParamError(f"{who}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DmParamError(f"{who}: matrix contains non-finite entries")
    return M


def _require_hermitian(M, tol, who):
    M = _as_square(M, who)
    dev = np.linalg.norm(M - M.conj().T)
    if dev > tol.tol_herm * max(np.linalg.norm(M), 1.0):
        raise DmParamError(f"{who}: Hermiticity deviation {dev:.3e} exceeds tolerance")
    return M


def _require_unitary(U, who):
    U = _as_square(U, who)
    dev = np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]))
    if dev > UNITARY_TOL:
        raise DmParamError(f"{who}: unitarity deviation {dev:.3e} exceeds tolerance")
    return U


def _require_psd(M, tol, who, kinds=()):
    """``M``, raising :class:`NotPsdError` unless PSD (Hermitian within
    ``tol.tol_herm``, no eigenvalue below ``-tol.tol_psd``), and ``f(M)`` for
    each :func:`matfun_psd` kind from the same eigendecomposition."""
    M = _require_hermitian(M, tol, who)
    w, V = np.linalg.eigh(M) if kinds else (np.linalg.eigvalsh(M), None)
    if w.size and w[0] < -tol.tol_psd:
        raise NotPsdError(f"{who}: eigenvalue {w[0]:.3e} below -tol_psd")
    w = np.clip(w, 0.0, None)
    funs = [(V * _MATFUNS[kind](w)) @ V.conj().T for kind in kinds]
    return M, [(F + F.conj().T) / 2.0 for F in funs]


def herm_eig(M, tol: Tolerances = DEFAULT_TOL):
    """Eigendecompose a Hermitian matrix, checking the reconstruction.

    Parameters
    ----------
    M : array_like
        Square matrix, Hermitian within ``tol.tol_herm`` (relative).
    tol : Tolerances, optional

    Returns
    -------
    (w, V) : tuple of numpy.ndarray
        Ascending real eigenvalues and the orthonormal eigenvectors as
        columns, as ``np.linalg.eigh`` returns them: ``(V * w) @ V^dag``
        reconstructs ``M``.

    Raises
    ------
    DmParamError
        ``M`` is not square, not finite or not Hermitian.
    ConvergenceFailureError
        The eigensolver fails or the reconstruction residual exceeds
        ``RECON_TOL * max(||M||, 1)``.
    """
    M = _require_hermitian(M, tol, "herm_eig")
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailureError(f"herm_eig: eigensolver failed: {exc}") from exc
    residual = np.linalg.norm((V * w) @ V.conj().T - M)
    if residual > RECON_TOL * max(np.linalg.norm(M), 1.0):
        raise ConvergenceFailureError(
            f"herm_eig: reconstruction residual {residual:.3e} exceeds tolerance"
        )
    return w, V


def expm_skew(X, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, exactly unitary up to rounding.

    ``iX`` is Hermitian, so ``exp(X) = V diag(exp(-i w)) V^dag`` where
    ``(w, V)`` diagonalize ``iX``.  No series truncation is involved.

    Raises
    ------
    DmParamError
        ``X`` is not square, not finite or not skew-Hermitian.
    """
    X = _as_square(X, "expm_skew")
    dev = np.linalg.norm(X + X.conj().T)
    if dev > tol.tol_herm * max(np.linalg.norm(X), 1.0):
        raise DmParamError(f"expm_skew: skew-Hermiticity deviation {dev:.3e} exceeds tolerance")
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
        raise DmParamError(f"matfun_psd: unknown function {kind!r}")
    return _require_psd(P, tol, "matfun_psd", (kind,))[1][0]


def polar(Z):
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


def _levels_per_block(m):
    """Levels per compact-WY block of :func:`_chain` for ``m x m`` blocks.
    A rank-2 level (``m = 1``) is too thin to be a matrix product of its
    own; from ``m = 2`` on, a level alone is one."""
    return 12 if m == 1 else 1


def _chain(d, Q, R, cm1, sin):
    """``V_L ... V_1`` as a ``d x d`` matrix, for ``L`` consecutive chain levels.

    Level ``l`` has ``k = k_0 + l`` blocks of size ``m x m`` (the stack
    ``Q`` is as tall as the top level's ``k m`` rows) and is the identity
    outside its top ``(k + 1) m`` rows and columns, where

        V = I + Y K Y^dag,   Y = [[Q, 0], [0, R]],   K = [[cm1, sin], [-sin, cm1]],

    with ``Q = Q[l]`` (orthonormal columns, zero below the level's ``k m``
    rows), ``R = R[l]`` unitary, and ``cm1 = cos sigma - 1``, ``sin = sin
    sigma`` the diagonal ``m x m`` entries of ``K``.  The block chain is this
    form with ``Z = Q diag(sigma) R^dag``, the single chain with ``m = 1``,
    ``Q = z / ||z||`` and ``R = 1``.  A zero angle has zero ``K`` entries, so
    an all-zero level is the identity.

    Compact-WY serves the ``m = 1`` chains (single, and ``n x 1`` blocks):
    ``b = _levels_per_block(1)`` consecutive levels multiply to
    ``I + Y T Y^dag``, with ``Y`` their ``Y`` side by side, their ``K`` on
    the block diagonal of ``K`` and ``T = (I - K L)^{-1} K``, where ``L`` is
    the part of ``Y^dag Y`` whose row belongs to a later level than its
    column.  ``I - K L`` is unit lower triangular in level order, so ``T``
    exists at every angle.  From ``m = 2`` on a block is one level, ``T = K``.
    Before a block the product is the identity outside its top-left ``p x p``
    corner ``P``, and the block's ``R`` rows lie below ``p``: so it adds
    ``(Y T)_Q Q^dag P`` to the first ``p`` columns, ``_Q`` keeping the ``Q``
    columns, and writes its own columns.
    """
    L, rows, m = Q.shape
    k0 = rows // m - L + 1
    b = min(_levels_per_block(m), L)
    if b <= 1:
        blocks = _level_factors(Q, R, cm1, sin, k0)
    else:
        blocks = _wy_factors(Q, R, cm1, sin, k0, b)
    U = np.eye(d, dtype=complex)
    for p, QH, A, B in blocks:
        top = p + A.shape[-1]
        W = QH[:, :p] @ U[:p, :p]
        U[:top, :p] += A[:top] @ W
        U[:top, p:top] = B[:top]
    return U


def _level_factors(Q, R, cm1, sin, k0):
    """``(p, Q^dag, (Y K)_Q, I + Y K Y^dag)`` of every level as its own
    block (``T = K``), all levels at once: ``(Y K)_Q = [Q cm1; -R sin]`` and
    the level's new columns ``[Q sin R^dag; I + R cm1 R^dag]``."""
    L, rows, m = Q.shape
    k = rows // m
    Rh = R.conj().swapaxes(-1, -2)
    A = np.empty((L, k + 1, m, m), dtype=complex)
    B = np.empty_like(A)
    A[:, :k] = (Q * cm1[:, None]).reshape(L, k, m, m)
    B[:, :k] = (Q @ (sin[..., None] * Rh)).reshape(L, k, m, m)
    last = (np.arange(L), np.arange(k0, k0 + L))
    A[last] = -(R * sin[:, None])
    B[last] = R @ (cm1[..., None] * Rh) + np.eye(m)
    QH = Q.conj().swapaxes(-1, -2)
    return zip(range(k0 * m, rows + m, m), QH, A.reshape(L, rows + m, m), B.reshape(L, rows + m, m))


def _wy_factors(Q, R, cm1, sin, k0, b):
    """``(p, Y_Q^dag, (Y T)_Q, I + Y T Y^dag)`` of every block of ``b`` rank-2
    levels (``m = 1``; fewer in the last), ``Y`` ordered as every ``Q``, then every ``R``.

    A level's ``R`` row lies below the ``Q`` rows of every earlier level and
    apart from the ``R`` row of every other, so the ``R`` rows of ``L``
    vanish and ``K L = P L_Q``, with ``P = [cm1; -sin]`` and ``L_Q`` the
    ``Q`` rows.  So ``T = K + P X``, ``X = (I - L_Q P)^{-1} L_Q K``: a
    system of half the size, unit lower triangular in level order too."""
    L, rows, _ = Q.shape
    Q, R, cm1, sin = Q[..., 0], R[:, 0, 0], cm1[:, 0], sin[:, 0]
    i, eye = np.arange(b), np.eye(b)
    later = np.greater.outer(i, i)[:, None, :]  # (row, side, column)
    for lo in range(0, L, b):
        q = min(b, L - lo)
        p, iq = k0 + lo, i[:q]
        top = p + q
        Y = np.zeros((top, 2, q), dtype=complex)
        Y[:rows, 0] = Q[lo : lo + q, :top].T
        Y[p + iq, 1, iq] = R[lo : lo + q]
        Y = Y.reshape(top, 2 * q)
        Yh = Y.conj().T
        LQ = ((Yh[:q] @ Y).reshape(q, 2, q) * later[:q, :, :q]).reshape(q, 2 * q)
        c, s = cm1[lo : lo + q], sin[lo : lo + q]
        K = np.zeros((2, q, 2, q))
        K[0, iq, 0, iq] = K[1, iq, 1, iq] = c
        K[0, iq, 1, iq] = s
        K[1, iq, 0, iq] = -s
        K = K.reshape(2 * q, 2 * q)
        LK = LQ @ K
        X = np.linalg.solve(eye[:q, :q] - LK[:, :q], LK)
        YT = Y @ (K + np.concatenate([c[:, None] * X, -s[:, None] * X]))
        B = YT @ Yh[:, p:]
        B[p:] += eye[:q, :q]
        yield p, Yh[:q], YT[:, :q], B


def haar_unitary(m: int, seed: int) -> np.ndarray:
    """Draw an m x m Haar-distributed unitary, deterministically from `seed`.

    Standard construction: QR of a complex Ginibre matrix with the diagonal
    of R phase-fixed, which makes the distribution exactly Haar.
    """
    if m < 1:
        raise DmParamError(f"haar_unitary: m must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    Z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    return _haar_qr(Z)


def _haar_qr(Z):
    """``Q`` of ``Z = QR`` times the phases of ``diag(R)``: Haar for a Ginibre ``Z``."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0  # measure-zero guard
    return Q * (d / np.abs(d))

