"""Parametrization of n (x) m bipartite density matrices by block vectors.

The ``nm x nm`` state is viewed as an ``n x n`` grid of ``m x m`` blocks.
Scalars of the single-system chain are promoted to ``m x m`` matrices:

* the complex vector ``z_j`` becomes a block vector ``Z_j`` of ``j - 1``
  blocks ``Z_{k,j}``;
* the scalar angle ``||z_j||`` becomes the PSD matrix angle
  ``Xi_j = sqrt(sum_k Z_{k,j}^dag Z_{k,j})`` with ``C_j = cos(Xi_j)`` and
  ``S_j = sin(Xi_j)``;
* normalization is on the right, ``Zt_{k,j} = Z_{k,j} @ inv(Xi_j)``, the
  unique choice for which ``sum_k Zt^dag Zt = I`` holds for noncommuting
  blocks;
* the diagonal simplex core is replaced by ``n`` PSD blocks
  ``Lambda_k = U_k diag(slice_k) U_k^dag`` built from consecutive
  eigenvalue slices (the k-th slice is ``lambdas[(k-1)m : km]``), with
  ``Tr(Lambda_1 + ... + Lambda_n) = 1``.

The block unitary ``V_j`` (size ``jm``) has top-left part
``I - Zh (I - C) Zh^dag``, last block column ``Zh S``, last block row
``-S Zh^dag`` and corner ``C``, where ``Zh`` stacks the blocks ``Zt_k`` into
one ``(j-1)m x m`` matrix; it equals the top-left block of ``exp(X_j)``
exactly, which is the ground truth whenever the closed form and the
exponential path could disagree.  ``A_j`` is the identity outside its top
``jm`` rows and columns, so the chain skips all-zero levels and applies each
closed-form ``V_j`` to the top ``jm`` rows of the running product only.  For
singular ``Xi_j`` the closed form is undefined (``SingularAngleError``) and
the exponential path must be used; ``method="auto"`` arranges that
automatically, and that path (like ``method="exp"``) multiplies by the full
``nm x nm`` exponential.

For ``m = 1`` everything reduces to :mod:`dmparam.single`, whose chain
applies each ``V_j`` as a rank-2 update of the top ``j`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadNormalizationError,
    DimensionMismatchError,
    NotPsdError,
    OutOfRangeError,
    SingularAngleError,
)
from .linalg import DEFAULT_TOL, TRACE_TOL, Tolerances, _require_unitary, expm_skew
from .single import _check_simplex
from .states import DensityMatrix

__all__ = [
    "BlockParams",
    "BlockDiagonalCore",
    "block_angle",
    "normalize_blocks",
    "build_Xj_block",
    "build_Vjnm",
    "build_Ajnm",
    "build_core",
    "assemble_rho_block",
]

_METHODS = ("closed", "exp", "auto")

#: Largest Gram trace whose symmetrization ``G + G^dag`` stays finite.
_GRAM_MAX = np.finfo(float).max / 2.0


def _as_blocks(Zs, m=None, who="block vector"):
    """Validate a list of equally sized square blocks.

    Returns the blocks stacked into one ``(k, m, m)`` complex array, and ``m``.
    """
    if len(Zs) == 0:
        raise DimensionMismatchError(f"{who}: needs at least one block")
    out = [np.asarray(Z, dtype=complex) for Z in Zs]
    for k, Z in enumerate(out):
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise DimensionMismatchError(
                f"{who}: block {k} is not square (shape {Z.shape})"
            )
        if m is None:
            m = Z.shape[0]
        if Z.shape[0] != m:
            raise DimensionMismatchError(
                f"{who}: block {k} has size {Z.shape[0]}, expected {m}"
            )
    T = np.stack(out)
    x = T.view(float)
    big = float(np.abs(x).max())  # NaN when any entry is NaN
    if not math.isfinite(big):
        k = int(np.argmin(np.isfinite(T).all(axis=(1, 2))))
        raise DimensionMismatchError(f"{who}: block {k} has non-finite entries")
    # No entry of the Gram matrix G = sum_k Z_k^dag Z_k exceeds its trace,
    # the sum of |z|^2 over all entries, so G and G + G^dag stay finite while
    # the trace is at most _GRAM_MAX.  The trace is summed over entries
    # scaled by the largest, and only when size * largest^2 could exceed it.
    if (big * big * x.size > _GRAM_MAX
            and float(np.sum(np.square(x / big))) > _GRAM_MAX / big / big):
        raise OutOfRangeError(
            f"{who}: its Gram matrix sum_k Z_k^dag Z_k overflows "
            f"(largest entry {big:.3e})"
        )
    return T, m


def _gram_eig(T):
    """Eigendecomposition of ``sum_k Z_k^dag Z_k`` (PSD by construction)."""
    G = sum(T.conj().transpose(0, 2, 1) @ T)
    G = (G + G.conj().T) / 2.0
    return np.linalg.eigh(G)


def _angle_data(T, tol):
    """(C, S, Ztilde) from one Gram eigendecomposition of the stacked blocks.

    ``Ztilde`` is stacked like ``T``.  It is ``None`` when ``Xi`` is
    singular: the smallest eigenvalue of the Gram matrix ``Xi^2`` is at most
    ``tol_psd`` relative to the largest (or to one, whichever is bigger).
    Deciding on the angle itself would let a rounding-level Gram eigenvalue
    of 1e-17, an angle of about 3e-9, through to the closed form, which then
    divides by it.
    """
    w, V = _gram_eig(T)
    s = np.sqrt(np.clip(w, 0.0, None))
    C = (V * np.cos(s)) @ V.conj().T
    S = (V * np.sin(s)) @ V.conj().T
    C = (C + C.conj().T) / 2.0
    S = (S + S.conj().T) / 2.0
    if w[0] <= tol.tol_psd * max(w[-1], 1.0):
        return C, S, None
    inv = (V * (1.0 / s)) @ V.conj().T
    return C, S, T @ inv


def block_angle(Zs, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix angle ``Xi = sqrt(sum_k Z_k^dag Z_k)`` of a block vector."""
    T, _ = _as_blocks(Zs, who="block_angle")
    w, V = _gram_eig(T)
    Xi = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return (Xi + Xi.conj().T) / 2.0


def normalize_blocks(Zs, tol: Tolerances = DEFAULT_TOL):
    """Right-normalized blocks ``Zt_k = Z_k @ inv(Xi)``.

    Satisfies ``sum_k Zt_k^dag Zt_k = I``.  Raises
    :class:`SingularAngleError` when ``Xi`` is singular (``Xi^2`` has an
    eigenvalue at or below ``tol.tol_psd * max(||Xi^2||, 1)``); in that
    regime only the exponential path is defined.
    """
    T, _ = _as_blocks(Zs, who="normalize_blocks")
    _, _, Zt = _angle_data(T, tol)
    if Zt is None:
        raise SingularAngleError(
            "normalize_blocks: matrix angle is singular; use the exponential path"
        )
    return list(Zt)


def build_Xj_block(Zs, n: int, j: int, m: int) -> np.ndarray:
    """``nm x nm`` skew-Hermitian generator with block column ``j``.

    Block ``(k, j)`` is ``Z_k`` and block ``(j, k)`` is ``-Z_k^dag`` for
    ``k < j``; all other blocks vanish.  ``X + X^dag = 0`` holds exactly.
    """
    if not 2 <= j <= n:
        raise DimensionMismatchError(f"need 2 <= j <= n, got j={j}, n={n}")
    T, m = _as_blocks(Zs, m, who="build_Xj_block")
    if len(T) != j - 1:
        raise DimensionMismatchError(
            f"build_Xj_block: expected {j - 1} blocks, got {len(T)}"
        )
    X = np.zeros((n * m, n * m), dtype=complex)
    col = (j - 1) * m
    Zh = T.reshape(col, m)
    X[:col, col : col + m] = Zh
    X[col : col + m, :col] = -Zh.conj().T
    return X


def _is_zero(Zs):
    return not np.any(Zs)


def build_Vjnm(Zs, j: int, m: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Closed form of the ``jm x jm`` block unitary generated by ``Z_j``.

    Equals the top-left ``jm x jm`` block of
    ``expm_skew(build_Xj_block(Z_j, j, j, m))``.  Returns the identity for an
    all-zero block vector; raises :class:`SingularAngleError` for a nonzero
    vector with singular angle.
    """
    T, m = _as_blocks(Zs, m, who="build_Vjnm")
    if len(T) != j - 1:
        raise DimensionMismatchError(
            f"build_Vjnm: expected {j - 1} blocks, got {len(T)}"
        )
    if _is_zero(T):
        return np.eye(j * m, dtype=complex)
    C, S, Zt = _angle_data(T, tol)
    if Zt is None:
        raise SingularAngleError(
            "build_Vjnm: matrix angle is singular; use method='exp'"
        )
    # Zh^dag enters as the stack of its m x m blocks: the batched products
    # then round every block exactly as an m x m product does, which one
    # wide product over Zh^dag does not (with NumPy's OpenBLAS, for m = 2, 3).
    last = (j - 1) * m
    Zh = Zt.reshape(last, m)
    ZtH = Zt.conj().transpose(0, 2, 1)
    V = np.empty((j * m, j * m), dtype=complex)
    cols = (Zh @ (np.eye(m) - C)) @ ZtH
    V[:last, :last] = np.eye(last) - cols.transpose(1, 0, 2).reshape(last, last)
    V[:last, last:] = Zh @ S
    V[last:, :last] = (-S @ ZtH).transpose(1, 0, 2).reshape(m, last)
    V[last:, last:] = C
    return V


def build_Ajnm(
    Zs, n: int, j: int, m: int, method: str = "closed", tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Embed the block unitary of level ``j`` into the full ``nm x nm`` space.

    ``V_j`` occupies the top-left ``jm x jm`` corner; the remaining ``n - j``
    diagonal blocks are identities.  ``method="closed"`` uses
    :func:`build_Vjnm`, ``method="exp"`` exponentiates the full generator,
    and ``method="auto"`` uses the closed form unless the angle is singular.
    Both paths agree to rounding whenever the angle is nonsingular.
    """
    if not 2 <= j <= n:
        raise DimensionMismatchError(f"need 2 <= j <= n, got j={j}, n={n}")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    T, m = _as_blocks(Zs, m, who="build_Ajnm")
    if _is_zero(T):
        if len(T) != j - 1:
            raise DimensionMismatchError(
                f"build_Ajnm: expected {j - 1} blocks, got {len(T)}"
            )
        return np.eye(n * m, dtype=complex)
    if method == "exp":
        return expm_skew(build_Xj_block(T, n, j, m), tol)
    try:
        V = build_Vjnm(T, j, m, tol)
    except SingularAngleError:
        if method == "auto":
            return expm_skew(build_Xj_block(T, n, j, m), tol)
        raise
    A = np.eye(n * m, dtype=complex)
    A[: j * m, : j * m] = V
    return A


@dataclass(frozen=True)
class BlockDiagonalCore:
    """The ``n`` PSD blocks ``Lambda_k`` of the conjugation core.

    Traces sum to one; each block is PSD within ``tol_psd``.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = []
        total = 0.0
        for k, L in enumerate(self.blocks):
            L = np.array(L, dtype=complex)
            w = np.linalg.eigvalsh((L + L.conj().T) / 2.0)
            if w[0] < -DEFAULT_TOL.tol_psd:
                raise NotPsdError(f"core block {k} has eigenvalue {w[0]:.3e}")
            total += float(np.trace(L).real)
            L.flags.writeable = False
            blocks.append(L)
        if abs(total - 1.0) > TRACE_TOL:
            raise BadNormalizationError(f"core traces sum to {total!r}, not 1")
        object.__setattr__(self, "blocks", tuple(blocks))

    def matrix(self) -> np.ndarray:
        """The full block-diagonal matrix."""
        m = self.blocks[0].shape[0]
        n = len(self.blocks)
        D = np.zeros((n * m, n * m), dtype=complex)
        for k, L in enumerate(self.blocks):
            D[k * m : (k + 1) * m, k * m : (k + 1) * m] = L
        return D


def build_core(lambdas, local_unitaries, n: int, m: int, tol: Tolerances = DEFAULT_TOL):
    """Core blocks ``Lambda_k = U_k diag(slice_k) U_k^dag``.

    ``slice_k`` is the k-th consecutive run of ``m`` eigenvalues.  For
    ``m = 1`` each block is the bare scalar ``lambdas[k]``.
    """
    lambdas = _check_simplex(lambdas, n * m, False, "build_core")
    if len(local_unitaries) != n:
        raise DimensionMismatchError(
            f"build_core: expected {n} local unitaries, got {len(local_unitaries)}"
        )
    blocks = []
    for k in range(n):
        U = _require_unitary(local_unitaries[k], tol, f"build_core: U_{k + 1}")
        if U.shape[0] != m:
            raise DimensionMismatchError(
                f"build_core: U_{k + 1} has size {U.shape[0]}, expected {m}"
            )
        L = (U * lambdas[k * m : (k + 1) * m]) @ U.conj().T
        blocks.append((L + L.conj().T) / 2.0)
    return BlockDiagonalCore(tuple(blocks))


@dataclass(frozen=True)
class BlockParams:
    """Parameters of an n (x) m state.

    ``lambdas`` is any point on the ``nm``-simplex (no ordering is imposed),
    ``local_unitaries`` are the ``n`` unitaries entering the core blocks and
    ``blockvecs[j - 2]`` is the block vector of ``j - 1`` matrices of size
    ``m x m`` for ``j = 2..n``.
    """

    n: int
    m: int
    lambdas: np.ndarray
    local_unitaries: tuple
    blockvecs: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatchError(
                f"dims must be positive, got n={self.n}, m={self.m}"
            )
        lambdas = _check_simplex(self.lambdas, self.n * self.m, False, "BlockParams")
        lambdas.flags.writeable = False
        if len(self.local_unitaries) != self.n:
            raise DimensionMismatchError(
                f"expected {self.n} local unitaries, got {len(self.local_unitaries)}"
            )
        unitaries = []
        for k, U in enumerate(self.local_unitaries):
            U = np.array(
                _require_unitary(U, DEFAULT_TOL, f"BlockParams: U_{k + 1}")
            )
            if U.shape[0] != self.m:
                raise DimensionMismatchError(
                    f"U_{k + 1} has size {U.shape[0]}, expected {self.m}"
                )
            U.flags.writeable = False
            unitaries.append(U)
        if len(self.blockvecs) != self.n - 1:
            raise DimensionMismatchError(
                f"expected {self.n - 1} block vectors, got {len(self.blockvecs)}"
            )
        vecs = []
        for j, Zs in enumerate(self.blockvecs, start=2):
            T, _ = _as_blocks(Zs, self.m, who=f"BlockParams: Z_{j}")
            if len(T) != j - 1:
                raise DimensionMismatchError(
                    f"block vector for j={j} must have {j - 1} blocks, got {len(T)}"
                )
            T.flags.writeable = False
            vecs.append(tuple(T))
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "local_unitaries", tuple(unitaries))
        object.__setattr__(self, "blockvecs", tuple(vecs))


def assemble_rho_block(
    p: BlockParams, tol: Tolerances = DEFAULT_TOL, method: str = "auto"
) -> DensityMatrix:
    """Assemble ``rho = A_n ... A_2 D(Lambda_1 | ... | Lambda_n) A_2^dag ... A_n^dag``.

    The spectrum of the result equals ``p.lambdas`` as a multiset and the
    factorization metadata ``(n, m)`` is carried along.  With all block
    vectors zero the state is block diagonal with blocks ``Lambda_k``.
    ``method`` picks each level's unitary as in :func:`build_Ajnm`; a
    closed-form ``V_j`` multiplies only the top ``jm`` rows of the product.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    n, m = p.n, p.m
    core = build_core(p.lambdas, p.local_unitaries, n, m, tol)
    D = core.matrix()
    U = np.eye(n * m, dtype=complex)
    for j, Zs in enumerate(p.blockvecs, start=2):
        if _is_zero(Zs):
            continue
        if method != "exp":
            try:
                U[: j * m] = build_Vjnm(Zs, j, m, tol) @ U[: j * m]
                continue
            except SingularAngleError:
                if method == "closed":
                    raise
        U = build_Ajnm(Zs, n, j, m, method, tol) @ U
    rho = U @ D @ U.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(n, m, rho, tol)
