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

The block unitary ``V_j`` (size ``jm``) has top-left blocks
``delta_kl I - Zt_k (I - C) Zt_l^dag``, last block column ``Zt_k S``, last
block row ``-S Zt_l^dag`` and corner ``C``; it equals the top-left block of
``exp(X_j)`` exactly, which is the ground truth whenever the closed form and
the exponential path could disagree.  For singular ``Xi_j`` the closed form
is undefined (``SingularAngleError``) and the exponential path must be used;
``method="auto"`` arranges that automatically.

For ``m = 1`` everything reduces to :mod:`dmparam.single`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadNormalizationError,
    DimensionMismatchError,
    NotPsdError,
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


def _as_blocks(Zs, m=None, who="block vector"):
    """Validate a list of equally sized square blocks; return them + size."""
    if len(Zs) == 0:
        raise DimensionMismatchError(f"{who}: needs at least one block")
    out = []
    for k, Z in enumerate(Zs):
        Z = np.asarray(Z, dtype=complex)
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
        if not np.all(np.isfinite(Z)):
            raise DimensionMismatchError(f"{who}: block {k} has non-finite entries")
        out.append(Z)
    return out, m


def _gram_eig(Zs):
    """Eigendecomposition of ``sum_k Z_k^dag Z_k`` (PSD by construction)."""
    G = sum(Z.conj().T @ Z for Z in Zs)
    G = (G + G.conj().T) / 2.0
    return np.linalg.eigh(G)


def _angle_data(Zs, tol):
    """(Xi, C, S, Ztilde) from one Gram eigendecomposition.

    ``Ztilde`` is ``None`` when ``Xi`` is singular (eigenvalue <= tol_psd).
    """
    w, V = _gram_eig(Zs)
    s = np.sqrt(np.clip(w, 0.0, None))
    Xi = (V * s) @ V.conj().T
    C = (V * np.cos(s)) @ V.conj().T
    S = (V * np.sin(s)) @ V.conj().T
    Xi = (Xi + Xi.conj().T) / 2.0
    C = (C + C.conj().T) / 2.0
    S = (S + S.conj().T) / 2.0
    if s[0] <= tol.tol_psd:
        return Xi, C, S, None
    inv = (V * (1.0 / s)) @ V.conj().T
    return Xi, C, S, [Z @ inv for Z in Zs]


def block_angle(Zs, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Matrix angle ``Xi = sqrt(sum_k Z_k^dag Z_k)`` of a block vector."""
    Zs, _ = _as_blocks(Zs, who="block_angle")
    Xi, _, _, _ = _angle_data(Zs, tol)
    return Xi


def normalize_blocks(Zs, tol: Tolerances = DEFAULT_TOL):
    """Right-normalized blocks ``Zt_k = Z_k @ inv(Xi)``.

    Satisfies ``sum_k Zt_k^dag Zt_k = I``.  Raises
    :class:`SingularAngleError` when ``Xi`` has an eigenvalue at or below
    ``tol.tol_psd``; in that regime only the exponential path is defined.
    """
    Zs, _ = _as_blocks(Zs, who="normalize_blocks")
    _, _, _, Zt = _angle_data(Zs, tol)
    if Zt is None:
        raise SingularAngleError(
            "normalize_blocks: matrix angle is singular; use the exponential path"
        )
    return Zt


def build_Xj_block(Zs, n: int, j: int, m: int) -> np.ndarray:
    """``nm x nm`` skew-Hermitian generator with block column ``j``.

    Block ``(k, j)`` is ``Z_k`` and block ``(j, k)`` is ``-Z_k^dag`` for
    ``k < j``; all other blocks vanish.  ``X + X^dag = 0`` holds exactly.
    """
    if not 2 <= j <= n:
        raise DimensionMismatchError(f"need 2 <= j <= n, got j={j}, n={n}")
    Zs, m = _as_blocks(Zs, m, who="build_Xj_block")
    if len(Zs) != j - 1:
        raise DimensionMismatchError(
            f"build_Xj_block: expected {j - 1} blocks, got {len(Zs)}"
        )
    X = np.zeros((n * m, n * m), dtype=complex)
    col = (j - 1) * m
    for k, Z in enumerate(Zs):
        row = k * m
        X[row : row + m, col : col + m] = Z
        X[col : col + m, row : row + m] = -Z.conj().T
    return X


def _is_zero(Zs):
    return all(not Z.any() for Z in Zs)


def build_Vjnm(Zs, j: int, m: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Closed form of the ``jm x jm`` block unitary generated by ``Z_j``.

    Equals the top-left ``jm x jm`` block of
    ``expm_skew(build_Xj_block(Z_j, j, j, m))``.  Returns the identity for an
    all-zero block vector; raises :class:`SingularAngleError` for a nonzero
    vector with singular angle.
    """
    Zs, m = _as_blocks(Zs, m, who="build_Vjnm")
    if len(Zs) != j - 1:
        raise DimensionMismatchError(
            f"build_Vjnm: expected {j - 1} blocks, got {len(Zs)}"
        )
    if _is_zero(Zs):
        return np.eye(j * m, dtype=complex)
    _, C, S, Zt = _angle_data(Zs, tol)
    if Zt is None:
        raise SingularAngleError(
            "build_Vjnm: matrix angle is singular; use method='exp'"
        )
    V = np.eye(j * m, dtype=complex)
    ImC = np.eye(m, dtype=complex) - C
    last = (j - 1) * m
    for k in range(j - 1):
        rk = k * m
        for ell in range(j - 1):
            cl = ell * m
            V[rk : rk + m, cl : cl + m] -= Zt[k] @ ImC @ Zt[ell].conj().T
        V[rk : rk + m, last : last + m] = Zt[k] @ S
        V[last : last + m, rk : rk + m] = -S @ Zt[k].conj().T
    V[last : last + m, last : last + m] = C
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
    if method not in ("closed", "exp", "auto"):
        raise ValueError(f"unknown method {method!r}")
    Zs, m = _as_blocks(Zs, m, who="build_Ajnm")
    if _is_zero(Zs):
        if len(Zs) != j - 1:
            raise DimensionMismatchError(
                f"build_Ajnm: expected {j - 1} blocks, got {len(Zs)}"
            )
        return np.eye(n * m, dtype=complex)
    if method == "exp":
        return expm_skew(build_Xj_block(Zs, n, j, m), tol)
    try:
        V = build_Vjnm(Zs, j, m, tol)
    except SingularAngleError:
        if method == "auto":
            return expm_skew(build_Xj_block(Zs, n, j, m), tol)
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
            Zs, _ = _as_blocks(Zs, self.m, who=f"BlockParams: Z_{j}")
            if len(Zs) != j - 1:
                raise DimensionMismatchError(
                    f"block vector for j={j} must have {j - 1} blocks, got {len(Zs)}"
                )
            frozen = []
            for Z in Zs:
                Z = np.array(Z)
                Z.flags.writeable = False
                frozen.append(Z)
            vecs.append(tuple(frozen))
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
    """
    n, m = p.n, p.m
    core = build_core(p.lambdas, p.local_unitaries, n, m, tol)
    D = core.matrix()
    U = np.eye(n * m, dtype=complex)
    for j in range(2, n + 1):
        U = build_Ajnm(p.blockvecs[j - 2], n, j, m, method, tol) @ U
    rho = U @ D @ U.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(n, m, rho, tol)
