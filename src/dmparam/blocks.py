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
one ``(j-1)m x m`` matrix.  It equals the top-left block of ``exp(X_j)``,
the paper's definition of ``A_j``.  This module never exponentiates a
level; the exponential chain is the oracle that ``dmparam validate`` and
the tests check it against (``validate._exp_chain``).

There is one closed form for every angle, singular ones included.  With the
thin SVD ``Z = Q diag(sigma) R^dag`` of the stacked blocks, ``Zh = Q R^dag``
is the polar factor of ``Z``, ``C = R cos(sigma) R^dag`` and
``S = R sin(sigma) R^dag``; where ``Xi`` is singular the polar factor is
not unique, but every choice gives the same ``V_j``, since it enters only
through ``1 - cos`` and ``sin`` of a zero angle.  ``V_j`` built from
orthonormal ``Q`` and unitary ``R`` is unitary to rounding at every scale of
``Z``.  Only :func:`normalize_blocks`, which returns ``Zh`` itself, raises
``SingularAngleError`` there.

``V_j`` is the identity plus a rank-2m correction, ``I + Y K Y^dag`` with
``Y = [[Q, 0], [0, R]]`` and ``K = [[cos sigma - 1, sin sigma], [-sin sigma,
cos sigma - 1]]`` (diagonal ``m x m`` entries): the single-system level
promoted to blocks.  So both chains run one kernel, ``linalg._chain``,
which applies the levels to the top-left corner of the running product
without forming any ``V_j``; for ``m = 1`` everything reduces to
:mod:`dmparam.single`.  No level's angle depends on another, so one batched
SVD of the levels, padded to the tallest, gives the factors of all of them.

Inputs are checked once.  :class:`BlockParams` stores each level as a frozen
``(j - 1, m, m)`` stack, and :func:`assemble_rho_block` reads it through
kernels that check nothing (``_product``, ``_frame``, ``_generator``), which
the public layer functions call after checking their raw arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DmParamError, SingularAngleError
from .linalg import DEFAULT_TOL, Tolerances, _chain, _level_factors, _require_unitary
from .single import _check_simplex
from .states import DensityMatrix

__all__ = [
    "BlockParams",
    "block_angle",
    "normalize_blocks",
    "build_Xj_block",
    "build_Vjnm",
    "build_Ajnm",
    "build_core",
    "assemble_rho_block",
]

#: Largest Gram trace ``tr G`` accepted, so that ``sigma_max^2 <= tr G`` stays finite.
_GRAM_MAX = np.finfo(float).max / 2.0


def _as_blocks(Zs, m=None, who="block vector", j=None):
    """Validate a list of equally sized square blocks, ``j - 1`` of them
    when level ``j`` is given.

    Returns the blocks stacked into one ``(k, m, m)`` complex array, and ``m``.
    """
    if j is not None and len(Zs) != j - 1:
        raise DmParamError(f"{who}: expected {j - 1} blocks, got {len(Zs)}")
    if len(Zs) == 0:
        raise DmParamError(f"{who}: needs at least one block")
    out = [np.asarray(Z, dtype=complex) for Z in Zs]
    for k, Z in enumerate(out):
        if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
            raise DmParamError(f"{who}: block {k} is not square (shape {Z.shape})")
        if m is None:
            m = Z.shape[0]
        if Z.shape[0] != m:
            raise DmParamError(f"{who}: block {k} has size {Z.shape[0]}, expected {m}")
    T = np.stack(out)
    x = T.view(float)
    big = float(np.abs(x).max())  # NaN when any entry is NaN
    if not math.isfinite(big):
        k = int(np.argmin(np.isfinite(T).all(axis=(1, 2))))
        raise DmParamError(f"{who}: block {k} has non-finite entries")
    # normalize_blocks squares sigma_max, the largest singular value of the
    # stacked blocks, and sigma_max^2 = ||G||_2 <= tr G, the sum of |z|^2 over
    # all entries (G = sum_k Z_k^dag Z_k is never formed).  The trace is
    # summed over entries scaled by the largest, and only when
    # size * largest^2 could exceed _GRAM_MAX.
    if (big * big * x.size > _GRAM_MAX
            and float(np.sum(np.square(x / big))) > _GRAM_MAX / big / big):
        raise DmParamError(
            f"{who}: its Gram matrix sum_k Z_k^dag Z_k overflows "
            f"(largest entry {big:.3e})"
        )
    return T, m


def _level_svd(levels):
    """The kernel's ``Q``, ``R``, ``cos sigma - 1`` and ``sin sigma`` for
    consecutive validated level stacks, from each level's thin SVD
    ``Z = Q diag(sigma) R^dag``: one batched call on the levels padded with
    zero rows to the tallest (the padded rows of ``Q`` stay zero, as the
    kernel needs: every Householder reflection of the SVD fixes them)."""
    k = [len(T) for T in levels]
    L, K, m = len(k), max(k), levels[0].shape[-1]
    Z = np.zeros((L, K, m, m), dtype=complex)
    for l, T in enumerate(levels):
        Z[l, : k[l]] = T
    Q, sigma, Rh = np.linalg.svd(Z.reshape(L, K * m, m), full_matrices=False)
    return Q, Rh.conj().swapaxes(-1, -2), np.cos(sigma) - 1.0, np.sin(sigma)


def _level_columns(T):
    """The last ``m`` columns of ``A_j`` for one validated level stack ``T``
    of ``j - 1`` blocks: the level's new columns, taken from its factors with
    no other column formed."""
    *_, B = next(_level_factors(*_level_svd((T,)), len(T)))
    return B


def _product(d, levels):
    """``A_n ... A_2`` as a ``d x d`` matrix for consecutive validated level stacks."""
    return _chain(d, *_level_svd(levels))


def block_angle(Zs) -> np.ndarray:
    """Matrix angle ``Xi = sqrt(sum_k Z_k^dag Z_k)`` of a block vector."""
    T, m = _as_blocks(Zs, who="block_angle")
    _, sigma, Rh = np.linalg.svd(T.reshape(-1, m), full_matrices=False)
    Xi = (Rh.conj().T * sigma) @ Rh
    return (Xi + Xi.conj().T) / 2.0


def normalize_blocks(Zs, tol: Tolerances = DEFAULT_TOL):
    """Right-normalized blocks ``Zt_k = Z_k @ inv(Xi)``.

    Satisfies ``sum_k Zt_k^dag Zt_k = I``: they are the blocks of the polar
    factor ``Q R^dag`` of the stacked ``Z``.  Raises
    :class:`SingularAngleError` when ``Xi`` is singular (``Xi^2`` has an
    eigenvalue at or below ``tol.tol_psd * max(||Xi^2||, 1)``), where the
    polar factor is not unique.
    """
    T, m = _as_blocks(Zs, who="normalize_blocks")
    Q, sigma, Rh = np.linalg.svd(T.reshape(-1, m), full_matrices=False)
    # deciding on the angle itself would pass a rounding-level angle of about 3e-9
    if sigma[-1] ** 2 <= tol.tol_psd * max(sigma[0] ** 2, 1.0):
        raise SingularAngleError("normalize_blocks: matrix angle is singular")
    return list((Q @ Rh).reshape(T.shape))


def build_Xj_block(Zs, n: int, j: int, m: int) -> np.ndarray:
    """``nm x nm`` skew-Hermitian generator with block column ``j``.

    Block ``(k, j)`` is ``Z_k`` and block ``(j, k)`` is ``-Z_k^dag`` for
    ``k < j``; all other blocks vanish.  ``X + X^dag = 0`` holds exactly.
    """
    if not 2 <= j <= n:
        raise DmParamError(f"need 2 <= j <= n, got j={j}, n={n}")
    T, _ = _as_blocks(Zs, m, "build_Xj_block", j)
    return _generator(T, n)


def _generator(T, n):
    """``X_j`` of a validated level stack ``T`` (``j = len(T) + 1``)."""
    k, m, _ = T.shape
    X = np.zeros((n * m, n * m), dtype=complex)
    col = k * m
    Zh = T.reshape(col, m)
    X[:col, col : col + m] = Zh
    X[col : col + m, :col] = -Zh.conj().T
    return X


def build_Vjnm(Zs, j: int, m: int) -> np.ndarray:
    """Closed form of the ``jm x jm`` block unitary generated by ``Z_j``.

    Equals the top-left ``jm x jm`` block of
    ``expm_skew(build_Xj_block(Z_j, j, j, m))`` at every angle, singular
    ones included, where ``Zh`` is not unique but ``V_j`` is.  Returns the
    identity for an all-zero block vector.
    """
    T, m = _as_blocks(Zs, m, "build_Vjnm", j)
    return _product(j * m, (T,))


def build_Ajnm(Zs, n: int, j: int, m: int) -> np.ndarray:
    """Embed the block unitary of level ``j`` into the full ``nm x nm`` space.

    ``V_j`` of :func:`build_Vjnm` occupies the top-left ``jm x jm`` corner;
    the remaining ``n - j`` diagonal blocks are identities.  The result
    equals ``expm_skew(build_Xj_block(Z_j, n, j, m))`` to rounding.
    """
    if not 2 <= j <= n:
        raise DmParamError(f"need 2 <= j <= n, got j={j}, n={n}")
    T, m = _as_blocks(Zs, m, "build_Ajnm", j)
    return _product(n * m, (T,))


def _check_core(lambdas, local_unitaries, n, m, who):
    """Read-only copies of the simplex point and the ``n`` local unitaries
    of a core, checked: each unitary within ``UNITARY_TOL`` and of size ``m``."""
    lambdas = _check_simplex(lambdas, n * m, False, who)
    lambdas.flags.writeable = False
    if len(local_unitaries) != n:
        raise DmParamError(f"{who}: expected {n} local unitaries, got {len(local_unitaries)}")
    unitaries = []
    for k, U in enumerate(local_unitaries, start=1):
        U = np.array(_require_unitary(U, f"{who}: U_{k}"))
        if U.shape[0] != m:
            raise DmParamError(f"{who}: U_{k} has size {U.shape[0]}, expected {m}")
        U.flags.writeable = False
        unitaries.append(U)
    return lambdas, tuple(unitaries)


def build_core(lambdas, local_unitaries, n: int, m: int) -> np.ndarray:
    """Core blocks ``Lambda_k = U_k diag(slice_k) U_k^dag`` as a read-only
    ``(n, m, m)`` stack.

    ``slice_k`` is the k-th consecutive run of ``m`` eigenvalues.  For
    ``m = 1`` each block is the ``1 x 1`` matrix ``lambdas[k]``.  The
    eigenvalues are checked as a simplex point (traces summing to one) and
    the unitaries within ``UNITARY_TOL``.
    """
    lambdas, unitaries = _check_core(lambdas, local_unitaries, n, m, "build_core")
    U = np.array(unitaries)
    L = (U * lambdas.reshape(n, 1, m)) @ U.conj().swapaxes(-1, -2)
    L = (L + L.conj().swapaxes(-1, -2)) / 2.0
    L.flags.writeable = False
    return L


def _frame(U, unitaries):
    """``U blockdiag(U_1, ..., U_n)`` as one stacked product of the ``n``
    ``nm x m`` block columns of ``U`` with their ``U_k``."""
    n, m = len(unitaries), len(unitaries[0])
    W = U.reshape(n * m, n, m).swapaxes(0, 1) @ np.array(unitaries)
    return W.swapaxes(0, 1).reshape(n * m, n * m)


@dataclass(frozen=True)
class BlockParams:
    """Parameters of an n (x) m state.

    ``lambdas`` is any point on the ``nm``-simplex (no ordering is imposed),
    ``local_unitaries`` are the ``n`` unitaries entering the core blocks and
    ``blockvecs[j - 2]`` is the block vector of ``j - 1`` matrices of size
    ``m x m`` for ``j = 2..n``.
    Construction checks ``lambdas`` and the unitaries as :func:`build_core`
    does, and keeps each level of ``blockvecs`` as one read-only
    ``(j - 1, m, m)`` stack, which assembly does not check again.
    """

    n: int
    m: int
    lambdas: np.ndarray
    local_unitaries: tuple
    blockvecs: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DmParamError(f"BlockParams: dims must be positive, got n={self.n}, m={self.m}")
        lambdas, unitaries = _check_core(
            self.lambdas, self.local_unitaries, self.n, self.m, "BlockParams"
        )
        if len(self.blockvecs) != self.n - 1:
            raise DmParamError(
                f"BlockParams: expected {self.n - 1} block vectors, got {len(self.blockvecs)}"
            )
        vecs = []
        for j, Zs in enumerate(self.blockvecs, start=2):
            T, _ = _as_blocks(Zs, self.m, f"BlockParams: Z_{j}", j)
            T.flags.writeable = False
            vecs.append(T)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "local_unitaries", unitaries)
        object.__setattr__(self, "blockvecs", tuple(vecs))


def assemble_rho_block(p: BlockParams, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Assemble ``rho = A_n ... A_2 D(Lambda_1 | ... | Lambda_n) A_2^dag ... A_n^dag``.

    The spectrum of the result equals ``p.lambdas`` as a multiset and the
    factorization metadata ``(n, m)`` is carried along.  With all block
    vectors zero the state is block diagonal with blocks ``Lambda_k``.
    Each level's closed form touches only the top-left ``jm`` corner of the
    product, at every angle.  ``tol`` sets the :class:`DensityMatrix` gate;
    ``p`` is checked.
    """
    n, m = p.n, p.m
    U = _product(n * m, p.blockvecs) if p.blockvecs else np.eye(n * m, dtype=complex)
    # rho = U D U^dag without D: D = F diag(lambdas) F^dag, F = blockdiag(U_k)
    W = _frame(U, p.local_unitaries)
    rho = (W * p.lambdas) @ W.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(n, m, rho, tol)
