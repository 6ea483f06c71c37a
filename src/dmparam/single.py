"""Parametrization of n-level density matrices by a chain of complex vectors.

A state is specified by a descending point on the probability simplex
(``lambdas``) and complex vectors ``z_j`` in ``C^(j-1)`` for ``j = 2..n``.
Each ``z_j`` generates a sparse skew-Hermitian matrix ``X_j`` (the vector in
column ``j``, minus its conjugate in row ``j``) and the state is assembled as

    rho = A_n ... A_2 diag(lambdas) A_2^dag ... A_n^dag,

where ``A_j = exp(X_j)`` acts as a ``j x j`` unitary ``V_j`` in the top-left
corner and as the identity elsewhere.  ``V_j`` has the closed form

    [[ I - (1 - cos t) zh zh^dag,  sin t * zh ],
     [ -sin t * zh^dag,            cos t      ]]

with ``t = ||z_j||`` and ``zh = z_j / t``; it equals the top-left block of
``exp(X_j)`` exactly (the sign and conjugation conventions here are fixed by
that identity).  ``V_j`` is the identity plus a rank-2 correction, so the
chain never forms it: with ``w = zh^dag U[:j-1]`` and ``r = U[j-1]`` it
updates the top ``j`` rows of the running product ``U`` as

    U[:j-1] -= zh ((1 - cos t) w - sin t r),    U[j-1] = cos t r - sin t w,

which is O(jn) per level and O(n^3) for the whole chain.

For ``n = 2`` and ``z_2 = t e^{i phi}`` the assembled state is

    [[ c^2 l1 + s^2 l2,            s c e^{i phi} (l2 - l1) ],
     [ s c e^{-i phi} (l2 - l1),   c^2 l2 + s^2 l1         ]],

the familiar Bloch-ball parametrization with radius ``l1 - l2`` (replacing
``z_2`` by ``-z_2`` flips the sign of the off-diagonal term).

The diagonal first factor of the full unitary-group factorization commutes
with ``diag(lambdas)`` and is therefore omitted: it would contribute no
parameters to the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidSimplexError
from .linalg import DEFAULT_TOL, Tolerances
from .states import DensityMatrix

__all__ = [
    "SingleParams",
    "build_Vjn",
    "build_Xj_single",
    "assemble_rho_single",
    "param_count",
]

_SIMPLEX_TOL = 1e-12


def _check_simplex(lambdas, size, descending, who):
    lambdas = np.array(lambdas, dtype=float).reshape(-1)
    if lambdas.shape[0] != size:
        raise InvalidSimplexError(f"{who}: expected {size} eigenvalues, got {lambdas.shape[0]}")
    if np.any(lambdas < -_SIMPLEX_TOL):
        raise InvalidSimplexError(f"{who}: negative eigenvalue {lambdas.min():.3e}")
    total = float(np.sum(lambdas))
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise InvalidSimplexError(f"{who}: eigenvalues sum to {total!r}, not 1")
    if descending and np.any(np.diff(lambdas) > _SIMPLEX_TOL):
        raise InvalidSimplexError(f"{who}: eigenvalues must be sorted descending")
    return lambdas


def _on_simplex(P, size):
    """Mask over a ``(..., size)`` stack: the rows that
    ``_check_simplex(row, size, False, ...)`` accepts (all False for
    another last axis)."""
    P = np.asarray(P, dtype=float)
    if P.shape[-1:] != (size,):
        return np.zeros(P.shape[:-1], dtype=bool)
    negative = np.any(P < -_SIMPLEX_TOL, axis=-1)
    return ~negative & ~(np.abs(np.sum(P, axis=-1) - 1.0) > _SIMPLEX_TOL)


@dataclass(frozen=True)
class SingleParams:
    """Parameters of an n-level state.

    ``lambdas`` must be descending (callers wanting a different eigenvalue
    order permute the z-vectors themselves); ``zvecs[j - 2]`` is the complex
    vector of length ``j - 1`` for ``j = 2..n``.  Angles ``||z_j||`` are
    accepted unrestricted; only ``||z_j||`` within the first hyperoctant
    gives non-redundant parameters.
    """

    n: int
    lambdas: np.ndarray
    zvecs: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError(f"n must be >= 1, got {self.n}")
        lambdas = _check_simplex(self.lambdas, self.n, True, "SingleParams")
        lambdas.flags.writeable = False
        zvecs = []
        if len(self.zvecs) != self.n - 1:
            raise DimensionMismatchError(
                f"expected {self.n - 1} z-vectors, got {len(self.zvecs)}"
            )
        for j, z in enumerate(self.zvecs, start=2):
            z = np.array(z, dtype=complex).reshape(-1)
            if z.shape[0] != j - 1:
                raise DimensionMismatchError(
                    f"z-vector for j={j} must have length {j - 1}, got {z.shape[0]}"
                )
            if not np.all(np.isfinite(z)):
                raise DimensionMismatchError(f"z-vector for j={j} has non-finite entries")
            z.flags.writeable = False
            zvecs.append(z)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "zvecs", tuple(zvecs))


def build_Xj_single(z, n: int, j: int) -> np.ndarray:
    """Sparse skew-Hermitian generator: ``z`` in column ``j``, ``-z^dag`` in row ``j``.

    The result satisfies ``X + X^dag = 0`` exactly and has zero trace.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if not 2 <= j <= n:
        raise DimensionMismatchError(f"need 2 <= j <= n, got j={j}, n={n}")
    if z.shape[0] != j - 1:
        raise DimensionMismatchError(f"z must have length {j - 1}, got {z.shape[0]}")
    X = np.zeros((n, n), dtype=complex)
    X[: j - 1, j - 1] = z
    X[j - 1, : j - 1] = -z.conj()
    return X


def _rotation(z):
    """``(zh, cos t, sin t)`` with ``t = ||z||`` and ``zh = z / t``; ``None`` for ``t = 0``."""
    theta = float(np.linalg.norm(z))
    if theta == 0.0:
        return None
    return z / theta, np.cos(theta), np.sin(theta)


def build_Vjn(z, j: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Closed form of the ``j x j`` unitary generated by ``z``.

    Equals the top-left ``j x j`` block of ``expm_skew(build_Xj_single(z, n, j))``
    for any embedding dimension ``n >= j``.  Returns the identity for
    ``||z|| = 0`` (the limit value).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if j < 2 or z.shape[0] != j - 1:
        raise DimensionMismatchError(
            f"build_Vjn: z must have length j-1 = {j - 1}, got {z.shape[0]}"
        )
    V = np.eye(j, dtype=complex)
    rotation = _rotation(z)
    if rotation is None:
        return V
    zh, c, s = rotation
    V[: j - 1, : j - 1] -= (1.0 - c) * np.outer(zh, zh.conj())
    V[: j - 1, j - 1] = s * zh
    V[j - 1, : j - 1] = -s * zh.conj()
    V[j - 1, j - 1] = c
    return V


def assemble_rho_single(p: SingleParams, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Assemble ``rho = A_n ... A_2 diag(lambdas) A_2^dag ... A_n^dag``.

    The spectrum of the result equals ``p.lambdas`` as a multiset (the
    conjugation is unitary) and the trace is one.  Each ``V_j`` acts on the
    running product as a rank-2 update of its top ``j`` rows, O(jn) work.
    """
    n = p.n
    U = np.eye(n, dtype=complex)
    for j, z in enumerate(p.zvecs, start=2):
        rotation = _rotation(z)
        if rotation is None:
            continue
        zh, c, s = rotation
        w = zh.conj() @ U[: j - 1]
        r = U[j - 1]
        U[: j - 1] -= np.outer(zh, (1.0 - c) * w - s * r)
        U[j - 1] = c * r - s * w
    rho = (U * p.lambdas) @ U.conj().T
    return DensityMatrix(n, 1, rho, tol)


def param_count(n: int) -> int:
    """Number of independent real parameters of an n-level state: ``n^2 - 1``."""
    if n < 1:
        raise DimensionMismatchError(f"n must be >= 1, got {n}")
    return n * n - 1
