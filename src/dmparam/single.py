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
that identity).  ``V_j`` is the identity plus a rank-2 correction,

    V_j = I + y_j K_j y_j^dag,   y_j = [[zh; 0], e_j],   K_j = [[c - 1, s], [-s, c - 1]],

with ``c = cos t`` and ``s = sin t``: the ``m = 1`` level of the block
chain, so both chains run one kernel, ``linalg._chain``, which never forms
a ``V_j`` and multiplies consecutive levels in compact-WY blocks.

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

from .errors import DmParamError
from .linalg import DEFAULT_TOL, Tolerances, _chain
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
        raise DmParamError(f"{who}: expected {size} eigenvalues, got {lambdas.shape[0]}")
    finite = np.isfinite(lambdas)
    if not finite.all():  # every comparison below is False for NaN
        bad = float(lambdas[np.argmin(finite)])
        raise DmParamError(f"{who}: non-finite eigenvalue {bad!r}")
    if np.any(lambdas < -_SIMPLEX_TOL):
        raise DmParamError(f"{who}: negative eigenvalue {lambdas.min():.3e}")
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        total = float(np.sum(lambdas))
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise DmParamError(f"{who}: eigenvalues sum to {total!r}, not 1")
    if descending and np.any(np.diff(lambdas) > _SIMPLEX_TOL):
        raise DmParamError(f"{who}: eigenvalues must be sorted descending")
    return lambdas


def _on_simplex(P, size):
    """Mask over a ``(..., size)`` stack: the rows that
    ``_check_simplex(row, size, False, ...)`` accepts (all False for
    another last axis)."""
    P = np.asarray(P, dtype=float)
    if P.shape[-1:] != (size,):
        return np.zeros(P.shape[:-1], dtype=bool)
    finite = np.all(np.isfinite(P), axis=-1)
    negative = np.any(P < -_SIMPLEX_TOL, axis=-1)
    # an overflowing sum fails the test below; a NaN one only comes from a
    # row that ``finite`` rejects
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(P, axis=-1)
    return finite & ~negative & ~(np.abs(total - 1.0) > _SIMPLEX_TOL)


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
            raise DmParamError(f"SingleParams: n must be >= 1, got {self.n}")
        lambdas = _check_simplex(self.lambdas, self.n, True, "SingleParams")
        lambdas.flags.writeable = False
        zvecs = []
        if len(self.zvecs) != self.n - 1:
            raise DmParamError(
                f"SingleParams: expected {self.n - 1} z-vectors, got {len(self.zvecs)}"
            )
        for j, z in enumerate(self.zvecs, start=2):
            z = np.array(z, dtype=complex).reshape(-1)
            if z.shape[0] != j - 1:
                raise DmParamError(
                    f"SingleParams: z-vector for j={j} must have length {j - 1}, got {z.shape[0]}"
                )
            if not np.all(np.isfinite(z)):
                raise DmParamError(f"SingleParams: z-vector for j={j} has non-finite entries")
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
        raise DmParamError(f"need 2 <= j <= n, got j={j}, n={n}")
    if z.shape[0] != j - 1:
        raise DmParamError(f"z must have length {j - 1}, got {z.shape[0]}")
    X = np.zeros((n, n), dtype=complex)
    X[: j - 1, j - 1] = z
    X[j - 1, : j - 1] = -z.conj()
    return X


def build_Vjn(z, j: int) -> np.ndarray:
    """Closed form of the ``j x j`` unitary generated by ``z``.

    Equals the top-left ``j x j`` block of ``expm_skew(build_Xj_single(z, n, j))``
    for any embedding dimension ``n >= j``.  Returns the identity for
    ``||z|| = 0`` (the limit value).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    if j < 2 or z.shape[0] != j - 1:
        raise DmParamError(f"build_Vjn: z must have length j-1 = {j - 1}, got {z.shape[0]}")
    if not np.all(np.isfinite(z)):
        raise DmParamError("build_Vjn: z has non-finite entries")
    return _product(j, (z,))


def assemble_rho_single(p: SingleParams, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Assemble ``rho = A_n ... A_2 diag(lambdas) A_2^dag ... A_n^dag``.

    The spectrum of the result equals ``p.lambdas`` as a multiset (the
    conjugation is unitary) and the trace is one.
    """
    n = p.n
    U = _product(n, p.zvecs)
    rho = (U * p.lambdas) @ U.conj().T
    return DensityMatrix(n, 1, rho, tol)


def _product(d, zvecs):
    """``V_d ... V_2`` as a ``d x d`` matrix for consecutive z-vectors
    ending at level ``d``: each level's ``zh = z / ||z||`` (zero for
    ``z = 0``), ``R = 1`` and the cosine and sine of ``||z||``, applied by
    :func:`linalg._chain`."""
    Zh = np.zeros((len(zvecs), d - 1), dtype=complex)
    for l, z in enumerate(zvecs):
        Zh[l, : len(z)] = z
    theta = np.linalg.norm(Zh, axis=1)
    Zh /= np.where(theta > 0.0, theta, 1.0)[:, None]
    return _chain(d, Zh[..., None], np.ones((len(zvecs), 1, 1)),
                  np.cos(theta)[:, None] - 1.0, np.sin(theta)[:, None])


def param_count(n: int) -> int:
    """Number of independent real parameters of an n-level state: ``n^2 - 1``."""
    if n < 1:
        raise DmParamError(f"n must be >= 1, got {n}")
    return n * n - 1
