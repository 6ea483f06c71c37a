"""Closed-form constructors for the named 2 (x) 2 and 2 (x) m state families.

Every constructor returns a validated :class:`DensityMatrix` and is paired,
in the test suite, with the generic block assembly on the corresponding
parameters; the two routes agree entrywise.

The five 2 (x) 2 families that ``dmparam sweep`` scans keep their matrix in
one array formula (``_pure_P_mats``, ``_isotropic_mats``, ...): it maps
parameters stacked over leading axes to a ``(..., 4, 4)`` stack, and the
scalar constructor checks its arguments and calls it on a single point.
``FAMILIES`` holds each formula with its vectorized range checks and
analytic PPT margin, so a sweep builds, gates and partially transposes a
whole chunk of grid points at once and gets the same bits as the
constructor at every point.

Conventions fixed here once and for all: ``sigma_z = diag(1, -1)``,
``sigma_x = [[0, 1], [1, 0]]``, and the 2 (x) 2 basis is ordered
``|00>, |01>, |10>, |11>`` so that printed matrices can be compared entry
by entry.  All angles are radians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import build_Ajnm
from .entanglement import _angle_ok, _check_angles, _circulant_margins
from .errors import (
    BadNormalizationError,
    ConditionViolatedError,
    DimensionMismatchError,
    DmParamError,
    NotPsdError,
    OutOfRangeError,
)
from .linalg import (
    DEFAULT_TOL, TRACE_TOL, Tolerances, _require_hermitian, _require_unitary, matfun_psd
)
from .single import _check_simplex, _on_simplex
from .states import DensityMatrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Z",
    "FAMILIES",
    "Family",
    "FamilySpec",
    "pure_P",
    "isotropic",
    "isotropic_alpha",
    "sep_threshold",
    "circulant_rho",
    "bell_diagonal",
    "two_by_m",
    "toeplitz_state",
    "hankel_state",
    "class3_state",
    "nonabelian_bloch",
    "nonabelian_sphere_check",
    "build_family",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_COND_TOL = 1e-10


def _require_psd(M, tol, who):
    M = _require_hermitian(M, tol, who)
    w = np.linalg.eigvalsh(M)
    if w[0] < -tol.tol_psd:
        raise NotPsdError(f"{who}: eigenvalue {w[0]:.3e} below -tol_psd")
    return M


def _pure_P_mats(alpha):
    s, c = np.sin(alpha), np.cos(alpha)
    rho = np.zeros(np.shape(s) + (4, 4), dtype=complex)
    rho[..., 0, 0] = s * s
    rho[..., 3, 3] = c * c
    rho[..., 0, 3] = rho[..., 3, 0] = s * c
    return rho


def pure_P(alpha: float, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Rank-1 projector onto ``sin(a)|00> + cos(a)|11>``.

    Separable iff ``sin(a) = 0`` or ``cos(a) = 0``; the smallest eigenvalue
    of its partial transpose is ``-sin(a) cos(a)``, so ``a = pi/4`` is the
    maximally entangled point.
    """
    return DensityMatrix(2, 2, _pure_P_mats(alpha), tol)


def _isotropic_in_range(p):
    return (-1.0 / 3.0 - 1e-12 <= p) & (p <= 1.0 + 1e-12)


def _isotropic_mats(p):
    rho = np.zeros(np.shape(p) + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = (1.0 + p) / 4.0
    rho[..., 1, 1] = rho[..., 2, 2] = (1.0 - p) / 4.0
    rho[..., 0, 3] = rho[..., 3, 0] = p / 2.0
    return rho


def isotropic(p: float, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Isotropic 2-qubit family; PSD for ``-1/3 <= p <= 1``, PPT iff ``p <= 1/3``.

    The partial-transpose spectrum is ``{(1 + p)/4 (x3), (1 - 3p)/4}``.
    """
    if not _isotropic_in_range(p):
        raise OutOfRangeError(f"isotropic: p = {p!r} outside [-1/3, 1]")
    return DensityMatrix(2, 2, _isotropic_mats(p), tol)


def _isotropic_alpha_mats(p, alpha):
    s, c = np.sin(alpha), np.cos(alpha)
    base = (1.0 - p) / 4.0
    off = p * s * c
    rho = np.zeros(np.shape(off) + (4, 4), dtype=complex)
    rho[..., 0, 0] = base + p * s * s
    rho[..., 1, 1] = rho[..., 2, 2] = base
    rho[..., 3, 3] = base + p * c * c
    rho[..., 0, 3] = rho[..., 3, 0] = off
    return rho


def isotropic_alpha(p: float, alpha: float, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Convex mixture ``(1 - p)/4 * I + p * pure_P(alpha)``.

    Positivity is validated after construction; for ``p >= 0`` the state is
    PPT iff ``p <= sep_threshold(alpha)``.
    """
    return DensityMatrix(2, 2, _isotropic_alpha_mats(p, alpha), tol)


def sep_threshold(alpha: float) -> float:
    """PPT boundary of :func:`isotropic_alpha` in ``p``: ``1 / (1 + 2 sin 2a)``."""
    return 1.0 / (1.0 + 2.0 * np.sin(2.0 * alpha))


def _circulant_mats(p, alpha, beta):
    # np.float_power squares the way ``**`` squares a NumPy scalar (see
    # entanglement._circulant_margins), so a stack matches single points.
    p = np.asarray(p, dtype=float)
    p1, p2, p3, p4 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sa2, ca2, sb2, cb2 = (np.float_power(x, 2) for x in (sa, ca, sb, cb))
    top = p1 * sb2 + p2 * cb2
    middle = p3 * sa2 + p4 * ca2
    rho = np.zeros(np.broadcast(top, middle).shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = top
    rho[..., 1, 1] = middle
    rho[..., 2, 2] = p3 * ca2 + p4 * sa2
    rho[..., 3, 3] = p1 * cb2 + p2 * sb2
    rho[..., 0, 3] = rho[..., 3, 0] = (p1 - p2) * sb * cb
    rho[..., 1, 2] = rho[..., 2, 1] = (p3 - p4) * sa * ca
    return rho


def circulant_rho(p, alpha: float, beta: float, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Two-angle circulant 2-qubit family with spectrum ``{p1, p2, p3, p4}``.

    Built by rotating ``diag(p2, p1)`` by ``beta`` inside the sector
    ``{|00>, |11>}`` and ``diag(p4, p3)`` by ``alpha`` inside
    ``{|01>, |10>}``:

        [[ p1 sb^2 + p2 cb^2,  0,                   0,                  (p1 - p2) sb cb   ],
         [ 0,                  p3 sa^2 + p4 ca^2,   (p3 - p4) sa ca,    0                 ],
         [ 0,                  (p3 - p4) sa ca,     p3 ca^2 + p4 sa^2,  0                 ],
         [ (p1 - p2) sb cb,    0,                   0,                  p1 cb^2 + p2 sb^2 ]]

    PSD with unit trace for every simplex point and angles in ``[0, pi/2]``,
    equal to the generic block assembly on the corresponding core and block
    vector, and reducing to :func:`bell_diagonal` at ``alpha = beta = pi/4``.
    Its exact PPT verdict is :func:`dmparam.entanglement.circulant_conditions`.
    """
    p = _check_simplex(p, 4, False, "circulant_rho")
    _check_angles(alpha, beta)
    return DensityMatrix(2, 2, _circulant_mats(p, alpha, beta), tol)


def _bell_diagonal_mats(p):
    p = np.asarray(p, dtype=float)
    p1, p2, p3, p4 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    rho = np.zeros(np.shape(p1) + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = (p1 + p2) / 2.0
    rho[..., 1, 1] = rho[..., 2, 2] = (p3 + p4) / 2.0
    rho[..., 0, 3] = rho[..., 3, 0] = (p1 - p2) / 2.0
    rho[..., 1, 2] = rho[..., 2, 1] = (p3 - p4) / 2.0
    return rho


def bell_diagonal(p, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Mixture of the four Bell projectors with weights ``p``; PPT iff ``max p_k <= 1/2``."""
    p = _check_simplex(p, 4, False, "bell_diagonal")
    return DensityMatrix(2, 2, _bell_diagonal_mats(p), tol)


def _two_by_m_blocks(U, L1, L2, C, S):
    """The four blocks of the generic 2 (x) m state."""
    Ud = U.conj().T
    L1r = Ud @ L1 @ U  # U^dag L1 U appears in every inner block
    top = C @ L1r @ C + S @ L2 @ S
    off = S @ L2 @ C - C @ L1r @ S
    bot = C @ L2 @ C + S @ L1r @ S
    return U @ top @ Ud, U @ off, off.conj().T @ Ud, bot


def two_by_m(U, L1, L2, Xi2, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Generic 2 (x) m state from a local unitary, two core blocks and an angle.

    With ``C = cos(Xi2)`` and ``S = sin(Xi2)``:

        [[ U (C U^dag L1 U C + S L2 S) U^dag,   U (S L2 C - C U^dag L1 U S) ],
         [ h.c.,                                C L2 C + S U^dag L1 U S     ]]

    Equals the generic block assembly with block vector ``Z2 = U @ Xi2``
    (whose right-normalization is exactly ``U``).  ``Xi2 = 0`` gives
    ``diag(L1, L2)``; ``Xi2 = (pi/2) I`` swaps the blocks up to the local
    unitary.
    """
    U = _require_unitary(U, tol, "two_by_m: U")
    m = U.shape[0]
    L1 = _require_psd(L1, tol, "two_by_m: L1")
    L2 = _require_psd(L2, tol, "two_by_m: L2")
    Xi2 = _require_psd(Xi2, tol, "two_by_m: Xi2")
    if not L1.shape == L2.shape == Xi2.shape == (m, m):
        raise DimensionMismatchError("two_by_m: all inputs must be m x m")
    tr = float((np.trace(L1) + np.trace(L2)).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise BadNormalizationError(f"two_by_m: Tr(L1 + L2) = {tr!r}, not 1")
    C = matfun_psd(Xi2, "cos", tol)
    S = matfun_psd(Xi2, "sin", tol)
    B11, B12, B21, B22 = _two_by_m_blocks(U, L1, L2, C, S)
    rho = np.block([[B11, B12], [B21, B22]])
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(2, m, rho, tol)


def _check_condition(name, residual, tol=_COND_TOL):
    if residual > tol:
        raise ConditionViolatedError(name, residual, tol)


def toeplitz_state(L, U, Xi2, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Block Toeplitz separable 2 (x) m state.

    Requires ``[L, U] = 0``, ``Tr(2L) = 1`` and ``U A U^dag = A`` for
    ``A = C L C + S L S`` (each within 1e-10, reported per condition).  The
    state is

        [[ A, U B ], [ (U B)^dag, A ]],    B = S L C - C L S,

    which is positive block Toeplitz, hence PPT.  ``B`` vanishes when ``L``
    commutes with ``Xi2``; in that degenerate case the state is block
    diagonal.
    """
    L = _require_psd(L, tol, "toeplitz_state: L")
    U = _require_unitary(U, tol, "toeplitz_state: U")
    Xi2 = _require_psd(Xi2, tol, "toeplitz_state: Xi2")
    m = L.shape[0]
    if not U.shape == Xi2.shape == (m, m):
        raise DimensionMismatchError("toeplitz_state: all inputs must be m x m")
    _check_condition("[L, U] = 0", np.linalg.norm(L @ U - U @ L))
    _check_condition("Tr(2L) = 1", abs(2.0 * float(np.trace(L).real) - 1.0))
    C = matfun_psd(Xi2, "cos", tol)
    S = matfun_psd(Xi2, "sin", tol)
    A = C @ L @ C + S @ L @ S
    B = S @ L @ C - C @ L @ S
    _check_condition("U A U^dag = A", np.linalg.norm(U @ A @ U.conj().T - A))
    UB = U @ B
    rho = np.block([[A, UB], [UB.conj().T, A]])
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(2, m, rho, tol)


def hankel_state(U, L1, L2, Xi2, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Block Hankel separable 2 (x) m state.

    Requires ``[U^dag L1 U, Xi2] = 0``, ``[L2, Xi2] = 0``,
    ``Tr(L1 + L2) = 1`` and ``U B' = B' U^dag`` for
    ``B' = S C (L2 - U^dag L1 U)``.  Under these conditions the generic
    2 (x) m state becomes

        [[ U A1 U^dag, X ], [ X, A2 ]],    X = U B' (Hermitian),

    with diagonal blocks ``A1 = C U^dag L1 U C + S L2 S`` and
    ``A2 = C L2 C + S U^dag L1 U S``: equal off-diagonal blocks, i.e. block
    Hankel, hence PPT.
    """
    U = _require_unitary(U, tol, "hankel_state: U")
    L1 = _require_psd(L1, tol, "hankel_state: L1")
    L2 = _require_psd(L2, tol, "hankel_state: L2")
    Xi2 = _require_psd(Xi2, tol, "hankel_state: Xi2")
    m = U.shape[0]
    if not L1.shape == L2.shape == Xi2.shape == (m, m):
        raise DimensionMismatchError("hankel_state: all inputs must be m x m")
    L1r = U.conj().T @ L1 @ U
    _check_condition("[U^dag L1 U, Xi2] = 0", np.linalg.norm(L1r @ Xi2 - Xi2 @ L1r))
    _check_condition("[L2, Xi2] = 0", np.linalg.norm(L2 @ Xi2 - Xi2 @ L2))
    tr = float((np.trace(L1) + np.trace(L2)).real)
    _check_condition("Tr(L1 + L2) = 1", abs(tr - 1.0))
    C = matfun_psd(Xi2, "cos", tol)
    S = matfun_psd(Xi2, "sin", tol)
    Bp = S @ C @ (L2 - L1r)
    _check_condition("U B' = B' U^dag", np.linalg.norm(U @ Bp - Bp @ U.conj().T))
    X = U @ Bp
    _check_condition("X Hermitian", np.linalg.norm(X - X.conj().T))
    A1 = C @ L1r @ C + S @ L2 @ S
    A2 = C @ L2 @ C + S @ L1r @ S
    rho = np.block([[U @ A1 @ U.conj().T, X], [X.conj().T, A2]])
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(2, m, rho, tol)


def class3_state(n: int, m: int, Zs, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Conjugated rank-m core: ``(1/m) A_n D(0 | ... | 0 | I_m) A_n^dag``.

    Only the last block column ``W = (Zt_1 S, ..., Zt_{n-1} S, C)^T`` of the
    top-level unitary survives the conjugation, and ``W^dag W = I_m`` since
    ``sum_k Zt_k^dag Zt_k = I``, so ``m * rho = W W^dag`` is always a rank-m
    projector.  When the normalized blocks are normal, their left polar
    parts additionally satisfy ``sum_k P_k^2 = I`` (the nonabelian sphere).
    """
    if n < 2:
        raise DimensionMismatchError(f"class3_state: need n >= 2, got {n}")
    if len(Zs) != n - 1:
        raise DimensionMismatchError(
            f"class3_state: expected {n - 1} blocks, got {len(Zs)}"
        )
    A = build_Ajnm(Zs, n, n, m, method="auto", tol=tol)
    col = A[:, (n - 1) * m :]
    rho = (col @ col.conj().T) / m
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(n, m, rho, tol)


def nonabelian_bloch(U, Xi2, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """The n = 2 slice of :func:`class3_state`: a matrix-angle Bloch sphere.

    With ``C = cos(Xi2)`` and ``S = sin(Xi2)``:

        (1/m) [[ U S^2 U^dag, U S C ], [ C S U^dag, C^2 ]]

    (the top-left block carries the local unitary; dropping it would break
    both idempotence and agreement with ``class3_state(2, m, [U @ Xi2])``).
    Parameterized by ``2 m^2`` real numbers: a unitary and a PSD angle.
    """
    U = _require_unitary(U, tol, "nonabelian_bloch: U")
    Xi2 = _require_psd(Xi2, tol, "nonabelian_bloch: Xi2")
    m = U.shape[0]
    if Xi2.shape != (m, m):
        raise DimensionMismatchError("nonabelian_bloch: U and Xi2 must match")
    C = matfun_psd(Xi2, "cos", tol)
    S = matfun_psd(Xi2, "sin", tol)
    Ud = U.conj().T
    rho = np.block([[U @ S @ S @ Ud, U @ S @ C], [C @ S @ Ud, C @ C]]) / m
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(2, m, rho, tol)


def nonabelian_sphere_check(Ps, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff ``P_1^2 + ... + P_k^2 = I`` within 1e-10."""
    Ps = [np.asarray(P, dtype=complex) for P in Ps]
    if not Ps:
        raise DimensionMismatchError("nonabelian_sphere_check: empty list")
    m = Ps[0].shape[0]
    for P in Ps:
        if P.shape != (m, m):
            raise DimensionMismatchError(
                "nonabelian_sphere_check: blocks must share one square shape"
            )
    total = sum(P @ P for P in Ps)
    return bool(np.linalg.norm(total - np.eye(m)) <= 1e-10)


@dataclass(frozen=True)
class Family:
    """A family's constructor and the file type of each of its parameters.

    ``params`` lists the constructor's arguments in positional order, each
    mapped to ``int``, ``real``, ``reals``, ``matrix`` or ``matrices``.
    Families that ``dmparam sweep`` scans add:

    * their grid ``axes``;
    * ``mats``, the array formula behind the constructor: the constructor's
      arguments, each stacked over leading axes that broadcast together
      (a ``reals`` one as ``(..., k)``), map to a ``(..., 4, 4)`` stack of
      unchecked matrices; the constructor checks its arguments, calls it on
      them and gates the result as a :class:`DensityMatrix`;
    * ``domain``, the mask of the stacked points that pass the
      constructor's range checks (``None`` when it has none);
    * the analytic PPT ``margin`` of the arguments, elementwise over the
      same stacks (its sign is the verdict);
    * where a parameter is computed from the axes, ``derive``: a function of
      the dict of axis and fixed values, which may be scalars or stacks.
    """

    build: Callable
    params: dict
    axes: tuple = ()
    margin: Callable | None = None
    derive: dict = field(default_factory=dict)
    mats: Callable | None = None
    domain: Callable | None = None


def _isotropic_alpha_margin(p, alpha):
    s, c = np.sin(alpha), np.cos(alpha)
    base = (1.0 - p) / 4.0
    return np.minimum(np.minimum(base + p * s * s, base + p * c * c),
                      np.minimum(base + p * s * c, base - p * s * c))


def _bell_weights(point):
    """``p`` as ``(..., 4)`` from the axes ``p1..p3`` (0 when not given), with
    ``p4 = 1 - p1 - p2 - p3``."""
    p123 = [point.get(k, 0.0) for k in ("p1", "p2", "p3")]
    return np.stack(np.broadcast_arrays(*p123, 1.0 - sum(p123)), axis=-1)


FAMILIES = {
    "pure_P": Family(
        pure_P, {"alpha": "real"}, ("alpha",),
        lambda alpha: -np.abs(np.sin(alpha) * np.cos(alpha)),
        mats=_pure_P_mats),
    "isotropic": Family(
        isotropic, {"p": "real"}, ("p",),
        lambda p: np.minimum((1.0 - 3.0 * p) / 4.0, (1.0 + p) / 4.0),
        mats=_isotropic_mats, domain=_isotropic_in_range),
    "isotropic_alpha": Family(
        isotropic_alpha, {"p": "real", "alpha": "real"}, ("p", "alpha"),
        _isotropic_alpha_margin, mats=_isotropic_alpha_mats),
    "circulant": Family(
        circulant_rho, {"p": "reals", "alpha": "real", "beta": "real"}, ("alpha", "beta"),
        lambda p, a, b: np.minimum(*_circulant_margins(p, a, b)),
        mats=_circulant_mats,
        domain=lambda p, a, b: _on_simplex(p, 4) & _angle_ok(a) & _angle_ok(b)),
    "bell_diagonal": Family(
        bell_diagonal, {"p": "reals"}, ("p1", "p2", "p3"),
        lambda p: 0.5 - np.max(p, axis=-1), {"p": _bell_weights},
        mats=_bell_diagonal_mats, domain=lambda p: _on_simplex(p, 4)),
    "two_by_m": Family(two_by_m, dict.fromkeys(("U", "L1", "L2", "Xi2"), "matrix")),
    "toeplitz": Family(toeplitz_state, dict.fromkeys(("L", "U", "Xi2"), "matrix")),
    "hankel": Family(hankel_state, dict.fromkeys(("U", "L1", "L2", "Xi2"), "matrix")),
    "class3": Family(class3_state, {"n": "int", "m": "int", "Z": "matrices"}),
    "nonabelian_bloch": Family(nonabelian_bloch, dict.fromkeys(("U", "Xi2"), "matrix")),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its keyword parameters (angles in radians)."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise DimensionMismatchError(
                f"unknown family kind {self.kind!r}; known: {sorted(FAMILIES)}"
            )
        missing = [k for k in FAMILIES[self.kind].params if k not in self.params]
        if missing:
            raise DimensionMismatchError(
                f"family {self.kind!r} is missing parameters {missing}"
            )


def build_family(spec: FamilySpec, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Construct the state described by a :class:`FamilySpec`.

    A validation error names the family in its message.
    """
    f = FAMILIES[spec.kind]
    try:
        return f.build(*(spec.params[k] for k in f.params), tol)
    except DmParamError as exc:
        exc.args = (f"family {spec.kind!r}: {exc}",)
        raise
