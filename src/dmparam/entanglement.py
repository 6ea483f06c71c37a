"""Partial transpose, the PPT test and structural separability detectors.

With ``rho = sum_{ij} |i><j| (x) rho_ij`` (an ``n x n`` grid of ``m x m``
blocks), the second-subsystem partial transpose maps ``rho_ij -> rho_ij^T``
and the first-subsystem one maps ``|i><j| -> |j><i|``.  Both are involutions
and their results share the same spectrum, so the PPT verdict does not
depend on the choice of subsystem.

A positive partial transpose is necessary for separability, and sufficient
for 2 (x) 2 and 2 (x) 3 systems.  Verdicts reported here are PPT verdicts;
for larger systems they do not by themselves certify separability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DmParamError
from .linalg import DEFAULT_TOL, Tolerances
from .single import _check_simplex
from .states import DensityMatrix

__all__ = [
    "PptReport",
    "partial_transpose",
    "pt_spectrum",
    "ppt_check",
    "circulant_ppt_margins",
    "circulant_conditions",
    "detect_structure",
]

#: Relative block-difference tolerance of the structure detector.
STRUCTURE_TOL = 1e-10

#: Analytic verdicts within this margin band of zero count as boundary.
BOUNDARY_BAND = 1e-9


def _unpack(rho, dims):
    if isinstance(rho, DensityMatrix):
        return rho.mat, rho.n, rho.m
    mat = np.asarray(rho, dtype=complex)
    if dims is None:
        raise DmParamError("plain matrices need explicit dims=(n, m)")
    n, m = dims
    if mat.shape[-2:] != (n * m, n * m) or min(n, m) < 1:
        raise DmParamError(f"matrix of shape {mat.shape} does not match dims {dims}")
    return mat, n, m


def partial_transpose(rho, subsystem: str = "second", dims=None) -> np.ndarray:
    """Transpose one tensor factor of a bipartite matrix.

    Parameters
    ----------
    rho : DensityMatrix or array_like
        For a plain array the factorization must be supplied via ``dims``;
        leading axes of a ``(..., nm, nm)`` stack are batch axes.
    subsystem : {"second", "first"}

    Returns
    -------
    numpy.ndarray
        The partially transposed matrix, or stack (Hermitian whenever the
        input is).
    """
    mat, n, m = _unpack(rho, dims)
    batch = mat.shape[:-2]
    R = mat.reshape(batch + (n, m, n, m))
    if subsystem == "second":
        factors = (0, 3, 2, 1)
    elif subsystem == "first":
        factors = (2, 1, 0, 3)
    else:
        raise DmParamError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    b = len(batch)
    R = R.transpose(tuple(range(b)) + tuple(b + k for k in factors))
    return np.ascontiguousarray(R).reshape(mat.shape)


def pt_spectrum(rho, dims=None) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized partial transpose.

    Accepts the same inputs as :func:`partial_transpose`, stacks included;
    one ``eigvalsh`` covers the whole stack.  Both partial transposes share
    this spectrum, so the second factor's is taken.
    """
    pt = partial_transpose(rho, dims=dims)
    return np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2.0)


@dataclass(frozen=True)
class PptReport:
    """PPT verdict: ``is_ppt`` iff ``min_pt_eig >= -tol_psd``."""

    is_ppt: bool
    min_pt_eig: float


def ppt_check(rho, tol: Tolerances = DEFAULT_TOL, dims=None) -> PptReport:
    """Peres test: smallest eigenvalue of the partial transpose.

    Boundary states (minimal eigenvalue in ``[-tol.tol_psd, 0]``) resolve to
    ``is_ppt = True``, reproducing closed separability boundaries.
    """
    min_eig = float(pt_spectrum(rho, dims)[0])
    return PptReport(is_ppt=min_eig >= -tol.tol_psd, min_pt_eig=min_eig)


def _angle_ok(x):
    """Elementwise: ``x`` lies in ``[0, pi/2]`` up to 1e-12."""
    return (-1e-12 <= x) & (x <= np.pi / 2 + 1e-12)


def _check_angles(alpha, beta):
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not _angle_ok(value):
            raise DmParamError(f"{name} = {value!r} outside [0, pi/2]")


def circulant_ppt_margins(p, alpha: float, beta: float):
    """Exact PPT margins of the two-angle circulant family.

    The family (see :func:`dmparam.families.circulant_rho`) is supported on
    the two cyclic sectors ``{|00>, |11>}`` and ``{|01>, |10>}``.  After the
    partial transpose the sector corners swap, and positivity reduces to two
    2x2 determinant inequalities.  The returned margins are

    * ``m1 = p3 p4 + (p3 - p4)^2 sin^2(a) cos^2(a) - (p1 - p2)^2 sin^2(b) cos^2(b)``
    * ``m2 = p1 p2 + (p1 - p2)^2 sin^2(b) cos^2(b) - (p3 - p4)^2 sin^2(a) cos^2(a)``

    and the state is PPT iff both are nonnegative.  At ``alpha = beta = pi/4``
    they reduce to the Bell-diagonal law ``max_k p_k <= 1/2``.
    """
    p = _check_simplex(p, 4, False, "circulant_ppt_margins")
    _check_angles(alpha, beta)
    m1, m2 = _circulant_margins(p, alpha, beta)
    return float(m1), float(m2)


def _circulant_margins(p, alpha, beta):
    """The two margins of :func:`circulant_ppt_margins`, elementwise over
    ``p`` stacked as ``(..., 4)`` and broadcast angles, without range checks.

    ``np.float_power`` squares through libm ``pow``, like ``**`` on a NumPy
    scalar; ``**`` on an array squares by multiplication, which can round
    differently, so this spelling keeps a stack and a single point equal.
    """
    p = np.asarray(p, dtype=float)
    p1, p2, p3, p4 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sq = np.float_power
    ta = sq(p3 - p4, 2) * sq(sa, 2) * sq(ca, 2)
    tb = sq(p1 - p2, 2) * sq(sb, 2) * sq(cb, 2)
    return p3 * p4 + ta - tb, p1 * p2 + tb - ta


def circulant_conditions(p, alpha: float, beta: float) -> bool:
    """Analytic PPT verdict for the two-angle circulant family.

    True iff both determinant margins of :func:`circulant_ppt_margins` are
    nonnegative (the boundary itself counts as PPT).  Agrees with
    :func:`ppt_check` on the constructed state away from the boundary band.
    """
    m1, m2 = circulant_ppt_margins(p, alpha, beta)
    return m1 >= 0.0 and m2 >= 0.0


def detect_structure(rho, dims=None) -> str:
    """Classify a 2 (x) m state by its block pattern.

    Takes a :class:`DensityMatrix`, or one plain matrix with
    ``dims=(2, m)`` as :func:`ppt_check` does; a stack is an input error.

    Returns one of ``"block_diagonal"``, ``"block_toeplitz"``,
    ``"block_hankel"`` or ``"none"``, in that precedence order:

    * block diagonal: both off-diagonal blocks vanish;
    * block Toeplitz: equal diagonal blocks (off-diagonals are adjoint
      paired automatically by Hermiticity);
    * block Hankel: the two off-diagonal blocks are equal (hence Hermitian).

    Block comparisons use the relative Frobenius tolerance ``STRUCTURE_TOL``.
    """
    mat, n, m = _unpack(rho, dims)
    if mat.ndim != 2:
        raise DmParamError(f"detect_structure takes one matrix, got shape {mat.shape}")
    if n != 2:
        raise DmParamError(f"structure detection is defined for n = 2, got n = {n}")
    B11 = mat[:m, :m]
    B12 = mat[:m, m:]
    B21 = mat[m:, :m]
    B22 = mat[m:, m:]
    scale = max(np.linalg.norm(mat), 1.0)
    off = max(np.linalg.norm(B12), np.linalg.norm(B21))
    if off <= STRUCTURE_TOL * scale:
        return "block_diagonal"
    if np.linalg.norm(B11 - B22) <= STRUCTURE_TOL * scale:
        return "block_toeplitz"
    if np.linalg.norm(B12 - B21) <= STRUCTURE_TOL * scale:
        return "block_hankel"
    return "none"
