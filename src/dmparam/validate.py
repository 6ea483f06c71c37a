"""Worked examples and randomized self-validation.

:data:`EXAMPLES` maps each of the paper's worked examples, which ``dmparam
reproduce`` prints, to a title and a generator of ``(label, ok, text)`` rows.
:func:`run_validation` draws ``trials`` random instances per invariant
family from a seeded generator and reports the worst residual observed.
Both reports are deterministic functions of the seed (and of ``trials``).
"""

from __future__ import annotations

import json

import numpy as np

from . import _random as rnd
from .blocks import BlockParams, assemble_rho_block, build_Xj_block, normalize_blocks
from .entanglement import (
    BOUNDARY_BAND,
    circulant_ppt_margins,
    detect_structure,
    partial_transpose,
    ppt_check,
)
from .errors import DmParamError
from .families import (
    SIGMA_X,
    bell_diagonal,
    circulant_rho,
    class3_state,
    hankel_state,
    isotropic,
    isotropic_alpha,
    nonabelian_sphere_check,
    pure_P,
    toeplitz_state,
)
from .io import fmt_float
from .linalg import (
    DEFAULT_TOL,
    RECON_TOL,
    expm_skew,
    haar_unitary,
    herm_eig,
    matfun_psd,
    polar,
)
from .single import assemble_rho_single, build_Vjn, build_Xj_single
from .states import DensityMatrix

__all__ = ["run_validation", "CheckResult", "EXAMPLES"]


class CheckResult:
    """Outcome of one invariant family."""

    def __init__(self, name, ok, worst, bound, counterexample=None):
        self.name = name
        self.ok = bool(ok)
        self.worst = float(worst)
        self.bound = float(bound)
        self.counterexample = counterexample

    def line(self):
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name:<34} worst {self.worst:.3e}  (bound {self.bound:.1e})"


def _spectrum_gap(rho, lambdas):
    return float(np.max(np.abs(np.sort(rho.eigenvalues) - np.sort(lambdas))))


def _gap(rho, sigma):
    return float(np.max(np.abs(rho.mat - sigma.mat)))


def _check(name, bound, residuals, counterexample=None):
    worst = max(residuals) if residuals else 0.0
    return CheckResult(name, worst <= bound, worst, bound, counterexample)


def run_validation(seed: int, trials: int, tol=DEFAULT_TOL):
    """Run every invariant family; returns a list of :class:`CheckResult`."""
    if trials < 1:
        raise DmParamError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DmParamError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    # Hermitian eigendecomposition round trip, dims 2..8.
    res = []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        H = rnd.rand_hermitian(rng, d)
        w, V = herm_eig(H, tol)
        res.append(np.linalg.norm((V * w) @ V.conj().T - H))
    results.append(_check("herm_eig reconstruction", RECON_TOL * 10, res))

    # Skew exponential unitarity.
    res = []
    for _ in range(trials):
        d = int(rng.integers(2, 8))
        U = expm_skew(rnd.rand_skew(rng, d) * 2.0, tol)
        res.append(np.linalg.norm(U.conj().T @ U - np.eye(d)))
    results.append(_check("expm_skew unitarity", 1e-10, res))

    # cos^2 + sin^2 = I and sqrt^2 = P on random PSD matrices.
    res = []
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        P = rnd.rand_psd(rng, d, scale=3.0)
        C = matfun_psd(P, "cos", tol)
        S = matfun_psd(P, "sin", tol)
        R = matfun_psd(P, "sqrt", tol)
        res.append(np.linalg.norm(C @ C + S @ S - np.eye(d)))
        res.append(np.linalg.norm(R @ R - P))
    results.append(_check("matfun_psd identities", 1e-10, res))

    # Polar decomposition, including rank-deficient inputs.
    res = []
    for k in range(trials):
        d = int(rng.integers(2, 7))
        Z = rnd.rand_complex(rng, (d, d))
        if k % 3 == 0:
            Z[:, 0] = 0.0  # force a kernel
        P, U = polar(Z)
        res.append(np.linalg.norm(P @ U - Z))
        res.append(np.linalg.norm(U.conj().T @ U - np.eye(d)))
        res.append(max(0.0, -float(np.linalg.eigvalsh(P)[0])))
    results.append(_check("polar reconstruction", 1e-10, res))

    # Kronecker mixed product.
    res = []
    for _ in range(trials):
        A, B, C, D = (rnd.rand_complex(rng, (2, 2)) for _ in range(4))
        res.append(np.linalg.norm(np.kron(A, B) @ np.kron(C, D) - np.kron(A @ C, B @ D)))
    results.append(_check("kron mixed product", 1e-12, res))

    # Haar sampling: unitarity and determinism.
    res = []
    for k in range(trials):
        m = int(rng.integers(1, 7))
        s = int(rng.integers(0, 2**31))
        U = haar_unitary(m, s)
        res.append(np.linalg.norm(U.conj().T @ U - np.eye(m)))
        res.append(float(np.max(np.abs(U - haar_unitary(m, s)))))
    results.append(_check("haar_unitary", 1e-12, res))

    # Single-system chain: closed form vs exponential, the assembled state vs
    # the product of exponentials, spectrum preservation.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        p = rnd.rand_single_params(rng, n)
        U = np.eye(n, dtype=complex)
        for j in range(2, n + 1):
            V = build_Vjn(p.zvecs[j - 2], j)
            E = expm_skew(build_Xj_single(p.zvecs[j - 2], n, j), tol)
            res.append(np.linalg.norm(V - E[:j, :j]))
            U = E @ U
        rho = assemble_rho_single(p, tol)
        res.append(float(np.max(np.abs(rho.mat - (U * p.lambdas) @ U.conj().T))))
        res.append(_spectrum_gap(rho, p.lambdas))
    results.append(_check("single chain", 1e-10, res))

    # Block chain: closed form vs the exponential reference, spectrum
    # preservation, m = 1 reduction.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        p = rnd.rand_block_params(rng, n, m)
        rho_c = assemble_rho_block(p, tol)
        rho_e = _exp_chain(p, tol)
        res.append(_gap(rho_c, rho_e))
        res.append(_spectrum_gap(rho_c, p.lambdas))
    for _ in range(trials):
        # m = 1 with the same z chain and arbitrary local phases (phases
        # conjugate scalars, so they drop out of the core).
        n = int(rng.integers(2, 6))
        ps = rnd.rand_single_params(rng, n)
        phases = tuple(
            np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]) for _ in range(n)
        )
        blockvecs = tuple(z.reshape(-1, 1, 1) for z in ps.zvecs)
        pb = BlockParams(
            n=n, m=1, lambdas=ps.lambdas, local_unitaries=phases, blockvecs=blockvecs
        )
        res.append(_gap(assemble_rho_block(pb, tol), assemble_rho_single(ps, tol)))
    results.append(_check("block chain", 1e-9, res))

    # Partial transpose: involution, spectra across subsystems, product states.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        rho = assemble_rho_block(rnd.rand_block_params(rng, n, m), tol)
        pt2 = partial_transpose(rho, "second")
        pt1 = partial_transpose(rho, "first")
        res.append(float(np.max(np.abs(partial_transpose(pt2, "second", dims=(n, m)) - rho.mat))))
        res.append(
            float(np.max(np.abs(np.linalg.eigvalsh(pt1) - np.linalg.eigvalsh(pt2))))
        )
        rA = rnd.rand_psd(rng, n)
        rA /= np.trace(rA)
        rB = rnd.rand_psd(rng, m)
        rB /= np.trace(rB)
        prod = DensityMatrix(n, m, np.kron(rA, rB), tol)
        res.append(
            float(np.max(np.abs(partial_transpose(prod) - np.kron(rA, rB.T))))
        )
    results.append(_check("partial transpose", 1e-10, res))

    # Family closed forms against the generic block assembly.
    res = []
    for _ in range(trials):
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        beta = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = rnd.rand_simplex(rng, 4)
        pr = rng.uniform(-1 / 3, 1.0)
        iso = np.array([1.0 - pr, 1.0 - pr, 1.0 - pr, 1.0 + 3.0 * pr]) / 4.0
        p1, p2, p3, p4 = p
        Z = SIGMA_X @ np.diag([alpha, beta]).astype(complex)
        res += [
            _gap(pure_P(alpha), _chain_2x2([0.0, 0.0, 0.0, 1.0], alpha * SIGMA_X, tol)),
            _gap(isotropic(pr), _chain_2x2(iso, np.pi / 4 * SIGMA_X, tol)),
            _gap(isotropic_alpha(pr, alpha), _chain_2x2(iso, alpha * SIGMA_X, tol)),
            _gap(circulant_rho(p, alpha, beta), _chain_2x2([p2, p4, p3, p1], Z, tol)),
            _gap(circulant_rho(p, np.pi / 4, np.pi / 4), bell_diagonal(p)),
        ]
    results.append(_check("family closed forms vs chain", 1e-12, res))

    # Analytic circulant PPT conditions against the numerical eigenvalue.
    res = []
    bad = None
    for _ in range(trials):
        p = rnd.rand_simplex(rng, 4)
        alpha = rng.uniform(0.0, np.pi / 2)
        beta = rng.uniform(0.0, np.pi / 2)
        m1, m2 = circulant_ppt_margins(p, alpha, beta)
        if abs(min(m1, m2)) < BOUNDARY_BAND:
            continue  # boundary band: labeled, not adjudicated
        analytic = m1 >= 0 and m2 >= 0
        numeric = ppt_check(circulant_rho(p, alpha, beta), tol).is_ppt
        if analytic != numeric and bad is None:
            bad = {"p": list(p), "alpha": alpha, "beta": beta}
        res.append(0.0 if analytic == numeric else 1.0)
    results.append(_check("circulant analytic vs numeric", 0.5, res, bad))

    # Separable constructors: PSD, classified, PPT.
    res = []
    for k in range(trials):
        m = 2 + (k % 2)
        gamma = rng.uniform(0.0, 2 * np.pi)
        L = rnd.rand_psd(rng, m)
        L /= 2.0 * np.trace(L).real
        rho_t = toeplitz_state(L, np.exp(1j * gamma) * np.eye(m), rnd.rand_psd(rng, m), tol)
        res.append(0.0 if ppt_check(rho_t, tol).is_ppt else 1.0)
        res.append(0.0 if detect_structure(rho_t) in ("block_toeplitz", "block_diagonal") else 1.0)
        W, L1, L2, Xi = _hankel_inputs(rng, m)
        signs = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
        U = (W * signs) @ W.conj().T
        rho_h = hankel_state(U, L1, L2, Xi, tol)
        res.append(0.0 if ppt_check(rho_h, tol).is_ppt else 1.0)
        res.append(
            0.0 if detect_structure(rho_h) in ("block_hankel", "block_diagonal") else 1.0
        )
    results.append(_check("separable constructors PPT", 0.5, res))

    # Rank-m projector class and the nonabelian sphere.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        _, residual, sphere = _class3(rng, n, m, tol)
        res += [residual, 0.0 if sphere else 1.0]
    results.append(_check("rank-m projector class", 1e-10, res))

    return results


def _exp_chain(p, tol=DEFAULT_TOL):
    """The paper's definition of the state of ``p``, the oracle of
    :func:`assemble_rho_block`: ``rho = U D U^dag`` with ``U = A_n ... A_2``,
    ``A_j = exp(X_j)`` of the full generator of level ``j`` (all-zero levels
    skipped), and ``D`` the block-diagonal matrix of the
    ``U_k diag(slice_k) U_k^dag``.  It shares only :func:`build_Xj_block`
    and :func:`expm_skew` with the closed form."""
    n, m = p.n, p.m
    D = np.zeros((n * m, n * m), dtype=complex)
    for k, Uk in enumerate(p.local_unitaries):
        rows = slice(k * m, (k + 1) * m)
        D[rows, rows] = (Uk * p.lambdas[rows]) @ Uk.conj().T
    U = np.eye(n * m, dtype=complex)
    for j, Zs in enumerate(p.blockvecs, start=2):
        if np.any(Zs):
            U = expm_skew(build_Xj_block(Zs, n, j, m), tol) @ U
    rho = U @ D @ U.conj().T
    return DensityMatrix(n, m, (rho + rho.conj().T) / 2.0, tol)


def _hankel_inputs(rng, m):
    """Commuting ``m x m`` Hankel inputs ``(W, L1, L2, Xi)`` in the random eigenbasis ``W``."""
    W = rnd.rand_unitary(rng, m)
    d1 = rng.uniform(0.1, 1.0, m)
    d2 = rng.uniform(0.1, 1.0, m)
    total = d1.sum() + d2.sum()
    L1 = (W * (d1 / total)) @ W.conj().T
    L2 = (W * (d2 / total)) @ W.conj().T
    Xi = (W * rng.uniform(0.2, 1.2, m)) @ W.conj().T
    return W, L1, L2, Xi


def _class3(rng, n, m, tol):
    """A random class-3 state, its idempotence residual ``||(m rho)^2 - m rho||``
    and whether its normalized blocks pass the nonabelian sphere check."""
    Zs = rnd.rand_commuting_normal_blocks(rng, n - 1, m)
    rho = class3_state(n, m, Zs, tol)
    mr = m * rho.mat
    residual = float(np.linalg.norm(mr @ mr - mr))
    Ps = [polar(Zt)[0] for Zt in normalize_blocks(Zs, tol)]
    return rho, residual, nonabelian_sphere_check(Ps)


def _chain_2x2(lambdas, Z, tol):
    """The generic 2 (x) 2 chain with identity local unitaries and block vector ``(Z,)``."""
    eye2 = np.eye(2, dtype=complex)
    return assemble_rho_block(
        BlockParams(n=2, m=2, lambdas=lambdas, local_unitaries=(eye2, eye2), blockvecs=((Z,),)),
        tol,
    )


def serialize_counterexample(result: CheckResult) -> str:
    """JSON blob identifying the first failing instance for replay."""
    payload = {"check": result.name, "worst": result.worst, "bound": result.bound}
    if result.counterexample:
        payload["instance"] = result.counterexample
    return json.dumps(payload, indent=1)


# -- worked examples ---------------------------------------------------------


def _near(label, expected, computed, tolerance):
    """Row: ``computed`` lies within ``tolerance`` of ``expected``."""
    ok = abs(expected - computed) <= tolerance
    return label, ok, (f"{label}: expected {fmt_float(expected)}  computed {fmt_float(computed)}"
                       f"  [{'ok' if ok else 'MISMATCH'}]")


def _flag(label, expected, computed):
    """Row: ``computed`` has the truth value of ``expected``."""
    ok = bool(expected) == bool(computed)
    return label, ok, (f"{label}: expected {expected}  computed {computed}"
                       f"  [{'ok' if ok else 'MISMATCH'}]")


def _projector_rows(rng, tol):
    rho = pure_P(np.pi / 4, tol)
    expected = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
    yield _near("matrix at alpha=pi/4", 0.0, float(np.max(np.abs(rho.mat - expected))), 1e-12)
    yield _near("idempotence", 0.0, float(np.linalg.norm(rho.mat @ rho.mat - rho.mat)), 1e-12)
    yield _near("min PT eigenvalue", -0.5, ppt_check(rho, tol).min_pt_eig, 1e-10)


def _isotropic_rows(rng, tol):
    for p in (0.0, 0.2, 1.0 / 3.0, 0.7, 1.0):
        got = ppt_check(isotropic(p, tol), tol).min_pt_eig
        yield _near(f"min PT eig at p={p:g}", (1.0 - 3.0 * p) / 4.0, got, 1e-12)
    below = ppt_check(isotropic(1.0 / 3.0 - 1e-10, tol), tol).min_pt_eig
    above = ppt_check(isotropic(1.0 / 3.0 + 1e-10, tol), tol).min_pt_eig
    yield _flag("sign(min PT) at p = 1/3 - 1e-10 is +", True, below > 0)
    yield _flag("sign(min PT) at p = 1/3 + 1e-10 is -", True, above < 0)


def _circulant_rows(rng, tol):
    p = (0.125, 0.125, 0.125, 0.625)
    beta = np.pi / 3
    lo = ppt_check(circulant_rho(p, np.pi / 12 - 1e-6, beta, tol), tol)
    hi = ppt_check(circulant_rho(p, np.pi / 12 + 1e-3, beta, tol), tol)
    yield _flag("PPT at alpha = pi/12 - 1e-6", True, lo.is_ppt)
    yield _flag("PPT at alpha = pi/12 + 1e-3", False, hi.is_ppt)
    for beta in np.linspace(0.0, np.pi / 2, 7):
        rep = ppt_check(circulant_rho(p, np.pi / 12, beta, tol), tol)
        yield _flag(f"PPT at alpha = pi/12, beta = {beta:.3f}", True, rep.is_ppt)


def _bell_rows(rng, tol):
    rho = bell_diagonal((0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6), tol)
    yield _near("min PT eig at max p = 1/2", 0.0, ppt_check(rho, tol).min_pt_eig, 1e-12)
    rho = bell_diagonal((0.55, 0.15, 0.15, 0.15), tol)
    yield _near("min PT eig at max p = 0.55", -0.05, ppt_check(rho, tol).min_pt_eig, 1e-12)
    draws = (rnd.rand_simplex(rng, 4) for _ in range(50))
    mismatch = sum((max(p) <= 0.5) != ppt_check(bell_diagonal(p, tol), tol).is_ppt for p in draws)
    yield _near("law mismatches over 50 draws", 0.0, float(mismatch), 0.0)


def _toeplitz_rows(rng, tol):
    L = rnd.rand_psd(rng, 3)
    L /= 2.0 * np.trace(L).real
    U = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(3)
    rho = toeplitz_state(L, U, rnd.rand_psd(rng, 3), tol)
    yield _flag("classified block_toeplitz", True, detect_structure(rho) == "block_toeplitz")
    rep = ppt_check(rho, tol)
    yield _flag(f"PPT (min PT eig {fmt_float(rep.min_pt_eig)})", True, rep.is_ppt)


def _hankel_rows(rng, tol):
    W, L1, L2, Xi = _hankel_inputs(rng, 3)
    rho = hankel_state((W * np.array([1.0, -1.0, 1.0])) @ W.conj().T, L1, L2, Xi, tol)
    yield _flag("classified block_hankel", True, detect_structure(rho) == "block_hankel")
    rep = ppt_check(rho, tol)
    yield _flag(f"PPT (min PT eig {fmt_float(rep.min_pt_eig)})", True, rep.is_ppt)


def _class3_rows(rng, tol):
    rho, residual, sphere = _class3(rng, 3, 2, tol)
    yield _near("idempotence residual", 0.0, residual, 1e-10)
    yield _near("rank", 2.0, float(rho.rank(tol)), 0.0)
    yield _flag("nonabelian sphere", True, sphere)


#: The paper's worked examples, in the order ``reproduce all`` runs them:
#: name -> (title, rows).  ``rows(rng, tol)`` yields ``(label, ok, text)``.
EXAMPLES = {
    "pure_P": ("rank-1 projector family", _projector_rows),
    "isotropic_threshold": ("PPT boundary at p = 1/3", _isotropic_rows),
    "circulant_pi12": ("separable window in alpha at the worked point", _circulant_rows),
    "bell_boundary": ("PPT iff max_k p_k <= 1/2", _bell_rows),
    "toeplitz_demo": ("commuting-family block Toeplitz state", _toeplitz_rows),
    "hankel_demo": ("commuting-family block Hankel state", _hankel_rows),
    "class3_projector": ("conjugated rank-m core is a projector", _class3_rows),
}
