"""Randomized self-validation: every library invariant on fresh random inputs.

:func:`run_validation` draws ``trials`` random instances per invariant
family from a seeded generator and reports the worst residual observed.
The report is a deterministic function of ``(seed, trials)``.
"""

from __future__ import annotations

import json

import numpy as np

from . import _random as rnd
from .blocks import BlockParams, assemble_rho_block, normalize_blocks
from .entanglement import (
    circulant_ppt_margins,
    detect_structure,
    partial_transpose,
    ppt_check,
)
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
from .io import matrix_to_nested
from .linalg import (
    DEFAULT_TOL,
    expm_skew,
    haar_unitary,
    herm_eig,
    kron,
    matfun_psd,
    polar,
)
from .single import assemble_rho_single, build_Vjn, build_Xj_single
from .states import DensityMatrix

__all__ = ["run_validation", "CheckResult"]


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


def _check(name, bound, residuals, counterexample=None):
    worst = max(residuals) if residuals else 0.0
    return CheckResult(name, worst <= bound, worst, bound, counterexample)


def run_validation(seed: int, trials: int, tol=DEFAULT_TOL):
    """Run every invariant family; returns a list of :class:`CheckResult`."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    results = []

    # Hermitian eigendecomposition round trip, dims 2..8.
    res = []
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        H = rnd.rand_hermitian(rng, d)
        sp = herm_eig(H, tol)
        res.append(
            np.linalg.norm((sp.eigenvectors * sp.eigenvalues) @ sp.eigenvectors.conj().T - H)
        )
    results.append(_check("herm_eig reconstruction", tol.tol_recon * 10, res))

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
        P, U = polar(Z, tol)
        res.append(np.linalg.norm(P @ U - Z))
        res.append(np.linalg.norm(U.conj().T @ U - np.eye(d)))
        res.append(max(0.0, -float(np.linalg.eigvalsh(P)[0])))
    results.append(_check("polar reconstruction", 1e-10, res))

    # Kronecker mixed product.
    res = []
    for _ in range(trials):
        A, B, C, D = (rnd.rand_complex(rng, (2, 2)) for _ in range(4))
        res.append(np.linalg.norm(kron(A, B) @ kron(C, D) - kron(A @ C, B @ D)))
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

    # Single-system chain: closed form vs exponential, spectrum preservation.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        p = rnd.rand_single_params(rng, n)
        for j in range(2, n + 1):
            V = build_Vjn(p.zvecs[j - 2], j, tol)
            E = expm_skew(build_Xj_single(p.zvecs[j - 2], n, j), tol)
            res.append(np.linalg.norm(V - E[:j, :j]))
        rho = assemble_rho_single(p, tol)
        res.append(_spectrum_gap(rho, p.lambdas))
    results.append(_check("single chain", 1e-10, res))

    # Block chain: dual path, spectrum preservation, m = 1 reduction.
    res = []
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        p = rnd.rand_block_params(rng, n, m)
        rho_c = assemble_rho_block(p, tol, method="closed")
        rho_e = assemble_rho_block(p, tol, method="exp")
        res.append(float(np.max(np.abs(rho_c.mat - rho_e.mat))))
        res.append(_spectrum_gap(rho_c, p.lambdas))
    for _ in range(trials):
        # m = 1 with the same z chain and arbitrary local phases (phases
        # conjugate scalars, so they drop out of the core).
        n = int(rng.integers(2, 6))
        ps = rnd.rand_single_params(rng, n)
        phases = tuple(
            np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]) for _ in range(n)
        )
        blockvecs = tuple(
            tuple(np.array([[w]]) for w in ps.zvecs[j - 2]) for j in range(2, n + 1)
        )
        pb = BlockParams(
            n=n, m=1, lambdas=ps.lambdas, local_unitaries=phases, blockvecs=blockvecs
        )
        res.append(
            float(np.max(np.abs(assemble_rho_block(pb, tol).mat
                                - assemble_rho_single(ps, tol).mat)))
        )
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
        prod = DensityMatrix(n, m, kron(rA, rB), tol)
        res.append(
            float(np.max(np.abs(partial_transpose(prod) - kron(rA, rB.T))))
        )
    results.append(_check("partial transpose", 1e-10, res))

    # Family closed forms against the generic block assembly.
    res = []
    for _ in range(trials):
        alpha = rng.uniform(0.05, np.pi / 2 - 0.05)
        beta = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = rnd.rand_simplex(rng, 4)
        res.append(float(np.max(np.abs(pure_P(alpha).mat - _chain_pure(alpha, tol).mat))))
        pr = rng.uniform(-1 / 3, 1.0)
        res.append(float(np.max(np.abs(isotropic(pr).mat - _chain_isotropic(pr, np.pi / 4, tol).mat))))
        res.append(
            float(np.max(np.abs(isotropic_alpha(pr, alpha).mat - _chain_isotropic(pr, alpha, tol).mat)))
        )
        res.append(
            float(np.max(np.abs(circulant_rho(p, alpha, beta).mat - _chain_circulant(p, alpha, beta, tol).mat)))
        )
        res.append(
            float(np.max(np.abs(circulant_rho(p, np.pi / 4, np.pi / 4).mat - bell_diagonal(p).mat)))
        )
    results.append(_check("family closed forms vs chain", 1e-12, res))

    # Analytic circulant PPT conditions against the numerical eigenvalue.
    res = []
    bad = None
    for _ in range(trials):
        p = rnd.rand_simplex(rng, 4)
        alpha = rng.uniform(0.0, np.pi / 2)
        beta = rng.uniform(0.0, np.pi / 2)
        m1, m2 = circulant_ppt_margins(p, alpha, beta)
        if abs(min(m1, m2)) < 1e-9:
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
        W = rnd.rand_unitary(rng, m)
        d1 = rng.uniform(0.1, 1.0, m)
        d2 = rng.uniform(0.1, 1.0, m)
        total = d1.sum() + d2.sum()
        L1 = (W * (d1 / total)) @ W.conj().T
        L2 = (W * (d2 / total)) @ W.conj().T
        Xi = (W * rng.uniform(0.2, 1.2, m)) @ W.conj().T
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
        Zs = rnd.rand_commuting_normal_blocks(rng, n - 1, m)
        rho = class3_state(n, m, Zs, tol)
        mr = m * rho.mat
        res.append(np.linalg.norm(mr @ mr - mr))
        Ps = [polar(Zt, tol)[0] for Zt in normalize_blocks(Zs, tol)]
        res.append(0.0 if nonabelian_sphere_check(Ps, tol) else 1.0)
    results.append(_check("rank-m projector class", 1e-10, res))

    return results


def _chain_pure(alpha, tol):
    eye2 = np.eye(2, dtype=complex)
    return assemble_rho_block(
        BlockParams(
            n=2, m=2, lambdas=np.array([0.0, 0.0, 0.0, 1.0]),
            local_unitaries=(eye2, eye2),
            blockvecs=((alpha * SIGMA_X,),),
        ),
        tol,
    )


def _chain_isotropic(p, alpha, tol):
    eye2 = np.eye(2, dtype=complex)
    lambdas = np.array([1.0 - p, 1.0 - p, 1.0 - p, 1.0 + 3.0 * p]) / 4.0
    return assemble_rho_block(
        BlockParams(
            n=2, m=2, lambdas=lambdas, local_unitaries=(eye2, eye2),
            blockvecs=((alpha * SIGMA_X,),),
        ),
        tol,
    )


def _chain_circulant(p, alpha, beta, tol):
    p1, p2, p3, p4 = p
    eye2 = np.eye(2, dtype=complex)
    Z = SIGMA_X @ np.diag([alpha, beta]).astype(complex)
    return assemble_rho_block(
        BlockParams(
            n=2, m=2, lambdas=np.array([p2, p4, p3, p1]),
            local_unitaries=(eye2, eye2), blockvecs=((Z,),),
        ),
        tol,
    )


def serialize_counterexample(result: CheckResult) -> str:
    """JSON blob identifying the first failing instance for replay."""
    payload = {"check": result.name, "worst": result.worst, "bound": result.bound}
    if result.counterexample:
        data = {}
        for key, value in result.counterexample.items():
            if isinstance(value, np.ndarray):
                data[key] = matrix_to_nested(value)
            else:
                data[key] = value
        payload["instance"] = data
    return json.dumps(payload, indent=1)
