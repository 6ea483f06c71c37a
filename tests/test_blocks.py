import inspect
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmparam import (
    BlockParams,
    DmParamError,
    SingularAngleError,
    assemble_rho_block,
    assemble_rho_single,
    block_angle,
    build_Ajnm,
    build_core,
    build_Vjn,
    build_Vjnm,
    build_Xj_block,
    detect_structure,
    expm_skew,
    haar_unitary,
    normalize_blocks,
)
from dmparam import blocks
from dmparam._random import (
    rand_block_params,
    rand_complex,
    rand_single_params,
    rand_unitary,
)
from dmparam.linalg import UNITARY_TOL
from dmparam.validate import _exp_chain, run_validation

EYE2 = np.eye(2, dtype=complex)


class TestBlockParams:
    def test_valid(self):
        p = rand_block_params(np.random.default_rng(0), 3, 2)
        assert p.n == 3 and p.m == 2
        assert len(p.blockvecs) == 2
        assert len(p.blockvecs[1]) == 2

    def test_rejects_bad_simplex(self):
        with pytest.raises(DmParamError, match="^BlockParams: eigenvalues sum to 2.0, not 1$"):
            BlockParams(2, 2, [0.5, 0.5, 0.5, 0.5], (EYE2, EYE2), ((np.zeros((2, 2)),),))

    def test_rejects_non_unitary(self):
        with pytest.raises(DmParamError, match="^BlockParams: U_2: unitarity deviation"):
            BlockParams(
                2, 2, [0.25] * 4, (EYE2, 2 * EYE2), ((np.zeros((2, 2)),),)
            )

    def test_rejects_wrong_block_count(self):
        with pytest.raises(DmParamError, match="^BlockParams: expected 2 block vectors, got 1$"):
            BlockParams(3, 2, [1 / 6.0] * 6, (EYE2,) * 3, ((np.zeros((2, 2)),),))


# (local unitaries of a 2 (x) 2 core, message after the caller's name)
CORE_FAULTS = {
    "count": ((EYE2,), "expected 2 local unitaries, got 1"),
    "size": ((np.eye(3),) * 2, "U_1 has size 3, expected 2"),
    "deviation": ((EYE2, np.diag([np.sqrt(1.0 + 2 * UNITARY_TOL), 1.0])),
                  "U_2: unitarity deviation"),
}


@pytest.mark.parametrize("case", list(CORE_FAULTS))
def test_block_params_and_build_core_check_the_core_alike(case):
    unitaries, message = CORE_FAULTS[case]
    with pytest.raises(DmParamError, match="^" + re.escape(f"BlockParams: {message}")):
        BlockParams(2, 2, [0.25] * 4, unitaries, ((np.zeros((2, 2)),),))
    with pytest.raises(DmParamError, match="^" + re.escape(f"build_core: {message}")):
        build_core([0.25] * 4, unitaries, 2, 2)


@pytest.mark.parametrize("fn", [build_core, build_Ajnm, detect_structure])
def test_takes_no_tolerance(fn):
    assert not {"tol", "rel_tol"} & set(inspect.signature(fn).parameters)


class TestBlockAngle:
    def test_zero(self):
        assert_allclose(block_angle([np.zeros((3, 3))]), np.zeros((3, 3)), atol=1e-15)

    def test_scaled_unitary(self):
        U = haar_unitary(3, seed=2)
        assert_allclose(block_angle([0.7 * U]), 0.7 * np.eye(3), atol=1e-12)

    def test_square_root_property(self):
        rng = np.random.default_rng(3)
        Zs = [rand_complex(rng, (2, 2)), rand_complex(rng, (2, 2))]
        Xi = block_angle(Zs)
        gram = sum(Z.conj().T @ Z for Z in Zs)
        assert np.linalg.norm(Xi @ Xi - gram) <= 1e-10


class TestNormalizeBlocks:
    def test_scaled_unitary(self):
        U = haar_unitary(2, seed=4)
        (Zt,) = normalize_blocks([1.3 * U])
        assert_allclose(Zt, U, atol=1e-12)

    def test_partition_of_identity(self):
        rng = np.random.default_rng(5)
        Zs = [rand_complex(rng, (3, 3)) for _ in range(2)]
        Zt = normalize_blocks(Zs)
        total = sum(Z.conj().T @ Z for Z in Zt)
        assert np.linalg.norm(total - np.eye(3)) <= 1e-10

    def test_singular_angle_raises(self):
        with pytest.raises(SingularAngleError):
            normalize_blocks([np.diag([1.0, 0.0]).astype(complex)])


class TestBlockGenerator:
    def test_zero(self):
        Zs = [np.zeros((2, 2))]
        assert_allclose(build_Xj_block(Zs, 2, 2, 2), np.zeros((4, 4)))

    def test_placement(self):
        Z = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        X = build_Xj_block([Z], 2, 2, 2)
        assert_allclose(X[:2, 2:], Z)
        assert_allclose(X[2:, :2], -Z.conj().T)

    def test_exactly_skew(self):
        rng = np.random.default_rng(6)
        Zs = [rand_complex(rng, (2, 2)) for _ in range(2)]
        X = build_Xj_block(Zs, 4, 3, 2)
        assert np.linalg.norm(X + X.conj().T) == 0.0


class TestBuildVjnm:
    def test_m1_reduces_to_single(self):
        rng = np.random.default_rng(7)
        for j in (2, 3, 4):
            z = rand_complex(rng, j - 1)
            Zs = [np.array([[w]]) for w in z]
            assert np.max(
                np.abs(build_Vjnm(Zs, j, 1) - build_Vjn(z, j))
            ) <= 1e-12

    def test_scalar_angle_corners(self):
        # Z = alpha * sigma_x: C = cos(alpha) I, S = sin(alpha) I
        alpha = 0.6
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        V = build_Vjnm([alpha * sx], 2, 2)
        c, s = np.cos(alpha), np.sin(alpha)
        assert_allclose(V[:2, :2], c * np.eye(2), atol=1e-12)
        assert_allclose(V[:2, 2:], s * sx, atol=1e-12)
        assert_allclose(V[2:, :2], -s * sx, atol=1e-12)
        assert_allclose(V[2:, 2:], c * np.eye(2), atol=1e-12)

    def test_matches_exponential(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            Zs = [rand_complex(rng, (2, 2)) for _ in range(2)]
            V = build_Vjnm(Zs, 3, 2)
            E = expm_skew(build_Xj_block(Zs, 3, 3, 2))
            assert np.linalg.norm(V - E) <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        Zs = [rand_complex(rng, (3, 3)) for _ in range(2)]
        V = build_Vjnm(Zs, 3, 3)
        assert np.linalg.norm(V.conj().T @ V - np.eye(9)) <= 1e-10

    def test_zero_blocks_give_identity(self):
        assert_allclose(build_Vjnm([np.zeros((2, 2))], 2, 2), np.eye(4))

    def test_singular_angle_raises(self):
        # the name is historical: V_j is unique at a singular angle, so the
        # closed form returns it; only normalize_blocks raises there
        Zs = [np.diag([1.0, 0.0]).astype(complex)]
        E = expm_skew(build_Xj_block(Zs, 2, 2, 2))
        assert np.max(np.abs(build_Vjnm(Zs, 2, 2) - E)) <= 1e-12


class TestBuildAjnm:
    def test_zero_gives_identity_both_methods(self):
        # both: the closed form and the exponential of the generator
        Zs = [np.zeros((2, 2))]
        assert_allclose(build_Ajnm(Zs, 3, 2, 2), np.eye(6))
        assert_allclose(expm_skew(build_Xj_block(Zs, 3, 2, 2)), np.eye(6))

    def test_no_padding_when_j_equals_n(self):
        rng = np.random.default_rng(10)
        Zs = [rand_complex(rng, (2, 2))]
        A = build_Ajnm(Zs, 2, 2, 2)
        assert_allclose(A, build_Vjnm(Zs, 2, 2))

    def test_embedding_pads_identity(self):
        rng = np.random.default_rng(11)
        Zs = [rand_complex(rng, (2, 2))]
        A = build_Ajnm(Zs, 3, 2, 2)
        assert_allclose(A[4:, 4:], np.eye(2))
        assert np.linalg.norm(A[4:, :4]) == 0.0

    def test_closed_vs_exp(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            Zs = [rand_complex(rng, (2, 2)) for _ in range(2)]
            closed = build_Ajnm(Zs, 4, 3, 2)
            exact = expm_skew(build_Xj_block(Zs, 4, 3, 2))
            assert np.max(np.abs(closed - exact)) <= 1e-9

    def test_singular_angle_closed_only(self):
        # the name is historical: closed no longer raises at a singular angle
        Zs = [np.diag([1.0, 0.0]).astype(complex)]
        A = expm_skew(build_Xj_block(Zs, 2, 2, 2))
        assert np.linalg.norm(A.conj().T @ A - np.eye(4)) <= 1e-10
        assert np.max(np.abs(build_Ajnm(Zs, 2, 2, 2) - A)) <= 1e-12


class TestBuildCore:
    def test_identity_unitaries(self):
        lambdas = [0.1, 0.2, 0.3, 0.4]
        core = build_core(lambdas, (EYE2, EYE2), 2, 2)
        assert core.shape == (2, 2, 2) and not core.flags.writeable
        assert_allclose(core[0], np.diag([0.1, 0.2]))
        assert_allclose(core[1], np.diag([0.3, 0.4]))

    def test_m1_scalars(self):
        ones = tuple(np.array([[1.0]], dtype=complex) for _ in range(3))
        core = build_core([0.5, 0.3, 0.2], ones, 3, 1)
        assert_allclose(core[:, 0, 0], [0.5, 0.3, 0.2])

    def test_isotropic_core(self):
        # slices ((1-p)/4, (1-p)/4) and ((1-p)/4, (1+3p)/4); diagonal U_2 is
        # absorbed without effect
        p = 0.4
        lam = np.array([1 - p, 1 - p, 1 - p, 1 + 3 * p]) / 4.0
        U2 = np.diag(np.exp(1j * np.array([0.3, 1.1])))
        core = build_core(lam, (EYE2, U2), 2, 2)
        assert_allclose(core[0], np.diag([1 - p, 1 - p]) / 4.0, atol=1e-15)
        assert_allclose(core[1], np.diag([1 - p, 1 + 3 * p]) / 4.0, atol=1e-15)

    def test_trace_validation(self):
        with pytest.raises(DmParamError, match="^build_core: eigenvalues sum to 1.2, not 1$"):
            build_core([0.3, 0.3, 0.3, 0.3], (EYE2, EYE2), 2, 2)


class TestAssembleBlock:
    def test_zero_blockvecs_block_diagonal(self):
        rng = np.random.default_rng(13)
        U1, U2 = rand_unitary(rng, 2), rand_unitary(rng, 2)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        p = BlockParams(2, 2, lam, (U1, U2), ((np.zeros((2, 2)),),))
        rho = assemble_rho_block(p)
        core = build_core(lam, (U1, U2), 2, 2)
        assert np.linalg.norm(rho.mat[:2, 2:]) <= 1e-15
        assert_allclose(rho.mat[:2, :2], core[0], atol=1e-14)
        assert_allclose(rho.mat[2:, 2:], core[1], atol=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_spectrum_preserved(self, n, m):
        rng = np.random.default_rng(100 + n * 10 + m)
        for _ in range(10):
            p = rand_block_params(rng, n, m)
            rho = assemble_rho_block(p)
            assert np.max(np.abs(np.sort(rho.eigenvalues) - np.sort(p.lambdas))) <= 1e-10

    def test_dual_path_agreement(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = rand_block_params(rng, 3, 2)
            closed = assemble_rho_block(p)
            exact = _exp_chain(p)
            assert np.max(np.abs(closed.mat - exact.mat)) <= 1e-9

    def test_m1_reduction(self):
        rng = np.random.default_rng(15)
        for n in range(2, 6):
            ps = rand_single_params(rng, n)
            phases = tuple(
                np.array([[np.exp(1j * rng.uniform(0, 2 * np.pi))]]) for _ in range(n)
            )
            blockvecs = tuple(
                tuple(np.array([[w]]) for w in ps.zvecs[j - 2]) for j in range(2, n + 1)
            )
            pb = BlockParams(n, 1, ps.lambdas, phases, blockvecs)
            gap = np.max(
                np.abs(assemble_rho_block(pb).mat - assemble_rho_single(ps).mat)
            )
            assert gap <= 1e-12

    def test_state_validity(self):
        rng = np.random.default_rng(16)
        p = rand_block_params(rng, 3, 3)
        rho = assemble_rho_block(p)
        assert np.linalg.norm(rho.mat - rho.mat.conj().T) <= 1e-12
        assert rho.eigenvalues[0] >= -1e-10
        assert abs(np.trace(rho.mat) - 1.0) <= 1e-10


def test_block_chain_invariant_sees_a_wrong_side_core(monkeypatch):
    # the reference builds its core apart from blocks._frame, so conjugating
    # on the wrong side there moves the closed form off the paper's definition
    real = blocks._frame
    monkeypatch.setattr(blocks, "_frame", lambda U, unitaries: real(
        U, tuple(Uk.conj().T for Uk in unitaries)))
    results = {r.name: r for r in run_validation(seed=3, trials=5)}
    assert not results["block chain"].ok
