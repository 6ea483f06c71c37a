import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmparam import (
    SIGMA_X,
    BlockParams,
    DmParamError,
    FamilySpec,
    NotPsdError,
    assemble_rho_block,
    bell_diagonal,
    build_family,
    circulant_rho,
    class3_state,
    detect_structure,
    hankel_state,
    isotropic,
    isotropic_alpha,
    nonabelian_bloch,
    nonabelian_sphere_check,
    normalize_blocks,
    polar,
    ppt_check,
    pure_P,
    sep_threshold,
    toeplitz_state,
    two_by_m,
)
from dmparam._random import (
    rand_commuting_normal_blocks,
    rand_complex,
    rand_psd,
    rand_simplex,
    rand_unitary,
)

EYE2 = np.eye(2, dtype=complex)


def _chain(lambdas, Z2):
    p = BlockParams(2, 2, np.asarray(lambdas, float), (EYE2, EYE2), ((Z2,),))
    return assemble_rho_block(p)


class TestPureP:
    def test_alpha_zero(self):
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert_allclose(pure_P(0.0).mat, expected, atol=1e-15)

    def test_projector(self):
        for alpha in np.linspace(0.0, np.pi / 2, 9):
            rho = pure_P(alpha)
            assert np.linalg.norm(rho.mat @ rho.mat - rho.mat) <= 1e-12

    def test_equals_chain(self):
        # core (0,0,0,1) with angle alpha and unitary sigma_x
        for alpha in (0.2, np.pi / 4, 1.3):
            rho = pure_P(alpha)
            chain = _chain([0, 0, 0, 1.0], alpha * SIGMA_X)
            assert np.max(np.abs(rho.mat - chain.mat)) <= 1e-12

    def test_max_entangled_pt(self):
        assert ppt_check(pure_P(np.pi / 4)).min_pt_eig == pytest.approx(-0.5, abs=1e-12)


class TestIsotropic:
    def test_maximally_mixed(self):
        assert_allclose(isotropic(0.0).mat, np.eye(4) / 4.0, atol=1e-15)

    def test_p_one_is_pure(self):
        assert np.max(np.abs(isotropic(1.0).mat - pure_P(np.pi / 4).mat)) <= 1e-15

    def test_diagonal_at_p02(self):
        assert_allclose(np.diag(isotropic(0.2).mat).real, [0.3, 0.2, 0.2, 0.3])

    def test_equals_chain(self):
        for p in (-1 / 3, -0.1, 0.0, 0.4, 1.0):
            lam = np.array([1 - p, 1 - p, 1 - p, 1 + 3 * p]) / 4.0
            chain = _chain(lam, (np.pi / 4) * SIGMA_X)
            assert np.max(np.abs(isotropic(p).mat - chain.mat)) <= 1e-12

    def test_boundary(self):
        assert abs(ppt_check(isotropic(1.0 / 3.0)).min_pt_eig) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(DmParamError, match=r"^isotropic: p = 1.2 outside \[-1/3, 1\]$"):
            isotropic(1.2)
        with pytest.raises(DmParamError, match=r"^isotropic: p = -0.4 outside \[-1/3, 1\]$"):
            isotropic(-0.4)


class TestIsotropicAlpha:
    def test_reduces_to_isotropic(self):
        for p in (-0.2, 0.3, 0.9):
            gap = np.max(
                np.abs(isotropic_alpha(p, np.pi / 4).mat - isotropic(p).mat)
            )
            assert gap <= 1e-15

    def test_p_zero_maximally_mixed(self):
        assert_allclose(isotropic_alpha(0.0, 0.7).mat, np.eye(4) / 4.0, atol=1e-15)

    def test_equals_chain(self):
        for p, alpha in ((0.5, 0.3), (0.9, 1.2), (-0.2, 0.8)):
            lam = np.array([1 - p, 1 - p, 1 - p, 1 + 3 * p]) / 4.0
            chain = _chain(lam, alpha * SIGMA_X)
            assert np.max(np.abs(isotropic_alpha(p, alpha).mat - chain.mat)) <= 1e-12

    def test_threshold_is_pt_boundary(self):
        alpha = np.pi / 8
        p_star = sep_threshold(alpha)
        assert abs(ppt_check(isotropic_alpha(p_star, alpha)).min_pt_eig) <= 1e-10

    def test_rejects_non_state(self):
        with pytest.raises(NotPsdError):
            isotropic_alpha(1.2, 0.5)


class TestCirculant:
    def test_bell_reduction(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = rand_simplex(rng, 4)
            gap = np.max(
                np.abs(circulant_rho(p, np.pi / 4, np.pi / 4).mat - bell_diagonal(p).mat)
            )
            assert gap <= 1e-15

    def test_zero_angles_block_diagonal(self):
        # S = 0 leaves the bare core diag(Lambda_1, Lambda_2)
        p = (0.1, 0.2, 0.3, 0.4)
        rho = circulant_rho(p, 0.0, 0.0)
        assert_allclose(rho.mat, np.diag([0.2, 0.4, 0.3, 0.1]), atol=1e-15)
        assert detect_structure(rho) == "block_diagonal"

    def test_equals_chain(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = rand_simplex(rng, 4)
            alpha, beta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
            Z2 = SIGMA_X @ np.diag([alpha, beta]).astype(complex)
            p1, p2, p3, p4 = p
            chain = _chain([p2, p4, p3, p1], Z2)
            assert np.max(np.abs(circulant_rho(p, alpha, beta).mat - chain.mat)) <= 1e-12

    def test_spectrum_is_p(self):
        p = (0.4, 0.3, 0.2, 0.1)
        rho = circulant_rho(p, 0.7, 0.3)
        assert_allclose(np.sort(rho.eigenvalues), np.sort(p), atol=1e-12)


class TestBellDiagonal:
    def test_bell_projector(self):
        rho = bell_diagonal((1.0, 0.0, 0.0, 0.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        assert_allclose(rho.mat, expected, atol=1e-15)
        assert not ppt_check(rho).is_ppt

    def test_uniform_is_maximally_mixed(self):
        assert_allclose(bell_diagonal([0.25] * 4).mat, np.eye(4) / 4.0, atol=1e-15)

    def test_worked_entangled_point(self):
        assert not ppt_check(bell_diagonal((0.125, 0.125, 0.125, 0.625))).is_ppt

    def test_half_law(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rand_simplex(rng, 4)
            assert ppt_check(bell_diagonal(p)).is_ppt == (max(p) <= 0.5)


class TestTwoByM:
    @staticmethod
    def _inputs(rng, m):
        U = rand_unitary(rng, m)
        L1 = rand_psd(rng, m)
        L2 = rand_psd(rng, m)
        tr = (np.trace(L1) + np.trace(L2)).real
        return U, L1 / tr, L2 / tr, rand_psd(rng, m)

    def test_zero_angle_block_diagonal(self):
        rng = np.random.default_rng(3)
        U, L1, L2, _ = self._inputs(rng, 3)
        rho = two_by_m(U, L1, L2, np.zeros((3, 3)))
        assert_allclose(rho.mat[:3, :3], L1, atol=1e-12)
        assert_allclose(rho.mat[3:, 3:], L2, atol=1e-12)
        assert np.linalg.norm(rho.mat[:3, 3:]) <= 1e-12

    def test_half_pi_angle_swaps(self):
        rng = np.random.default_rng(4)
        U, L1, L2, _ = self._inputs(rng, 2)
        rho = two_by_m(U, L1, L2, (np.pi / 2) * np.eye(2))
        assert_allclose(rho.mat[:2, :2], U @ L2 @ U.conj().T, atol=1e-12)
        assert_allclose(rho.mat[2:, 2:], U.conj().T @ L1 @ U, atol=1e-12)

    def test_pure_inputs_reproduce_projector_family(self):
        for alpha in (0.4, 1.0):
            rho = two_by_m(
                SIGMA_X, np.zeros((2, 2)), np.diag([0.0, 1.0]), alpha * np.eye(2)
            )
            assert np.max(np.abs(rho.mat - pure_P(alpha).mat)) <= 1e-12

    def test_equals_chain(self):
        rng = np.random.default_rng(5)
        for m in (2, 3):
            U, L1, L2, Xi = self._inputs(rng, m)
            rho = two_by_m(U, L1, L2, Xi)
            w1, V1 = np.linalg.eigh(L1)
            w2, V2 = np.linalg.eigh(L2)
            p = BlockParams(
                2, m, np.concatenate([w1, w2]), (V1, V2), ((U @ Xi,),)
            )
            assert np.max(np.abs(rho.mat - assemble_rho_block(p).mat)) <= 1e-10

    def test_validation(self):
        rng = np.random.default_rng(6)
        U, L1, L2, Xi = self._inputs(rng, 2)
        with pytest.raises(DmParamError, match="^two_by_m: U: unitarity deviation"):
            two_by_m(2 * U, L1, L2, Xi)
        with pytest.raises(DmParamError, match=r"^two_by_m: Tr\(L1 \+ L2\) = .+, not 1$"):
            two_by_m(U, 2 * L1, L2, Xi)
        with pytest.raises(NotPsdError):
            two_by_m(U, L1 - 0.5 * np.eye(2), L2, Xi)


class TestToeplitz:
    def test_diagonal_inputs_degenerate(self):
        # fully commuting data: off-diagonal block vanishes
        L = np.diag([0.3, 0.2])
        rho = toeplitz_state(L, np.eye(2), np.diag([0.4, 0.9]))
        assert detect_structure(rho) == "block_diagonal"
        assert ppt_check(rho).is_ppt

    def test_noncommuting_L_U_rejected(self):
        rng = np.random.default_rng(7)
        L = rand_psd(rng, 2)
        L /= 2 * np.trace(L).real
        with pytest.raises(DmParamError, match=r"^condition '\[L, U\] = 0' violated: residual "):
            toeplitz_state(L, rand_unitary(rng, 2), rand_psd(rng, 2))

    def test_scalar_phase_family(self):
        rng = np.random.default_rng(8)
        for m in (2, 3):
            L = rand_psd(rng, m)
            L /= 2 * np.trace(L).real
            U = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(m)
            rho = toeplitz_state(L, U, rand_psd(rng, m))
            assert detect_structure(rho) == "block_toeplitz"
            assert ppt_check(rho).is_ppt


class TestHankel:
    @staticmethod
    def _inputs(rng, m):
        W = rand_unitary(rng, m)
        d1 = rng.uniform(0.1, 1.0, m)
        d2 = rng.uniform(0.1, 1.0, m)
        total = d1.sum() + d2.sum()
        L1 = (W * (d1 / total)) @ W.conj().T
        L2 = (W * (d2 / total)) @ W.conj().T
        Xi = (W * rng.uniform(0.2, 1.2, m)) @ W.conj().T
        signs = np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)
        U = (W * signs) @ W.conj().T
        return U, L1, L2, Xi

    def test_identity_unitary_diagonal_inputs(self):
        L1 = np.diag([0.4, 0.1])
        L2 = np.diag([0.2, 0.3])
        Xi = np.diag([0.5, 1.1])
        rho = hankel_state(np.eye(2), L1, L2, Xi)
        X = rho.mat[:2, 2:]
        assert np.linalg.norm(X - X.conj().T) <= 1e-14
        assert detect_structure(rho) == "block_hankel"

    def test_equal_cores_degenerate_to_diagonal(self):
        L = np.diag([0.25, 0.25])
        rho = hankel_state(np.eye(2), L, L, np.diag([0.3, 0.8]))
        assert detect_structure(rho) == "block_diagonal"

    def test_random_commuting_family(self):
        rng = np.random.default_rng(9)
        for m in (2, 3):
            U, L1, L2, Xi = self._inputs(rng, m)
            rho = hankel_state(U, L1, L2, Xi)
            assert detect_structure(rho) in ("block_hankel", "block_diagonal")
            assert ppt_check(rho).is_ppt

    def test_condition_violation(self):
        rng = np.random.default_rng(10)
        L1 = rand_psd(rng, 2)
        L2 = rand_psd(rng, 2)
        total = (np.trace(L1) + np.trace(L2)).real
        with pytest.raises(
            DmParamError, match=r"^condition '\[U\^dag L1 U, Xi2\] = 0' violated: residual "
        ):
            hankel_state(np.eye(2), L1 / total, L2 / total, rand_psd(rng, 2))


class TestClass3:
    def test_projector_normal_blocks(self):
        rng = np.random.default_rng(11)
        for n, m in ((2, 2), (3, 2), (3, 3)):
            Zs = rand_commuting_normal_blocks(rng, n - 1, m)
            rho = class3_state(n, m, Zs)
            mr = m * rho.mat
            assert np.linalg.norm(mr @ mr - mr) <= 1e-10
            assert rho.rank() == m

    def test_m1_reduction_is_pure(self):
        rng = np.random.default_rng(12)
        Zs = [np.array([[rand_complex(rng, ())]]) for _ in range(2)]
        rho = class3_state(3, 1, Zs)
        assert np.linalg.norm(rho.mat @ rho.mat - rho.mat) <= 1e-12
        assert rho.rank() == 1

    def test_sphere_from_polar_parts(self):
        rng = np.random.default_rng(13)
        Zs = rand_commuting_normal_blocks(rng, 2, 3)
        Ps = [polar(Zt)[0] for Zt in normalize_blocks(Zs)]
        assert nonabelian_sphere_check(Ps)

    def test_zero_blocks(self):
        rho = class3_state(2, 2, [np.zeros((2, 2))])
        assert_allclose(rho.mat, np.diag([0, 0, 0.5, 0.5]), atol=1e-15)

    def test_rejects_wrong_block_count(self):
        with pytest.raises(DmParamError, match="^class3_state: expected 2 blocks, got 1$"):
            class3_state(3, 2, [np.zeros((2, 2))])
        with pytest.raises(DmParamError, match="^class3_state: expected 1 blocks, got 0$"):
            class3_state(2, 2, [])

    def test_names_itself_for_a_bad_block(self):
        with pytest.raises(DmParamError, match="^class3_state: block 0 has size 2"):
            class3_state(2, 3, [np.eye(2)])


class TestNonabelianBloch:
    def test_zero_angle(self):
        U = np.eye(3, dtype=complex)
        rho = nonabelian_bloch(U, np.zeros((3, 3)))
        expected = np.zeros((6, 6))
        expected[3:, 3:] = np.eye(3) / 3.0
        assert_allclose(rho.mat, expected, atol=1e-15)

    def test_m1_is_bloch_pure_state(self):
        phi, theta = 0.9, 0.6
        rho = nonabelian_bloch(
            np.array([[np.exp(1j * phi)]]), np.array([[theta]])
        )
        s, c = np.sin(theta), np.cos(theta)
        psi = np.array([s * np.exp(1j * phi), c])
        assert_allclose(rho.mat, np.outer(psi, psi.conj()), atol=1e-14)

    def test_quarter_pi_identity_angle(self):
        m = 2
        rho = nonabelian_bloch(np.eye(m), (np.pi / 4) * np.eye(m))
        assert_allclose(rho.mat, np.kron(np.ones((2, 2)) / 2.0, np.eye(m)) / m, atol=1e-12)
        mr = m * rho.mat
        assert np.linalg.norm(mr @ mr - mr) <= 1e-12

    def test_equals_class3(self):
        rng = np.random.default_rng(14)
        for m in (2, 3):
            U = rand_unitary(rng, m)
            Xi = rand_psd(rng, m)
            gap = np.max(
                np.abs(nonabelian_bloch(U, Xi).mat - class3_state(2, m, [U @ Xi]).mat)
            )
            assert gap <= 1e-10


class TestSphereCheck:
    def test_single_identity(self):
        assert nonabelian_sphere_check([np.eye(3)])

    def test_two_equal(self):
        assert nonabelian_sphere_check([np.eye(2) / np.sqrt(2)] * 2)

    def test_failure(self):
        assert not nonabelian_sphere_check([np.eye(2) * 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(DmParamError, match="^nonabelian_sphere_check: blocks must share"):
            nonabelian_sphere_check([np.eye(2), np.eye(3)])


class TestFamilySpec:
    def test_dispatch_roundtrip(self):
        rho = build_family(FamilySpec("isotropic", {"p": 0.2}))
        assert_allclose(np.diag(rho.mat).real, [0.3, 0.2, 0.2, 0.3])

    def test_unknown_kind(self):
        with pytest.raises(DmParamError, match="^unknown family kind 'werner'; known: "):
            FamilySpec("werner", {"p": 0.1})

    def test_missing_params(self):
        with pytest.raises(
            DmParamError, match=r"^family 'isotropic_alpha' is missing parameters \['alpha'\]$"
        ):
            FamilySpec("isotropic_alpha", {"p": 0.1})
