import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmparam import (
    DensityMatrix,
    DmParamError,
    assemble_rho_block,
    bell_diagonal,
    circulant_conditions,
    circulant_ppt_margins,
    circulant_rho,
    detect_structure,
    hankel_state,
    isotropic,
    partial_transpose,
    ppt_check,
    pure_P,
    toeplitz_state,
)
from dmparam._random import rand_block_params, rand_psd, rand_simplex, rand_unitary


class TestPartialTranspose:
    def test_known_4x4(self):
        # hand-checked entry permutations of a 2x2 grid of 2x2 blocks
        mat = np.arange(16.0).reshape(4, 4)
        pt2 = partial_transpose(mat, "second", dims=(2, 2))
        assert_allclose(
            pt2,
            [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]],
        )
        pt1 = partial_transpose(mat, "first", dims=(2, 2))
        assert_allclose(
            pt1,
            [[0, 1, 8, 9], [4, 5, 12, 13], [2, 3, 10, 11], [6, 7, 14, 15]],
        )

    def test_involution(self):
        rng = np.random.default_rng(0)
        rho = assemble_rho_block(rand_block_params(rng, 3, 2))
        for sub in ("first", "second"):
            pt = partial_transpose(rho, sub)
            back = partial_transpose(pt, sub, dims=(3, 2))
            assert np.max(np.abs(back - rho.mat)) <= 1e-14

    def test_subsystem_spectra_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = assemble_rho_block(rand_block_params(rng, 2, 3))
            w1 = np.linalg.eigvalsh(partial_transpose(rho, "first"))
            w2 = np.linalg.eigvalsh(partial_transpose(rho, "second"))
            assert np.max(np.abs(w1 - w2)) <= 1e-10

    def test_product_state(self):
        rng = np.random.default_rng(2)
        rA = rand_psd(rng, 2)
        rA /= np.trace(rA)
        rB = rand_psd(rng, 3)
        rB /= np.trace(rB)
        rho = DensityMatrix(2, 3, np.kron(rA, rB))
        pt = partial_transpose(rho)
        assert_allclose(pt, np.kron(rA, rB.T), atol=1e-14)
        assert np.linalg.eigvalsh(pt)[0] >= -1e-12  # PT of a product state stays PSD

    def test_isotropic_pt_spectrum(self):
        p = 0.5
        pt = partial_transpose(isotropic(p))
        expected = np.sort([(1 + p) / 4] * 3 + [(1 - 3 * p) / 4])
        assert_allclose(np.linalg.eigvalsh(pt), expected, atol=1e-12)

    def test_requires_dims_for_plain_arrays(self):
        with pytest.raises(DmParamError, match="^plain matrices need explicit dims"):
            partial_transpose(np.eye(4))

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(
            DmParamError, match="^subsystem must be 'first' or 'second', got 'third'$"
        ):
            partial_transpose(np.eye(4), "third", dims=(2, 2))


class TestPptCheck:
    def test_maximally_mixed(self):
        rho = DensityMatrix(3, 3, np.eye(9) / 9.0)
        rep = ppt_check(rho)
        assert rep.is_ppt
        assert rep.min_pt_eig == pytest.approx(1.0 / 9.0)

    def test_maximally_entangled(self):
        rep = ppt_check(pure_P(np.pi / 4))
        assert not rep.is_ppt
        assert rep.min_pt_eig == pytest.approx(-0.5, abs=1e-12)

    def test_isotropic_boundary(self):
        rep = ppt_check(isotropic(1.0 / 3.0))
        assert rep.is_ppt
        assert abs(rep.min_pt_eig) <= 1e-12

    def test_pure_family_min_pt(self):
        for alpha in np.linspace(0.0, np.pi / 2, 17):
            rep = ppt_check(pure_P(alpha))
            assert abs(rep.min_pt_eig + np.sin(alpha) * np.cos(alpha)) <= 1e-10


class TestCirculantConditions:
    def test_bell_entangled_point(self):
        p = (0.125, 0.125, 0.125, 0.625)
        assert not circulant_conditions(p, np.pi / 4, np.pi / 4)

    def test_small_alpha_separable(self):
        p = (0.125, 0.125, 0.125, 0.625)
        for beta in np.linspace(0.0, np.pi / 2, 9):
            assert circulant_conditions(p, np.pi / 12, beta)
            assert circulant_conditions(p, np.pi / 24, beta)

    def test_zero_angles_always_true(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert circulant_conditions(rand_simplex(rng, 4), 0.0, 0.0)

    def test_agreement_with_numeric(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rand_simplex(rng, 4)
            for alpha in np.linspace(0.0, np.pi / 2, 8):
                for beta in np.linspace(0.0, np.pi / 2, 8):
                    m1, m2 = circulant_ppt_margins(p, alpha, beta)
                    if abs(min(m1, m2)) < 1e-9:
                        continue
                    assert circulant_conditions(p, alpha, beta) == ppt_check(
                        circulant_rho(p, alpha, beta)
                    ).is_ppt

    def test_rejects_bad_simplex(self):
        with pytest.raises(DmParamError, match="eigenvalues sum to 2.0, not 1$"):
            circulant_conditions((0.5, 0.5, 0.5, 0.5), 0.1, 0.1)

    def test_rejects_bad_angles(self):
        with pytest.raises(DmParamError, match=r"^alpha = -0.2 outside \[0, pi/2\]$"):
            circulant_conditions((0.25,) * 4, -0.2, 0.1)
        with pytest.raises(DmParamError, match=r"^beta = 2.0 outside \[0, pi/2\]$"):
            circulant_conditions((0.25,) * 4, 0.1, 2.0)


class TestDetectStructure:
    def test_block_diagonal(self):
        rho = DensityMatrix(2, 2, np.diag([0.3, 0.2, 0.4, 0.1]))
        assert detect_structure(rho) == "block_diagonal"

    def test_toeplitz_output(self):
        rng = np.random.default_rng(5)
        L = rand_psd(rng, 2)
        L /= 2 * np.trace(L).real
        U = np.exp(0.4j) * np.eye(2)
        rho = toeplitz_state(L, U, rand_psd(rng, 2))
        assert detect_structure(rho) == "block_toeplitz"

    def test_hankel_output(self):
        rng = np.random.default_rng(6)
        W = rand_unitary(rng, 2)
        d1 = rng.uniform(0.1, 1.0, 2)
        d2 = rng.uniform(0.1, 1.0, 2)
        total = d1.sum() + d2.sum()
        L1 = (W * (d1 / total)) @ W.conj().T
        L2 = (W * (d2 / total)) @ W.conj().T
        Xi = (W * rng.uniform(0.2, 1.2, 2)) @ W.conj().T
        U = (W * np.array([1.0, -1.0])) @ W.conj().T
        rho = hankel_state(U, L1, L2, Xi)
        assert detect_structure(rho) == "block_hankel"

    def test_generic_state_is_none(self):
        assert detect_structure(isotropic(0.9)) == "none"

    def test_rejects_n3(self):
        rng = np.random.default_rng(7)
        rho = assemble_rho_block(rand_block_params(rng, 3, 2))
        with pytest.raises(DmParamError, match="is defined for n = 2, got n = 3$"):
            detect_structure(rho)


def test_separable_constructors_pass_ppt():
    rng = np.random.default_rng(8)
    for m in (2, 3):
        L = rand_psd(rng, m)
        L /= 2 * np.trace(L).real
        U = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(m)
        assert ppt_check(toeplitz_state(L, U, rand_psd(rng, m))).is_ppt
    # block-diagonal core with no rotation
    lam = rand_simplex(rng, 4)
    rho = bell_diagonal([0.25] * 4)
    assert ppt_check(rho).is_ppt
    assert lam.sum() == pytest.approx(1.0)
