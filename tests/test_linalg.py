import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from dmparam import (
    DmParamError,
    NotPsdError,
    Tolerances,
    expm_skew,
    haar_unitary,
    herm_eig,
    matfun_psd,
    polar,
)
from dmparam._random import rand_complex, rand_hermitian, rand_psd, rand_skew
from dmparam.linalg import RECON_TOL, UNITARY_TOL


def test_tolerances_are_the_two_the_cli_sets():
    assert tuple(f.name for f in dataclasses.fields(Tolerances)) == ("tol_herm", "tol_psd")
    assert UNITARY_TOL == RECON_TOL == 1e-10


def test_tolerances_validation():
    Tolerances()  # defaults are legal
    with pytest.raises(DmParamError, match=r"^tol_psd must lie in \(0, 1e-6\), got 0\.0$"):
        Tolerances(tol_psd=0.0)
    with pytest.raises(DmParamError, match=r"^tol_herm must lie in \(0, 1e-6\), got 0\.001$"):
        Tolerances(tol_herm=1e-3)


class TestHermEig:
    def test_identity(self):
        w, V = herm_eig(np.eye(3))
        assert_allclose(w, np.ones(3))
        assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-14)

    def test_diagonal_is_sorted_ascending(self):
        w, _ = herm_eig(np.diag([0.7, 0.3]))
        assert_allclose(w, [0.3, 0.7])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        H = rand_hermitian(rng, 4)
        w, V = herm_eig(H)
        assert np.linalg.norm((V * w) @ V.conj().T - H) <= 1e-10

    def test_round_trip_all_dims(self):
        # 100 random Hermitian matrices per dimension 2..8
        rng = np.random.default_rng(12)
        for d in range(2, 9):
            for _ in range(100):
                H = rand_hermitian(rng, d)
                w, V = herm_eig(H)
                recon = (V * w) @ V.conj().T
                assert np.linalg.norm(recon - H) <= RECON_TOL * max(
                    1.0, np.linalg.norm(H)
                )
                assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DmParamError, match=r"^herm_eig: Hermiticity deviation 1.414e\+00 "):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(
            DmParamError, match=r"^herm_eig: expected a square matrix, got shape \(2, 3\)$"
        ):
            herm_eig(np.zeros((2, 3)))


class TestExpmSkew:
    def test_zero_gives_identity(self):
        assert_allclose(expm_skew(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_real_rotation(self):
        theta = np.pi / 3
        X = np.array([[0.0, theta], [-theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        assert_allclose(expm_skew(X), expected, atol=1e-14)

    def test_unitarity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            U = expm_skew(rand_skew(rng, 6) * 3.0)
            assert np.linalg.norm(U.conj().T @ U - np.eye(6)) <= 1e-10

    def test_matches_scipy(self):
        # independent route: Pade approximation vs our spectral formula
        rng = np.random.default_rng(22)
        for _ in range(20):
            X = rand_skew(rng, 5)
            assert_allclose(expm_skew(X), scipy.linalg.expm(X), atol=1e-12)

    def test_rejects_non_skew(self):
        with pytest.raises(DmParamError, match="^expm_skew: skew-Hermiticity deviation "):
            expm_skew(np.eye(3))


class TestMatfunPsd:
    def test_zero_matrix(self):
        Z = np.zeros((3, 3))
        assert_allclose(matfun_psd(Z, "cos"), np.eye(3), atol=1e-15)
        assert_allclose(matfun_psd(Z, "sin"), Z, atol=1e-15)

    def test_diagonal_values(self):
        P = np.diag([np.pi / 2, np.pi / 6])
        assert_allclose(matfun_psd(P, "cos"), np.diag([0.0, np.sqrt(3) / 2]), atol=1e-12)
        assert_allclose(matfun_psd(P, "sin"), np.diag([1.0, 0.5]), atol=1e-12)

    def test_pythagoras_and_sqrt(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            P = rand_psd(rng, 4, scale=4.0)
            C = matfun_psd(P, "cos")
            S = matfun_psd(P, "sin")
            R = matfun_psd(P, "sqrt")
            assert np.linalg.norm(C @ C + S @ S - np.eye(4)) <= 1e-10
            assert np.linalg.norm(R @ R - P) <= 1e-10
            assert np.linalg.norm(C - C.conj().T) == 0.0  # exactly Hermitian

    def test_negative_dust_is_clipped(self):
        P = np.diag([1.0, -1e-12])
        R = matfun_psd(P, "sqrt")
        assert np.linalg.eigvalsh(R)[0] >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            matfun_psd(np.diag([1.0, -0.5]), "sqrt")

    def test_rejects_unknown_kind(self):
        with pytest.raises(DmParamError, match="^matfun_psd: unknown function 'tan'$"):
            matfun_psd(np.eye(2), "tan")


class TestPolar:
    def test_unitary_input(self):
        U0 = haar_unitary(4, seed=5)
        P, U = polar(U0)
        assert_allclose(P, np.eye(4), atol=1e-12)
        assert_allclose(U, U0, atol=1e-12)

    def test_positive_diagonal(self):
        P, U = polar(np.diag([2.0, 3.0]))
        assert_allclose(P, np.diag([2.0, 3.0]), atol=1e-14)
        assert_allclose(U, np.eye(2), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            Z = rand_complex(rng, (3, 3))
            P, U = polar(Z)
            assert np.linalg.norm(P @ U - Z) <= 1e-10
            assert np.linalg.eigvalsh(P)[0] >= -1e-12
            assert np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-12

    def test_rank_deficient(self):
        rng = np.random.default_rng(42)
        Z = rand_complex(rng, (4, 4))
        Z[:, 1] = 0.0
        Z[:, 3] = Z[:, 0]
        P, U = polar(Z)
        assert np.linalg.norm(P @ U - Z) <= 1e-10
        assert np.linalg.norm(U.conj().T @ U - np.eye(4)) <= 1e-12  # completed on kernel


class TestHaar:
    def test_scalar_case(self):
        u = haar_unitary(1, seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_unitarity(self, m):
        U = haar_unitary(m, seed=m)
        assert np.linalg.norm(U.conj().T @ U - np.eye(m)) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, seed=99), haar_unitary(4, seed=99))
        assert not np.array_equal(haar_unitary(4, seed=99), haar_unitary(4, seed=98))
