import numpy as np
import pytest
from numpy.testing import assert_allclose

from dmparam import (
    BlockParams,
    DmParamError,
    SingleParams,
    assemble_rho_single,
    bell_diagonal,
    build_core,
    build_Vjn,
    build_Xj_single,
    circulant_ppt_margins,
    expm_skew,
    param_count,
)
from dmparam._random import rand_complex, rand_single_params
from dmparam.single import _on_simplex


class TestSingleParams:
    def test_valid(self):
        p = SingleParams(3, [0.5, 0.3, 0.2], (np.array([1j]), np.array([0.1, 0.2])))
        assert p.n == 3

    def test_rejects_bad_sum(self):
        with pytest.raises(DmParamError, match="^SingleParams: eigenvalues sum to 0.9, not 1$"):
            SingleParams(2, [0.5, 0.4], (np.zeros(1),))

    def test_rejects_negative(self):
        with pytest.raises(DmParamError, match="^SingleParams: negative eigenvalue -1.000e-01$"):
            SingleParams(2, [1.1, -0.1], (np.zeros(1),))

    def test_rejects_ascending(self):
        with pytest.raises(DmParamError, match="^SingleParams: eigenvalues must be sorted desc"):
            SingleParams(2, [0.3, 0.7], (np.zeros(1),))

    def test_rejects_wrong_zvec_shape(self):
        with pytest.raises(
            DmParamError, match="^SingleParams: z-vector for j=3 must have length 2, got 3$"
        ):
            SingleParams(3, [0.5, 0.3, 0.2], (np.zeros(1), np.zeros(3)))

    def test_rejects_wrong_zvec_count(self):
        with pytest.raises(DmParamError, match="^SingleParams: expected 2 z-vectors, got 1$"):
            SingleParams(3, [0.5, 0.3, 0.2], (np.zeros(1),))


#: Non-finite points: NaN passes every comparison of the simplex check, and
#: ``inf - inf`` makes the sum NaN.
NON_FINITE = {
    "nan": [1.0, np.nan, 0.0, 0.0],
    "inf": [1.0, np.inf, 0.0, 0.0],
    "inf-minus-inf": [np.inf, -np.inf, 1.0, 0.0],
}
#: Every caller of the simplex check, given a four-entry point.
SIMPLEX_CALLERS = {
    "SingleParams": lambda p: SingleParams(4, p, tuple(np.zeros(j) for j in (1, 2, 3))),
    "BlockParams": lambda p: BlockParams(2, 2, p, (np.eye(2),) * 2, ((np.zeros((2, 2)),),)),
    "build_core": lambda p: build_core(p, (np.eye(2),) * 2, 2, 2),
    "circulant_ppt_margins": lambda p: circulant_ppt_margins(p, 0.3, 0.4),
    "bell_diagonal": bell_diagonal,
}


@pytest.mark.parametrize("point", sorted(NON_FINITE))
@pytest.mark.parametrize("who", sorted(SIMPLEX_CALLERS))
def test_simplex_rejects_non_finite_eigenvalues(who, point):
    with pytest.raises(DmParamError, match=f"^{who}: non-finite eigenvalue"):
        SIMPLEX_CALLERS[who](NON_FINITE[point])


def test_simplex_mask_rejects_non_finite_rows():
    rows = np.array([[0.25] * 4, [1e308, 1e308, 0.0, 0.0]]
                    + [NON_FINITE[k] for k in sorted(NON_FINITE)])
    assert _on_simplex(rows, 4).tolist() == [True, False, False, False, False]


class TestGenerator:
    def test_zero_vector(self):
        assert_allclose(build_Xj_single(np.zeros(2), 4, 3), np.zeros((4, 4)))

    def test_two_level_layout(self):
        w = 0.3 - 0.4j
        X = build_Xj_single([w], 2, 2)
        assert_allclose(X, np.array([[0.0, w], [-np.conj(w), 0.0]]))

    def test_exactly_skew(self):
        rng = np.random.default_rng(7)
        for j in (2, 3, 5):
            X = build_Xj_single(rand_complex(rng, j - 1), 6, j)
            assert np.linalg.norm(X + X.conj().T) == 0.0
            assert np.trace(X) == 0.0


class TestBuildVjn:
    def test_zero_limit(self):
        assert_allclose(build_Vjn(np.zeros(1), 2), np.eye(2))

    def test_qubit_entries(self):
        # chosen by the exponential: exp([[0, z], [-conj(z), 0]])
        theta, phi = 0.8, 2.1
        z = theta * np.exp(1j * phi)
        V = build_Vjn([z], 2)
        c, s = np.cos(theta), np.sin(theta)
        expected = np.array(
            [[c, s * np.exp(1j * phi)], [-s * np.exp(-1j * phi), c]]
        )
        assert_allclose(V, expected, atol=1e-14)

    def test_matches_exponential(self):
        rng = np.random.default_rng(8)
        z = rand_complex(rng, 2)
        V = build_Vjn(z, 3)
        E = expm_skew(build_Xj_single(z, 3, 3))
        assert np.linalg.norm(V - E) <= 1e-10

    def test_matches_exponential_all_shapes(self):
        # 100 random vectors per (n, j) with n <= 6; V is the top-left block
        rng = np.random.default_rng(9)
        for n in range(2, 7):
            for j in range(2, n + 1):
                for _ in range(100):
                    z = rand_complex(rng, j - 1) * rng.uniform(0.1, 3.0)
                    V = build_Vjn(z, j)
                    E = expm_skew(build_Xj_single(z, n, j))
                    assert np.linalg.norm(V - E[:j, :j]) <= 1e-10
                    assert np.linalg.norm(E[j:, j:] - np.eye(n - j)) <= 1e-14

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        for j in (2, 4, 6):
            V = build_Vjn(rand_complex(rng, j - 1), j)
            assert np.linalg.norm(V.conj().T @ V - np.eye(j)) <= 1e-10

    def test_zero_vector_continuity(self):
        rng = np.random.default_rng(12)
        for j in (2, 3, 5):
            direction = rand_complex(rng, j - 1)
            direction /= np.linalg.norm(direction)
            V = build_Vjn(1e-8 * direction, j)
            assert np.linalg.norm(V - np.eye(j)) <= 1e-7

    def test_rejects_bad_length(self):
        with pytest.raises(DmParamError, match="^build_Vjn: z-vector for j=2 must have length 1, got 2$"):
            build_Vjn(np.zeros(2), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DmParamError, match="^build_Vjn: z-vector for j=3 has non-finite entries$"):
            build_Vjn([0.5, bad], 3)


class TestAssemble:
    def test_all_zero_is_diagonal(self):
        p = SingleParams(3, [0.6, 0.3, 0.1], (np.zeros(1), np.zeros(2)))
        rho = assemble_rho_single(p)
        assert_allclose(rho.mat, np.diag([0.6, 0.3, 0.1]), atol=1e-15)
        assert rho.dims == (3, 1)

    def test_qubit_closed_form(self):
        # off-diagonal carries e^{i phi}(l2 - l1); z -> -z flips the sign
        theta, phi = 0.9, 0.7
        lam = np.array([0.75, 0.25])
        z = theta * np.exp(1j * phi)
        rho = assemble_rho_single(SingleParams(2, lam, (np.array([z]),)))
        c, s = np.cos(theta), np.sin(theta)
        off = s * c * np.exp(1j * phi) * (lam[1] - lam[0])
        expected = np.array(
            [
                [c**2 * lam[0] + s**2 * lam[1], off],
                [np.conj(off), c**2 * lam[1] + s**2 * lam[0]],
            ]
        )
        assert_allclose(rho.mat, expected, atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(13)
        for n in range(2, 7):
            for _ in range(20):
                p = rand_single_params(rng, n)
                rho = assemble_rho_single(p)
                assert np.max(
                    np.abs(np.sort(rho.eigenvalues) - np.sort(p.lambdas))
                ) <= 1e-10

    def test_pure_state_is_projector(self):
        rng = np.random.default_rng(14)
        lam = np.zeros(4)
        lam[0] = 1.0
        p = SingleParams(4, lam, tuple(rand_complex(rng, j - 1) for j in range(2, 5)))
        rho = assemble_rho_single(p)
        assert np.linalg.norm(rho.mat @ rho.mat - rho.mat) <= 1e-10
        assert rho.rank() == 1


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 3), (5, 24), (10, 99)])
def test_param_count(n, expected):
    assert param_count(n) == expected


def test_param_count_rejects_zero():
    with pytest.raises(DmParamError, match="^param_count: dims must be positive, got n=0$"):
        param_count(0)
