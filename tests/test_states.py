"""The density-matrix gate and the cached spectrum of ``DensityMatrix``.

The gate proves positivity by one Cholesky factorization of
``rho + tol_psd I``; these tests hold its verdicts and messages to those of
the eigenvalue test ``eigvalsh(rho)[0] < -tol_psd`` it replaces.
"""

import numpy as np
import pytest

from dmparam import DensityMatrix, DmParamError, NotPsdError, Tolerances
from dmparam._random import rand_unitary
from dmparam.families import _isotropic_alpha_mats
from dmparam.states import check_states


def _state_with_min_eig(rng, d, lam_min):
    """A ``d x d`` Hermitian trace-one matrix with smallest eigenvalue about
    ``lam_min`` and the others spread over ``(0, 2/d)``."""
    w = rng.uniform(0.5, 1.5, d)
    w[0] = 0.0
    w *= (1.0 - lam_min) / w.sum()
    w[0] = lam_min
    Q = rand_unitary(rng, d)
    rho = (Q * w) @ Q.conj().T
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("tol_psd", [1e-10, 1e-8])
@pytest.mark.parametrize("d", [4, 64, 100])
def test_cholesky_verdict_is_the_eigenvalue_verdict_at_the_boundary(d, tol_psd, monkeypatch):
    tol = Tolerances(tol_psd=tol_psd)
    rng = np.random.default_rng(d)
    verdicts = set()
    eigvalsh, solved = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    for factor in (1.0 - 1e-3, 1.0 + 1e-3) * 3:
        rho = _state_with_min_eig(rng, d, -tol_psd * factor)
        smallest = eigvalsh(rho)[0]
        solved.clear()
        failure = check_states(rho, tol)
        assert (failure is not None) == (smallest < -tol_psd)
        # a passing state is proved by the factorization alone
        assert len(solved) == (failure is not None)
        verdicts.add(failure is None)
        if failure is not None:
            index, error = failure
            assert index == () and type(error) is NotPsdError
            assert str(error) == f"state has eigenvalue {smallest:.3e} below -tol_psd = {-tol_psd:.1e}"
    assert verdicts == {True, False}


@pytest.mark.parametrize("tol_psd", [1e-16, 1e-15, 1e-13])
def test_a_tol_psd_near_the_rounding_scale_leaves_the_verdict_to_eigvalsh(tol_psd, monkeypatch):
    # At d = 100 the factorization's rounding error, about d * eps = 2e-14,
    # is as large as these tolerances: the Cholesky verdict is not asked.
    tol = Tolerances(tol_psd=tol_psd)
    rng = np.random.default_rng(15)
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append("cholesky"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    for lam_min in (-1e-12, -1e-14, -tol_psd, 0.0, 1e-14):
        rho = _state_with_min_eig(rng, 100, lam_min)
        smallest = eigvalsh(rho)[0]
        calls.clear()
        failure = check_states(rho, tol)
        assert calls == ["eigvalsh"]
        assert (failure is not None) == (smallest < -tol_psd)
        if failure is not None:
            assert str(failure[1]) == (
                f"state has eigenvalue {smallest:.3e} below -tol_psd = {-tol_psd:.1e}"
            )
    # a 100 x 100 state with lambda_min = -1e-14 fails at tol_psd 1e-16 and 1e-15
    if tol_psd < 1e-14:
        with pytest.raises(NotPsdError):
            DensityMatrix(100, 1, _state_with_min_eig(rng, 100, -1e-14), tol)


def test_pure_states_pass_the_gate_without_an_eigensolve(monkeypatch):
    rng = np.random.default_rng(5)
    eigvalsh, solved = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    for d in (2, 16, 100):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(d, 1, np.outer(v, v.conj()))
        assert solved == []
        assert rho.rank() == 1
        solved.clear()


def _mixed_failures():
    """Six 4 x 4 matrices: a state, then one failing each check in order,
    then one failing both the Hermiticity and the PSD check."""
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    rho = A @ A.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    rho[1, 2, 2] = np.inf
    rho[2, 0, 1] += 0.1
    rho[3] *= 1.5
    rho[4] = np.diag([1.5, -0.5, 0.0, 0.0])
    rho[5] = np.diag([1.5, -0.5, 0.0, 0.0])
    rho[5, 0, 1] = 0.1
    return rho


_NON_FINITE = (DmParamError, "matrix contains non-finite entries")
_NOT_HERMITIAN = (DmParamError, "state Hermiticity deviation 1.414e-01 exceeds tolerance")
_TRACE = (DmParamError, "state trace deviates from 1 by 5.000e-01")
_NOT_PSD = (NotPsdError, "state has eigenvalue -5.000e-01 below -tol_psd = -1.0e-10")


@pytest.mark.parametrize("order,expected", [
    ((0, 1, 2, 3, 4, 5), _NON_FINITE),
    ((0, 4, 3, 2, 1, 5), _NOT_PSD),
    ((0, 5, 4), _NOT_HERMITIAN),
    ((0, 3, 4), _TRACE),
    ((0, 0, 2), _NOT_HERMITIAN),
])
def test_first_failure_of_a_mixed_stack(order, expected):
    stack = _mixed_failures()[list(order)]
    first = order.index(next(k for k in order if k))
    index, error = check_states(stack)
    assert index == (first,)
    assert (type(error), str(error)) == expected
    # with more leading axes the index is the row-major one
    index, error = check_states(np.stack([stack[[0, 0]], stack[[0, first]]]))
    assert index == (1, 1) and (type(error), str(error)) == expected


def test_a_stack_of_states_passes():
    assert check_states(_mixed_failures()[[0, 0, 0]]) is None


def test_eigenvalues_are_solved_once_on_first_read(monkeypatch):
    mat = _state_with_min_eig(np.random.default_rng(3), 6, 0.01)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    rho = DensityMatrix(3, 2, mat)
    assert solved == []
    w = rho.eigenvalues
    assert len(solved) == 1
    assert np.array_equal(w, eigvalsh(rho.mat))
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    rho.purity(), rho.rank(), repr(rho)
    assert rho.eigenvalues is w
    assert len(solved) == 1


@pytest.mark.parametrize("alpha", [0.3, 0.9735944466161087, 1.2, 1.5])
def test_each_matrix_of_a_stack_gets_its_verdict_alone(alpha):
    # Smallest eigenvalues (1 - p) / 4 within 1.1e-13 of -tol_psd: here the
    # Cholesky and eigvalsh verdicts can differ, and the clearly non-PSD
    # last matrix makes the stack's factorization fail.
    p = 1.0 + 4e-10 + np.arange(-2000, 2000) * np.spacing(1.0)
    stack = _isotropic_alpha_mats(np.append(p, 2.0), alpha)
    alone = [check_states(rho) is not None for rho in stack]
    index, error = check_states(stack)
    assert index == (alone.index(True),)
    assert type(error) is NotPsdError
