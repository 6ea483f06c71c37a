"""Every state the package builds reaches the gate exactly Hermitian, and
every Hermiticity and unitarity check measures with one overflow-quiet
Frobenius norm."""

import json
import warnings

import numpy as np
import pytest

from dmparam import (
    BlockParams,
    DmParamError,
    Tolerances,
    assemble_rho_block,
    assemble_rho_single,
    bell_diagonal,
    circulant_rho,
    class3_state,
    expm_skew,
    hankel_state,
    isotropic,
    isotropic_alpha,
    matfun_psd,
    nonabelian_bloch,
    pure_P,
    toeplitz_state,
    two_by_m,
)
from dmparam._random import (
    rand_block_params,
    rand_complex,
    rand_psd,
    rand_single_params,
    rand_unitary,
)
from dmparam.cli import main
from dmparam.states import DensityMatrix
from dmparam.validate import _exp_chain, _hankel_inputs


def _two_by_m_inputs(rng, m):
    L1, L2 = rand_psd(rng, m), rand_psd(rng, m)
    total = np.trace(L1 + L2).real
    return rand_unitary(rng, m), L1 / total, L2 / total, rand_psd(rng, m)


def _toeplitz(rng, m):
    W = rand_unitary(rng, m)
    d = rng.uniform(0.1, 1.0, m)
    L = (W * (d / (2.0 * d.sum()))) @ W.conj().T
    U = (W * np.exp(1j * rng.uniform(0, 2 * np.pi, m))) @ W.conj().T
    return toeplitz_state(L, U, (W * rng.uniform(0.2, 1.2, m)) @ W.conj().T)


def _hankel(rng, m):
    W, L1, L2, Xi = _hankel_inputs(rng, m)
    return hankel_state((W * np.where(np.arange(m) % 2, -1.0, 1.0)) @ W.conj().T, L1, L2, Xi)


BUILT = {
    "single": lambda rng: assemble_rho_single(rand_single_params(rng, 7)),
    "block": lambda rng: assemble_rho_block(rand_block_params(rng, 3, 2)),
    "exp_chain": lambda rng: _exp_chain(rand_block_params(rng, 3, 2)),
    "pure_P": lambda rng: pure_P(rng.uniform(0, np.pi)),
    "isotropic": lambda rng: isotropic(rng.uniform(-1 / 3, 1)),
    "isotropic_alpha": lambda rng: isotropic_alpha(rng.uniform(0, 1 / 3), rng.uniform(0, 2)),
    "circulant": lambda rng: circulant_rho(rng.dirichlet(np.ones(4)), *rng.uniform(0, 1.5, 2)),
    "bell_diagonal": lambda rng: bell_diagonal(rng.dirichlet(np.ones(4))),
    "two_by_m": lambda rng: two_by_m(*_two_by_m_inputs(rng, 3)),
    "toeplitz": lambda rng: _toeplitz(rng, 3),
    "hankel": lambda rng: _hankel(rng, 3),
    "class3": lambda rng: class3_state(3, 2, [rand_complex(rng, (2, 2)) for _ in range(2)]),
    "nonabelian_bloch": lambda rng: nonabelian_bloch(rand_unitary(rng, 2), rand_psd(rng, 2)),
}


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_every_built_state_is_exactly_hermitian(kind):
    for seed in range(5):
        rho = BUILT[kind](np.random.default_rng(seed))
        # equal as values: conj flips the sign of the diagonal's zero imaginary parts
        assert np.array_equal(rho.mat, rho.mat.conj().T)


def test_single_chain_and_its_n_by_1_block_pass_the_tightest_hermiticity_gate(tmp_path):
    tol = Tolerances(tol_herm=1e-20)
    p = rand_single_params(np.random.default_rng(3), 5)
    single = assemble_rho_single(p, tol)
    levels = tuple(tuple(z.reshape(-1, 1, 1)) for z in p.zvecs)
    block = assemble_rho_block(BlockParams(5, 1, p.lambdas, (np.eye(1),) * 5, levels), tol)
    np.testing.assert_allclose(single.mat, block.mat, rtol=0, atol=1e-15)
    # the CLI takes the same tolerance
    src = tmp_path / "single.json"
    payload = {"lambdas": [0.6, 0.3, 0.1], "zvecs": [[0.3], [0.1, 0.2]]}
    src.write_text(json.dumps({"schema_version": "1", "kind": "single", "payload": payload}))
    assert main(["generate", str(src), "-o", str(tmp_path / "o.json"), "--tol-herm", "1e-20"]) == 0


_I2 = np.eye(2)
_BIG = 1e200 * _I2


# Inputs whose norms or products overflow: each ends as it did when those
# overflows warned, with no floating-point warning.
@pytest.mark.parametrize("build, error", [
    (lambda: two_by_m(_I2, _BIG, _I2 / 4, _I2), r"Tr\(L1 \+ L2\) = 2e\+200"),
    (lambda: two_by_m(1e160 * _I2, _I2 / 4, _I2 / 4, _I2), "U: unitarity deviation"),
    (lambda: two_by_m(_I2, _I2 / 4, _I2 / 4, _BIG), None),
    (lambda: toeplitz_state(_I2 / 4, _I2, _BIG), None),
    (lambda: hankel_state(_I2, _I2 / 4, _I2 / 4, _BIG), None),
    (lambda: nonabelian_bloch(_I2, _BIG), None),
    (lambda: nonabelian_bloch(1e160 * _I2, _I2), "U: unitarity deviation"),
    (lambda: DensityMatrix(2, 1, [[1e308, 0], [0, 1e308]]), "trace deviates from 1 by inf"),
    (lambda: DensityMatrix(2, 1, [[0.5, 1e200], [0, 0.5]]), "Hermiticity deviation inf"),
    (lambda: DensityMatrix(4, 1, np.diag([1e308, 1e308, -1e308, -1e308])),
     "trace deviates from 1 by nan"),
    (lambda: matfun_psd([[0, 1e200], [0, 0]], "sqrt"), "Hermiticity deviation inf"),
    (lambda: expm_skew([[0, 1e200], [0, 0]]), "skew-Hermiticity deviation inf"),
], ids=["two_by_m-L1", "two_by_m-U", "two_by_m-Xi2", "toeplitz-Xi2", "hankel-Xi2",
        "nonabelian_bloch-Xi2", "nonabelian_bloch-U", "gate-trace", "gate-hermiticity",
        "gate-nan-trace", "matfun_psd-hermiticity", "expm_skew-skew-hermiticity"])
def test_overflowing_inputs_raise_no_warning(build, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            assert build().mat.shape == (4, 4)
        else:
            with pytest.raises(DmParamError, match=error):
                build()


def test_expm_skew_of_a_huge_generator_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        U = expm_skew(1e200j * _I2)
    np.testing.assert_allclose(U.conj().T @ U, _I2, atol=1e-15)


def test_checks_take_strided_views():
    # each matrix of a (d, d, K) stack is a view whose entries are K apart
    stack = np.zeros((2, 2, 3), dtype=complex)
    stack[..., 0] = 1j * _I2
    stack[..., 1] = _I2 / 4
    stack[..., 2] = _I2
    np.testing.assert_allclose(expm_skew(stack[..., 0]), np.exp(1j) * _I2, atol=1e-15)
    np.testing.assert_allclose(matfun_psd(stack[..., 1], "sqrt"), _I2 / 2, atol=1e-15)
    rho = two_by_m(stack[..., 2], stack[..., 1], stack[..., 1], stack[..., 2])
    np.testing.assert_allclose(rho.mat, two_by_m(_I2, _I2 / 4, _I2 / 4, _I2).mat, atol=0)


def test_generate_with_a_huge_angle_raises_no_warning(tmp_path):
    payload = {"family": "two_by_m", "U": _I2.tolist(), "L1": (_I2 / 4).tolist(),
               "L2": (_I2 / 4).tolist(), "Xi2": _BIG.tolist()}
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"schema_version": "1", "kind": "family", "payload": payload}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", str(src), "-o", str(tmp_path / "o.json")]) == 0
