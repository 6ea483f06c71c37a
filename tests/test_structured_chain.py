"""The structured chain: each level touches only the rows its factor acts on.

The oracles are the forms the chain no longer builds: the exponential of the
full generator, ``V_j`` filled block row by block row, the product of
embedded ``n x n`` factors, and the chain that decomposes one level at a
time.
"""

import numpy as np
import pytest

from dmparam import (
    BlockParams,
    SingleParams,
    assemble_rho_block,
    assemble_rho_single,
    build_Ajnm,
    build_Vjn,
    build_Vjnm,
    build_Xj_block,
    class3_state,
    expm_skew,
)
from dmparam._random import rand_block_params, rand_complex, rand_single_params
from dmparam import blocks, linalg, single, validate
from dmparam.linalg import _chain, _levels_per_block
from dmparam.validate import _exp_chain, run_validation

#: Levels per compact-WY block of the single chain.
_BLOCK = _levels_per_block(1)


@pytest.mark.parametrize("j,m", [(16, 4), (32, 2)])
def test_block_closed_form_is_top_left_of_exponential(j, m):
    rng = np.random.default_rng(40 + j)
    Zs = [rand_complex(rng, (m, m)) for _ in range(j - 1)]
    V = build_Vjnm(Zs, j, m)
    E = expm_skew(build_Xj_block(Zs, j, j, m))
    assert np.linalg.norm(V - E) <= 1e-10


def _per_level_factors(T, K):
    """``Q``, ``R^dag`` and the spectrum of ``Xi`` of one level from the SVD
    of its stacked blocks, padded with zero blocks to ``K`` blocks as a batch
    of levels pads them (``K = len(T)``: no padding)."""
    k, m, _ = T.shape
    Z = np.zeros((K * m, m), dtype=complex)
    Z[: k * m] = T.reshape(k * m, m)
    Q, sigma, Rh = np.linalg.svd(Z, full_matrices=False)
    return Q[: k * m], sigma, Rh


def _cos_xi(sigma, Rh):
    """``cos Xi = I + R (cos sigma - 1) R^dag``, as the chain writes it."""
    return np.eye(len(sigma)) + Rh.conj().T @ ((np.cos(sigma) - 1.0)[:, None] * Rh)


def _blockwise_Vjnm(Zs, j, m):
    """``V_j`` filled one block row at a time from the closed form with the
    polar factor ``Zh = Q R^dag``: ``I - Q (1 - cos) Q^dag`` and
    ``Q sin R^dag`` on top, ``-R sin Q^dag`` and ``cos Xi`` below."""
    T = np.stack(Zs)
    Q, sigma, Rh = _per_level_factors(T, j - 1)
    last = (j - 1) * m
    QH = Q.conj().T
    V = np.eye(j * m, dtype=complex)
    for k in range(j - 1):
        rows = slice(k * m, (k + 1) * m)
        V[rows, :last] -= (Q[rows] * (1.0 - np.cos(sigma))) @ QH
        V[rows, last:] = Q[rows] @ (np.sin(sigma)[:, None] * Rh)
    V[last:, :last] = -(Rh.conj().T * np.sin(sigma)) @ QH
    V[last:, last:] = _cos_xi(sigma, Rh)
    return V


@pytest.mark.parametrize("j,m", [(4, 1), (3, 2), (32, 2), (5, 3), (8, 4), (3, 8)])
def test_block_closed_form_equals_blockwise_fill(j, m):
    # each block row of a product rounds as that row's own product does
    rng = np.random.default_rng(30 + j + m)
    Zs = [rand_complex(rng, (m, m)) for _ in range(j - 1)]
    assert np.array_equal(build_Vjnm(Zs, j, m), _blockwise_Vjnm(Zs, j, m))


@pytest.mark.parametrize("n,m", [(16, 4), (32, 2)])
def test_block_auto_matches_exp(n, m):
    # the name is historical: the closed form is the only path
    p = rand_block_params(np.random.default_rng(50 + n), n, m)
    closed = assemble_rho_block(p)
    exact = _exp_chain(p)
    assert np.max(np.abs(closed.mat - exact.mat)) <= 1e-9


def _dense_single(p):
    """The single chain as a product of embedded ``n x n`` factors, each
    filled from the closed form of ``V_j``, apart from the chain kernel."""
    U = np.eye(p.n, dtype=complex)
    for j, z in enumerate(p.zvecs, start=2):
        A = np.eye(p.n, dtype=complex)
        t = np.linalg.norm(z)
        if t > 0.0:
            zh, c, s = z / t, np.cos(t), np.sin(t)
            A[: j - 1, : j - 1] -= (1.0 - c) * np.outer(zh, zh.conj())
            A[: j - 1, j - 1] = s * zh
            A[j - 1, : j - 1] = -s * zh.conj()
            A[j - 1, j - 1] = c
        U = A @ U
    return (U * p.lambdas) @ U.conj().T


def test_single_chain_matches_dense_factors():
    p = rand_single_params(np.random.default_rng(60), 100)
    assert np.max(np.abs(assemble_rho_single(p).mat - _dense_single(p))) <= 1e-12


def test_single_chain_with_zero_levels():
    p = rand_single_params(np.random.default_rng(61), 100)
    zvecs = tuple(
        np.zeros(j - 1) if j % 3 == 0 or j == 2 or j == 100 else z
        for j, z in enumerate(p.zvecs, start=2)
    )
    q = SingleParams(100, p.lambdas, zvecs)
    assert np.max(np.abs(assemble_rho_single(q).mat - _dense_single(q))) <= 1e-12


def _single_gap(zvecs, seed):
    n = len(zvecs) + 1
    lambdas = np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]
    p = SingleParams(n, lambdas, tuple(zvecs))
    return np.max(np.abs(assemble_rho_single(p).mat - _dense_single(p)))


def _unit_zvecs(rng, n, angle):
    """Random directions, every one of length ``angle``."""
    zs = [rand_complex(rng, j - 1) for j in range(2, n + 1)]
    return [angle * z / np.linalg.norm(z) for z in zs]


# no level, one level, one partial block, and the block edges of the chain
_SIZES = [1, 2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 2 * _BLOCK + 2, 100]


@pytest.mark.parametrize("n", _SIZES)
def test_blocked_single_chain_matches_dense_factors(n):
    p = rand_single_params(np.random.default_rng(n), n)
    assert np.max(np.abs(assemble_rho_single(p).mat - _dense_single(p))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, _BLOCK + 2, 2 * _BLOCK + 1, 100])
def test_single_chain_with_aligned_zvecs(n):
    rng = np.random.default_rng(62)
    v = rand_complex(rng, n - 1)
    t = rng.uniform(0.2, 3.0, n - 1)
    # prefixes of one vector, and all along the first axis
    assert _single_gap([t[j - 2] * v[: j - 1] for j in range(2, n + 1)], n) <= 1e-12
    assert _single_gap([t[j - 2] * np.eye(j - 1)[0] for j in range(2, n + 1)], n) <= 1e-12


@pytest.mark.parametrize("angle", [np.pi, 2 * np.pi - 1e-9, 1e-12])
@pytest.mark.parametrize("n", [2, 3, _BLOCK + 2, 100])
def test_single_chain_at_extreme_angles(n, angle):
    zvecs = _unit_zvecs(np.random.default_rng(63), n, angle)
    assert _single_gap(zvecs, n) <= 1e-12


def test_single_chain_with_zero_levels_at_block_edges():
    n = 3 * _BLOCK + 2
    # the first and last level of every block, as level index j - 2
    edges = {0, 1, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, 3 * _BLOCK - 1, 3 * _BLOCK}
    zvecs = [np.zeros(j - 1) if j - 2 in edges else z
             for j, z in enumerate(rand_single_params(np.random.default_rng(64), n).zvecs, 2)]
    assert _single_gap(zvecs, n) <= 1e-12
    # a whole block of zero levels
    zvecs[_BLOCK : 2 * _BLOCK] = [np.zeros(j - 1) for j in range(_BLOCK + 2, 2 * _BLOCK + 2)]
    assert _single_gap(zvecs, n) <= 1e-12


def test_single_chain_invariant_checks_the_assembled_state(monkeypatch):
    # conjugating every z keeps the spectrum and each V_j's closed form, but
    # not the state: only the product of exponentials tells them apart
    real = validate.assemble_rho_single
    monkeypatch.setattr(validate, "assemble_rho_single", lambda p, tol: real(
        SingleParams(p.n, p.lambdas, tuple(z.conj() for z in p.zvecs)), tol))
    results = {r.name: r for r in run_validation(seed=3, trials=3)}
    assert not results["single chain"].ok


@pytest.mark.parametrize("theta,phi", [(0.9, 0.7), (-0.4, 2.5), (4.0, -1.2)])
def test_qubit_bloch_form(theta, phi):
    lam = np.array([0.8, 0.2])
    for sign in (1.0, -1.0):
        z = sign * theta * np.exp(1j * phi)
        rho = assemble_rho_single(SingleParams(2, lam, (np.array([z]),))).mat
        c, s = np.cos(theta), np.sin(theta)
        off = sign * s * c * np.exp(1j * phi) * (lam[1] - lam[0])
        expected = np.array([
            [c**2 * lam[0] + s**2 * lam[1], off],
            [np.conj(off), c**2 * lam[1] + s**2 * lam[0]],
        ])
        assert np.max(np.abs(rho - expected)) <= 1e-14


def test_params_arrays_are_not_written():
    rng = np.random.default_rng(70)
    ps = rand_single_params(rng, 12)
    pb = rand_block_params(rng, 5, 3)
    single_before = [z.copy() for z in ps.zvecs]
    block_before = [[Z.copy() for Z in Zs] for Zs in pb.blockvecs]
    lambdas_before = (ps.lambdas.copy(), pb.lambdas.copy())
    assemble_rho_single(ps)
    assemble_rho_block(pb)
    for z, z0 in zip(ps.zvecs, single_before):
        assert not z.flags.writeable and np.array_equal(z, z0)
    for Zs, Zs0 in zip(pb.blockvecs, block_before):
        for Z, Z0 in zip(Zs, Zs0):
            assert not Z.flags.writeable and np.array_equal(Z, Z0)
    assert np.array_equal(ps.lambdas, lambdas_before[0])
    assert np.array_equal(pb.lambdas, lambdas_before[1])


def _common_kernel_params(seed, n=8, m=4):
    """n (x) m parameters whose top-level blocks share one kernel vector off
    the basis: the Gram eigenvalue there is rounding-level, not zero."""
    rng = np.random.default_rng(seed)
    p = rand_block_params(rng, n, m)
    v = rand_complex(rng, m)
    v /= np.linalg.norm(v)
    proj = np.eye(m) - np.outer(v, v.conj())
    top = tuple(Z @ proj for Z in p.blockvecs[-1])
    return BlockParams(n, m, p.lambdas, p.local_unitaries, p.blockvecs[:-1] + (top,))


@pytest.mark.parametrize("seed", range(50))
def test_auto_takes_exp_on_near_singular_angle(seed):
    # the name is historical: the closed form is taken here as everywhere;
    # the exponential chain is the oracle.
    # assemble_rho_block raises if the state fails the DensityMatrix gate
    p = _common_kernel_params(seed)
    closed = assemble_rho_block(p)
    exact = _exp_chain(p)
    assert np.max(np.abs(closed.mat - exact.mat)) <= 1e-12


def _per_level_update(U, T, K):
    """``U[:jm, :jm] = V_j U[:jm, :jm]`` for one level, from the SVD of its
    own blocks padded to ``K`` blocks, where ``U`` is the identity outside
    its top ``(j - 1) m`` rows and columns."""
    k, m, _ = T.shape
    km = k * m
    Q, sigma, Rh = _per_level_factors(T, K)
    top = U[:km, :km]
    W = Q.conj().T @ top
    MW = np.vstack([Q * (1.0 - np.cos(sigma)), Rh.conj().T * np.sin(sigma)]) @ W
    U[: km + m, : km + m] = np.block([
        [top - MW[:km], Q @ (np.sin(sigma)[:, None] * Rh)],
        [-MW[km:], _cos_xi(sigma, Rh)],
    ])


def _per_level_Vj(T):
    """Closed-form ``V_j`` of one level: its update applied to the identity."""
    k, m, _ = T.shape
    Vj = np.eye((k + 1) * m, dtype=complex)
    _per_level_update(Vj, T, k)
    return Vj


def _per_level_rho(p):
    """``assemble_rho_block(p).mat`` from each level's own SVD, padded to the
    top level's ``n - 1`` blocks as the batch pads it.  Where the chain takes
    one level at a time (``m >= 2``) the levels are applied one by one here;
    at ``m = 1`` it takes them in compact-WY blocks, so the per-level factors
    go through the kernel and only the batching of the SVD is compared."""
    n, m = p.n, p.m
    U = np.eye(n * m, dtype=complex)
    if _levels_per_block(m) == 1:
        for T in p.blockvecs:
            _per_level_update(U, T, n - 1)
    elif p.blockvecs:
        Q, sigma, Rh = zip(*(_per_level_factors(T, n - 1) for T in p.blockvecs))
        Q = np.stack([np.vstack([q, np.zeros(((n - 1) * m - len(q), m))]) for q in Q])
        sigma, R = np.array(sigma), np.array(Rh).conj().swapaxes(-1, -2)
        U = _chain(n * m, Q, R, np.cos(sigma) - 1.0, np.sin(sigma))
    W = np.hstack([U[:, k * m : (k + 1) * m] @ Uk for k, Uk in enumerate(p.local_unitaries)])
    rho = (W * p.lambdas) @ W.conj().T
    return (rho + rho.conj().T) / 2.0


def _chain_params(n, m, seed, singular_top=False, zero_level=None):
    p = rand_block_params(np.random.default_rng(seed), n, m)
    vecs = list(p.blockvecs)
    if singular_top:
        vecs[-1] = _common_kernel_params(seed).blockvecs[-1]
    if zero_level is not None:
        vecs[zero_level - 2] = np.zeros_like(vecs[zero_level - 2])
    return BlockParams(n, m, p.lambdas, p.local_unitaries, tuple(vecs))


@pytest.mark.parametrize(
    "n,m,singular_top,zero_level",
    [
        (1, 2, False, None),
        (2, 3, False, None),
        (3, 3, False, None),
        (6, 1, False, None),
        (8, 4, True, 4),
        (8, 8, False, None),
        (16, 4, False, 9),
        (32, 2, False, None),
    ],
)
def test_batched_levels_equal_per_level_chain_bitwise(n, m, singular_top, zero_level):
    p = _chain_params(n, m, 80 + n + m, singular_top, zero_level)
    assert np.array_equal(assemble_rho_block(p).mat, _per_level_rho(p))


@pytest.mark.parametrize("j,m", [(2, 1), (2, 3), (7, 1), (5, 3), (16, 4)])
def test_single_level_layers_equal_per_level_form_bitwise(j, m):
    rng = np.random.default_rng(100 + j + m)
    T = np.stack([rand_complex(rng, (m, m)) for _ in range(j - 1)])
    Vj = _per_level_Vj(T)
    assert np.array_equal(build_Vjnm(T, j, m), Vj)
    A = build_Ajnm(T, j + 1, j, m)
    assert np.array_equal(A[: j * m, : j * m], Vj)


@pytest.mark.parametrize("scale", [1e12, 1e14])
@pytest.mark.parametrize(
    "n,m,singular_top",
    # the ids keep the name of the path they exercise, the closed form
    [pytest.param(n, m, s, id=f"{n}-{m}-{s}-closed")
     for n, m in ((4, 2), (8, 4)) for s in (False, True)],
)
def test_extreme_scales_pass_the_state_gate(n, m, singular_top, scale):
    # V_j from orthonormal SVD factors stays unitary at any scale; built from
    # the Gram matrix's eigenvalues, whose small ones are off by about
    # eps ||G||, it is not, and the gate refuses the state
    if singular_top:
        p = _common_kernel_params(110 + n, n, m)
    else:
        p = rand_block_params(np.random.default_rng(110 + n), n, m)
    vecs = tuple(scale * T for T in p.blockvecs)
    q = BlockParams(n, m, p.lambdas, p.local_unitaries, vecs)
    rho = assemble_rho_block(q)
    assert np.max(np.abs(np.linalg.eigvalsh(rho.mat) - np.sort(q.lambdas))) <= 1e-9


def _degraded(p, kind, rng):
    """``p`` with every other level zero (the first and the last among
    them), or with every level's blocks sharing a random kernel vector, so
    that each angle is singular (zero at ``m = 1``)."""
    vecs = list(p.blockvecs)
    if kind == "zero":
        for l in range(0, len(vecs), 2):
            vecs[l] = np.zeros_like(vecs[l])
        vecs[-1] = np.zeros_like(vecs[-1])
    elif kind == "rank-deficient":
        v = rand_complex(rng, p.m)
        v /= np.linalg.norm(v)
        proj = np.eye(p.m) - np.outer(v, v.conj())
        vecs = [T @ proj for T in vecs]
    return BlockParams(p.n, p.m, p.lambdas, p.local_unitaries, tuple(vecs))


def _kernel_cases():
    """``(m, levels)``: one level short of a kernel block, one block, one
    past it, and two blocks and one level, for the block size of each m."""
    for m in (1, 2, 3, 4):
        b = _levels_per_block(m)
        for levels in sorted({b - 1, b, b + 1, 2 * b + 1} - {0}):
            yield m, levels


@pytest.mark.parametrize("kind", ["generic", "zero", "rank-deficient"])
@pytest.mark.parametrize("m,levels", list(_kernel_cases()))
def test_block_kernel_matches_exponential_around_its_block_size(m, levels, kind):
    rng = np.random.default_rng(200 + 10 * m + levels)
    p = _degraded(rand_block_params(rng, levels + 1, m), kind, rng)
    assert np.max(np.abs(assemble_rho_block(p).mat - _exp_chain(p).mat)) <= 1e-12


@pytest.mark.parametrize("kind", ["generic", "zero", "rank-deficient"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_single_level_kernel_embedded_in_a_larger_unitary(m, kind):
    # level j = 3 of an n = 5 chain: the kernel writes the top 3m rows only
    rng = np.random.default_rng(300 + m)
    Zs = _degraded(rand_block_params(rng, 3, m), kind, rng).blockvecs[-1]
    A = build_Ajnm(Zs, 5, 3, m)
    assert np.max(np.abs(A - expm_skew(build_Xj_block(Zs, 5, 3, m)))) <= 1e-12
    assert np.array_equal(A[3 * m :], np.eye(5 * m)[3 * m :])


def test_every_chain_runs_the_one_kernel(monkeypatch):
    assert blocks._chain is single._chain is linalg._chain
    calls = []

    def counted(*args):
        calls.append(1)
        return linalg._chain(*args)

    monkeypatch.setattr(blocks, "_chain", counted)
    monkeypatch.setattr(single, "_chain", counted)
    rng = np.random.default_rng(400)
    pb, ps = rand_block_params(rng, 4, 2), rand_single_params(rng, 30)
    Zs = pb.blockvecs[-1]
    callers = {
        "assemble_rho_block": lambda: assemble_rho_block(pb),
        "assemble_rho_single": lambda: assemble_rho_single(ps),
        "build_Vjnm": lambda: build_Vjnm(Zs, 4, 2),
        "build_Ajnm": lambda: build_Ajnm(Zs, 5, 4, 2),
        "build_Vjn": lambda: build_Vjn(ps.zvecs[-1], 30),
    }
    for name, call in callers.items():
        calls.clear()
        call()
        assert len(calls) == 1, name
    # class3_state keeps only the top level's new columns, which the level's
    # factors give without running the kernel
    calls.clear()
    class3_state(4, 2, Zs)
    assert not calls
