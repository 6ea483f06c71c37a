"""Inputs are checked once: by the params types on the way in and by the
``DensityMatrix`` gate on the way out, not again by the layers in between.

The counts are taken by wrapping the checks the layers used to repeat; the
bitwise tests pin the private kernels to the public layer functions and to
``matfun_psd``, so skipping the checks changes no bit of any state.
"""

import numpy as np
import pytest

from dmparam import (
    BlockParams,
    assemble_rho_block,
    build_Ajnm,
    build_core,
    build_Vjnm,
    build_Xj_block,
    class3_state,
    expm_skew,
    hankel_state,
    isotropic,
    matfun_psd,
    nonabelian_bloch,
    toeplitz_state,
    two_by_m,
)
from dmparam import blocks, cli, families, states
from dmparam._random import rand_block_params, rand_complex, rand_psd, rand_unitary
from dmparam.cli import main
from dmparam.families import _two_by_m_blocks
from dmparam.io import write_matrix


@pytest.fixture
def calls(monkeypatch):
    """Count the calls of each wrapped function; the arguments of ``eigh``
    and ``svd`` are kept too."""
    counts = {"unitary": 0, "as_blocks": 0, "eigvalsh": 0, "cholesky": 0, "eigh": [], "svd": []}

    def wrap(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if key in ("eigh", "svd"):
                counts[key].append(np.array(args[0]))
            else:
                counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    wrap(blocks, "_require_unitary", "unitary")
    wrap(blocks, "_as_blocks", "as_blocks")
    wrap(np.linalg, "eigvalsh", "eigvalsh")
    wrap(np.linalg, "cholesky", "cholesky")
    wrap(np.linalg, "eigh", "eigh")
    wrap(np.linalg, "svd", "svd")
    return counts


def _singular(Zs):
    """The blocks with the common kernel vector ``(1, i, 0, ...) / sqrt 2``,
    which makes their matrix angle singular off the basis."""
    m = Zs[0].shape[0]
    v = np.zeros(m, dtype=complex)
    v[:2] = (1.0, 1.0j)
    v /= np.linalg.norm(v)
    proj = np.eye(m) - np.outer(v, v.conj())
    return tuple(Z @ proj for Z in Zs)


def _params(n, m, seed, singular_top=False, zero_level=None):
    p = rand_block_params(np.random.default_rng(seed), n, m)
    vecs = list(p.blockvecs)
    if singular_top:
        vecs[-1] = _singular(vecs[-1])
    if zero_level is not None:
        vecs[zero_level - 2] = np.zeros_like(vecs[zero_level - 2])
    return BlockParams(n, m, p.lambdas, p.local_unitaries, tuple(vecs))


def _near_singular(Zs):
    """The blocks with a Gram eigenvalue about 1e-14 of the largest: the
    common kernel vector of :func:`_singular`, kept at 1e-7."""
    m = Zs[0].shape[0]
    v = np.zeros(m, dtype=complex)
    v[:2] = (1.0, 1.0j)
    v /= np.linalg.norm(v)
    proj = np.eye(m) - (1.0 - 1e-7) * np.outer(v, v.conj())
    return tuple(Z @ proj for Z in Zs)


def _rebuilt(p):
    """``assemble_rho_block(p)`` from the public layer functions, as a
    product of dense factors."""
    n, m = p.n, p.m
    D = np.zeros((n * m, n * m), dtype=complex)
    for k, L in enumerate(build_core(p.lambdas, p.local_unitaries, n, m)):
        D[k * m : (k + 1) * m, k * m : (k + 1) * m] = L
    U = np.eye(n * m, dtype=complex)
    for j, Zs in enumerate(p.blockvecs, start=2):
        if np.any(Zs):
            U[: j * m] = build_Vjnm(Zs, j, m) @ U[: j * m]
    rho = U @ D @ U.conj().T
    return (rho + rho.conj().T) / 2.0


def _rounding_bound(p):
    """Largest entry difference that rounding alone allows between
    ``assemble_rho_block(p)`` and :func:`_rebuilt`, derived, not fitted.

    Both evaluate ``U D U^dag`` for the same ``U = V_n ... V_2`` and differ
    only in rounding.  With ``N = nm``, unit roundoff ``u`` and the complex
    ``g = sqrt(2) gamma_{N+2}`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.5-3.6):

    * each SVD is exact for ``Z_j`` perturbed by at most ``sqrt(2) km m u
      ||Z_j||_F`` in norm (Householder bidiagonalization, there 19.3), and
      ``V_j`` moves no more, since ``exp`` is 1-Lipschitz on skew-Hermitian
      generators;
    * each product of factors of Frobenius norm at most ``sqrt(N)`` (the
      unitaries, ``Q``, ``R`` and their scaled blocks) errs by at most ``g
      N`` in norm, and a level takes at most four of them on either side;
    * the running product stays unitary to first order, so level errors
      add; ``U D U^dag`` doubles them (``||D|| <= 1``) and adds two
      products of its own.

    Both sides contribute, and the largest entry is at most the norm.
    """
    u = np.finfo(float).eps / 2.0
    N = p.n * p.m
    g = np.sqrt(2.0) * (N + 2) * u / (1.0 - (N + 2) * u)
    levels = sum(4 * g * N + np.sqrt(2.0) * T.size * u * np.linalg.norm(T) for T in p.blockvecs)
    return 2 * (2 * levels + 2 * g * N)


@pytest.mark.parametrize("n,m", [(3, 2), (8, 4)])
def test_assembly_runs_only_the_state_gate(n, m, calls):
    p = _params(n, m, seed=n + m)
    calls["eigvalsh"] = calls["cholesky"] = calls["unitary"] = calls["as_blocks"] = 0
    calls["eigh"].clear()
    calls["svd"].clear()
    assemble_rho_block(p)
    assert calls["unitary"] == 0
    assert calls["as_blocks"] == 0
    # the gate proves positivity by one factorization and solves no spectrum
    assert calls["cholesky"] == 1
    assert calls["eigvalsh"] == 0
    # one SVD for all levels, on their stack padded to the top level's height
    assert not calls["eigh"]
    assert len(calls["svd"]) == 1
    assert calls["svd"][0].shape == (n - 1, (n - 1) * m, m)


@pytest.mark.parametrize("n,m", [(8, 4), (32, 2)])
def test_assembly_takes_one_closed_form_at_every_angle(n, m, calls):
    # a singular top level, a zero level and a near-singular level
    p = _params(n, m, seed=7 * n + m, singular_top=True, zero_level=4)
    vecs = list(p.blockvecs)
    vecs[4] = _near_singular(vecs[4])
    p = BlockParams(n, m, p.lambdas, p.local_unitaries, tuple(vecs))
    calls["eigh"].clear()
    calls["svd"].clear()
    assemble_rho_block(p)
    assert not calls["eigh"]  # no exponential either: expm_skew is one eigh
    assert len(calls["svd"]) == 1
    assert calls["svd"][0].shape == (n - 1, (n - 1) * m, m)


# the ids keep the name of the path they exercise, the closed form
@pytest.mark.parametrize("singular", [False, True], ids=["False-closed", "True-closed"])
def test_build_Ajnm_stacks_its_blocks_once(singular, calls):
    Zs = [rand_complex(np.random.default_rng(3), (3, 3)) for _ in range(2)]
    if singular:
        Zs = _singular(Zs)
    A = build_Ajnm(Zs, 4, 3, 3)
    assert np.linalg.norm(A.conj().T @ A - np.eye(12)) <= 1e-10
    assert calls["as_blocks"] == 1


@pytest.mark.parametrize(
    "n,m,singular_top,zero_level",
    [
        (1, 3, False, None),
        (2, 2, False, None),
        (2, 3, False, None),
        (3, 3, False, None),
        (5, 1, False, None),
        (8, 4, True, 4),
        (8, 8, False, None),
        (16, 4, False, None),
        (32, 2, False, None),
    ],
)
def test_assembly_equals_public_layers_bitwise(n, m, singular_top, zero_level):
    # the name is historical: a dense product of the layers' factors and the
    # corner update round differently, so they agree within rounding only
    p = _params(n, m, seed=10 * n + m, singular_top=singular_top, zero_level=zero_level)
    assert np.max(np.abs(assemble_rho_block(p).mat - _rebuilt(p))) <= _rounding_bound(p)


def test_class3_state_stacks_its_blocks_once(calls, monkeypatch):
    monkeypatch.setattr(families, "_as_blocks", blocks._as_blocks)  # the counted one
    Zs = [rand_complex(np.random.default_rng(4), (2, 2)) for _ in range(2)]
    class3_state(3, 2, Zs)
    assert calls["as_blocks"] == 1


@pytest.mark.parametrize("kind", ["generic", "singular", "zero"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (5, 3)])
def test_class3_state_equals_top_level_column_bitwise(n, m, kind):
    Zs = [rand_complex(np.random.default_rng(n + m), (m, m)) for _ in range(n - 1)]
    if kind == "singular":
        Zs = _singular(Zs)
    elif kind == "zero":
        Zs = [np.zeros((m, m))] * (n - 1)
    col = build_Ajnm(Zs, n, n, m)[:, (n - 1) * m :]
    assert np.array_equal(class3_state(n, m, Zs).mat, _sym((col @ col.conj().T) / m))


def test_analyze_runs_the_state_gate_once(tmp_path, calls):
    # the name is historical: analyze now runs no state gate, only the
    # eigensolve of its spectrum
    path = tmp_path / "rho.json"
    write_matrix(path, isotropic(0.2).mat, n=2, m=2)
    calls["eigvalsh"] = 0
    assert main(["analyze", str(path)]) == 0
    assert calls["eigvalsh"] == 2  # the spectrum and the partial transpose


def test_analyze_takes_its_spectrum_from_one_eigvalsh(tmp_path, monkeypatch):
    rho = assemble_rho_block(rand_block_params(np.random.default_rng(23), 2, 3)).mat
    path = tmp_path / "rho.json"
    write_matrix(path, rho, n=2, m=3)
    gates, solved = [], []
    check_states, eigvalsh = states.check_states, np.linalg.eigvalsh
    for owner in (cli, states):
        monkeypatch.setattr(owner, "check_states",
                            lambda *args: gates.append(args) or check_states(*args))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    assert main(["analyze", str(path)]) == 0
    assert gates == []
    # one for the spectrum, one for the partial transpose
    assert len(solved) == 2
    assert sum(np.array_equal(a, (rho + rho.conj().T) / 2.0) for a in solved) == 1


def test_singular_top_level_has_no_closed_Vjnm():
    # the name is historical: V_j is unique at a singular angle, and the
    # closed form returns it
    p = _params(8, 4, seed=84, singular_top=True, zero_level=4)
    exact = expm_skew(build_Xj_block(p.blockvecs[-1], 8, 8, 4))
    assert np.max(np.abs(build_Vjnm(p.blockvecs[-1], 8, 4) - exact)) <= 1e-12
    assert not np.any(p.blockvecs[2])


def _two_by_m_inputs(rng, m):
    U = rand_unitary(rng, m)
    L1, L2 = rand_psd(rng, m), rand_psd(rng, m)
    tr = (np.trace(L1) + np.trace(L2)).real
    return U, L1 / tr, L2 / tr, rand_psd(rng, m)


def _hankel_inputs(rng, m):
    W = rand_unitary(rng, m)
    d1, d2 = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, m)
    total = d1.sum() + d2.sum()
    L1 = (W * (d1 / total)) @ W.conj().T
    L2 = (W * (d2 / total)) @ W.conj().T
    Xi = (W * rng.uniform(0.2, 1.2, m)) @ W.conj().T
    U = (W * np.where(rng.uniform(size=m) < 0.5, -1.0, 1.0)) @ W.conj().T
    return U, L1, L2, Xi


def _sym(rho):
    return (rho + rho.conj().T) / 2.0


def _cs(Xi2):
    return matfun_psd(Xi2, "cos"), matfun_psd(Xi2, "sin")


def _two_by_m_formula(U, L1, L2, Xi2):
    C, S = _cs(Xi2)
    B11, B12, B21, B22 = _two_by_m_blocks(U, L1, L2, C, S)
    return _sym(np.block([[B11, B12], [B21, B22]]))


def _toeplitz_formula(L, U, Xi2):
    C, S = _cs(Xi2)
    A = C @ L @ C + S @ L @ S
    UB = U @ (S @ L @ C - C @ L @ S)
    return _sym(np.block([[A, UB], [UB.conj().T, A]]))


def _hankel_formula(U, L1, L2, Xi2):
    C, S = _cs(Xi2)
    L1r = U.conj().T @ L1 @ U
    X = U @ (S @ C @ (L2 - L1r))
    A1 = C @ L1r @ C + S @ L2 @ S
    A2 = C @ L2 @ C + S @ L1r @ S
    return _sym(np.block([[U @ A1 @ U.conj().T, X], [X.conj().T, A2]]))


def _bloch_formula(U, Xi2):
    C, S = _cs(Xi2)
    Ud = U.conj().T
    m = U.shape[0]
    return _sym(np.block([[U @ S @ S @ Ud, U @ S @ C], [C @ S @ Ud, C @ C]]) / m)


def _family_cases():
    rng = np.random.default_rng(21)
    L = rand_psd(rng, 3)
    L /= 2.0 * np.trace(L).real
    return {
        "two_by_m": (two_by_m, _two_by_m_formula, _two_by_m_inputs(rng, 3)),
        "toeplitz": (toeplitz_state, _toeplitz_formula,
                     (L, np.exp(0.7j) * np.eye(3), rand_psd(rng, 3))),
        "hankel": (hankel_state, _hankel_formula, _hankel_inputs(rng, 3)),
        "nonabelian_bloch": (nonabelian_bloch, _bloch_formula,
                             (rand_unitary(rng, 3), rand_psd(rng, 3))),
    }


@pytest.mark.parametrize("name", sorted(_family_cases()))
def test_two_by_m_family_decomposes_its_angle_once(name, calls):
    build, _, args = _family_cases()[name]
    calls["eigh"].clear()
    build(*args)
    Xi2 = np.asarray(args[-1], dtype=complex)
    assert len(calls["eigh"]) == 1
    assert np.array_equal(calls["eigh"][0], Xi2)


@pytest.mark.parametrize("name", sorted(_family_cases()))
def test_two_by_m_family_equals_its_formula_bitwise(name):
    build, formula, args = _family_cases()[name]
    assert np.array_equal(build(*args).mat, formula(*args))
