"""The paper's parameter count as a local oracle.

A parametrization of the full-rank density matrices of dimension ``d``
reaches a neighbourhood of every generic state, so the real Jacobian of
``params -> rho`` has there the dimension of the state manifold, ``d^2 - 1``
(Hermitian, trace one).  For an ``n (x) m`` state the directions are the
``d - 1`` simplex tangents, ``U_k <- U_k exp(i t H)`` over a Hermitian basis
for each of the ``n`` local unitaries, and the real and imaginary part of
every block entry: ``d^2 + d - 1`` in all, of which the ``d`` diagonal
phases of the ``U_k`` commute with the core.  For a single system the
``n - 1`` tangents and the ``n (n - 1)`` real z-vector entries are exactly
``param_count(n) = n^2 - 1``, so its Jacobian has full column rank.

The Jacobian is taken by central differences, and its rank counts the
singular values above a threshold derived from the step and the rounding
(:func:`_step`), not from the gap observed between kept and dropped ones.
Generic points: eigenvalues at least ``1 / (4 d^2)`` apart and every matrix
angle below ``pi / 2``, away from the degenerate spectra and boundary angles
where the rank is predicted to drop.

At a spectrum with eigenvalue multiplicities ``n_i`` the states nearby are
the unitary orbit, of dimension ``d^2 - sum n_i^2``, plus the ``d - 1``
directions that move the eigenvalues, so the rank drops to
``d^2 - 1 - sum n_i (n_i - 1)``.  Boundary angles are not tested: their drop
is not derived.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmparam import (
    BlockParams,
    SingleParams,
    assemble_rho_block,
    assemble_rho_single,
    expm_skew,
    param_count,
)
from dmparam._random import rand_complex, rand_unitary

EPS = np.finfo(float).eps
#: Bound on every entry of ``d^3 rho / dt^3`` along each direction: each
#: moves one unitary factor as ``exp(t F)`` with ``||F|| <= 1`` (or the
#: eigenvalues linearly), and ``rho = A D A^dag`` with ``||D|| <= 1`` has
#: ``||(A D A^dag)'''|| <= 2^3 ||D||``.
THIRD = 8.0


def _step(d):
    """Central-difference step ``h`` and the bound on each entry's error in
    the difference quotient.

    A state is computed with entry errors below ``delta = d^2 eps``: at most
    ``d`` unitary factors, each applied through products of inner dimension
    at most ``d`` on entries of modulus at most one.  The quotient
    ``(rho(h) - rho(-h)) / 2h`` then errs by at most ``delta / h`` from
    rounding plus ``h^2 THIRD / 6`` from truncation, least at
    ``h = (3 delta / THIRD)^(1/3)``.
    """
    delta = d * d * EPS
    h = (3.0 * delta / THIRD) ** (1.0 / 3.0)
    return h, delta / h + h * h * THIRD / 6.0


def _rank(state, moves, d):
    """Numerical rank of the real Jacobian of ``state`` along ``moves``.

    Each column errs by at most the per-entry bound of :func:`_step` in each
    of its ``2 d^2`` entries, so the whole error has spectral norm at most
    ``sqrt(2 d^2 P)`` times that bound, and no singular value of the exact
    Jacobian moves by more (Weyl).
    """
    h, err = _step(d)
    cols = []
    for move in moves:
        D = (state(move(h)) - state(move(-h))) / (2.0 * h)
        cols.append(np.concatenate([D.real.ravel(), D.imag.ravel()]))
    J = np.array(cols).T
    tau = np.sqrt(J.size) * err
    return int(np.sum(np.linalg.svd(J, compute_uv=False) > tau))


def _separated_simplex(rng, d):
    """A point of the simplex whose entries lie at least ``1 / (4 d^2)``
    apart and from zero."""
    lam = np.arange(1, d + 1) + rng.uniform(0.0, 0.5, d)
    return rng.permutation(lam / lam.sum())


def _hermitian_basis(m):
    """An orthonormal basis of the ``m x m`` Hermitian matrices; each has
    spectral norm at most one."""
    basis = []
    for a in range(m):
        for b in range(m):
            H = np.zeros((m, m), dtype=complex)
            if a == b:
                H[a, a] = 1.0
            elif a < b:
                H[a, b] = H[b, a] = np.sqrt(0.5)
            else:
                H[a, b], H[b, a] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            basis.append(H)
    return basis


def _unit_entries(T):
    """Stacks with one entry 1 or ``i``, each entry of ``T`` in turn."""
    for idx in np.ndindex(T.shape):
        for unit in (1.0, 1j):
            E = np.zeros(T.shape, dtype=complex)
            E[idx] = unit
            yield E


def _block_moves(lam, us, vecs):
    d = len(lam)
    for i in range(d - 1):
        v = np.zeros(d)
        v[i], v[i + 1] = 1.0, -1.0
        yield lambda t, v=v: (lam + t * v, us, vecs)
    for k, Uk in enumerate(us):
        for H in _hermitian_basis(len(Uk)):
            yield lambda t, k=k, Uk=Uk, H=H: (
                lam, us[:k] + (Uk @ expm_skew(1j * t * H),) + us[k + 1 :], vecs)
    for j, T in enumerate(vecs):
        for E in _unit_entries(T):
            yield lambda t, j=j, T=T, E=E: (lam, us, vecs[:j] + (T + t * E,) + vecs[j + 1 :])


def _below_right_angle(rng, T):
    """``T`` scaled so that its largest matrix angle is in ``[0.3, 1.3]``."""
    top = np.linalg.norm(T.reshape(-1, T.shape[-1]), 2)
    return T * (rng.uniform(0.3, 1.3) / top)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 3))
def test_block_jacobian_has_the_dimension_of_the_states(seed, n, m):
    d = n * m
    if d < 2:
        return
    rng = np.random.default_rng(seed)
    lam = _separated_simplex(rng, d)
    us = tuple(rand_unitary(rng, m) for _ in range(n))
    vecs = tuple(_below_right_angle(rng, rand_complex(rng, (j - 1, m, m))) for j in range(2, n + 1))

    def state(params):
        return assemble_rho_block(BlockParams(n, m, *params)).mat

    moves = list(_block_moves(lam, us, vecs))
    assert len(moves) == d * d + d - 1
    assert _rank(state, moves, d) == d * d - 1


def _degenerate_simplex(rng, mult):
    """A point of the simplex with ``mult[i]`` entries equal to the ``i``-th
    of ``len(mult)`` values spaced as in :func:`_separated_simplex`, in a
    random order."""
    values = np.arange(1, len(mult) + 1) + rng.uniform(0.0, 0.5, len(mult))
    lam = np.repeat(values, mult)
    return rng.permutation(lam / lam.sum())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, m, mult", [
    (2, 2, (2, 1, 1)), (2, 2, (2, 2)), (3, 2, (3, 1, 1, 1)), (2, 3, (2, 2, 2)),
    (4, 1, (2, 1, 1)), (3, 1, (3,)), (4, 2, (2, 2, 1, 1, 1, 1)),
])
def test_block_jacobian_rank_drops_at_degenerate_spectra(n, m, mult, seed):
    # BlockParams takes eigenvalues in any order, so the central difference
    # can split a degenerate group (SingleParams needs them descending)
    d = n * m
    rng = np.random.default_rng([seed, n, m, *mult])
    lam = _degenerate_simplex(rng, mult)
    us = tuple(rand_unitary(rng, m) for _ in range(n))
    vecs = tuple(_below_right_angle(rng, rand_complex(rng, (j - 1, m, m))) for j in range(2, n + 1))

    def state(params):
        return assemble_rho_block(BlockParams(n, m, *params)).mat

    predicted = d * d - 1 - sum(k * (k - 1) for k in mult)
    assert _rank(state, list(_block_moves(lam, us, vecs)), d) == predicted


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9))
def test_single_jacobian_rank_is_the_parameter_count(seed, n):
    rng = np.random.default_rng(seed)
    lam = np.sort(_separated_simplex(rng, n))[::-1]
    zvecs = tuple(
        _below_right_angle(rng, rand_complex(rng, (j - 1, 1, 1))).reshape(-1)
        for j in range(2, n + 1)
    )

    def state(params):
        return assemble_rho_single(SingleParams(n, *params)).mat

    moves = []
    for i in range(n - 1):
        v = np.zeros(n)
        v[i], v[i + 1] = 1.0, -1.0
        moves.append(lambda t, v=v: (lam + t * v, zvecs))
    for j, z in enumerate(zvecs):
        for E in _unit_entries(z):
            moves.append(lambda t, j=j, z=z, E=E: (lam, zvecs[:j] + (z + t * E,) + zvecs[j + 1 :]))
    assert len(moves) == param_count(n)
    assert _rank(state, moves, n) == param_count(n)
