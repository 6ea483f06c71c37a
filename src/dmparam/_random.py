"""Seeded random inputs for the self-validation suite and tests."""

from __future__ import annotations

import numpy as np

from .blocks import BlockParams
from .linalg import _haar_qr
from .single import SingleParams


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(rng, d):
    M = rand_complex(rng, (d, d))
    return (M + M.conj().T) / 2.0


def rand_skew(rng, d):
    M = rand_complex(rng, (d, d))
    return (M - M.conj().T) / 2.0


def rand_psd(rng, d, scale=1.0):
    M = rand_complex(rng, (d, d))
    return scale * (M @ M.conj().T) / d


def rand_unitary(rng, d):
    return _haar_qr(rand_complex(rng, (d, d)))


def rand_simplex(rng, d):
    return rng.dirichlet(np.ones(d))


def rand_single_params(rng, n, scale=1.0):
    lambdas = np.sort(rand_simplex(rng, n))[::-1]
    zvecs = tuple(scale * rand_complex(rng, j - 1) for j in range(2, n + 1))
    return SingleParams(n=n, lambdas=lambdas, zvecs=zvecs)


def rand_block_params(rng, n, m):
    lambdas = rand_simplex(rng, n * m)
    unitaries = tuple(rand_unitary(rng, m) for _ in range(n))
    blockvecs = tuple(
        tuple(rand_complex(rng, (m, m)) for _ in range(j - 1))
        for j in range(2, n + 1)
    )
    return BlockParams(
        n=n, m=m, lambdas=lambdas, local_unitaries=unitaries, blockvecs=blockvecs
    )


def rand_commuting_normal_blocks(rng, count, m, scale=1.0):
    """Blocks ``V diag(g_k) V^dag`` in a common eigenbasis: normal, commuting.

    Right-normalizing such a family keeps every block normal, which is the
    regime where the nonabelian-sphere identity holds for left polar parts.
    """
    V = rand_unitary(rng, m)
    gs = [scale * rand_complex(rng, m) for _ in range(count)]
    return [(V * g) @ V.conj().T for g in gs]
