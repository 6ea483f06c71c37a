"""Property-based spot checks on top of the seeded suites."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dmparam import (
    build_Ajnm,
    build_Xj_block,
    circulant_ppt_margins,
    circulant_rho,
    expm_skew,
    partial_transpose,
    ppt_check,
)
from dmparam._random import rand_block_params, rand_complex, rand_skew

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=np.pi / 2, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 7), scale=st.floats(0.01, 10.0))
def test_expm_skew_always_unitary(seed, d, scale):
    X = scale * rand_skew(np.random.default_rng(seed), d)
    U = expm_skew(X)
    assert np.linalg.norm(U.conj().T @ U - np.eye(d)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    alpha=angles,
    beta=angles,
)
def test_circulant_conditions_match_numeric(weights, alpha, beta):
    p = np.array(weights) / np.sum(weights)
    m1, m2 = circulant_ppt_margins(p, alpha, beta)
    if abs(min(m1, m2)) < 1e-9:
        return  # boundary band is labeled, not adjudicated
    analytic = m1 >= 0.0 and m2 >= 0.0
    assert analytic == ppt_check(circulant_rho(p, alpha, beta)).is_ppt


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 3), m=st.integers(2, 3))
def test_partial_transpose_involution(seed, n, m):
    from dmparam import assemble_rho_block

    rho = assemble_rho_block(rand_block_params(np.random.default_rng(seed), n, m))
    pt = partial_transpose(rho, "second")
    back = partial_transpose(pt, "second", dims=(n, m))
    assert np.max(np.abs(back - rho.mat)) <= 1e-14


def _level_blocks(rng, kind, k, m):
    """``k`` blocks of size ``m``: generic, sharing a kernel vector off the
    basis (a singular angle), of rank one together, scaled by 1e-9, or zero."""
    Zs = rand_complex(rng, (k, m, m))
    if kind == "common_kernel":
        v = rand_complex(rng, m)
        v /= np.linalg.norm(v)
        Zs = Zs @ (np.eye(m) - np.outer(v, v.conj()))
    elif kind == "rank_one":
        Zs = rand_complex(rng, (k, m, 1)) @ rand_complex(rng, (1, m))
    elif kind == "tiny":
        Zs = 1e-9 * Zs
    elif kind == "zero":
        Zs = np.zeros_like(Zs)
    return list(Zs)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 5),
    k=st.integers(1, 7),
    kind=st.sampled_from(["generic", "common_kernel", "rank_one", "tiny", "zero"]),
)
def test_auto_closed_form_matches_exp(seed, m, k, kind):
    # the name is historical: the closed form serves every angle, singular
    # ones included
    Zs = _level_blocks(np.random.default_rng(seed), kind, k, m)
    closed = build_Ajnm(Zs, k + 2, k + 1, m)
    exact = expm_skew(build_Xj_block(Zs, k + 2, k + 1, m))
    assert np.max(np.abs(closed - exact)) <= 1e-12
