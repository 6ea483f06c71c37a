"""Bipartite n (x) m states: scalars become m x m blocks.

The angle of each block vector is a PSD matrix Xi with cos/sin evaluated
spectrally; normalization is on the right, so the normalized blocks form a
partition of the identity.
"""

import numpy as np

from dmparam import (
    BlockParams,
    assemble_rho_block,
    block_angle,
    build_Ajnm,
    build_Xj_block,
    expm_skew,
    haar_unitary,
    normalize_blocks,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)
rng = np.random.default_rng(1)

# --- matrix angles -----------------------------------------------------------
Zs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
Xi = block_angle(Zs)
print("matrix angle Xi (PSD):")
print(Xi)
Zt = normalize_blocks(Zs)
print("sum Zt^dag Zt = I:",
      np.allclose(sum(z.conj().T @ z for z in Zt), np.eye(2)))

# --- closed form vs the exponential that defines it -------------------------
# A_j is defined as exp(X_j); build_Ajnm evaluates it in closed form.
closed = build_Ajnm(Zs, n=3, j=3, m=2)
exact = expm_skew(build_Xj_block(Zs, n=3, j=3, m=2))
print("closed form vs exp(X_j):", np.max(np.abs(closed - exact)))

# --- a full 3 (x) 2 state ----------------------------------------------------
lam = rng.dirichlet(np.ones(6))
params = BlockParams(
    n=3, m=2,
    lambdas=lam,
    local_unitaries=tuple(haar_unitary(2, seed=s) for s in (10, 11, 12)),
    blockvecs=(
        (Zs[0],),
        (Zs[0], Zs[1]),
    ),
)
rho = assemble_rho_block(params)
print("\n3 (x) 2 state: trace", np.trace(rho.mat).real.round(12),
      "min eigenvalue", rho.eigenvalues[0].round(12))
print("spectrum equals the input simplex point:",
      np.allclose(np.sort(rho.eigenvalues), np.sort(lam)))

# --- with all block vectors zero the state is block diagonal ----------------
zero = (np.zeros((2, 2)),)
diag_params = BlockParams(
    n=2, m=2, lambdas=[0.4, 0.3, 0.2, 0.1],
    local_unitaries=(np.eye(2), np.eye(2)), blockvecs=(zero,),
)
print("\nzero vectors give the bare core:")
print(assemble_rho_block(diag_params).mat.real)
