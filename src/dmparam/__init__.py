"""dmparam: factorized density matrices for single and bipartite systems.

The package builds n-level and n (x) m density matrices from a cascade of
sparse unitary factors (one complex vector, or block vector, per level),
provides closed-form constructors for the standard 2-qubit and 2 (x) m
state families, and analyzes the results: partial transpose, the PPT test,
analytic separability conditions and block-structure detection.
"""

from .blocks import (
    BlockParams,
    assemble_rho_block,
    block_angle,
    build_Ajnm,
    build_core,
    build_Vjnm,
    build_Xj_block,
    normalize_blocks,
)
from .entanglement import (
    PptReport,
    circulant_conditions,
    circulant_ppt_margins,
    detect_structure,
    partial_transpose,
    ppt_check,
)
from .errors import ConvergenceFailureError, DmParamError, NotPsdError, SingularAngleError
from .families import (
    SIGMA_X,
    FamilySpec,
    bell_diagonal,
    build_family,
    circulant_rho,
    class3_state,
    hankel_state,
    isotropic,
    isotropic_alpha,
    nonabelian_bloch,
    nonabelian_sphere_check,
    pure_P,
    sep_threshold,
    toeplitz_state,
    two_by_m,
)
from .linalg import DEFAULT_TOL, Tolerances, expm_skew, haar_unitary, herm_eig, matfun_psd, polar
from .single import (
    SingleParams,
    assemble_rho_single,
    build_Vjn,
    build_Xj_single,
    param_count,
)
from .states import DensityMatrix
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "BlockParams", "assemble_rho_block", "block_angle", "build_Ajnm", "build_core",
    "build_Vjnm", "build_Xj_block", "normalize_blocks",
    "PptReport", "circulant_conditions", "circulant_ppt_margins", "detect_structure",
    "partial_transpose", "ppt_check",
    "ConvergenceFailureError", "DmParamError", "NotPsdError", "SingularAngleError",
    "SIGMA_X", "FamilySpec", "bell_diagonal", "build_family", "circulant_rho", "class3_state",
    "hankel_state", "isotropic", "isotropic_alpha", "nonabelian_bloch",
    "nonabelian_sphere_check", "pure_P", "sep_threshold", "toeplitz_state", "two_by_m",
    "DEFAULT_TOL", "Tolerances", "expm_skew", "haar_unitary", "herm_eig", "matfun_psd", "polar",
    "SingleParams", "assemble_rho_single", "build_Vjn", "build_Xj_single", "param_count",
    "DensityMatrix",
    "run_validation",
]
