"""One checker per input kind, and every public function that takes the kind.

Each kind of input has one check, whose message every caller shares with
its own name in front:

* factor dimensions (``linalg._check_dims``): positive integers, read
  through ``operator.index``, so a float such as ``2.0`` is refused rather
  than truncated;
* z-vectors (``single._check_zvec``): ``j - 1`` finite entries at level ``j``;
* level indices (``linalg._check_level``): ``2 <= j <= n``;
* the matrices of the four 2 (x) m families (``families._two_by_m_inputs``):
  ``U`` unitary, then each core and ``Xi2`` PSD, all ``m x m``.
"""

import json
import re

import numpy as np
import pytest

from dmparam import (
    BlockParams,
    DensityMatrix,
    SingleParams,
    build_Ajnm,
    build_Vjn,
    build_Xj_block,
    build_Xj_single,
    class3_state,
    detect_structure,
    haar_unitary,
    hankel_state,
    nonabelian_bloch,
    param_count,
    partial_transpose,
    ppt_check,
    toeplitz_state,
    two_by_m,
)
from dmparam.cli import main
from dmparam.entanglement import pt_spectrum
from dmparam.errors import DmParamError
from dmparam.io import write_matrix


def _exactly(message):
    return "^" + re.escape(message) + "$"


_I1, _I2 = np.eye(1), np.eye(2)


def _write(fmt="json", **dims):
    return lambda path: write_matrix(path, np.eye(4) / 4, fmt, **dims)


# (call on a scratch path, the whole message)
DIMS = {
    "DensityMatrix-float": (lambda _: DensityMatrix(2.7, 1, _I2 / 2),
                            "DensityMatrix: dims must be integers, got n=2.7, m=1"),
    "DensityMatrix-zero": (lambda _: DensityMatrix(1, 0, _I1),
                           "DensityMatrix: dims must be positive, got n=1, m=0"),
    "SingleParams-float": (lambda _: SingleParams(2.0, [0.6, 0.4], ([0.3],)),
                           "SingleParams: dims must be integers, got n=2.0"),
    "SingleParams-zero": (lambda _: SingleParams(0, [], ()),
                          "SingleParams: dims must be positive, got n=0"),
    "BlockParams-float": (lambda _: BlockParams(2.0, 1, [0.6, 0.4], (_I1, _I1), ([_I1],)),
                          "BlockParams: dims must be integers, got n=2.0, m=1"),
    "BlockParams-negative": (lambda _: BlockParams(2, -1, [1.0], (), ()),
                             "BlockParams: dims must be positive, got n=2, m=-1"),
    "param_count-float": (lambda _: param_count(2.5),
                          "param_count: dims must be integers, got n=2.5"),
    "param_count-negative": (lambda _: param_count(-3),
                             "param_count: dims must be positive, got n=-3"),
    "haar_unitary-float": (lambda _: haar_unitary(2.5, 1),
                           "haar_unitary: dims must be integers, got m=2.5"),
    "haar_unitary-zero": (lambda _: haar_unitary(0, 1),
                          "haar_unitary: dims must be positive, got m=0"),
    "class3_state-zero-m": (lambda _: class3_state(2, 0, [_I1]),
                            "class3_state: dims must be positive, got n=2, m=0"),
    "class3_state-float-m": (lambda _: class3_state(2, 1.0, [_I1]),
                             "class3_state: dims must be integers, got n=2, m=1.0"),
    "ppt_check-float": (lambda _: ppt_check(np.eye(4) / 4, dims=(2.0, 2.0)),
                        "partial_transpose: dims must be integers, got n=2.0, m=2.0"),
    "ppt_check-negative": (lambda _: ppt_check(_I2 / 2, dims=(-1, -2)),
                           "partial_transpose: dims must be positive, got n=-1, m=-2"),
    "pt_spectrum-negative": (lambda _: pt_spectrum(_I2 / 2, dims=(-1, -2)),
                             "partial_transpose: dims must be positive, got n=-1, m=-2"),
    "partial_transpose-negative": (
        lambda _: partial_transpose(_I2 / 2, dims=(-1, -2)),
        "partial_transpose: dims must be positive, got n=-1, m=-2"),
    "detect_structure-negative": (lambda _: detect_structure(_I2 / 2, dims=(-1, -2)),
                                  "detect_structure: dims must be positive, got n=-1, m=-2"),
    "write_matrix-float": (_write(n=2.5, m=1.6),
                           "write_matrix: dims must be integers, got n=2.5, m=1.6"),
    "write_matrix-zero-m": (_write(m=0), "write_matrix: dims must be positive, got m=0"),
    "write_matrix-text-zero": (_write("matrix_text", n=0, m=4),
                               "write_matrix: dims must be positive, got n=0, m=4"),
}


@pytest.mark.parametrize("case", sorted(DIMS))
def test_bad_dims_have_one_message(case, tmp_path):
    call, message = DIMS[case]
    with pytest.raises(DmParamError, match=_exactly(message)):
        call(tmp_path / "rho")
    assert not (tmp_path / "rho").exists()


def test_integer_dims_are_stored_as_int(tmp_path):
    n, m = np.int64(2), np.int32(1)
    carriers = [DensityMatrix(n, m, _I2 / 2), SingleParams(n, [0.6, 0.4], ([0.3],)),
                BlockParams(n, m, [0.6, 0.4], (_I1, _I1), ([_I1],))]
    for p in carriers:
        assert type(p.n) is int and p.n == 2
    assert type(carriers[0].m) is type(carriers[2].m) is int
    assert param_count(np.int64(3)) == 8
    write_matrix(tmp_path / "rho", _I2 / 2, n=n, m=m)
    doc = json.loads((tmp_path / "rho").read_text(encoding="utf-8"))
    assert (doc["n"], doc["m"]) == (2, 1)


def test_class3_file_with_zero_m_names_the_dims(tmp_path, capsys):
    src = tmp_path / "p.json"
    src.write_text(json.dumps({"schema_version": "1", "kind": "family", "payload": {
        "family": "class3", "n": 2, "m": 0, "Z": [[[0.5]]]}}))
    assert main(["generate", str(src), "-o", str(tmp_path / "rho.json")]) == 2
    assert capsys.readouterr().err == (
        "input error: family 'class3': class3_state: dims must be positive, got n=2, m=0\n")


def _single(z, j):
    lambdas = np.arange(j, 0, -1) / (j * (j + 1) / 2)
    return SingleParams(j, lambdas, [np.zeros(k - 1) for k in range(2, j)] + [z])


#: Every public function that takes one z-vector, as ``f(z, j)``.
ZVEC_TAKERS = {
    "SingleParams": _single,
    "build_Vjn": build_Vjn,
    "build_Xj_single": lambda z, j: build_Xj_single(z, j + 1, j),
}


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("who", sorted(ZVEC_TAKERS))
@pytest.mark.parametrize("bad, problem", [
    ("long", "must have length {short}, got {j}"),
    ("short", "must have length {short}, got {shorter}"),
    ("nan", "has non-finite entries"),
    ("inf", "has non-finite entries"),
])
def test_bad_zvec_has_one_message(who, j, bad, problem):
    z = {"long": np.zeros(j), "short": np.zeros(j - 2),
         "nan": np.full(j - 1, np.nan), "inf": np.r_[np.zeros(j - 2), np.inf]}[bad]
    message = f"{who}: z-vector for j={j} " + problem.format(short=j - 1, j=j, shorter=j - 2)
    with pytest.raises(DmParamError, match=_exactly(message)):
        ZVEC_TAKERS[who](z, j)


@pytest.mark.parametrize("j", [2, 3])
def test_zvec_takers_accept_a_good_zvec(j):
    z = np.arange(1, j) * (0.1 + 0.2j)
    for take in ZVEC_TAKERS.values():
        take(z, j)


#: Every public function that takes a level index, as ``f(j, n)``.
LEVEL_TAKERS = {
    "build_Xj_single": lambda j, n: build_Xj_single(np.zeros(max(j - 1, 0)), n, j),
    "build_Xj_block": lambda j, n: build_Xj_block([_I1] * max(j - 1, 1), n, j, 1),
    "build_Ajnm": lambda j, n: build_Ajnm([_I1] * max(j - 1, 1), n, j, 1),
    "build_Vjn": lambda j, n: build_Vjn(np.zeros(max(j - 1, 0)), j),
}


# build_Vjn's level is its size, n = j, so only j < 2 is out of range there
_LEVEL_CASES = [(who, j, n) for who in LEVEL_TAKERS if who != "build_Vjn"
                for j, n in [(1, 3), (0, 3), (4, 3)]] + [("build_Vjn", j, j) for j in (1, 0)]


@pytest.mark.parametrize("who, j, n", _LEVEL_CASES)
def test_bad_level_has_one_message(who, j, n):
    with pytest.raises(DmParamError, match=_exactly(f"{who}: need 2 <= j <= n, got j={j}, n={n}")):
        LEVEL_TAKERS[who](j, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_single_generator_is_the_block_generator_at_m_1(n):
    rng = np.random.default_rng(n)
    for j in range(2, n + 1):
        z = rng.standard_normal(j - 1) + 1j * rng.standard_normal(j - 1)
        single = build_Xj_single(z, n, j)
        block = build_Xj_block(list(z.reshape(-1, 1, 1)), n, j, 1)
        assert single.tobytes() == block.tobytes()


_Q2 = _I2 / 4
_NOT_PSD = np.diag([0.5, -0.5])
_NOT_UNITARY = np.diag([1.0, 2.0])

#: Each 2 (x) m family with inputs it accepts, in its argument order.
TWO_BY_M = {
    "two_by_m": (two_by_m, {"U": _I2, "L1": _Q2, "L2": _Q2, "Xi2": _I2}),
    "toeplitz_state": (toeplitz_state, {"L": _Q2, "U": _I2, "Xi2": _I2}),
    "hankel_state": (hankel_state, {"U": _I2, "L1": _Q2, "L2": _Q2, "Xi2": _I2}),
    "nonabelian_bloch": (nonabelian_bloch, {"U": _I2, "Xi2": _I2}),
}

_TWO_BY_M_CASES = [(who, key) for who, (_, args) in TWO_BY_M.items() for key in args]


def _call(who, **changed):
    build, args = TWO_BY_M[who]
    return build(**{**args, **changed})


@pytest.mark.parametrize("who", sorted(TWO_BY_M))
def test_two_by_m_families_accept_their_inputs(who):
    assert _call(who).dims == (2, 2)


@pytest.mark.parametrize("who, key", _TWO_BY_M_CASES)
def test_two_by_m_bad_matrix_is_named(who, key):
    if key == "U":
        message = f"{who}: U: unitarity deviation 3.000e+00 exceeds tolerance"
        bad = _NOT_UNITARY
    else:
        message = f"{who}: {key}: eigenvalue -5.000e-01 below -tol_psd"
        bad = _NOT_PSD
    with pytest.raises(DmParamError, match=_exactly(message)):
        _call(who, **{key: bad})


@pytest.mark.parametrize("who, key", _TWO_BY_M_CASES)
def test_two_by_m_shape_has_one_message(who, key):
    bad = np.eye(3) if key == "U" else np.eye(3) / 6
    with pytest.raises(DmParamError, match=_exactly(f"{who}: all inputs must be m x m")):
        _call(who, **{key: bad})


@pytest.mark.parametrize("who", sorted(TWO_BY_M))
def test_two_by_m_checks_U_first(who):
    _, args = TWO_BY_M[who]
    bad = {key: _NOT_UNITARY if key == "U" else _NOT_PSD for key in args}
    message = f"{who}: U: unitarity deviation 3.000e+00 exceeds tolerance"
    with pytest.raises(DmParamError, match=_exactly(message)):
        _call(who, **bad)
