"""Malformed parameter files, matrix files and sweep arguments end in exit 2
with a message that names the offending field."""

import json

import numpy as np
import pytest

from dmparam.cli import main
from dmparam.errors import DmParamError
from dmparam.io import read_matrix, write_matrix


def _doc(kind, payload):
    return {"schema_version": "1", "kind": kind, "payload": payload}


def _block(**fields):
    payload = {"n": 2, "m": 2, "lambdas": [0.25] * 4,
               "local_unitaries": [np.eye(2).tolist()] * 2, "blockvecs": []}
    payload.update(fields)
    return _doc("block", payload)


_I2 = [[1, 0], [0, 1]]
_Q2 = [[0.25, 0], [0, 0.25]]


def _two_by_m(**fields):
    payload = {"family": "two_by_m", "U": _I2, "L1": _Q2, "L2": _Q2, "Xi2": _I2}
    payload.update(fields)
    return _doc("family", payload)


_SWEEP_CIRCULANT = ["--family", "circulant", "--grid", "alpha=0:1:3", "--grid", "beta=0:1:3"]

#: A JSON integer past the largest double.
HUGE = 10**400

#: An ``analyze`` input path where no file is, and one that is a directory.
MISSING, DIRECTORY = object(), object()

_3X3_TEXT = "0.5+0j 0+0j 0+0j\n0+0j 0.25+0j 0+0j\n0+0j 0+0j 0.25+0j\n"

# (parameter document, matrix document, a matrix file's raw text or sweep
# argv, text stderr must contain); a tuple is an ``analyze`` input (a matrix
# document or raw text, MISSING or DIRECTORY) followed by flags
CASES = {
    "top-level-array": ([_doc("single", {"lambdas": [1.0], "zvecs": []})],
                        "top level: expected an object"),
    "ragged-matrix": ({"schema_version": "1", "n": 2, "m": 1, "matrix": [[0.5, 0], [0.5]]},
                      "field 'matrix': ragged matrix rows"),
    "matrix-shape-not-dims": (
        {"schema_version": "1", "n": 2, "m": 2, "matrix": [[0.5, 0], [0, 0.5]]},
        "analyze: matrix shape (2, 2) does not match n*m = 4"),
    "ragged-matrix-text": ("0.5+0j 0+0j\n0.5+0j\n", "empty or ragged matrix_text"),
    "blank-matrix-text": ("\n  \n", "empty or ragged matrix_text"),
    "bad-matrix-text-token": ("0.5+0j x\n0+0j 0.5+0j\n", "bad matrix_text token"),
    "truncated-matrix-json": ('{"schema_version": "1", "matrix": [[', "cannot parse"),
    "sweep-grid-count-0": (["--family", "isotropic", "--grid", "p=0:1:0"],
                           "bad grid spec 'p=0:1:0': count must be >= 1"),
    "huge-family-p": (_doc("family", {"family": "isotropic", "p": HUGE}),
                      "field 'p': number out of float range"),
    "huge-circulant-p": (
        _doc("family", {"family": "circulant", "p": [0.25, HUGE, 0.25, 0.25],
                        "alpha": 0.1, "beta": 0.2}), "field 'p[1]': number out of float range"),
    "huge-two_by_m-U": (
        _doc("family", {"family": "two_by_m", "U": [[1, 0], [0, [0.0, HUGE]]],
                        "L1": [[0.25, 0], [0, 0.25]], "L2": [[0.25, 0], [0, 0.25]],
                        "Xi2": [[1, 0], [0, 1]]}), "field 'U': number out of float range"),
    "huge-single-lambdas": (
        _doc("single", {"lambdas": [0.6, HUGE], "zvecs": [[[0.3, 0.1]]]}),
        "field 'lambdas': number out of float range"),
    "huge-matrix-entry": (
        {"schema_version": "1", "n": 1, "m": 1, "matrix": [[[HUGE, 0.0]]]},
        "field 'matrix': number out of float range"),
    "bool-matrix-entry": (_block(local_unitaries=[[[True, 0], [0, 1]], np.eye(2).tolist()]),
                          "field 'local_unitaries[0]': expected a number"),
    "bool-pair": (_doc("single", {"lambdas": [0.6, 0.4], "zvecs": [[[0.3, True]]]}),
                  "field 'zvecs[0]': expected a number"),
    "bool-lambdas": (_doc("single", {"lambdas": [True, False], "zvecs": [[[0.3, 0.1]]]}),
                     "field 'lambdas': expected a number"),
    "complex-single-lambdas": (
        _doc("single", {"lambdas": [0.6, [0.4, 0.0], [0.0, 1e-20]], "zvecs": [[0.3], [0.1, 0.2]]}),
        "field 'lambdas': entry 2 has imaginary part 1e-20"),
    "complex-block-lambdas": (_block(lambdas=[[0.6, 0.5], [0.4, -3], 0.0, 0.0]),
                              "field 'lambdas': entry 0 has imaginary part 0.5"),
    "nan-single-lambdas": (_doc("single", {"lambdas": [1.0, float("nan")], "zvecs": [[0.3]]}),
                           "SingleParams: non-finite eigenvalue nan"),
    "single-no-lambdas": (_doc("single", {"lambdas": [], "zvecs": []}),
                          "SingleParams: dims must be positive, got n=0"),
    "single-missing-zvec": (_doc("single", {"lambdas": [0.6, 0.4], "zvecs": []}),
                            "SingleParams: expected 1 z-vectors, got 0"),
    "single-long-zvec": (
        _doc("single", {"lambdas": [0.6, 0.4], "zvecs": [[[0.3, 0.1], [0.2, 0.0]]]}),
        "SingleParams: z-vector for j=2 must have length 1, got 2"),
    "single-nan-zvec": (_doc("single", {"lambdas": [0.6, 0.4], "zvecs": [[float("nan")]]}),
                        "SingleParams: z-vector for j=2 has non-finite entries"),
    "block-zero-n": (_block(n=0), "BlockParams: dims must be positive, got n=0, m=2"),
    "block-missing-blockvec": (_block(), "BlockParams: expected 1 block vectors, got 0"),
    "block-nan-entry": (_block(blockvecs=[[[[float("nan"), 0], [0, 0.2]]]]),
                        "BlockParams: Z_2: block 0 has non-finite entries"),
    "block-not-square": (_block(blockvecs=[[[[0.1, 0.2]]]]),
                         "BlockParams: Z_2: block 0 is not square (shape (1, 2))"),
    "two_by_m-3x3-L1": (_two_by_m(L1=(np.eye(3) / 6).tolist()),
                        "two_by_m: all inputs must be m x m"),
    "class3-n-1": (_doc("family", {"family": "class3", "n": 1, "m": 1, "Z": []}),
                   "class3_state: need n >= 2, got 1"),
    "nonabelian_bloch-nan-U": (
        _doc("family", {"family": "nonabelian_bloch", "U": [[float("nan"), 0], [0, 1]],
                        "Xi2": _I2}),
        "nonabelian_bloch: U: matrix contains non-finite entries"),
    "nonabelian_bloch-1x1-Xi2": (
        _doc("family", {"family": "nonabelian_bloch", "U": _I2, "Xi2": [[0.5]]}),
        "nonabelian_bloch: all inputs must be m x m"),
    "analyze-missing-file": ((MISSING,), "cannot read"),
    "analyze-directory": ((DIRECTORY,), "cannot read"),
    "analyze-negative-dims-flags": ((_3X3_TEXT, "--n", "-1", "--m", "-3"),
                                    "analyze: dims must be positive, got n=-1, m=-3"),
    "analyze-negative-dims-file": (
        {"schema_version": "1", "n": -1, "m": -3,
         "matrix": [[1 / 3, 0, 0], [0, 1 / 3, 0], [0, 0, 1 / 3]]},
        "analyze: dims must be positive, got n=-1, m=-3"),
    "overflowing-single-lambdas": (
        _doc("single", {"lambdas": [1e308, 1e308], "zvecs": [[0.3]]}),
        "SingleParams: eigenvalues sum to inf, not 1"),
    "bool-matrix-file": ({"schema_version": "1", "n": 1, "m": 1, "matrix": [[True]]},
                         "field 'matrix': expected a number"),
    "family-p-object": (_doc("family", {"family": "isotropic", "p": {"a": 1}}), "'p'"),
    "class3-Z-int": (_doc("family", {"family": "class3", "n": 2, "m": 1, "Z": 5}), "'Z'"),
    "block-unitaries-int": (_block(local_unitaries=3), "'local_unitaries'"),
    "block-blockvecs-int": (_block(blockvecs=3), "'blockvecs'"),
    "alpha-string": (
        _doc("family", {"family": "isotropic_alpha", "p": 0.2, "alpha": "x"}), "'alpha'"),
    "n-string": (
        _doc("family", {"family": "class3", "n": "2", "m": 1, "Z": [[[0.5]]]}), "'n'"),
    "unknown-field": (_doc("family", {"family": "isotropic", "p": 0.2, "q": 1}), "'q'"),
    "single-unknown-field": (
        _doc("single", {"lambdas": [0.6, 0.4], "zvecs": [[0.3]], "zvec": [0.3]}),
        "field 'zvec': not a field of kind 'single' (expected ['lambdas', 'zvecs'])"),
    "block-unknown-field": (
        _block(blockvecs=[[[[0.1, 0], [0, 0.2]]]], blockvec=[]),
        "field 'blockvec': not a field of kind 'block' (expected ['n', 'm', 'lambdas', "
        "'local_unitaries', 'blockvecs'])"),
    # single and block fields are read in a fixed order, whatever the file's
    "single-bad-before-missing": (_doc("single", {"lambdas": "x"}),
                                  "field 'lambdas': expected a list"),
    "single-fields-in-order": (_doc("single", {"zvecs": 3, "lambdas": "x"}),
                               "field 'lambdas': expected a list"),
    "block-fields-in-order": (
        _doc("block", {"blockvecs": 3, "n": "x", "m": 1, "lambdas": [1], "local_unitaries": []}),
        "field 'n': expected an integer"),
    "unknown-family": (_doc("family", {"family": "werner", "p": 0.2}), "'werner'"),
    "kind-list": (_doc(["single"], {}), "field 'kind': expected single|block|family"),
    "sweep-missing-p": (_SWEEP_CIRCULANT, "'p'"),
    "sweep-missing-beta": (
        ["--family", "circulant", "--grid", "alpha=0:1:3", "--set", "p=0.1,0.2,0.3,0.4"],
        "'beta'"),
    "sweep-unknown-set": (
        ["--family", "isotropic", "--grid", "p=0:1:3", "--set", "alpha=0.3"], "'alpha'"),
    "sweep-list-for-number": (
        ["--family", "bell_diagonal", "--grid", "p1=0:0.3:3", "--set", "p2=0.1,0.2"], "p2"),
    "sweep-grid-twice": (
        ["--family", "isotropic", "--grid", "p=0:1:3", "--grid", "p=0:1:3"], "'p' is given more than once"),
    "sweep-grid-and-set": (
        ["--family", "pure_P", "--grid", "alpha=0:1:3", "--set", "alpha=0.2"],
        "'alpha' is given more than once"),
    "sweep-grid-nan": (
        ["--family", "pure_P", "--grid", "alpha=nan:1:3"], "bad grid spec 'alpha=nan:1:3'"),
    "sweep-grid-inf": (
        ["--family", "pure_P", "--grid", "alpha=0:inf:3"], "bad grid spec 'alpha=0:inf:3'"),
    "sweep-set-nan": (
        ["--family", "isotropic_alpha", "--grid", "p=0:1:3", "--set", "alpha=nan"],
        "bad --set 'alpha=nan'"),
    "sweep-grid-past-intp": (
        ["--family", "pure_P", "--grid", "alpha=0:1:100000000000000000000"],
        "sweep: the grid has 100000000000000000000 points, more than"),
    "sweep-grid-product-past-intp": (
        ["--family", "isotropic_alpha", "--grid", "p=0:1:10000000000",
         "--grid", "alpha=0:1:10000000000"],
        "sweep: the grid has 100000000000000000000 points, more than"),
    "sweep-set-reals-wrong-length": (
        _SWEEP_CIRCULANT + ["--set", "p=0.5,0.5"], "expected 4 eigenvalues, got 2"),
    "sweep-set-reals-inf": (
        ["--family", "circulant", "--grid", "alpha=0:1:3", "--grid", "beta=0:1:3",
         "--set", "p=0.5,inf,0,0"], "bad --set 'p=0.5,inf,0,0'"),
    "sweep-set-reals-sum-overflows": (
        _SWEEP_CIRCULANT + ["--set", "p=1e308,1e308,0,0"], "sweep 'circulant': 'p' is too large"),
    "sweep-set-weights-sum-overflows": (
        ["--family", "bell_diagonal", "--grid", "p1=0:0.3:3", "--set", "p2=1e308",
         "--set", "p3=1e308"], "sweep 'bell_diagonal': 'p2' is too large"),
}


# (parameter document, exit code, the whole of stderr): one raise site of each
# kind of input error the CLI can reach, and a negative eigenvalue (exit 3)
PINNED = {
    "isotropic-p-above-range": (
        _doc("family", {"family": "isotropic", "p": 2}), 2,
        "input error: family 'isotropic': isotropic: p = 2.0 outside [-1/3, 1]\n"),
    "block-lambdas-sum-above-1": (
        _block(lambdas=[0.4, 0.3, 0.2, 0.2], blockvecs=[[[[0.1, 0], [0, 0.2]]]]), 2,
        "input error: BlockParams: eigenvalues sum to 1.0999999999999999, not 1\n"),
    "toeplitz-noncommuting": (
        _doc("family", {"family": "toeplitz", "L": [[0.3, 0.1], [0.1, 0.2]],
                        "U": [[0, 1], [1, 0]], "Xi2": [[0.3, 0], [0, 0.5]]}), 2,
        "input error: family 'toeplitz': condition '[L, U] = 0' violated: "
        "residual 1.414e-01 exceeds tolerance 1.0e-10\n"),
    "circulant-alpha-above-range": (
        _doc("family", {"family": "circulant", "p": [0.4, 0.3, 0.2, 0.1],
                        "alpha": 3, "beta": 0.2}), 2,
        "input error: family 'circulant': alpha = 3.0 outside [0, pi/2]\n"),
    "block-nonunitary": (
        _block(local_unitaries=[[[1, 0], [0, 2]], _I2], blockvecs=[[[[0.1, 0], [0, 0.2]]]]), 2,
        "input error: BlockParams: U_1: unitarity deviation 3.000e+00 exceeds tolerance\n"),
    "two_by_m-nonhermitian": (
        _two_by_m(L1=[[0.25, 0.1], [0, 0.25]]), 2,
        "input error: family 'two_by_m': two_by_m: L1: Hermiticity deviation 1.414e-01 "
        "exceeds tolerance\n"),
    "two_by_m-trace-above-1": (
        _two_by_m(L1=[[0.3, 0], [0, 0.3]]), 2,
        "input error: family 'two_by_m': two_by_m: Tr(L1 + L2) = 1.1, not 1\n"),
    "two_by_m-nonsquare": (
        _two_by_m(U=[[1, 0, 0], [0, 1, 0]]), 2,
        "input error: family 'two_by_m': two_by_m: U: expected a square matrix, "
        "got shape (2, 3)\n"),
    "two_by_m-negative-L1": (
        _two_by_m(L1=[[0.6, 0], [0, -0.1]]), 3,
        "numerical failure: family 'two_by_m': two_by_m: L1: eigenvalue -1.000e-01 "
        "below -tol_psd\n"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_exit_code_and_whole_stderr(case, tmp_path, capsys):
    doc, code, err = PINNED[case]
    src, out = tmp_path / "params.json", tmp_path / "out"
    src.write_text(json.dumps(doc))
    assert main(["generate", str(src), "-o", str(out)]) == code
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(CASES))
def test_exits_2_and_names_field(case, tmp_path, capsys):
    doc, field = CASES[case]
    src, out = tmp_path / "input", tmp_path / "out"
    doc, *flags = doc if isinstance(doc, tuple) else (doc,)
    if doc is DIRECTORY:
        src.mkdir()
    elif isinstance(doc, str):
        src.write_text(doc)
    if not isinstance(doc, (list, dict)):  # raw text, MISSING or DIRECTORY
        argv = ["analyze", str(src), *flags]
    elif isinstance(doc, list) and all(isinstance(arg, str) for arg in doc):
        argv = ["sweep", *doc, "-o", str(out)]
    else:
        src.write_text(json.dumps(doc))
        argv = ["analyze", str(src)] if "matrix" in doc else ["generate", str(src), "-o", str(out)]
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_failed_sweep_leaves_no_file(tmp_path, capsys):
    # isotropic is defined on [-1/3, 1]: the grid leaves it at its fourth point
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "isotropic", "--grid", "p=0:2:7", "-o", str(out)]) == 2
    assert "outside" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_in_the_rounding_band_exits_3(tmp_path, capsys):
    # Row 0's smallest eigenvalue lies within rounding of -tol_psd, where
    # the Cholesky and eigvalsh verdicts can differ, and row 2 is not a state.
    # Each row gets the verdict it gets alone, so the sweep reports a
    # constructor's failure, on row 0 or row 1 depending on the LAPACK build.
    out = tmp_path / "s.csv"
    argv = ["sweep", "--family", "isotropic_alpha", "--grid", "p=1.0000000003999996:2:3",
            "--set", "alpha=0.9735944466161087", "-o", str(out)]
    assert main(argv) == 3
    assert "numerical failure: family 'isotropic_alpha': state has eigenvalue" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_block_entry_overflowing_the_gram_matrix_exits_2(tmp_path, capsys):
    src = tmp_path / "params.json"
    src.write_text(json.dumps(_block(blockvecs=[[[[1e200, 0.0], [0.0, 0.1]]]])))
    assert main(["generate", str(src), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Z_2" in err and "Gram matrix" in err and "overflows" in err
    assert "Warning" not in err


@pytest.mark.parametrize("value", ["2", 2.5, True])
def test_matrix_file_dims_must_be_integers(value, tmp_path):
    path = tmp_path / "rho.json"
    write_matrix(path, np.eye(4) / 4.0, "json", n=2, m=2)
    doc = json.loads(path.read_text())
    doc["n"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DmParamError, match="'n'"):
        read_matrix(path)
    assert main(["analyze", str(path)]) == 2
