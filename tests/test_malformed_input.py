"""Malformed parameter files, matrix files and sweep arguments end in exit 2
with a message that names the offending field."""

import json

import numpy as np
import pytest

from dmparam.cli import main
from dmparam.io import ParamFileError, read_matrix, write_matrix


def _doc(kind, payload):
    return {"schema_version": "1", "kind": kind, "payload": payload}


def _block(**fields):
    payload = {"n": 2, "m": 2, "lambdas": [0.25] * 4,
               "local_unitaries": [np.eye(2).tolist()] * 2, "blockvecs": []}
    payload.update(fields)
    return _doc("block", payload)


_SWEEP_CIRCULANT = ["--family", "circulant", "--grid", "alpha=0:1:3", "--grid", "beta=0:1:3"]

# (parameter document or sweep argv, text stderr must contain)
CASES = {
    "family-p-object": (_doc("family", {"family": "isotropic", "p": {"a": 1}}), "'p'"),
    "class3-Z-int": (_doc("family", {"family": "class3", "n": 2, "m": 1, "Z": 5}), "'Z'"),
    "block-unitaries-int": (_block(local_unitaries=3), "'local_unitaries'"),
    "block-blockvecs-int": (_block(blockvecs=3), "'blockvecs'"),
    "alpha-string": (
        _doc("family", {"family": "isotropic_alpha", "p": 0.2, "alpha": "x"}), "'alpha'"),
    "n-string": (
        _doc("family", {"family": "class3", "n": "2", "m": 1, "Z": [[[0.5]]]}), "'n'"),
    "unknown-field": (_doc("family", {"family": "isotropic", "p": 0.2, "q": 1}), "'q'"),
    "unknown-family": (_doc("family", {"family": "werner", "p": 0.2}), "'werner'"),
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
    "sweep-set-reals-inf": (
        ["--family", "circulant", "--grid", "alpha=0:1:3", "--grid", "beta=0:1:3",
         "--set", "p=0.5,inf,0,0"], "bad --set 'p=0.5,inf,0,0'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exits_2_and_names_field(case, tmp_path, capsys):
    doc, field = CASES[case]
    out = str(tmp_path / "out")
    if isinstance(doc, dict):
        src = tmp_path / "params.json"
        src.write_text(json.dumps(doc))
        argv = ["generate", str(src), "-o", out]
    else:
        argv = ["sweep", *doc, "-o", out]
    assert main(argv) == 2
    assert field in capsys.readouterr().err


def test_failed_sweep_leaves_no_file(tmp_path, capsys):
    # isotropic is defined on [-1/3, 1]: the grid leaves it at its fourth point
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "isotropic", "--grid", "p=0:2:7", "-o", str(out)]) == 2
    assert "outside" in capsys.readouterr().err
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
    with pytest.raises(ParamFileError, match="'n'"):
        read_matrix(path)
    assert main(["analyze", str(path)]) == 2
