"""``write_matrix`` formats matrix files itself, without ``json.dumps``.

The references are the formatters it replaced: ``json.dumps(indent=1)`` of
the nested ``[re, im]`` document, and the per-entry ``re+imj`` join over
NumPy rows.  Both outputs must equal them byte for byte, non-finite and
signed-zero entries included.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmparam.io import matrix_to_nested, read_matrix, write_matrix

REALS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, float("nan"),
     float("inf"), float("-inf")])
COMPLEX = st.builds(complex, REALS, REALS)


@st.composite
def matrices(draw, elements=COMPLEX):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=complex).reshape(rows, cols)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "rho"


def _old_json(mat, n, m):
    doc = {"schema_version": "1",
           "matrix": [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]}
    if n is not None:
        doc["n"] = int(n)
    if m is not None:
        doc["m"] = int(m)
    return json.dumps(doc, indent=1) + "\n"


def _old_text(mat):
    return "\n".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in mat) + "\n"


@settings(max_examples=200, deadline=None)
@given(mat=matrices(), n=st.none() | st.integers(0, 9), m=st.none() | st.integers(0, 9))
def test_bytes_equal_the_json_and_text_formatters(mat, n, m, path):
    write_matrix(path, mat, "json", n, m)
    assert path.read_text(encoding="utf-8") == _old_json(mat, n, m)
    write_matrix(path, mat, "matrix_text")
    assert path.read_text(encoding="utf-8") == _old_text(mat)


FINITE = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(mat=matrices(FINITE), fmt=st.sampled_from(["json", "matrix_text"]))
def test_finite_matrices_round_trip_exactly(mat, fmt, path):
    write_matrix(path, mat, fmt, *mat.shape)
    back, n, m = read_matrix(path)
    assert back.tobytes() == mat.tobytes()
    assert (n, m) == (mat.shape if fmt == "json" else (None, None))


def test_nested_pairs_are_python_floats():
    nested = matrix_to_nested(np.array([[complex(1, -0.0), complex(np.nan, 2)]]))
    assert json.dumps(nested) == "[[[1.0, -0.0], [NaN, 2.0]]]"
    assert all(type(v) is float for pair in nested[0] for v in pair)
