"""Parameter-file and matrix serialization.

Parameter files are JSON with a ``schema_version`` tag::

    {"schema_version": "1", "kind": "single",
     "payload": {"lambdas": [0.6, 0.4], "zvecs": [[[0.3, 0.1]]]}}

    {"schema_version": "1", "kind": "block",
     "payload": {"n": 2, "m": 2, "lambdas": [...],
                 "local_unitaries": [M, M], "blockvecs": [[M]]}}

    {"schema_version": "1", "kind": "family",
     "payload": {"family": "isotropic", "p": 0.2}}

Complex numbers are ``[re, im]`` pairs; matrices are row-major nested
arrays of such pairs (plain reals are accepted where the imaginary part is
zero).  Angles are radians.

Matrices are written from ``.tolist()``: as JSON with dims, laid out as ``json.dumps(indent=1)``
would, or as ``matrix_text``, 17-digit ``re+imj`` tokens a row per line.  Both round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .blocks import BlockParams
from .errors import DmParamError
from .families import FAMILIES, FamilySpec
from .single import SingleParams

__all__ = [
    "SCHEMA_VERSION",
    "load_param_file",
    "read_matrix",
    "write_matrix",
    "fmt_float",
]

SCHEMA_VERSION = "1"


def fmt_float(x: float) -> str:
    """17 significant digits: lossless for IEEE doubles."""
    return f"{float(x):.17g}"


def _to_complex(obj, field):
    try:
        if type(obj) in (int, float):  # not bool, which JSON true/false parse to
            return complex(obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
            type(v) in (int, float) for v in obj
        ):
            return complex(obj[0], obj[1])
    except OverflowError:  # JSON integers have no size limit
        raise DmParamError(f"field {field!r}: number out of float range") from None
    raise DmParamError(f"field {field!r}: expected a number or [re, im] pair")


def _to_int(obj, field):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise DmParamError(f"field {field!r}: expected an integer")
    return obj


def _to_real(obj, field):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise DmParamError(f"field {field!r}: expected a real number")
    try:
        return float(obj)
    except OverflowError:  # JSON integers have no size limit
        raise DmParamError(f"field {field!r}: number out of float range") from None


def _to_list(obj, field):
    if not isinstance(obj, list):
        raise DmParamError(f"field {field!r}: expected a list")
    return obj


def _list_of(parse):
    """A parser of a list whose entry ``k`` ``parse`` reads as ``field[k]``."""
    return lambda obj, field: [parse(v, f"{field}[{k}]")
                               for k, v in enumerate(_to_list(obj, field))]


def _to_vector(obj, field):
    return np.array([_to_complex(v, field) for v in _to_list(obj, field)], dtype=complex)


def _to_lambdas(obj, field):
    """Eigenvalues: numbers or ``[re, 0]`` pairs, as a real vector."""
    vec = _to_vector(obj, field)
    complex_at = np.flatnonzero(vec.imag != 0.0)
    if complex_at.size:
        k = int(complex_at[0])
        raise DmParamError(
            f"field {field!r}: entry {k} has imaginary part {float(vec.imag[k])!r}; "
            "eigenvalues are real")
    return vec.real


def _to_matrix(obj, field):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise DmParamError(f"field {field!r}: expected a nested array (matrix)")
    rows = [[_to_complex(v, field) for v in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DmParamError(f"field {field!r}: ragged matrix rows")
    return np.array(rows, dtype=complex)


#: Parser of each field type named in ``FAMILIES`` and ``_PAYLOADS``.
_FIELDS = {
    "int": _to_int,
    "real": _to_real,
    "reals": _list_of(_to_real),
    "matrix": _to_matrix,
    "matrices": _list_of(_to_matrix),
    "lambdas": _to_lambdas,
    "vectors": _list_of(_to_vector),
    "blockvecs": _list_of(_list_of(_to_matrix)),
}

#: Field types of the ``single`` and ``block`` payloads, each with the
#: constructor that takes the parsed fields as keywords.
_PAYLOADS = {
    "single": ({"lambdas": "lambdas", "zvecs": "vectors"},
               lambda lambdas, zvecs: SingleParams(len(lambdas), lambdas, zvecs)),
    "block": ({"n": "int", "m": "int", "lambdas": "lambdas", "local_unitaries": "matrices",
               "blockvecs": "blockvecs"}, BlockParams),
}


def _get(payload, key, kind):
    if key not in payload:
        raise DmParamError(f"kind {kind!r}: missing field {key!r}")
    return payload[key]


def load_param_file(path):
    """Parse a parameter file.

    Each payload field is read by its type in ``_PAYLOADS`` or ``FAMILIES``,
    in the table's order (a ``family`` payload's in the file's); any other
    field is an error.

    Returns
    -------
    SingleParams | BlockParams | FamilySpec
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DmParamError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DmParamError("top level: expected an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DmParamError(
            f"field 'schema_version': expected {SCHEMA_VERSION!r}, got {version!r}"
        )
    kind = doc.get("kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DmParamError("field 'payload': expected an object")

    if kind == "family":
        name = _get(payload, "family", kind)
        if not isinstance(name, str) or name not in FAMILIES:
            raise DmParamError(
                f"field 'family': unknown family {name!r}; known: {sorted(FAMILIES)}"
            )
        types, what = FAMILIES[name].params, f"a parameter of family {name!r}"
        make = lambda **params: FamilySpec(name, params)
        keys = [key for key in payload if key != "family"]
    elif isinstance(kind, str) and kind in _PAYLOADS:
        types, make = _PAYLOADS[kind]
        what = f"a field of kind {kind!r}"
        keys = dict.fromkeys([*types, *payload])  # the table's order, unknown fields last
    else:
        raise DmParamError(f"field 'kind': expected single|block|family, got {kind!r}")
    fields = {}
    for key in keys:
        if key not in types:
            raise DmParamError(f"field {key!r}: not {what} (expected {list(types)})")
        fields[key] = _FIELDS[types[key]](_get(payload, key, kind), key)
    return make(**fields)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _json_matrix(rows) -> str:
    """``json.dumps(indent=1)`` of ``rows``' pairs; only nan/inf ``%r`` floats hold letters."""
    pairs = [",\n".join(["   [\n    %r,\n    %r\n   ]" % (z.real, z.imag) for z in row])
             for row in rows]
    text = "[\n" + ",\n".join(["  [\n" + row + "\n  ]" for row in pairs]) + "\n ]"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def write_matrix(path, mat, fmt: str = "json", n=None, m=None):
    """Write a matrix as JSON (with optional dims) or as ``matrix_text``."""
    rows = np.asarray(mat, dtype=complex).tolist()
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "matrix": None}
        doc.update((key, int(dim)) for key, dim in (("n", n), ("m", m)) if dim is not None)
        text = json.dumps(doc, indent=1).replace("null", _json_matrix(rows), 1)
    elif fmt == "matrix_text":
        text = "\n".join([" ".join([_fmt_complex(z) for z in row]) for row in rows])
    else:
        raise DmParamError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DmParamError(f"cannot write {path}: {exc}") from exc


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix` (format sniffed).

    Returns
    -------
    (mat, n, m) : tuple
        ``n``/``m`` are ``None`` when the file does not carry them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DmParamError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DmParamError(f"cannot parse {path}: {exc}") from exc
        mat = _to_matrix(doc.get("matrix"), "matrix")
        n, m = (None if doc.get(k) is None else _to_int(doc[k], k) for k in ("n", "m"))
        return mat, n, m
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([complex(tok) for tok in line.split()])
        except ValueError as exc:
            raise DmParamError(f"bad matrix_text token in {path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DmParamError(f"{path}: empty or ragged matrix_text")
    return np.array(rows, dtype=complex), None, None
