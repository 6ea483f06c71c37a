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
from .families import FAMILIES, FamilySpec
from .single import SingleParams

__all__ = [
    "SCHEMA_VERSION",
    "ParamFileError",
    "load_param_file",
    "read_matrix",
    "write_matrix",
    "fmt_float",
]

SCHEMA_VERSION = "1"


class ParamFileError(ValueError):
    """Malformed parameter or matrix file; the message names the field."""


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
        raise ParamFileError(f"field {field!r}: number out of float range") from None
    raise ParamFileError(f"field {field!r}: expected a number or [re, im] pair")


def _to_int(obj, field):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParamFileError(f"field {field!r}: expected an integer")
    return obj


def _to_real(obj, field):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ParamFileError(f"field {field!r}: expected a real number")
    try:
        return float(obj)
    except OverflowError:  # JSON integers have no size limit
        raise ParamFileError(f"field {field!r}: number out of float range") from None


def _to_list(obj, field):
    if not isinstance(obj, list):
        raise ParamFileError(f"field {field!r}: expected a list")
    return obj


def _to_reals(obj, field):
    return [_to_real(v, f"{field}[{k}]") for k, v in enumerate(_to_list(obj, field))]


def _to_vector(obj, field):
    return np.array([_to_complex(v, field) for v in _to_list(obj, field)], dtype=complex)


def _to_lambdas(obj, field):
    """Eigenvalues: numbers or ``[re, 0]`` pairs, as a real vector."""
    vec = _to_vector(obj, field)
    complex_at = np.flatnonzero(vec.imag != 0.0)
    if complex_at.size:
        k = int(complex_at[0])
        raise ParamFileError(
            f"field {field!r}: entry {k} has imaginary part {float(vec.imag[k])!r}; "
            "eigenvalues are real")
    return vec.real


def _to_matrix(obj, field):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ParamFileError(f"field {field!r}: expected a nested array (matrix)")
    rows = [[_to_complex(v, field) for v in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParamFileError(f"field {field!r}: ragged matrix rows")
    return np.array(rows, dtype=complex)


def _to_matrices(obj, field):
    return [_to_matrix(M, f"{field}[{k}]") for k, M in enumerate(_to_list(obj, field))]


#: Parser of each family parameter type named in ``FAMILIES``.
_FAMILY_FIELDS = {
    "int": _to_int,
    "real": _to_real,
    "reals": _to_reals,
    "matrix": _to_matrix,
    "matrices": _to_matrices,
}


def _get(payload, key, kind):
    if key not in payload:
        raise ParamFileError(f"kind {kind!r}: missing field {key!r}")
    return payload[key]


def load_param_file(path):
    """Parse a parameter file.

    Returns
    -------
    SingleParams | BlockParams | FamilySpec
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParamFileError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParamFileError("top level: expected an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParamFileError(
            f"field 'schema_version': expected {SCHEMA_VERSION!r}, got {version!r}"
        )
    kind = doc.get("kind")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParamFileError("field 'payload': expected an object")

    if kind == "single":
        lambdas = _to_lambdas(_get(payload, "lambdas", kind), "lambdas")
        zvecs = _to_list(_get(payload, "zvecs", kind), "zvecs")
        zvecs = [_to_vector(z, f"zvecs[{i}]") for i, z in enumerate(zvecs)]
        return SingleParams(n=len(lambdas), lambdas=lambdas, zvecs=tuple(zvecs))

    if kind == "block":
        n = _to_int(_get(payload, "n", kind), "n")
        m = _to_int(_get(payload, "m", kind), "m")
        lambdas = _to_lambdas(_get(payload, "lambdas", kind), "lambdas")
        unitaries = _to_matrices(_get(payload, "local_unitaries", kind), "local_unitaries")
        blockvecs = _to_list(_get(payload, "blockvecs", kind), "blockvecs")
        return BlockParams(
            n=n, m=m, lambdas=lambdas, local_unitaries=tuple(unitaries),
            blockvecs=tuple(
                tuple(_to_matrices(Zs, f"blockvecs[{i}]")) for i, Zs in enumerate(blockvecs)
            ),
        )

    if kind == "family":
        name = _get(payload, "family", kind)
        if not isinstance(name, str) or name not in FAMILIES:
            raise ParamFileError(
                f"field 'family': unknown family {name!r}; known: {sorted(FAMILIES)}"
            )
        types = FAMILIES[name].params
        params = {}
        for key, value in payload.items():
            if key == "family":
                continue
            if key not in types:
                raise ParamFileError(
                    f"field {key!r}: not a parameter of family {name!r} "
                    f"(expected {list(types)})"
                )
            params[key] = _FAMILY_FIELDS[types[key]](value, key)
        try:
            return FamilySpec(kind=name, params=params)
        except ValueError as exc:
            raise ParamFileError(str(exc)) from exc

    raise ParamFileError(f"field 'kind': expected single|block|family, got {kind!r}")


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
        raise ParamFileError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParamFileError(f"cannot write {path}: {exc}") from exc


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
        raise ParamFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParamFileError(f"cannot parse {path}: {exc}") from exc
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
            raise ParamFileError(f"bad matrix_text token in {path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ParamFileError(f"{path}: empty or ragged matrix_text")
    return np.array(rows, dtype=complex), None, None
