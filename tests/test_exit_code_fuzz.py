"""Fuzz test of the exit-code contract of ``dmparam generate`` on family files.

Every family in ``FAMILIES`` starts from a parameter file it accepts; the
fuzzer then swaps field values for arbitrary JSON or for values of the
field's type, drops fields and adds unknown ones.  Whatever the file,
``main`` returns a documented exit code instead of raising, an input error
names a field or the family, and an unchanged file generates its state.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dmparam._random import rand_complex, rand_psd, rand_simplex, rand_unitary
from dmparam.cli import main
from dmparam.families import FAMILIES

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=8,
)
NUMBER = st.floats() | st.integers(-3, 3)
MATRIX = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(NUMBER, min_size=d, max_size=d), min_size=d, max_size=d)
)
#: Values of each family field type that parse but need not be admissible.
TYPED = {
    "int": st.integers(-3, 5),
    "real": NUMBER,
    "reals": st.lists(NUMBER, max_size=5),
    "matrix": MATRIX,
    "matrices": st.lists(MATRIX, max_size=3),
}


def _json(value):
    """Matrices as nested ``[re, im]`` pairs, lists of matrices element-wise."""
    if isinstance(value, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in value]
    if isinstance(value, list):
        return [_json(v) for v in value]
    return value


def _valid_payload(family, rng):
    """Parameters ``family`` accepts, drawn from ``rng``."""
    W = rand_unitary(rng, 2)
    L1, L2, Xi = rand_psd(rng, 2), rand_psd(rng, 2), rand_psd(rng, 2)
    total = np.trace(L1 + L2).real
    L1, L2 = L1 / total, L2 / total
    d1, d2 = rng.uniform(0.1, 1.0, 2), rng.uniform(0.1, 1.0, 2)
    d1, d2 = d1 / (d1.sum() + d2.sum()), d2 / (d1.sum() + d2.sum())
    alpha, beta = rng.uniform(0.0, np.pi / 2, 2)
    p = list(rand_simplex(rng, 4))
    payload = {
        "pure_P": {"alpha": alpha},
        "isotropic": {"p": rng.uniform(-1.0 / 3.0, 1.0)},
        "isotropic_alpha": {"p": rng.uniform(0.0, 1.0), "alpha": alpha},
        "circulant": {"p": p, "alpha": alpha, "beta": beta},
        "bell_diagonal": {"p": p},
        "two_by_m": {"U": W, "L1": L1, "L2": L2, "Xi2": Xi},
        "toeplitz": {"L": L1 / (2.0 * np.trace(L1).real),
                     "U": np.exp(1j * alpha) * np.eye(2), "Xi2": Xi},
        "hankel": {"U": (W * [1.0, -1.0]) @ W.conj().T, "L1": (W * d1) @ W.conj().T,
                   "L2": (W * d2) @ W.conj().T, "Xi2": (W * [0.3, 1.1]) @ W.conj().T},
        "class3": {"n": 3, "m": 2, "Z": [rand_complex(rng, (2, 2)) for _ in range(2)]},
        "nonabelian_bloch": {"U": W, "Xi2": Xi},
    }[family]
    return {"family": family, **{k: _json(v) for k, v in payload.items()}}


# Extreme fuzzed numbers overflow inside NumPy; the warning is not the contract.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_generate_exit_code_contract(family, seed, data, tmp_path_factory):
    payload = _valid_payload(family, np.random.default_rng(seed))
    mutations = data.draw(st.integers(0, 2), label="mutations")
    for _ in range(mutations):
        action = data.draw(st.sampled_from(["replace", "drop", "add"]), label="action")
        if action == "add":
            payload[data.draw(st.text(min_size=1, max_size=4), label="key")] = data.draw(JSON)
        elif payload:
            key = data.draw(st.sampled_from(sorted(payload)), label="key")
            if action == "replace":
                typed = TYPED.get(FAMILIES[family].params.get(key), JSON)
                payload[key] = data.draw(JSON | typed, label="value")
            else:
                del payload[key]

    tmp = tmp_path_factory.mktemp("fuzz")
    src = tmp / "params.json"
    src.write_text(json.dumps({"schema_version": "1", "kind": "family", "payload": payload}))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["generate", str(src), "-o", str(tmp / "rho.json")])
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5), err
    if mutations == 0:
        assert code == 0, err
    if code == 2:
        names = {"family", family, *payload, *FAMILIES[family].params}
        assert any(f"'{name}" in err for name in names), err
