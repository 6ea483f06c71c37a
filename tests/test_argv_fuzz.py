"""Fuzz test of the exit-code contract over the argv of all five subcommands.

Every example calls ``cli.main`` in this process, so all of them go through
the one parser ``main`` keeps.  The argv mixes valid and invalid flags and
values, grid specs, ``--set`` items and paths (good, malformed, missing and
directory).  Whatever it is, ``main`` returns or raises ``SystemExit`` with a
documented code.  An input error (2) or a numerical failure (3) ends in a
stderr line that names the bad token or field; "not a state" (4) and a
check mismatch (5) are verdicts, reported on stdout.  The work is bounded:
at most 2 trials, at most 20 points per grid axis.
"""

import contextlib
import io
import json
import os
import re

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from dmparam.cli import main
from dmparam.families import FAMILIES, isotropic
from dmparam.io import write_matrix
from dmparam.validate import EXAMPLES

JUNK = st.sampled_from(["", "x", "-", "1.5", "nan", "inf", "-inf", "1e400", "=", ":", ","])
NUMBER = st.floats().map(repr) | st.integers(-3, 3).map(str) | JUNK
TOL = st.sampled_from(["1e-10", "1e-8", "1e-12", "1e-300", "0", "-1e-9", "1e-6", "2"]) | NUMBER
INT = st.integers(-3, 20).map(str) | JUNK
SEED = st.integers(-3, 3).map(str) | st.integers(0, 2**64).map(str) | JUNK
TRIALS = st.integers(-2, 2).map(str) | JUNK
#: Parameter files: name -> (payload or raw text); ``missing.json`` is never written.
FILES = {
    "fam.json": {"family": "isotropic", "p": 0.2},
    "outside.json": {"family": "isotropic", "p": 2.0},
    "negative.json": {"family": "isotropic_alpha", "p": 1.4, "alpha": 0.4},
    "unknown.json": {"family": "werner", "p": 0.2},
    "junk.json": "not json",
}
MATRICES = ("rho.json", "rho.txt", "nostate.json", "junk.json", "fam.json")
PARAMS = ("fam.json", "outside.json", "negative.json", "unknown.json", "junk.json", "rho.json")
PATHS = ("missing.json", ".", "sub/missing.out")
AXES = sorted({a for f in FAMILIES.values() for a in f.axes} | {"p", "q", ""})
#: A sweep each family accepts, with ``{k}`` points per axis.
SWEEPS = {
    "pure_P": ["--grid", "alpha=0:1.5:{k}"],
    "isotropic": ["--grid", "p=-0.3:1:{k}"],
    "isotropic_alpha": ["--grid", "p=0:1:{k}", "--grid", "alpha=0:1.5:{k}"],
    "circulant": ["--grid", "alpha=0:1.5:{k}", "--grid", "beta=0:1.5:{k}",
                  "--set", "p=0.1,0.2,0.3,0.4"],
    "bell_diagonal": ["--grid", "p1=0:0.3:{k}", "--set", "p2=0.1"],
}


@st.composite
def grids(draw):
    name = draw(st.sampled_from(AXES))
    if draw(st.booleans()):
        lo, hi = draw(st.floats(-0.5, 2.0)), draw(st.floats(-0.5, 2.0))
        return f"{name}={lo!r}:{hi!r}:{draw(st.integers(-1, 20))}"
    return f"{name}={draw(NUMBER)}:{draw(NUMBER)}:{draw(INT)}"


@st.composite
def sets(draw):
    key = draw(st.sampled_from(AXES))
    if draw(st.booleans()):
        return f"{key}={','.join(draw(st.lists(NUMBER, min_size=1, max_size=4)))}"
    return f"{key}={draw(st.floats(0.0, 1.0))!r}"


@st.composite
def valid_argvs(draw):
    """An argv that runs, before mutation; ``@`` marks a path in the example's directory."""
    command = draw(st.sampled_from(["generate", "analyze", "reproduce", "sweep", "validate"]))
    if command == "generate":
        argv = ["@" + draw(st.sampled_from(["fam.json", "negative.json"])), "-o", "@out.x"]
        argv += draw(st.sampled_from([[], ["--format", "matrix_text"], ["--format", "json"]]))
    elif command == "analyze":
        argv = draw(st.sampled_from([["@rho.json"], ["@rho.txt", "--n", "2", "--m", "2"],
                                     ["@nostate.json"]]))
    elif command == "reproduce":
        argv = [draw(st.sampled_from(list(EXAMPLES)))]
    elif command == "sweep":
        family = draw(st.sampled_from(sorted(SWEEPS)))
        k = str(draw(st.integers(1, 20)))
        argv = ["--family", family, *(t.replace("{k}", k) for t in SWEEPS[family]), "-o", "@out.x"]
    else:
        argv = ["--trials", draw(st.sampled_from(["1", "2"]))]
    if command in ("reproduce", "validate"):
        argv += ["--seed", str(draw(st.integers(0, 2**32)))]
    return [command] + argv


#: Tokens a mutation may put in place of a token or insert as a group.
TOKENS = JUNK | NUMBER | TOL | SEED | st.sampled_from(
    ["generate", "analyze", "reproduce", "sweep", "validate", "bogus", "all", "nope",
     "--tol-psd", "--tol-herm", "--seed", "--format", "-o", "--output", "--n", "--m",
     "--family", "--grid", "--set", "--trials", "--bogus", "json", "matrix_text", "csv",
     "werner", "class3", *SWEEPS]
    + ["@" + p for p in PARAMS + MATRICES + PATHS])
#: Values, good and bad, of each flag that takes one.
VALUES = {
    "--tol-psd": TOL, "--tol-herm": TOL, "--seed": SEED, "--n": INT, "--m": INT,
    "--trials": TRIALS, "--grid": grids(), "--set": sets(),
    "--format": st.sampled_from(["json", "matrix_text", "csv", ""]),
    "--family": st.sampled_from([*SWEEPS, "class3", "werner", ""]),
    "-o": st.sampled_from(["@out.x", *("@" + p for p in PATHS)]),
}
GROUPS = st.sampled_from(sorted(VALUES)).flatmap(
    lambda flag: VALUES[flag].map(lambda value: [flag, value]))


@st.composite
def argvs(draw):
    """A valid argv with up to three mutations: a flag's value redrawn, a
    token replaced or dropped, or a flag with its value inserted."""
    argv = draw(valid_argvs())
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["revalue", "replace", "drop", "insert"]))
        at = draw(st.integers(0, len(argv)))
        flags = [i for i, t in enumerate(argv[:-1]) if t in VALUES]
        if action == "revalue" and flags:
            i = draw(st.sampled_from(flags))
            argv[i + 1] = draw(VALUES[argv[i]])
        elif action == "insert":
            argv[at:at] = draw(GROUPS)
        elif action != "revalue" and at < len(argv):
            if action == "replace":
                argv[at] = draw(TOKENS)
            else:
                del argv[at]
    # Bound the work: at most 2 validate trials, where the default is 100.
    if "validate" in argv and "--trials" not in argv:
        argv += ["--trials", "2"]
    for i in range(1, len(argv)):
        if argv[i - 1] == "--trials" and re.fullmatch(r"-?\d+", argv[i]) and int(argv[i]) > 2:
            argv[i] = "2"
    return argv


def _write_inputs(tmp):
    for name, payload in FILES.items():
        text = payload if isinstance(payload, str) else json.dumps(
            {"schema_version": "1", "kind": "family", "payload": payload})
        (tmp / name).write_text(text)
    rho = isotropic(0.2).mat
    write_matrix(tmp / "rho.json", rho, "json", 2, 2)
    write_matrix(tmp / "rho.txt", rho, "matrix_text")
    write_matrix(tmp / "nostate.json", np.eye(4), "json", 2, 2)


def _names(argv):
    """What an error may name: the tokens of ``argv`` and their pieces, a
    flag's option name, the fields of the file formats and of the parameter
    files on the command line."""
    names = {"command", "output", "schema_version", "kind", "payload", "matrix", "n", "m"}
    for token in argv:
        flag = token.lstrip("-")
        names.update([token, flag, flag.replace("-", "_")] + re.split(r"[=:,]", token))
        payload = FILES.get(token.rpartition("/")[2])
        if isinstance(payload, dict):
            names.update(payload, [payload["family"]])
    return {n for n in names if n and not re.fullmatch(r"[-+.\deE]+|nan|inf|-inf", n)}


def _names_one(err, argv, names):
    """``err`` names a field, a token or a piece of one; a quoted token counts
    even when empty or numeric."""
    return (any(f"'{t}'" in err for t in argv)
            or any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", err) for n in names))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["reproduce", "pure_P", "--seed", "-1"])  # NumPy's own message named no flag
@example(argv=["validate", "--trials", "1", "--seed", "-2"])
@example(argv=["analyze", "@rho.json", "--n", "-2", "--m", "-2"])  # a reshape error did
@example(argv=["generate", "@rho.json", "-o", "@out.x"])
@example(argv=["sweep", "--family", "pure_P", "--grid", "alpha=-1.7e308:1.7e308:3", "-o", "@out.x"])
@example(argv=["sweep", "--family", "isotropic_alpha", "--grid", "p=0:2:5", "--set", "alpha=0.7",
               "-o", "@out.x"])  # the gate's message named no family
@example(argv=["sweep", "--family", "isotropic_alpha", "--grid", "alpha=0:1:3", "--set", "p=1e17",
               "-o", "@out.x"])
def test_argv_exit_code_contract(argv, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    _write_inputs(tmp)
    argv = [str(tmp / t[1:]) if t.startswith("@") else t for t in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)  # a bare token taken as an output path lands here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert _names_one(err, argv, _names(argv) | {str(tmp)}), (argv, err)
    elif code == 4:
        assert "not a state:" in out, (argv, out)
    elif code == 5:
        assert "MISMATCH" in out or "first counterexample:" in out, (argv, out)
