"""``cli.main`` reuses one argparse parser per process.

The parser holds no handler: ``main`` looks the ``cmd_*`` function up on
every call, so rebinding one (as a test stub or a tracing wrapper does)
takes effect after the parser is built.  And one call leaves nothing behind
for the next: a sequence of calls in one process gives the same exit codes,
stdout, stderr and files as each call in a fresh ``python -m dmparam``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dmparam
from dmparam import cli


def test_handlers_are_looked_up_at_call_time(monkeypatch, capsys):
    assert cli.main(["validate", "--seed", "1", "--trials", "1"]) == 0  # parser now cached
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args, tol: calls.append(args.trials) or 0)
    monkeypatch.setattr(cli, "cmd_sweep", lambda args, tol: calls.append(args.family) or 5)
    assert cli.main(["validate", "--trials", "3"]) == 0
    assert cli.main(["sweep", "--family", "pure_P", "--grid", "alpha=0:1:2"]) == 5
    assert calls == [3, "pure_P"]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    src = str(Path(dmparam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "dmparam", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


_CIRCULANT = ["sweep", "--family", "circulant", "--grid", "alpha=0:1:4", "--grid", "beta=0:1:3"]

#: Each sequence runs in one process; its steps take the output path ``{out}``.
SEQUENCES = {
    "sweep-set-then-without": [
        _CIRCULANT + ["--set", "p=0.1,0.2,0.3,0.4", "-o", "{out}"],
        _CIRCULANT + ["-o", "{out}"],
    ],
    "matrix_text-then-json": [
        ["generate", "{params}", "-o", "{out}", "--format", "matrix_text"],
        ["generate", "{params}", "-o", "{out}"],
    ],
    "usage-error-then-valid": [
        ["validate", "--trials", "x"],
        ["validate", "--seed", "1", "--trials", "1"],
    ],
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_a_call_leaves_nothing_for_the_next(name, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"schema_version": "1", "kind": "family",
                                  "payload": {"family": "isotropic", "p": 0.2}}))
    steps = []
    for k, template in enumerate(SEQUENCES[name]):
        out = tmp_path / f"out{k}"
        argv = [a.format(out=out, params=params) for a in template]
        steps.append((argv, out))
    here = []
    for argv, out in steps:
        here.append((_in_process(argv), out.read_bytes() if out.exists() else None))
        if out.exists():
            out.unlink()
    for (argv, out), (result, written) in zip(steps, here):
        assert _fresh_process(argv) == result, argv
        assert (out.read_bytes() if out.exists() else None) == written, argv
    if name == "matrix_text-then-json":
        assert here[1][1].startswith(b"{") and not here[0][1].startswith(b"{")
    if name == "usage-error-then-valid":
        assert [code for (code, _, _), _ in here] == [2, 0]
