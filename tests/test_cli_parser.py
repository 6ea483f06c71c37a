"""``cli.main`` reuses one argparse parser per process.

The parser holds no handler: ``main`` looks the ``cmd_*`` function up on
every call, so rebinding one (as a test stub or a tracing wrapper does)
takes effect after the parser is built.  And one call leaves nothing behind
for the next: a sequence of calls in one process gives the same exit codes,
stdout, stderr and files as each call in a fresh ``python -m dmparam``.
"""

import argparse
import contextlib
import inspect
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


#: The option strings of each subcommand besides ``--tol-psd`` and
#: ``--tol-herm``, which ``main`` reads: those its handler reads.
FLAGS = {
    "generate": {"--output", "-o", "--format"},
    "analyze": {"--n", "--m"},
    "reproduce": {"--seed"},
    "sweep": {"--output", "-o", "--family", "--grid", "--set"},
    "validate": {"--seed", "--trials"},
}


def _subparsers():
    (sub,) = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(FLAGS)
    count = 0
    for name, sub in subparsers.items():
        flags = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        count += len(flags)
        assert {o for a in flags for o in a.option_strings} == FLAGS[name] | {
            "--tol-psd", "--tol-herm"}, name
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        for action in sub._actions:
            if action.dest not in ("help", "tol_psd", "tol_herm"):
                assert f"args.{action.dest}" in source, (name, action.dest)
    assert count == 21


@pytest.mark.parametrize("flag", ["--seed", "--format"])
def test_a_flag_of_another_subcommand_is_a_usage_error(flag, tmp_path, capsys):
    argv = {"--seed": ["analyze", str(tmp_path / "rho.json"), "--seed", "1"],
            "--format": ["sweep", "--format", "json", "--family", "pure_P",
                         "--grid", "alpha=0:1:2", "-o", str(tmp_path / "out.csv")]}[flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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
