"""Output paths that cannot be written end in exit 2, and ``python -m dmparam``
runs the command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dmparam
from dmparam.cli import main


def _family_file(tmp_path):
    src = tmp_path / "params.json"
    src.write_text(json.dumps({"schema_version": "1", "kind": "family",
                               "payload": {"family": "isotropic", "p": 0.2}}))
    return str(src)


def test_generate_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "rho.json"
    for fmt in ("json", "matrix_text"):
        assert main(["generate", _family_file(tmp_path), "-o", str(out), "--format", fmt]) == 2
        assert f"input error: cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_sweep_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "s.csv"
    assert main(["sweep", "--family", "isotropic", "--grid", "p=0:1:3", "-o", str(out)]) == 2
    assert f"input error: cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_sweep_onto_a_directory_exits_2_and_leaves_it(tmp_path, capsys):
    assert main(["sweep", "--family", "isotropic", "--grid", "p=0:1:3", "-o", str(tmp_path)]) == 2
    assert f"cannot write {tmp_path}" in capsys.readouterr().err
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_python_m_dmparam_runs_the_cli():
    src = str(Path(dmparam.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "dmparam", "validate", "--seed", "1", "--trials", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "invariant families passed" in proc.stdout
