import csv
import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dmparam.validate
from dmparam import BlockParams, FamilySpec, SingleParams, assemble_rho_single, isotropic
from dmparam.cli import main
from dmparam.errors import DmParamError, NotPsdError
from dmparam.validate import EXAMPLES, run_validation
from dmparam.io import (
    load_param_file,
    read_matrix,
    write_matrix,
)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParamFiles:
    def test_single_roundtrip(self, tmp_path):
        doc = {
            "schema_version": "1",
            "kind": "single",
            "payload": {
                "lambdas": [0.6, 0.4],
                "zvecs": [[[0.3, 0.1]]],
            },
        }
        params = load_param_file(_write(tmp_path, "p.json", doc))
        assert isinstance(params, SingleParams)
        assert params.n == 2
        assert params.zvecs[0][0] == pytest.approx(0.3 + 0.1j)

    def test_block_roundtrip(self, tmp_path):
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        doc = {
            "schema_version": "1",
            "kind": "block",
            "payload": {
                "n": 2,
                "m": 2,
                "lambdas": [0.1, 0.2, 0.3, 0.4],
                "local_unitaries": [eye, eye],
                "blockvecs": [[[[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]]],
            },
        }
        params = load_param_file(_write(tmp_path, "b.json", doc))
        assert isinstance(params, BlockParams)
        assert params.blockvecs[0][0][0, 1] == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["single", "block"])
    def test_lambdas_accept_zero_imaginary_pairs(self, tmp_path, kind):
        lambdas = [[0.4, 0.0], 0.3, [0.2, -0.0], 0.1]
        payload = {"lambdas": lambdas, "zvecs": [[0.3], [0, 0], [0, 0, 0]]}
        if kind == "block":
            payload = {"n": 2, "m": 2, "lambdas": lambdas,
                       "local_unitaries": [np.eye(2).tolist()] * 2,
                       "blockvecs": [[np.zeros((2, 2)).tolist()]]}
        doc = {"schema_version": "1", "kind": kind, "payload": payload}
        params = load_param_file(_write(tmp_path, "p.json", doc))
        assert params.lambdas.tolist() == [0.4, 0.3, 0.2, 0.1]

    def test_family(self, tmp_path):
        doc = {
            "schema_version": "1",
            "kind": "family",
            "payload": {"family": "isotropic", "p": 0.2},
        }
        spec = load_param_file(_write(tmp_path, "f.json", doc))
        assert isinstance(spec, FamilySpec)
        assert spec.params["p"] == 0.2

    def test_family_with_matrix_params(self, tmp_path):
        doc = {
            "schema_version": "1",
            "kind": "family",
            "payload": {
                "family": "nonabelian_bloch",
                "U": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                "Xi2": [[[0.4, 0], [0, 0]], [[0, 0], [1.1, 0]]],
            },
        }
        spec = load_param_file(_write(tmp_path, "nb.json", doc))
        assert spec.kind == "nonabelian_bloch"
        assert spec.params["U"].shape == (2, 2)

    def test_class3_family_file(self, tmp_path):
        doc = {
            "schema_version": "1",
            "kind": "family",
            "payload": {
                "family": "class3", "n": 2, "m": 1,
                "Z": [[[[0.5, 0.5]]]],
            },
        }
        out = str(tmp_path / "c3.json")
        assert main(["generate", _write(tmp_path, "c3p.json", doc), "-o", out]) == 0
        mat, n, m = read_matrix(out)
        assert (n, m) == (2, 1)
        assert np.linalg.norm(mat @ mat - mat) <= 1e-12  # pure state

    def test_bad_schema_version(self, tmp_path):
        doc = {"schema_version": "9", "kind": "family", "payload": {"family": "isotropic", "p": 0}}
        with pytest.raises(DmParamError, match="schema_version"):
            load_param_file(_write(tmp_path, "x.json", doc))

    def test_unknown_kind(self, tmp_path):
        doc = {"schema_version": "1", "kind": "mystery", "payload": {}}
        with pytest.raises(DmParamError, match="kind"):
            load_param_file(_write(tmp_path, "x.json", doc))

    def test_names_offending_field(self, tmp_path):
        doc = {
            "schema_version": "1",
            "kind": "single",
            "payload": {"lambdas": [0.6, "oops"], "zvecs": [[[0, 0]]]},
        }
        with pytest.raises(DmParamError, match="lambdas"):
            load_param_file(_write(tmp_path, "x.json", doc))


class TestMatrixIo:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        write_matrix(path, mat, "json", n=3, m=1)
        back, n, m = read_matrix(path)
        assert (n, m) == (3, 1)
        assert np.array_equal(back, mat)  # 17 digits round-trip exactly

    def test_matrix_text_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        path = tmp_path / "m.txt"
        write_matrix(path, mat, "matrix_text")
        back, n, m = read_matrix(path)
        assert n is None and m is None
        assert np.array_equal(back, mat)


class TestCliGenerate:
    def test_family_file(self, tmp_path, capsys):
        src = _write(
            tmp_path, "iso.json",
            {"schema_version": "1", "kind": "family",
             "payload": {"family": "isotropic", "p": 0.2}},
        )
        out = str(tmp_path / "rho.json")
        assert main(["generate", src, "-o", out]) == 0
        mat, n, m = read_matrix(out)
        assert (n, m) == (2, 2)
        assert_allclose(np.diag(mat).real, [0.3, 0.2, 0.2, 0.3])

    @pytest.mark.parametrize("fmt", ["json", "matrix_text"])
    def test_single_file(self, fmt, tmp_path, capsys):
        lambdas = [0.5, 0.3, 0.2]
        src = _write(
            tmp_path, "s.json",
            {"schema_version": "1", "kind": "single",
             "payload": {"lambdas": lambdas,
                         "zvecs": [[[0.3, 0.1]], [[0.2, 0], [0.1, -0.2]]]}},
        )
        out, ref = tmp_path / "rho", tmp_path / "ref"
        assert main(["generate", src, "-o", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out == f"wrote 3x3 state (n=3, m=1) to {out}\n"
        write_matrix(ref, assemble_rho_single(load_param_file(src)).mat, fmt, 3, 1)
        assert out.read_bytes() == ref.read_bytes()
        dims = [] if fmt == "json" else ["--n", "3", "--m", "1"]
        assert main(["analyze", str(out), *dims]) == 0
        (line,) = [t for t in capsys.readouterr().out.splitlines() if "eigenvalues" in t]
        assert_allclose([float(w) for w in line.split()[1:]], sorted(lambdas), atol=1e-14)

    def test_block_zero_vectors_diagonal(self, tmp_path):
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
        src = _write(
            tmp_path, "b.json",
            {"schema_version": "1", "kind": "block",
             "payload": {"n": 2, "m": 2, "lambdas": [0.1, 0.2, 0.3, 0.4],
                          "local_unitaries": [eye, eye], "blockvecs": [[zero]]}},
        )
        out = str(tmp_path / "rho.json")
        assert main(["generate", src, "-o", out]) == 0
        mat, _, _ = read_matrix(out)
        assert_allclose(mat, np.diag([0.1, 0.2, 0.3, 0.4]), atol=1e-15)

    def test_malformed_simplex_exits_2(self, tmp_path, capsys):
        src = _write(
            tmp_path, "bad.json",
            {"schema_version": "1", "kind": "single",
             "payload": {"lambdas": [0.6, 0.3], "zvecs": [[[0, 0]]]}},
        )
        assert main(["generate", src, "-o", str(tmp_path / "x.json")]) == 2

    def test_missing_output_exits_2(self, tmp_path):
        src = _write(
            tmp_path, "f.json",
            {"schema_version": "1", "kind": "family",
             "payload": {"family": "isotropic", "p": 0.0}},
        )
        assert main(["generate", src]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # isotropic_alpha outside its positivity range fails post hoc
        src = _write(
            tmp_path, "f.json",
            {"schema_version": "1", "kind": "family",
             "payload": {"family": "isotropic_alpha", "p": 1.4, "alpha": 0.3}},
        )
        assert main(["generate", src, "-o", str(tmp_path / "x.json")]) == 3
        assert "eigenvalue" in capsys.readouterr().err

    def test_matrix_text_format(self, tmp_path):
        src = _write(
            tmp_path, "f.json",
            {"schema_version": "1", "kind": "family",
             "payload": {"family": "pure_P", "alpha": 0.785398163397448}},
        )
        out = str(tmp_path / "rho.txt")
        assert main(["generate", src, "-o", out, "--format", "matrix_text"]) == 0
        mat, _, _ = read_matrix(out)
        assert mat.shape == (4, 4)


class TestCliAnalyze:
    def _generate(self, tmp_path, family_payload, name="rho.json"):
        src = _write(
            tmp_path, "f.json",
            {"schema_version": "1", "kind": "family", "payload": family_payload},
        )
        out = str(tmp_path / name)
        assert main(["generate", src, "-o", out]) == 0
        return out

    def test_isotropic_half(self, tmp_path, capsys):
        out = self._generate(tmp_path, {"family": "isotropic", "p": 0.5})
        assert main(["analyze", out]) == 0
        text = capsys.readouterr().out
        assert "ppt           false" in text
        assert "-0.125" in text

    def test_report_fields(self, tmp_path, capsys):
        out = self._generate(tmp_path, {"family": "isotropic", "p": 0.5})
        capsys.readouterr()
        assert main(["analyze", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state report"
        assert [line.split()[0] for line in lines[1:]] == [
            "dims", "eigenvalues", "purity", "rank", "ppt", "min_pt_eig", "structure"]

    def test_maximally_mixed_3x3(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        write_matrix(path, np.eye(9) / 9.0, "json")
        assert main(["analyze", str(path), "--n", "3", "--m", "3"]) == 0
        text = capsys.readouterr().out
        assert "ppt           true" in text
        assert f"purity        {1/9:.17g}"[:20] in text

    def test_pure_projector(self, tmp_path, capsys):
        out = self._generate(tmp_path, {"family": "pure_P", "alpha": 0.7853981633974483})
        assert main(["analyze", out]) == 0
        text = capsys.readouterr().out
        assert "rank          1" in text
        assert "purity        1" in text
        assert "ppt           false" in text

    def test_not_a_state_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_matrix(path, np.diag([1.5, -0.5]), "json", n=2, m=1)
        assert main(["analyze", str(path)]) == 4
        assert "not a state" in capsys.readouterr().out

    def test_non_hermitian_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        write_matrix(path, [[0.5, 0.1], [0.0, 0.5]], "json", n=2, m=1)
        assert main(["analyze", str(path)]) == 4
        assert "  - hermiticity deviation 1.414e-01\n" in capsys.readouterr().out

    def test_missing_dims_exits_2(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4) / 4.0, "matrix_text")
        assert main(["analyze", str(path)]) == 2

    def test_trace_off_prints_its_own_spectrum(self, tmp_path, capsys):
        # the spectrum of the matrix itself, not of the zeros the state gate
        # puts in place of a matrix that fails it
        path = tmp_path / "bad.json"
        write_matrix(path, np.diag([0.9, 0.6]), "json", n=2, m=1)
        assert main(["analyze", str(path)]) == 4
        text = capsys.readouterr().out
        assert "eigenvalues   0.59999999999999998 0.90000000000000002" in text
        assert "trace deviates from 1 by 5.000e-01" in text

    # (matrix, file format, dims flags): a NaN on the diagonal gets past the
    # Hermiticity and trace checks, a NaN off it stops the eigensolver, and an
    # infinity makes ``inf - inf`` in the Hermiticity check
    NON_FINITE = {
        "nan-diagonal-2x2": (np.diag([np.nan, 0.25, 0.25, 0.25]), "json", []),
        "nan-off-diagonal-3x1": (
            np.array([[1 / 3, np.nan, 0.0], [0.0, 1 / 3, 0.0], [0.0, 0.0, 1 / 3]]),
            "matrix_text", ["--n", "3", "--m", "1"]),
        "inf-2x1": (np.diag([0.5, np.inf]), "matrix_text", ["--n", "2", "--m", "1"]),
    }

    @pytest.mark.parametrize("case", list(NON_FINITE))
    def test_non_finite_entry_exits_2(self, case, tmp_path, capsys):
        mat, fmt, dims = self.NON_FINITE[case]
        path = tmp_path / "rho"
        write_matrix(path, mat, fmt, *((2, 2) if fmt == "json" else ()))
        assert main(["analyze", str(path), *dims]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "input error: matrix contains non-finite entries" in err

    # finite entries whose squares overflow in the Hermiticity norm or the purity,
    # the bound sqrt(max double) / 2nm and the entries named
    OVERSIZED = {
        "1e308-2x1": ([[1e308, 1e308], [-1e308, 0.5]], "3.352e+153 at (0, 0), (0, 1), (1, 0)"),
        "1e200-2x1": ([[1e200, 0.0], [0.0, 0.5]], "3.352e+153 at (0, 0)"),
        "1e200-4x1": (np.full((4, 4), 1e200), "1.676e+153 at (0, 0), (0, 1), (0, 2), ..."),
    }

    @pytest.mark.parametrize("case", list(OVERSIZED))
    def test_oversized_entry_exits_2_before_any_arithmetic(self, case, tmp_path, capsys):
        mat, named = self.OVERSIZED[case]
        path = tmp_path / "rho.json"
        write_matrix(path, np.array(mat), "json", n=len(mat), m=1)
        assert main(["analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: matrix entries too large to analyze: |entry| > {named}\n"

    def test_entries_up_to_1e150_are_analyzed(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        write_matrix(path, np.diag([1e150, 0.5]), "json", n=2, m=1)
        assert main(["analyze", str(path)]) == 4
        text = capsys.readouterr().out
        assert "eigenvalues   0.5 9.9999999999999998e+149" in text
        assert "purity        9.999999999999999e+299" in text


class TestCliReproduce:
    NAMES = ["pure_P", "isotropic_threshold", "circulant_pi12", "bell_boundary",
             "toeplitz_demo", "hankel_demo", "class3_projector"]

    @pytest.mark.parametrize("example", NAMES)
    def test_each_example_passes(self, example, capsys):
        assert main(["reproduce", example]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_all_runs_the_examples_in_order(self):
        assert list(EXAMPLES) == self.NAMES

    def test_mismatch_exits_5(self, monkeypatch, capsys):
        real = dmparam.validate.ppt_check
        monkeypatch.setattr(
            dmparam.validate, "ppt_check",
            lambda rho, tol: dataclasses.replace(real(rho, tol), min_pt_eig=1.0),
        )
        assert main(["reproduce", "bell_boundary"]) == 5
        out = capsys.readouterr().out
        assert "  min PT eig at max p = 1/2: expected 0  computed 1  [MISMATCH]\n" in out
        assert "law mismatches over 50 draws: expected 0  computed 0  [ok]" in out
        assert out.endswith(
            "FAILED checks: min PT eig at max p = 1/2, min PT eig at max p = 0.55\n")

    @pytest.mark.parametrize("target, calls, last_line", [
        ("class3_state", 0, "class3_projector: conjugated rank-m core is a projector"),
        ("isotropic", 3, "  min PT eig at p=0.333333: "),
    ], ids=["class3_state", "isotropic"])
    def test_failure_mid_run_keeps_the_rows_printed(self, target, calls, last_line,
                                                    monkeypatch, capsys):
        assert main(["reproduce", "all"]) == 0
        full = capsys.readouterr().out
        real = getattr(dmparam.validate, target)
        made = []

        def fail_late(*args):
            made.append(args)
            if len(made) > calls:
                raise NotPsdError("forced")
            return real(*args)

        monkeypatch.setattr(dmparam.validate, target, fail_late)
        assert main(["reproduce", "all"]) == 3
        out, err = capsys.readouterr()
        assert out == full[: full.index("\n", full.index(last_line)) + 1]
        assert err == "numerical failure: forced\n"


class TestCliSweep:
    def test_degenerate_grid_single_row(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--family", "isotropic", "--grid", "p=0.2:0.2:1",
                     "-o", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header + one point

    def test_isotropic_alpha_threshold_within_cell(self, tmp_path):
        out = str(tmp_path / "ia.csv")
        count = 41
        assert main([
            "sweep", "--family", "isotropic_alpha",
            "--grid", f"p=0:1:{count}", "--grid", f"alpha=0:{np.pi/2}:{count}",
            "-o", out,
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == count * count
        # detected boundary in p matches 1/(1 + 2 sin 2a) within one cell
        cell = 1.0 / (count - 1)
        by_alpha = {}
        for row in rows:
            by_alpha.setdefault(float(row["alpha"]), []).append(row)
        for alpha, entries in by_alpha.items():
            entries.sort(key=lambda r: float(r["p"]))
            crossed = [float(r["p"]) for r in entries if r["numeric_ppt"] == "false"]
            threshold = 1.0 / (1.0 + 2.0 * np.sin(2.0 * alpha))
            if crossed:
                assert abs(crossed[0] - threshold) <= cell + 1e-12
            else:
                assert threshold >= 1.0 - cell - 1e-12

    def test_agreement_off_boundary(self, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main([
            "sweep", "--family", "circulant",
            "--grid", f"alpha=0:{np.pi/2}:10", "--grid", f"beta=0:{np.pi/2}:10",
            "--set", "p=0.125,0.125,0.125,0.625", "-o", out,
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        assert all(r["agreement"] in ("true", "boundary") for r in rows)

    def test_csv_roundtrip_lossless(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["sweep", "--family", "isotropic", "--grid", "p=0:1:7",
                     "-o", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            p = float(row["p"])
            margin = min((1.0 - 3.0 * p) / 4.0, (1.0 + p) / 4.0)
            assert float(row["analytic_margin"]) == margin  # exact round trip

    def test_missing_output_exits_2(self, capsys):
        assert main(["sweep", "--family", "isotropic", "--grid", "p=0:1:3"]) == 2
        assert capsys.readouterr().err == "sweep: --output is required\n"

    def test_bad_grid_exits_2(self, tmp_path):
        assert main(["sweep", "--family", "isotropic", "--grid", "p=0:1",
                     "-o", str(tmp_path / "x.csv")]) == 2
        assert main(["sweep", "--family", "isotropic", "--grid", "alpha=0:1:5",
                     "-o", str(tmp_path / "x.csv")]) == 2


class TestCliValidate:
    def test_zero_trials_exits_2(self, capsys):
        assert main(["validate", "--trials", "0"]) == 2
        assert capsys.readouterr().err == "input error: trials must be >= 1, got 0\n"

    def test_negative_seed_exits_2(self, capsys):
        assert main(["validate", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "input error: seed must be >= 0, got -1\n"

    def test_run_validation_rejects_its_arguments_as_dmparam_errors(self):
        with pytest.raises(DmParamError, match="^trials must be >= 1, got 0$"):
            run_validation(seed=1, trials=0)
        with pytest.raises(DmParamError, match="^seed must be >= 0, got -1$"):
            run_validation(seed=-1, trials=1)

    def test_failed_check_exits_5_with_counterexample(self, monkeypatch, capsys):
        real = dmparam.validate.circulant_ppt_margins
        monkeypatch.setattr(dmparam.validate, "circulant_ppt_margins",
                            lambda *args: tuple(-x for x in real(*args)))
        assert main(["validate", "--seed", "5", "--trials", "3"]) == 5
        out = capsys.readouterr().out
        assert "\nFAIL circulant analytic vs numeric " in out
        blob = json.loads(out.split("first counterexample:\n", 1)[1])
        assert set(blob) == {"check", "worst", "bound", "instance"}
        assert blob["check"] == "circulant analytic vs numeric"
        assert blob["worst"] > blob["bound"]
        assert set(blob["instance"]) == {"p", "alpha", "beta"}
        assert len(blob["instance"]["p"]) == 4

    def test_passes(self, capsys):
        assert main(["validate", "--seed", "42", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_deterministic_reports(self, capsys):
        assert main(["validate", "--seed", "7", "--trials", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["validate", "--seed", "7", "--trials", "8"]) == 0
        second = capsys.readouterr().out
        assert first == second


def test_round_trip_lambda_recovery(tmp_path):
    # generate from explicit block parameters, analyze the written state,
    # recover the input spectrum
    rng = np.random.default_rng(3)
    lam = np.sort(rng.dirichlet(np.ones(4)))
    from dmparam.io import SCHEMA_VERSION

    def pair(z):
        return [float(np.real(z)), float(np.imag(z))]

    def mat(M):
        return [[pair(z) for z in row] for row in M]

    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "block",
        "payload": {
            "n": 2, "m": 2,
            "lambdas": [float(v) for v in lam],
            "local_unitaries": [mat(np.eye(2)), mat(np.eye(2))],
            "blockvecs": [[mat(Z)]],
        },
    }
    src = tmp_path / "params.json"
    src.write_text(json.dumps(doc))
    out = str(tmp_path / "rho.json")
    assert main(["generate", str(src), "-o", out]) == 0
    back, n, m = read_matrix(out)
    eigs = np.sort(np.linalg.eigvalsh((back + back.conj().T) / 2.0))
    assert np.max(np.abs(eigs - lam)) <= 1e-9
