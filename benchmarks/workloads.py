"""The four benchmark workloads.

Each workload builds its inputs from ``--seed`` through dmparam's public
constructors and parameter files, then hands out whole rounds of timed
:class:`Call` objects.  A round is the same list of operations every time, so
a run's share of failed operations does not depend on its length.  Every
result is checked here against a computation made apart from dmparam: its own
generators and ``scipy.linalg.expm`` for the chain, closed forms of the
families, a reshape-and-transpose partial transpose, and NumPy spectra of the
matrices parsed back from the files the CLI writes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dmparam as dm
from dmparam import cli

HALF_PI = float(np.pi / 2)


@dataclass
class Call:
    """One timed call into dmparam: ``run`` is timed, ``check`` is not.

    ``check`` returns a list of problems (empty when the output is right).
    ``reference``, when set, is the closed-form-vs-``exp`` reference the
    traced run times after the call.
    """

    run: Callable[[], object]
    ops: int
    check: Callable[[object], list]
    reference: Callable[[], None] | None = None


class Workload:
    """Set-up happens in ``__init__(seed, outdir)``; :meth:`round` hands out
    the same calls every time."""

    def prelude(self):
        """Calls made once, before the first round."""
        return []

    def round(self, r):
        raise NotImplementedError

    def final_checks(self):
        """Checks run once after the last round and after ``peak_rss_mb`` is
        read, so memory they take stays out of it; a list of problems."""
        return []


# -- inputs -------------------------------------------------------------------


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, d):
    Q, R = np.linalg.qr(_complex(rng, (d, d)))
    phases = np.diagonal(R)
    return Q * (phases / np.abs(phases))


def _psd(rng, d):
    A = _complex(rng, (d, d))
    P = A @ A.conj().T / d
    return (P + P.conj().T) / 2.0


def _block_params(rng, n, m, singular_top=False):
    """Random n (x) m parameters.

    ``singular_top`` zeroes one column of every top-level block, so the top
    matrix angle has an exact zero eigenvalue and ``auto`` must take the
    ``exp`` path.  (A kernel vector off the basis leaves a rounding-level
    eigenvalue that ``auto`` does not always treat as singular; see
    CHANGES.md.)
    """
    vecs = [[_complex(rng, (m, m)) for _ in range(j - 1)] for j in range(2, n + 1)]
    if singular_top:
        col = int(rng.integers(m))
        for Z in vecs[-1]:
            Z[:, col] = 0.0
    return dm.BlockParams(
        n=n, m=m, lambdas=rng.dirichlet(np.ones(n * m)),
        local_unitaries=tuple(_unitary(rng, m) for _ in range(n)),
        blockvecs=tuple(tuple(Zs) for Zs in vecs),
    )


def _single_params(rng, n):
    return dm.SingleParams(
        n=n, lambdas=np.sort(rng.dirichlet(np.ones(n)))[::-1],
        zvecs=tuple(_complex(rng, j - 1) for j in range(2, n + 1)),
    )


def cli_call(argv):
    """Run ``dmparam.cli.main`` in this process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- independent references ----------------------------------------------------


def pt_min_eig(mat, n, m):
    """Smallest eigenvalue of the second-factor partial transpose."""
    pt = np.asarray(mat).reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0])


def chain_reference(p):
    """``A_n ... A_2 D A_2^dag ... A_n^dag`` from ``scipy.linalg.expm`` of
    generators built here: block ``(k, j)`` is ``Z_k``, block ``(j, k)`` is
    ``-Z_k^dag``."""
    from scipy.linalg import expm

    if isinstance(p, dm.SingleParams):
        n, m = p.n, 1
        vecs = [[np.array([[z]]) for z in zv] for zv in p.zvecs]
        core = np.diag(p.lambdas).astype(complex)
    else:
        n, m = p.n, p.m
        vecs = p.blockvecs
        core = np.zeros((n * m, n * m), dtype=complex)
        for k, U in enumerate(p.local_unitaries):
            core[k * m:(k + 1) * m, k * m:(k + 1) * m] = (
                U @ np.diag(p.lambdas[k * m:(k + 1) * m]) @ U.conj().T
            )
    U = np.eye(n * m, dtype=complex)
    for j, Zs in enumerate(vecs, start=2):
        X = np.zeros((n * m, n * m), dtype=complex)
        col = (j - 1) * m
        for k, Z in enumerate(Zs):
            X[k * m:(k + 1) * m, col:col + m] = Z
            X[col:col + m, k * m:(k + 1) * m] = -Z.conj().T
        U = expm(X) @ U
    return U @ core @ U.conj().T


def _state_problems(what, mat, spectrum, tol=1e-10):
    """Hermitian, trace one and the expected spectrum."""
    problems = []
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm <= 1e-12:
        problems.append(f"{what}: Hermiticity deviation {herm:.3e}")
    trace = abs(complex(np.trace(mat)) - 1.0)
    if not trace <= 1e-10:
        problems.append(f"{what}: trace deviates by {trace:.3e}")
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    gap = float(np.max(np.abs(w - np.sort(spectrum))))
    if not gap <= tol:
        problems.append(f"{what}: spectrum off by {gap:.3e}")
    return problems


# -- chain ---------------------------------------------------------------------


class Chain(Workload):
    """Large states through ``assemble_rho_block`` (method ``auto``) and
    ``assemble_rho_single``; each block state is followed by ``ppt_check``.

    One round is seven states: 8x4, 8x4 with a singular top-level angle (so
    ``auto`` takes the ``exp`` fallback), 8x8 twice, 16x4, 32x2 and a single
    n = 100 system.  The 8x8 pair puts the median call inside one shape.
    Each slot cycles through ``POOL`` parameter sets drawn from the seed.
    """

    POOL = 3
    SLOTS = (
        ("8x4", 8, 4, False),
        ("8x4-singular", 8, 4, True),
        ("8x8", 8, 8, False),
        ("8x8-b", 8, 8, False),
        ("16x4", 16, 4, False),
        ("single-100", 100, 1, False),
        ("32x2", 32, 2, False),
    )

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.pools = []
        for _, n, m, singular in self.SLOTS:
            if m == 1:
                pool = [_single_params(rng, n) for _ in range(self.POOL)]
            else:
                pool = [_block_params(rng, n, m, singular) for _ in range(self.POOL)]
            self.pools.append(pool)
        self.first = {}
        self._expm_skew = dm.expm_skew
        self._build_Xj_block = dm.build_Xj_block

    def round(self, r):
        calls = []
        for (label, n, m, _), pool in zip(self.SLOTS, self.pools):
            p = pool[r % self.POOL]
            if m == 1:
                run = lambda p=p: (dm.assemble_rho_single(p), None)
                reference = None
            else:
                run = lambda p=p: _block_and_ppt(p)
                reference = lambda p=p: self._exp_levels(p)
            check = lambda res, p=p, label=label, n=n, m=m: self._check(res, p, label, n, m)
            calls.append(Call(run, 1, check, reference))
        return calls

    def _exp_levels(self, p):
        for j, Zs in enumerate(p.blockvecs, start=2):
            self._expm_skew(self._build_Xj_block(Zs, p.n, j, p.m))

    def _check(self, res, p, label, n, m):
        rho, rep = res
        problems = _state_problems(label, rho.mat, p.lambdas)
        if rep is not None:
            want = pt_min_eig(rho.mat, n, m)
            if not abs(want - rep.min_pt_eig) <= 1e-10:
                problems.append(f"{label}: min_pt_eig {rep.min_pt_eig!r}, expected {want!r}")
        if label not in self.first:
            self.first[label] = (p, np.array(rho.mat))
        return problems

    def final_checks(self):
        """The first state of each shape against the ``scipy.linalg.expm`` chain."""
        problems = []
        for label, (p, mat) in self.first.items():
            err = float(np.max(np.abs(mat - chain_reference(p))))
            if not err <= 1e-9:
                problems.append(f"{label}: differs from the expm chain by {err:.3e}")
        return problems


def _block_and_ppt(p):
    rho = dm.assemble_rho_block(p)
    return rho, dm.ppt_check(rho)


# -- sweep ---------------------------------------------------------------------


def _margin(family, coords, p):
    """Closed-form smallest partial-transpose eigenvalue at each grid row."""
    if family == "pure_P":
        a = coords[:, 0]
        return -np.abs(np.sin(a) * np.cos(a))
    if family == "isotropic":
        q = coords[:, 0]
        return np.minimum((1.0 - 3.0 * q) / 4.0, (1.0 + q) / 4.0)
    if family == "isotropic_alpha":
        q, a = coords[:, 0], coords[:, 1]
        s, c = np.sin(a), np.cos(a)
        base = (1.0 - q) / 4.0
        return np.min([base + q * s * s, base + q * c * c, base + q * s * c, base - q * s * c], axis=0)
    if family == "bell_diagonal":
        p123 = coords[:, :3]
        p4 = 1.0 - (p123[:, 0] + p123[:, 1] + p123[:, 2])
        return 0.5 - np.maximum(p123.max(axis=1), p4)
    if family == "circulant":
        p1, p2, p3, p4 = p
        a, b = coords[:, 0], coords[:, 1]
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        # The partial transpose swaps the two sector corners.
        first = np.stack([
            np.stack([p1 * sb**2 + p2 * cb**2, (p3 - p4) * sa * ca], -1),
            np.stack([(p3 - p4) * sa * ca, p1 * cb**2 + p2 * sb**2], -1),
        ], -2)
        second = np.stack([
            np.stack([p3 * sa**2 + p4 * ca**2, (p1 - p2) * sb * cb], -1),
            np.stack([(p1 - p2) * sb * cb, p3 * ca**2 + p4 * sa**2], -1),
        ], -2)
        return np.minimum(np.linalg.eigvalsh(first)[:, 0], np.linalg.eigvalsh(second)[:, 0])
    raise ValueError(family)


class Sweep(Workload):
    """``dmparam sweep`` over the five sweepable families on quick grids of
    about a thousand points each (one round), plus one fine 160 x 160
    ``circulant`` grid at the start of every run."""

    FINE = 160

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        u = rng.uniform
        p_quick = rng.dirichlet(np.ones(4))
        p_fine = rng.dirichlet(np.ones(4))
        self.outdir = outdir
        self.grids = [
            ("pure_P", [("alpha", u(0.0, 0.1), u(1.4, HALF_PI), 1000)], None),
            ("isotropic", [("p", u(-1.0 / 3.0, -0.2), u(0.8, 1.0), 1000)], None),
            ("isotropic_alpha", [("p", 0.0, u(0.8, 1.0), 32), ("alpha", 0.0, HALF_PI, 32)], None),
            ("circulant", [("alpha", 0.0, HALF_PI, 32), ("beta", 0.0, HALF_PI, 32)], p_quick),
            ("bell_diagonal", [(f"p{k}", 0.0, u(0.3, 1.0 / 3.0), 10) for k in (1, 2, 3)], None),
        ]
        self.fine = ("circulant", [("alpha", 0.0, HALF_PI, self.FINE),
                                   ("beta", 0.0, HALF_PI, self.FINE)], p_fine)
        self.argvs = [self._argv(i, *g) for i, g in enumerate(self.grids)]
        self.fine_argv = self._argv("fine", *self.fine)

    def _argv(self, tag, family, axes, p):
        argv = ["sweep", "--family", family, "-o", str(self.outdir / f"sweep-{tag}.csv")]
        for name, lo, hi, count in axes:
            argv += ["--grid", f"{name}={lo!r}:{hi!r}:{count}"]
        if p is not None:
            argv += ["--set", "p=" + ",".join(repr(float(v)) for v in p)]
        return argv

    def _call(self, argv, grid):
        points = int(np.prod([count for *_, count in grid[1]]))
        return Call(lambda: cli_call(argv), points,
                    lambda res: self._check(res, argv[argv.index("-o") + 1], grid, points))

    def prelude(self):
        # The fine grid's check parses 25,600 rows, as many as cmd_sweep
        # buffers; it runs in final_checks, after peak_rss_mb is read, so
        # that the peak is the program's own.
        points = self.FINE * self.FINE
        return [Call(lambda: cli_call(self.fine_argv), points, self._keep_fine)]

    def _keep_fine(self, res):
        self.fine_res = res
        return []

    def final_checks(self):
        path = self.fine_argv[self.fine_argv.index("-o") + 1]
        return self._check(self.fine_res, path, self.fine, self.FINE * self.FINE)

    def round(self, r):
        return [self._call(argv, grid) for argv, grid in zip(self.argvs, self.grids)]

    def _check(self, res, path, grid, points):
        family, axes, p = grid
        code, out = res
        if code != 0 or out.strip() != f"wrote {points} rows to {path}":
            return [f"sweep {family}: exit {code}, output {out!r}"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        names = [name for name, *_ in axes]
        header = names + ["min_pt_eig", "analytic_margin", "analytic_ppt", "numeric_ppt", "agreement"]
        body = rows[1:]
        if rows[0] != header or len(body) != points:
            return [f"sweep {family}: header {rows[0]} and {len(body)} rows"]
        problems = []
        bad = [r for r in body if r[-1] not in ("true", "boundary")]
        if bad:
            problems.append(f"sweep {family}: {len(bad)} rows disagree, first {bad[0]}")
        k = len(names)
        coords = np.array([[float(v) for v in r[:k]] for r in body])
        mesh = np.meshgrid(*[np.linspace(lo, hi, count) for _, lo, hi, count in axes], indexing="ij")
        if not np.array_equal(coords, np.stack([g.reshape(-1) for g in mesh], -1)):
            problems.append(f"sweep {family}: grid coordinates differ from the grid asked for")
        got = np.array([float(r[k]) for r in body])
        err = float(np.max(np.abs(got - _margin(family, coords, p))))
        if not err <= 1e-12:
            problems.append(f"sweep {family}: min_pt_eig off the closed form by {err:.3e}")
        return problems


# -- validate ------------------------------------------------------------------

VALIDATE_FAMILIES = (
    "herm_eig reconstruction",
    "expm_skew unitarity",
    "matfun_psd identities",
    "polar reconstruction",
    "kron mixed product",
    "haar_unitary",
    "single chain",
    "block chain",
    "partial transpose",
    "family closed forms vs chain",
    "circulant analytic vs numeric",
    "separable constructors PPT",
    "rank-m projector class",
)
_VALIDATE_LINE = re.compile(r"^(ok  |FAIL) (.+?)\s+worst (\S+)\s+\(bound (\S+)\)$")


class Validate(Workload):
    """``dmparam validate --trials 2`` over a rotating list of 32 seeds drawn
    from the benchmark seed: one round is one pass over the list."""

    TRIALS = 2
    SEEDS = 32

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, self.SEEDS)]

    def round(self, r):
        return [
            Call(lambda s=s: cli_call(["validate", "--seed", str(s), "--trials", str(self.TRIALS)]),
                 self.TRIALS, lambda res, s=s: self._check(res, s))
            for s in self.seeds
        ]

    def _check(self, res, seed):
        code, out = res
        lines = out.splitlines()
        done = f"all {len(VALIDATE_FAMILIES)} invariant families passed ({self.TRIALS} trials each)"
        if code != 0 or len(lines) != len(VALIDATE_FAMILIES) + 1 or lines[-1] != done:
            return [f"validate --seed {seed}: exit {code}, output {out!r}"]
        problems = []
        for name, line in zip(VALIDATE_FAMILIES, lines):
            match = _VALIDATE_LINE.match(line)
            if not match or match[1] != "ok  " or match[2] != name \
                    or not float(match[3]) <= float(match[4]):
                problems.append(f"validate --seed {seed}: {line!r}")
        return problems


# -- roundtrip -----------------------------------------------------------------


def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(mat)]


def _param_doc(kind, payload):
    return {"schema_version": "1", "kind": kind, "payload": payload}


def _read_json_matrix(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.array([[complex(re_, im) for re_, im in row] for row in doc["matrix"]]), doc["n"], doc["m"]


def _read_text_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([[complex(tok) for tok in line.split()] for line in fh if line.strip()])


#: Malformed parameter files: (name, document).  They do not depend on the
#: seed.  The first two end in a TypeError inside ``load_param_file``
#: instead of exit 2, so they fail on every run.
MALFORMED = (
    ("bad-family-p-object", _param_doc("family", {"family": "isotropic", "p": {"a": 1}})),
    ("bad-block-unitaries-int", _param_doc("block", {
        "n": 2, "m": 2, "lambdas": [0.25] * 4, "local_unitaries": 3, "blockvecs": []})),
    ("missing-field", _param_doc("block", {"n": 2, "m": 2, "lambdas": [0.25] * 4, "blockvecs": []})),
    ("wrong-schema", {"schema_version": "2", "kind": "family",
                      "payload": {"family": "isotropic", "p": 0.2}}),
)


class Roundtrip(Workload):
    """``dmparam generate`` in both output formats, then ``analyze`` of each
    output, on seven parameter files written at set-up from the seed (block
    4x4 and 8x4, single n = 16, families circulant, isotropic_alpha, two_by_m
    with m = 3 and class3 with n = 3, m = 2), plus four malformed files that
    must end with exit 2."""

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.files = []  # (name, n, m, expected: ("spectrum", w) | ("matrix", M))
        for n, m in ((4, 4), (8, 4)):
            p = _block_params(rng, n, m)
            self._write(f"block-{n}x{m}", n, m, ("spectrum", p.lambdas), _param_doc("block", {
                "n": n, "m": m, "lambdas": list(p.lambdas),
                "local_unitaries": [_pairs(U) for U in p.local_unitaries],
                "blockvecs": [[_pairs(Z) for Z in Zs] for Zs in p.blockvecs],
            }))
        p = _single_params(rng, 16)
        self._write("single-16", 16, 1, ("spectrum", p.lambdas), _param_doc("single", {
            "lambdas": list(p.lambdas), "zvecs": [_pairs(z)[0] for z in p.zvecs],
        }))
        q, a, b = rng.dirichlet(np.ones(4)), rng.uniform(0, HALF_PI), rng.uniform(0, HALF_PI)
        self._write("circulant", 2, 2, ("matrix", _circulant(q, a, b)), _param_doc("family", {
            "family": "circulant", "p": list(q), "alpha": a, "beta": b}))
        q, a = rng.uniform(0.0, 1.0), rng.uniform(0, HALF_PI)
        psi = np.array([np.sin(a), 0.0, 0.0, np.cos(a)])
        iso = (1.0 - q) / 4.0 * np.eye(4) + q * np.outer(psi, psi)
        self._write("isotropic_alpha", 2, 2, ("matrix", iso), _param_doc("family", {
            "family": "isotropic_alpha", "p": q, "alpha": a}))
        U, L1, L2, Xi2 = _unitary(rng, 3), _psd(rng, 3), _psd(rng, 3), _psd(rng, 3)
        total = float(np.trace(L1 + L2).real)
        L1, L2 = L1 / total, L2 / total
        w = np.concatenate([np.linalg.eigvalsh(L1), np.linalg.eigvalsh(L2)])
        self._write("two_by_m", 2, 3, ("spectrum", w), _param_doc("family", {
            "family": "two_by_m", "U": _pairs(U), "L1": _pairs(L1), "L2": _pairs(L2),
            "Xi2": _pairs(Xi2)}))
        n, m = 3, 2
        Zs = [_complex(rng, (m, m)) for _ in range(n - 1)]
        self._write("class3", n, m, ("spectrum", [0.0] * ((n - 1) * m) + [1.0 / m] * m),
                    _param_doc("family", {"family": "class3", "n": n, "m": m,
                                          "Z": [_pairs(Z) for Z in Zs]}))
        self.malformed = []
        for name, doc in MALFORMED:
            path = outdir / f"{name}.params.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.malformed.append(str(path))
        self.calls = self._calls()

    def _write(self, name, n, m, expected, doc):
        path = self.outdir / f"{name}.params.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.files.append((name, str(path), n, m, expected))

    def _calls(self):
        calls = []
        for name, params, n, m, expected in self.files:
            as_json = str(self.outdir / f"{name}.rho.json")
            as_text = str(self.outdir / f"{name}.rho.txt")
            calls += [
                Call(lambda a=["generate", params, "-o", as_json]: cli_call(a), 1,
                     lambda res, name=name: _exit_problems(name, res, 0)),
                Call(lambda a=["generate", params, "-o", as_text, "--format", "matrix_text"]:
                     cli_call(a), 1,
                     lambda res, a=(name, as_json, as_text, n, m, expected):
                     _exit_problems(a[0], res, 0) or _output_problems(*a)),
                Call(lambda a=["analyze", as_json]: cli_call(a), 1,
                     lambda res, a=(name, as_json, n, m): _analyze_problems(res, *a)),
                Call(lambda a=["analyze", as_text, "--n", str(n), "--m", str(m)]: cli_call(a), 1,
                     lambda res, a=(name, as_json, n, m): _analyze_problems(res, *a)),
            ]
        for path in self.malformed:
            calls.append(Call(lambda a=["generate", path, "-o", str(self.outdir / "bad.rho.json")]:
                              cli_call(a), 1, lambda res, path=path: _exit_problems(path, res, 2)))
        return calls

    def round(self, r):
        return self.calls


def _circulant(q, a, b):
    """The circulant family: ``diag(p2, p1)`` rotated by ``b`` in the
    ``{|00>, |11>}`` sector and ``diag(p4, p3)`` by ``a`` in ``{|01>, |10>}``."""
    def rot(t, lo, hi):
        R = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        return R @ np.diag([lo, hi]) @ R.T

    rho = np.zeros((4, 4))
    rho[np.ix_([0, 3], [0, 3])] = rot(b, q[1], q[0])
    rho[np.ix_([1, 2], [1, 2])] = rot(a, q[3], q[2])
    return rho


def _exit_problems(what, res, expected):
    code, out = res
    return [] if code == expected else [f"{what}: exit {code}, expected {expected}; {out!r}"]


def _output_problems(name, as_json, as_text, n, m, expected):
    mat, fn, fm = _read_json_matrix(as_json)
    problems = []
    if (fn, fm) != (n, m) or not np.array_equal(mat, _read_text_matrix(as_text)):
        problems.append(f"{name}: JSON and matrix_text outputs differ")
    kind, value = expected
    if kind == "spectrum":
        problems += _state_problems(name, mat, value)
    else:
        err = float(np.max(np.abs(mat - value)))
        if not err <= 1e-12:
            problems.append(f"{name}: off the closed form by {err:.3e}")
    return problems


def _analyze_problems(res, name, as_json, n, m):
    code, out = res
    if code != 0:
        return [f"analyze {name}: exit {code}; {out!r}"]
    fields = {}
    for line in out.splitlines()[1:]:
        key, _, value = line.strip().partition(" ")
        fields[key] = value.strip()
    mat = _read_json_matrix(as_json)[0]
    want = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
    got = np.array([float(v) for v in fields.get("eigenvalues", "").split()])
    problems = []
    if fields.get("dims") != f"({n}, {m})":
        problems.append(f"analyze {name}: dims {fields.get('dims')!r}")
    if got.shape != want.shape or not np.max(np.abs(got - want)) <= 1e-12:
        problems.append(f"analyze {name}: eigenvalues differ from NumPy")
    if not abs(float(fields.get("min_pt_eig", "nan")) - pt_min_eig(mat, n, m)) <= 1e-12:
        problems.append(f"analyze {name}: min_pt_eig differs from NumPy")
    return problems


WORKLOADS = {"chain": Chain, "sweep": Sweep, "validate": Validate, "roundtrip": Roundtrip}
