"""Command-line interface.

Subcommands::

    dmparam generate  params.json -o rho.json [--format json|matrix_text]
    dmparam analyze   rho.json --n 2 --m 2
    dmparam reproduce {pure_P,isotropic_threshold,circulant_pi12,bell_boundary,
                       toeplitz_demo,hankel_demo,class3_projector,all}
    dmparam sweep     --family isotropic_alpha --grid p=0:1:50
                      --grid alpha=0:1.5707963267948966:50 -o sweep.csv
    dmparam validate  --seed 42 --trials 100

Exit codes: 0 ok, 2 input error, 3 numerical failure, 4 not a state, 5 check
mismatch; a usage error raises ``SystemExit(2)``.  Output, with 17 significant
digits, is a deterministic function of the inputs and ``--seed``.  ``main``
builds its parser once and looks up the ``cmd_*`` handler per call (a rebound one runs).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _random as rnd
from .blocks import BlockParams, assemble_rho_block, normalize_blocks
from .entanglement import (
    BOUNDARY_BAND,
    PptReport,
    detect_structure,
    ppt_check,
    pt_spectrum,
)
from .errors import (
    ConvergenceFailureError,
    DmParamError,
    NotPsdError,
    SingularAngleError,
)
from .families import (
    FAMILIES,
    bell_diagonal,
    build_family,
    circulant_rho,
    class3_state,
    hankel_state,
    isotropic,
    nonabelian_sphere_check,
    pure_P,
    toeplitz_state,
)
from .io import ParamFileError, fmt_float, load_param_file, read_matrix, write_matrix
from .linalg import DEFAULT_TOL, TRACE_TOL, Tolerances, polar
from .single import SingleParams, assemble_rho_single
from .states import DensityMatrix, check_states
from .validate import run_validation, serialize_counterexample

__all__ = ["main", "StateReport"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NOT_A_STATE = 4
EXIT_MISMATCH = 5


@dataclass(frozen=True)
class StateReport:
    """Analysis summary printed by ``dmparam analyze``."""

    dims: tuple
    eigenvalues: np.ndarray
    purity: float
    rank: int
    ppt: PptReport
    structure: str | None

    def lines(self):
        n, m = self.dims
        out = [
            f"dims          ({n}, {m})",
            "eigenvalues   " + " ".join(fmt_float(w) for w in self.eigenvalues),
            f"purity        {fmt_float(self.purity)}",
            f"rank          {self.rank}",
            f"ppt           {'true' if self.ppt.is_ppt else 'false'}",
            f"min_pt_eig    {fmt_float(self.ppt.min_pt_eig)}",
            f"pt_subsystem  {self.ppt.subsystem}",
        ]
        if self.structure is not None:
            out.append(f"structure     {self.structure}")
        return out


def cmd_generate(args, tol) -> int:
    if args.output is None:
        print("generate: --output is required", file=sys.stderr)
        return EXIT_INPUT
    params = load_param_file(args.input)
    if isinstance(params, SingleParams):
        rho = assemble_rho_single(params, tol)
    elif isinstance(params, BlockParams):
        rho = assemble_rho_block(params, tol)
    else:
        rho = build_family(params, tol)
    write_matrix(args.output, rho.mat, args.format, rho.n, rho.m)
    print(f"wrote {rho.n * rho.m}x{rho.n * rho.m} state (n={rho.n}, m={rho.m}) to {args.output}")
    return EXIT_OK


def cmd_analyze(args, tol) -> int:
    mat, file_n, file_m = read_matrix(args.input)
    n = args.n if args.n is not None else file_n
    m = args.m if args.m is not None else file_m
    if n is None or m is None:
        print("analyze: dims unknown; pass --n and --m", file=sys.stderr)
        return EXIT_INPUT
    if mat.shape != (n * m, n * m):
        print(
            f"analyze: matrix shape {mat.shape} does not match n*m = {n * m}",
            file=sys.stderr,
        )
        return EXIT_INPUT

    herm_dev = float(np.linalg.norm(mat - mat.conj().T))
    scale = max(float(np.linalg.norm(mat)), 1.0)
    trace_dev = abs(complex(np.trace(mat)) - 1.0)
    sym = (mat + mat.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    problems = []
    if herm_dev > tol.tol_herm * scale:
        problems.append(f"hermiticity deviation {herm_dev:.3e}")
    if trace_dev > TRACE_TOL:
        problems.append(f"trace deviates from 1 by {trace_dev:.3e}")
    if eigs[0] < -tol.tol_psd:
        problems.append(f"negative eigenvalue {eigs[0]:.3e}")

    ppt = ppt_check(sym, tol, dims=(n, m))
    structure = None
    purity = float(np.sum(eigs**2))
    rank = int(np.count_nonzero(eigs > tol.tol_psd))
    if not problems and n == 2:
        structure = detect_structure(DensityMatrix(n, m, sym, tol))
    report = StateReport(
        dims=(n, m), eigenvalues=eigs, purity=purity, rank=rank, ppt=ppt,
        structure=structure,
    )
    print("state report")
    for line in report.lines():
        print("  " + line)
    if problems:
        print("not a state:")
        for issue in problems:
            print("  - " + issue)
        return EXIT_NOT_A_STATE
    return EXIT_OK


class _Reproducer:
    """Worked-example checks: prints expected vs computed, collects failures."""

    def __init__(self, tol, seed):
        self.tol = tol
        self.seed = seed
        self.failed = []

    def check(self, name, expected, computed, tolerance):
        ok = abs(expected - computed) <= tolerance
        status = "ok" if ok else "MISMATCH"
        print(
            f"  {name}: expected {fmt_float(expected)}  computed {fmt_float(computed)}"
            f"  [{status}]"
        )
        if not ok:
            self.failed.append(name)

    def check_flag(self, name, expected, computed):
        ok = bool(expected) == bool(computed)
        status = "ok" if ok else "MISMATCH"
        print(f"  {name}: expected {expected}  computed {computed}  [{status}]")
        if not ok:
            self.failed.append(name)

    # -- individual examples -------------------------------------------------

    def pure_P(self):
        print("pure_P: rank-1 projector family")
        rho = pure_P(np.pi / 4, self.tol)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
        self.check(
            "matrix at alpha=pi/4", 0.0,
            float(np.max(np.abs(rho.mat - expected))), 1e-12,
        )
        self.check(
            "idempotence", 0.0,
            float(np.linalg.norm(rho.mat @ rho.mat - rho.mat)), 1e-12,
        )
        self.check(
            "min PT eigenvalue", -0.5,
            ppt_check(rho, self.tol).min_pt_eig, 1e-10,
        )

    def isotropic_threshold(self):
        print("isotropic_threshold: PPT boundary at p = 1/3")
        for p in (0.0, 0.2, 1.0 / 3.0, 0.7, 1.0):
            got = ppt_check(isotropic(p, self.tol), self.tol).min_pt_eig
            self.check(f"min PT eig at p={p:g}", (1.0 - 3.0 * p) / 4.0, got, 1e-12)
        below = ppt_check(isotropic(1.0 / 3.0 - 1e-10, self.tol), self.tol).min_pt_eig
        above = ppt_check(isotropic(1.0 / 3.0 + 1e-10, self.tol), self.tol).min_pt_eig
        self.check_flag("sign(min PT) at p = 1/3 - 1e-10 is +", True, below > 0)
        self.check_flag("sign(min PT) at p = 1/3 + 1e-10 is -", True, above < 0)

    def circulant_pi12(self):
        print("circulant_pi12: separable window in alpha at the worked point")
        p = (0.125, 0.125, 0.125, 0.625)
        beta = np.pi / 3
        lo = ppt_check(circulant_rho(p, np.pi / 12 - 1e-6, beta, self.tol), self.tol)
        hi = ppt_check(circulant_rho(p, np.pi / 12 + 1e-3, beta, self.tol), self.tol)
        self.check_flag("PPT at alpha = pi/12 - 1e-6", True, lo.is_ppt)
        self.check_flag("PPT at alpha = pi/12 + 1e-3", False, hi.is_ppt)
        for beta in np.linspace(0.0, np.pi / 2, 7):
            rep = ppt_check(circulant_rho(p, np.pi / 12, beta, self.tol), self.tol)
            self.check_flag(f"PPT at alpha = pi/12, beta = {beta:.3f}", True, rep.is_ppt)

    def bell_boundary(self):
        print("bell_boundary: PPT iff max_k p_k <= 1/2")
        rho = bell_diagonal((0.5, 1.0 / 6, 1.0 / 6, 1.0 / 6), self.tol)
        self.check("min PT eig at max p = 1/2", 0.0, ppt_check(rho, self.tol).min_pt_eig, 1e-12)
        rho = bell_diagonal((0.55, 0.15, 0.15, 0.15), self.tol)
        self.check("min PT eig at max p = 0.55", -0.05, ppt_check(rho, self.tol).min_pt_eig, 1e-12)
        rng = np.random.default_rng(self.seed)
        mismatch = 0
        for _ in range(50):
            p = rnd.rand_simplex(rng, 4)
            law = max(p) <= 0.5
            if law != ppt_check(bell_diagonal(p, self.tol), self.tol).is_ppt:
                mismatch += 1
        self.check("law mismatches over 50 draws", 0.0, float(mismatch), 0.0)

    def toeplitz_demo(self):
        print("toeplitz_demo: commuting-family block Toeplitz state")
        rng = np.random.default_rng(self.seed)
        L = rnd.rand_psd(rng, 3)
        L /= 2.0 * np.trace(L).real
        U = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(3)
        rho = toeplitz_state(L, U, rnd.rand_psd(rng, 3), self.tol)
        self.check_flag("classified block_toeplitz", True,
                        detect_structure(rho) == "block_toeplitz")
        rep = ppt_check(rho, self.tol)
        self.check_flag(f"PPT (min PT eig {fmt_float(rep.min_pt_eig)})", True, rep.is_ppt)

    def hankel_demo(self):
        print("hankel_demo: commuting-family block Hankel state")
        rng = np.random.default_rng(self.seed)
        W = rnd.rand_unitary(rng, 3)
        d1 = rng.uniform(0.1, 1.0, 3)
        d2 = rng.uniform(0.1, 1.0, 3)
        total = d1.sum() + d2.sum()
        L1 = (W * (d1 / total)) @ W.conj().T
        L2 = (W * (d2 / total)) @ W.conj().T
        Xi = (W * rng.uniform(0.2, 1.2, 3)) @ W.conj().T
        U = (W * np.array([1.0, -1.0, 1.0])) @ W.conj().T
        rho = hankel_state(U, L1, L2, Xi, self.tol)
        self.check_flag("classified block_hankel", True,
                        detect_structure(rho) == "block_hankel")
        rep = ppt_check(rho, self.tol)
        self.check_flag(f"PPT (min PT eig {fmt_float(rep.min_pt_eig)})", True, rep.is_ppt)

    def class3_projector(self):
        print("class3_projector: conjugated rank-m core is a projector")
        rng = np.random.default_rng(self.seed)
        n, m = 3, 2
        Zs = rnd.rand_commuting_normal_blocks(rng, n - 1, m)
        rho = class3_state(n, m, Zs, self.tol)
        mr = m * rho.mat
        self.check("idempotence residual", 0.0, float(np.linalg.norm(mr @ mr - mr)), 1e-10)
        self.check("rank", float(m), float(rho.rank(self.tol)), 0.0)
        Ps = [polar(Zt, self.tol)[0] for Zt in normalize_blocks(Zs, self.tol)]
        self.check_flag("nonabelian sphere", True, nonabelian_sphere_check(Ps, self.tol))


_EXAMPLES = (
    "pure_P",
    "isotropic_threshold",
    "circulant_pi12",
    "bell_boundary",
    "toeplitz_demo",
    "hankel_demo",
    "class3_projector",
)


def cmd_reproduce(args, tol) -> int:
    if args.seed < 0:
        raise ParamFileError(f"seed must be >= 0, got {args.seed}")
    names = _EXAMPLES if args.example == "all" else (args.example,)
    rep = _Reproducer(tol, args.seed)
    for name in names:
        getattr(rep, name)()
    if rep.failed:
        print(f"FAILED checks: {', '.join(rep.failed)}")
        return EXIT_MISMATCH
    print("all reproduction checks passed")
    return EXIT_OK


# -- sweep ------------------------------------------------------------------

#: Grid points per stack: a sweep's memory follows this, not the grid size.
_SWEEP_CHUNK = 256


def _parse_grid(spec):
    try:
        name, rest = spec.split("=", 1)
        lo, hi, count = rest.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ParamFileError(f"bad grid spec {spec!r}: expected name=lo:hi:count") from exc
    if count < 1:
        raise ParamFileError(f"bad grid spec {spec!r}: count must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParamFileError(f"bad grid spec {spec!r}: bounds must be finite")
    if not math.isfinite(hi - lo):
        raise ParamFileError(f"bad grid spec {spec!r}: hi - lo overflows")
    return name, lo, hi, count


def _parse_fixed(items, family):
    """``--set key=value`` items as ``(key, value)`` pairs; a ``reals``
    parameter takes a comma-separated list."""
    fixed = []
    for item in items:
        try:
            key, value = item.split("=", 1)
            reals = family.params.get(key) == "reals"
            value = [float(v) for v in value.split(",")] if reals else float(value)
        except ValueError as exc:
            raise ParamFileError(f"bad --set {item!r}: expected key=number(s)") from exc
        if not np.all(np.isfinite(value)):
            raise ParamFileError(f"bad --set {item!r}: values must be finite")
        fixed.append((key, value))
    return fixed


def _axis_values(lo, hi, count, idx):
    """``np.linspace(lo, hi, count)[idx]`` for an index or index array,
    computed with linspace's own operations so that the values are equal."""
    y = np.asarray(idx, dtype=float)
    div = count - 1
    if div == 0:
        return y * (hi - lo) + lo
    step = (hi - lo) / div
    y = y / div * (hi - lo) if step == 0 else y * step
    return np.where(idx == div, hi, y + lo)


def _raise_at(family, point_at, row, tol):
    family.build(*(point_at(row)[k] for k in family.params), tol)
    raise RuntimeError(f"sweep: grid row {row} fails a batched check but not its constructor")


def _sweep_chunk(family, point_at, rows, tol):
    """Arguments and smallest partial-transpose eigenvalue at grid ``rows``.

    ``point_at(rows)`` maps the rows to the family's arguments, stacked (and
    one row to plain values).  The chunk is built with the family's array
    formula, range-checked and gated as one stack.  At the first row in
    order that fails, the family's constructor is called on that row alone
    and raises what it raises for that point.
    """
    point = point_at(rows)
    values = [point[k] for k in family.params]
    if family.domain is not None:
        inside = np.broadcast_to(family.domain(*values), rows.shape)
        if not inside.all():
            first = int(np.argmin(inside))
            if first:
                _sweep_chunk(family, point_at, rows[:first], tol)
            _raise_at(family, point_at, rows[first], tol)
    mats = family.mats(*values)
    _, failure = check_states(mats, tol)
    if failure is not None:
        _raise_at(family, point_at, rows[failure[0]], tol)
    return point, pt_spectrum(mats, dims=(2, 2))[:, 0]


def cmd_sweep(args, tol) -> int:
    if args.output is None:
        print("sweep: --output is required", file=sys.stderr)
        return EXIT_INPUT
    family = FAMILIES.get(args.family)
    if family is None or family.margin is None:
        supported = sorted(k for k, f in FAMILIES.items() if f.margin is not None)
        print(
            f"sweep: unknown family {args.family!r}; supported: {supported}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    axes = [_parse_grid(spec) for spec in args.grid]
    fixed = _parse_fixed(args.set, family)
    names = [name for name, *_ in axes]
    given = names + [key for key, _ in fixed]
    twice = sorted({k for k in given if given.count(k) > 1})
    if twice:
        raise ParamFileError(f"sweep: {twice[0]!r} is given more than once by --grid/--set")
    fixed = dict(fixed)
    for name in names:
        if name not in family.axes:
            raise ParamFileError(
                f"axis {name!r} is not a parameter of {args.family!r}; "
                f"expected one of {family.axes}"
            )
    settable = set(family.axes) | (set(family.params) - set(family.derive))
    unknown = sorted(set(fixed) - settable)
    if unknown:
        raise ParamFileError(f"--set {unknown}: {args.family!r} takes only {sorted(settable)}")
    have = set(given) | set(family.derive)
    missing = [k for k in family.params if k not in have]
    if missing:
        raise ParamFileError(f"sweep {args.family!r}: parameters {missing} need --grid or --set")

    counts = [count for *_, count in axes]

    def point_at(rows):
        """Fixed, axis and derived values at grid rows (row-major); plain
        floats for a single row."""
        point = dict(fixed)
        for (name, lo, hi, count), i in zip(axes, np.unravel_index(rows, counts)):
            x = _axis_values(lo, hi, count, i)
            point[name] = x if np.ndim(rows) else float(x)
        for key, derive in family.derive.items():
            point[key] = derive(point)
        return point

    header = names + ["min_pt_eig", "analytic_margin", "analytic_ppt", "numeric_ppt", "agreement"]
    total = math.prod(counts)
    try:
        fh = open(args.output, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParamFileError(f"cannot write {args.output}: {exc}") from exc
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for start in range(0, total, _SWEEP_CHUNK):
                rows = np.arange(start, min(start + _SWEEP_CHUNK, total))
                point, min_pt = _sweep_chunk(family, point_at, rows, tol)
                margin = family.margin(*(point[k] for k in family.params))
                margin = np.broadcast_to(margin, rows.shape)
                analytic = margin >= 0.0
                numeric = min_pt >= -tol.tol_psd
                agreement = np.where(np.abs(margin) < BOUNDARY_BAND, "boundary",
                                     np.where(analytic == numeric, "true", "false"))
                numbers = [point[name] for name in names] + [min_pt, margin]
                writer.writerows(zip(
                    *(map(fmt_float, col.tolist()) for col in numbers),
                    np.where(analytic, "true", "false").tolist(),
                    np.where(numeric, "true", "false").tolist(),
                    agreement.tolist(),
                ))
    except BaseException as exc:
        os.remove(args.output)  # leave no truncated CSV behind
        if isinstance(exc, DmParamError):  # named as ``build_family`` names it
            exc.args = (f"family {args.family!r}: {exc}",)
        raise
    print(f"wrote {total} rows to {args.output}")
    return EXIT_OK


def cmd_validate(args, tol) -> int:
    if args.trials < 1:
        print(f"validate: trials must be >= 1, got {args.trials}", file=sys.stderr)
        return EXIT_INPUT
    results = run_validation(args.seed, args.trials, tol)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.ok]
    if failed:
        print("first counterexample:")
        print(serialize_counterexample(failed[0]))
        return EXIT_MISMATCH
    print(f"all {len(results)} invariant families passed ({args.trials} trials each)")
    return EXIT_OK


@functools.cache
def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.tol_psd,
                        help="most negative admissible eigenvalue")
    common.add_argument("--tol-herm", type=float, default=DEFAULT_TOL.tol_herm,
                        help="relative Hermiticity tolerance")
    common.add_argument("--seed", type=int, default=1234, help="RNG seed")
    common.add_argument("--output", "-o", default=None, help="output path")
    common.add_argument("--format", choices=("json", "matrix_text"), default="json",
                        help="matrix output format")

    parser = argparse.ArgumentParser(
        prog="dmparam",
        description="Construct and analyze factorized density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common],
                       help="assemble a state from a parameter file")
    g.add_argument("input", help="parameter file (JSON)")

    a = sub.add_parser("analyze", parents=[common],
                       help="diagnostics for a state stored in a file")
    a.add_argument("input", help="matrix file (JSON or matrix_text)")
    a.add_argument("--n", type=int, default=None, help="first factor dimension")
    a.add_argument("--m", type=int, default=None, help="second factor dimension")

    r = sub.add_parser("reproduce", parents=[common],
                       help="re-derive the worked closed-form examples")
    r.add_argument("example", choices=_EXAMPLES + ("all",))

    s = sub.add_parser("sweep", parents=[common],
                       help="grid scan of a family with PPT verdicts to CSV")
    s.add_argument("--family", required=True)
    s.add_argument("--grid", action="append", required=True,
                   help="axis spec name=lo:hi:count (repeatable, row-major order)")
    s.add_argument("--set", action="append", default=[],
                   help="fixed parameter key=value (value may be comma-separated)")

    v = sub.add_parser("validate", parents=[common],
                       help="run the randomized invariant suite")
    v.add_argument("--trials", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"generate": cmd_generate, "analyze": cmd_analyze, "reproduce": cmd_reproduce,
               "sweep": cmd_sweep, "validate": cmd_validate}[args.command]
    try:
        tol = Tolerances(tol_herm=args.tol_herm, tol_psd=args.tol_psd)
        return command(args, tol)
    except (NotPsdError, SingularAngleError, ConvergenceFailureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParamFileError, DmParamError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
