"""Command-line interface.

Subcommands::

    dmparam generate  params.json -o rho.json [--format json|matrix_text]
    dmparam analyze   rho.json [--n 2 --m 2]
    dmparam reproduce all [--seed S]   (or one name of ``validate.EXAMPLES``)
    dmparam sweep     --family isotropic_alpha --grid p=0:1:50
                      --grid alpha=0:1.5707963267948966:50 [--set k=v] -o sweep.csv
    dmparam validate  [--seed 42] [--trials 100]

Every subcommand also takes ``--tol-psd`` and ``--tol-herm``; each other flag
belongs only to the subcommands shown with it, and any other flag is a usage
error.  Exit codes: 0 ok, 2 input error, 3 numerical failure, 4 not a state,
5 check mismatch; a usage error raises ``SystemExit(2)``.  Output, with 17
significant digits, is a deterministic function of the inputs and ``--seed``.
``analyze`` answers a matrix with a non-finite entry with exit 2 and takes
the spectrum of the rest from one ``eigvalsh`` of its Hermitian part.  ``main``
builds its parser once and looks up the ``cmd_*`` handler per call (a rebound one runs).
The worked examples of ``reproduce`` and the invariants of ``validate`` live
in :mod:`dmparam.validate`; this module parses arguments and prints results.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

import numpy as np

from .blocks import BlockParams, assemble_rho_block
from .entanglement import BOUNDARY_BAND, detect_structure, ppt_check, pt_spectrum
from .errors import ConvergenceFailureError, DmParamError, NotPsdError, SingularAngleError
from .families import FAMILIES, FamilySpec, build_family
from .io import fmt_float, load_param_file, read_matrix, write_matrix
from .linalg import DEFAULT_TOL, TRACE_TOL, Tolerances
from .single import SingleParams, assemble_rho_single
from .states import check_states
from .validate import EXAMPLES, run_validation, serialize_counterexample

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NOT_A_STATE = 4
EXIT_MISMATCH = 5


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

    if not np.isfinite(mat).all():
        raise DmParamError("matrix contains non-finite entries")
    # Nothing below exceeds (2 nm max|entry|)^2, the square sum inside ||mat - mat^dag||_F.
    limit = math.sqrt(np.finfo(float).max) / (2 * n * m)
    big = np.argwhere(np.abs(mat) > limit).tolist()
    if big:
        where = ", ".join(f"({i}, {j})" for i, j in big[:3]) + (", ..." if big[3:] else "")
        raise DmParamError(
            f"matrix entries too large to analyze: |entry| > {limit:.3e} at {where}")

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
    report = [
        f"dims          ({n}, {m})",
        "eigenvalues   " + " ".join(fmt_float(w) for w in eigs),
        f"purity        {fmt_float(np.sum(eigs**2))}",
        f"rank          {np.count_nonzero(eigs > tol.tol_psd)}",
        f"ppt           {'true' if ppt.is_ppt else 'false'}",
        f"min_pt_eig    {fmt_float(ppt.min_pt_eig)}",
        "pt_subsystem  second",
    ]
    if not problems and n == 2:
        structure = detect_structure(sym, dims=(n, m))
        report.append(f"structure     {structure}")
    print("state report")
    for line in report:
        print("  " + line)
    if problems:
        print("not a state:")
        for issue in problems:
            print("  - " + issue)
        return EXIT_NOT_A_STATE
    return EXIT_OK


def cmd_reproduce(args, tol) -> int:
    if args.seed < 0:
        raise DmParamError(f"seed must be >= 0, got {args.seed}")
    failed = []
    for name in EXAMPLES if args.example == "all" else (args.example,):
        title, rows = EXAMPLES[name]
        print(f"{name}: {title}")
        for label, ok, text in rows(np.random.default_rng(args.seed), tol):
            print("  " + text)
            if not ok:
                failed.append(label)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return EXIT_MISMATCH
    print("all reproduction checks passed")
    return EXIT_OK


# -- sweep ------------------------------------------------------------------

#: Grid points per stack: a sweep's memory follows this, not the grid size.
_SWEEP_CHUNK = 256

#: ``analytic_ppt,numeric_ppt,agreement`` of a row, indexed by
#: ``4 * analytic + 2 * numeric + boundary``; a boundary row's agreement is
#: ``boundary`` whatever the verdicts.
_SWEEP_TAILS = (
    "false,false,true", "false,false,boundary", "false,true,false", "false,true,boundary",
    "true,false,false", "true,false,boundary", "true,true,true", "true,true,boundary",
)


def _parse_grid(spec):
    try:
        name, rest = spec.split("=", 1)
        lo, hi, count = rest.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise DmParamError(f"bad grid spec {spec!r}: expected name=lo:hi:count") from exc
    if count < 1:
        raise DmParamError(f"bad grid spec {spec!r}: count must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DmParamError(f"bad grid spec {spec!r}: bounds must be finite")
    if not math.isfinite(hi - lo):
        raise DmParamError(f"bad grid spec {spec!r}: hi - lo overflows")
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
            raise DmParamError(f"bad --set {item!r}: expected key=number(s)") from exc
        if not np.all(np.isfinite(value)):
            raise DmParamError(f"bad --set {item!r}: values must be finite")
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


def _axis_texts(lo, hi, count):
    """``%.17g`` text of each value of an axis, keyed by the value's bits
    (so ``-0.0`` is not ``0.0``)."""
    x = _axis_values(lo, hi, count, np.arange(count))
    return dict(zip(x.view(np.int64).tolist(), ["%.17g" % v for v in x.tolist()]))


def _sweep_chunk(name, family, point_at, rows, tol):
    """Arguments and smallest partial-transpose eigenvalue at grid ``rows``.

    ``point_at(rows)`` maps the rows to the family's arguments, stacked (and
    one row to plain values).  The chunk is range-checked as one stack; the
    rows before its first row out of range are built with the family's array
    formula and gated as one stack.  The first row in order that fails either
    check goes alone to :func:`build_family`, which raises the constructor's error.
    """
    point = point_at(rows)
    values = [point[k] for k in family.params]
    first = len(rows)  # the first row out of range, if any
    if family.domain is not None:
        inside = np.broadcast_to(family.domain(*values), rows.shape)
        if not inside.all():
            first = int(np.argmin(inside))
            # only rows in range go through the array formula
            values = [point_at(rows[:first])[k] for k in family.params] if first else None
    mats = family.mats(*values) if first else None
    failure = check_states(mats, tol) if first else None
    if failure is not None or first < len(rows):
        row = rows[first if failure is None else failure[0]]
        build_family(FamilySpec(name, point_at(row)), tol)
        raise RuntimeError(f"sweep: grid row {row} fails a batched check but not its constructor")
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
        raise DmParamError(f"sweep: {twice[0]!r} is given more than once by --grid/--set")
    fixed = dict(fixed)
    for name in names:
        if name not in family.axes:
            raise DmParamError(
                f"axis {name!r} is not a parameter of {args.family!r}; "
                f"expected one of {family.axes}"
            )
    settable = set(family.axes) | (set(family.params) - set(family.derive))
    unknown = sorted(set(fixed) - settable)
    if unknown:
        raise DmParamError(f"--set {unknown}: {args.family!r} takes only {sorted(settable)}")
    have = set(given) | set(family.derive)
    missing = [k for k in family.params if k not in have]
    if missing:
        raise DmParamError(f"sweep {args.family!r}: parameters {missing} need --grid or --set")
    # Families sum their weights (a ``reals`` parameter's entries, or the axes
    # ``derive`` turns into one) at every point; those sums, a derived weight
    # included, stay below twice their largest magnitudes plus one.
    largest = {name: max(abs(lo), abs(hi)) for name, lo, hi, _ in axes}
    largest.update((k, sum(abs(x) for x in np.ravel(v).tolist())) for k, v in fixed.items())
    reach = 0.0
    for name in (k for k in given if family.params.get(k, "reals") == "reals"):
        reach += largest[name]
        if not math.isfinite(2.0 * reach + 1.0):
            raise DmParamError(
                f"sweep {args.family!r}: {name!r} is too large: the weights' sums overflow")

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

    total, most = math.prod(counts), np.iinfo(np.intp).max
    if total > most:
        raise DmParamError(f"sweep: the grid has {total} points, more than {most}")
    # Axis names are parameter names and the other cells are numbers or
    # true/false/boundary, so no cell needs CSV quoting: each chunk is one
    # ``%`` format with 17 significant digits and csv's ``\r\n`` line ending.
    # An axis whose values repeat over the grid has each value formatted once;
    # one longer than a chunk is formatted per row, so memory follows the chunk.
    texts = [_axis_texts(lo, hi, count) if count < total and count <= _SWEEP_CHUNK else None
             for _, lo, hi, count in axes]
    header = names + ["min_pt_eig", "analytic_margin", "analytic_ppt", "numeric_ppt", "agreement"]
    template = "".join("%.17g," if t is None else "%s," for t in texts) + "%.17g,%.17g,%s\r\n"
    try:
        fh = open(args.output, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DmParamError(f"cannot write {args.output}: {exc}") from exc
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, total, _SWEEP_CHUNK):
                rows = np.arange(start, min(start + _SWEEP_CHUNK, total))
                point, min_pt = _sweep_chunk(args.family, family, point_at, rows, tol)
                margin = family.margin(*(point[k] for k in family.params))
                margin = np.broadcast_to(margin, rows.shape)
                tail = (4 * (margin >= 0.0) + 2 * (min_pt >= -tol.tol_psd)
                        + (np.abs(margin) < BOUNDARY_BAND))
                columns = [point[name].tolist() if t is None
                           else map(t.__getitem__, point[name].view(np.int64).tolist())
                           for name, t in zip(names, texts)]
                cells = zip(*columns, min_pt.tolist(), margin.tolist(),
                            map(_SWEEP_TAILS.__getitem__, tail.tolist()))
                fh.write((template * len(rows)) % tuple(itertools.chain.from_iterable(cells)))
    except BaseException:
        os.remove(args.output)  # leave no truncated CSV behind
        raise
    print(f"wrote {total} rows to {args.output}")
    return EXIT_OK


def cmd_validate(args, tol) -> int:
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
    # every subcommand passes both tolerances to its gate; each other flag
    # is declared only on the subcommands whose handler reads it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-psd", type=float, default=DEFAULT_TOL.tol_psd,
                        help="most negative admissible eigenvalue")
    common.add_argument("--tol-herm", type=float, default=DEFAULT_TOL.tol_herm,
                        help="relative Hermiticity tolerance")

    parser = argparse.ArgumentParser(
        prog="dmparam",
        description="Construct and analyze factorized density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[common],
                       help="assemble a state from a parameter file")
    g.add_argument("input", help="parameter file (JSON)")
    g.add_argument("--output", "-o", default=None, help="output path")
    g.add_argument("--format", choices=("json", "matrix_text"), default="json",
                   help="matrix output format")

    a = sub.add_parser("analyze", parents=[common],
                       help="diagnostics for a state stored in a file")
    a.add_argument("input", help="matrix file (JSON or matrix_text)")
    a.add_argument("--n", type=int, default=None, help="first factor dimension")
    a.add_argument("--m", type=int, default=None, help="second factor dimension")

    r = sub.add_parser("reproduce", parents=[common],
                       help="re-derive the worked closed-form examples")
    r.add_argument("example", choices=[*EXAMPLES, "all"])
    r.add_argument("--seed", type=int, default=1234, help="RNG seed")

    s = sub.add_parser("sweep", parents=[common],
                       help="grid scan of a family with PPT verdicts to CSV")
    s.add_argument("--output", "-o", default=None, help="output path")
    s.add_argument("--family", required=True)
    s.add_argument("--grid", action="append", required=True,
                   help="axis spec name=lo:hi:count (repeatable, row-major order)")
    s.add_argument("--set", action="append", default=[],
                   help="fixed parameter key=value (value may be comma-separated)")

    v = sub.add_parser("validate", parents=[common],
                       help="run the randomized invariant suite")
    v.add_argument("--seed", type=int, default=1234, help="RNG seed")
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
    except ValueError as exc:  # DmParamError among them
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
