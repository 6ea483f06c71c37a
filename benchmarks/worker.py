"""One benchmark workload in one fresh process; ``run.py`` starts it.

The process sets up the workload (imports dmparam from ``src/`` and builds
the inputs), writes the monotonic clock reading taken just before the first
timed call, and with ``--setup-only`` stops there.  Otherwise it runs whole
rounds of timed calls until ``--seconds`` have passed and at least
``MIN_CALLS`` calls were timed, checks every output outside the timed calls,
and prints one JSON line for ``run.py``.  With ``--trace 1`` the calls run
under :class:`tracing.Tracer` and the line carries per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 100


def _parse():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for files the workload writes")
    return ap.parse_args()


def host_probe_ms():
    """Median time of a fixed NumPy and Python kernel that calls no dmparam
    code: it tells machine drift apart from a change in the program."""
    import numpy as np

    a = np.cos(np.arange(48 * 48).reshape(48, 48)) * (1 + 1j)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.eigvalsh(a @ a.conj().T)
        sum(i * i for i in range(20000))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main():
    args = _parse()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and dmparam: part of set-up

    if Path(workloads.dm.__file__).resolve().parent != ROOT / "src" / "dmparam":
        sys.exit(f"dmparam imported from {workloads.dm.__file__}, not from {ROOT / 'src'}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    setup_stamp = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_stamp": setup_stamp}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    probe_before = host_probe_ms()
    durations, round_rates, problems = [], [], []
    attempted = failed = 0
    errors = {}

    def timed(call):
        nonlocal attempted, failed
        attempted += call.ops
        if tracer:
            tracer.call_id = len(durations)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # a failed operation: counted, never retried
            durations.append(math.inf)
            failed += call.ops
            key = f"{type(exc).__name__}: {exc}"
            errors[key] = errors.get(key, 0) + 1
            return 0, time.perf_counter() - t0
        finally:
            if tracer:
                tracer.active = False
        dt = time.perf_counter() - t0
        durations.append(dt)
        if tracer and call.reference:
            t1 = time.perf_counter()
            call.reference()
            tracer.reference_s += time.perf_counter() - t1
        problems.extend(call.check(result))
        return call.ops, dt

    start = time.monotonic()
    for call in workload.prelude():
        timed(call)
    if tracer:
        tracer.install()
    round_ops = 0
    rounds = 0
    while True:
        done, busy = 0, 0.0
        for call in workload.round(rounds):
            ops, dt = timed(call)
            done += ops
            busy += dt
            round_ops += call.ops
        round_rates.append(done / busy)
        rounds += 1
        if time.monotonic() - start >= args.seconds and len(durations) >= MIN_CALLS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems.extend(workload.final_checks())
    probe_after = host_probe_ms()

    ordered = sorted(durations)
    info = {
        "rounds": rounds,
        "calls": len(durations),
        "call_ms.p90": 1e3 * _percentile(ordered, 0.9),
        "round_ops_per_s_quartiles": statistics.quantiles(round_rates, n=4),
        "host_probe_ms": [probe_before, probe_after],
    }
    if errors:
        info["errors"] = errors
    for text in problems[:20]:
        print(f"CHECK FAILED: {text}", file=sys.stderr)
    result = {
        "setup_stamp": setup_stamp,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "info": info,
    }
    ops_per_s = statistics.median(round_rates)
    if tracer:
        info["traced_ops_per_s"] = ops_per_s
        info["spans"] = len(tracer.start)
        path = outdir / f"trace-{args.workload}.npz"
        tracer.write(path)
        info["trace_file"] = str(path.relative_to(ROOT))
        result["metrics"] = tracer.metrics(round_ops)
    else:
        result["metrics"] = {
            "ops_per_s": ops_per_s,
            "call_ms.p50": 1e3 * statistics.median(ordered),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
