"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 benchmarks/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it benchmarks the
``dmparam`` package in that checkout's ``src/``.  Workloads: ``chain``,
``sweep``, ``validate`` and ``roundtrip`` (see README.md).

Every workload runs in a fresh, single-threaded Python process
(``worker.py``).  With ``--trace 0`` the last line of output holds the
end-to-end metrics: ``ops_per_s``, ``call_ms.p50``, ``peak_rss_mb`` and
``setup_s``.  ``setup_s`` is the median, over ``2 * SETUP_SAMPLES + 1`` fresh
processes, of the time from starting the process to the first timed call.
With ``--trace 1`` the last line holds the per-layer metrics of a traced run.
Metric names and units are those ``BENCHMARK.json`` declares; a run whose
metrics differ from them is an error.  The line before the result carries
``call_ms.p90``, the host-speed probe and the counts of rounds and calls.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "sweep", "validate", "roundtrip")
#: Set-up-only processes run before and again after the measured run; with
#: the measured run's own set-up they give the median ``setup_s``, spread over
#: the whole run so that the host's drift within it averages out.  One more
#: runs first, untimed, so that byte-code caches are written before any set-up
#: is timed.
SETUP_SAMPLES = 10
#: Whole-run budget; the run is stopped and reported as an error past it.
BUDGET_S = 170.0


def _parse():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _spawn(args, deadline, setup_only):
    """Run ``worker.py`` to its end; returns (monotonic start, parsed result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(HERE / "out" / args.workload),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"worker exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    args = _parse()
    if not (ROOT / "src" / "dmparam" / "__init__.py").is_file():
        sys.exit(f"no dmparam sources under {ROOT / 'src'}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + BUDGET_S

    def setup_samples():
        out = []
        for _ in range(SETUP_SAMPLES):
            started, res = _spawn(args, deadline, setup_only=True)
            out.append(res["setup_stamp"] - started)
        return out

    setups = []
    if not args.trace:
        _spawn(args, deadline, setup_only=True)
        setups += setup_samples()
    started, res = _spawn(args, deadline, setup_only=False)
    if not args.trace:
        setups.append(res["setup_stamp"] - started)
        setups += setup_samples()
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["info"]["setup_s_samples"] = setups
    if list(res["metrics"]) != list(units):
        sys.exit(f"metrics {list(res['metrics'])} differ from BENCHMARK.json's {list(units)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **res["info"]}))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
