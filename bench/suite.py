"""Run the benchmark several times per workload and save every result.

    python3 bench/suite.py --out bench/results/<label>.json

Per workload, RUNS untraced runs (seeds 1..RUNS) and then TRACED_RUNS
traced runs, each of BENCHMARK.json's run_seconds.  The file records the
environment, every run's result and detail lines, per workload and
end-to-end metric the median, the quartiles and the quartile spread
(q3 - q1) / median (the raw pass wall time `run_s` of the detail lines is
summarized the same way), and whether the traced runs' counts repeat
exactly.  bench/compare.py reads two such files.  Run from the root of the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900
RUNS = 10
TRACED_RUNS = 2


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS set by run.py)",
        "machine": platform.machine(),
    }


def run_once(spec, workload, seed, seconds, trace):
    cmd = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    *_, detail, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    result["detail"] = json.loads(detail)
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(values, unit):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "unit": unit}


def summarize(runs, metric_names):
    out = {
        name: describe([r["metrics"][name]["value"] for r in runs], runs[0]["metrics"][name]["unit"])
        for name in metric_names
    }
    out["run_s"] = describe([r["detail"]["run_s"] for r in runs], "s")
    return out


def counts_repeat(traced, spec):
    """True when every count metric reads the same in every traced run."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    return all(len({r["metrics"][name]["value"] for r in traced}) == 1 for name in counts)


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    e2e = [m["name"] for m in spec["end_to_end"]]
    result = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = []
        for seed in range(1, RUNS + 1):
            untraced.append(run_once(spec, workload, seed, seconds, 0))
            r = untraced[-1]
            print(
                f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
                + f" (run_s={r['detail']['run_s']:.4g}, ref_s={r['detail']['ref_s']:.4g})",
                flush=True,
            )
        traced = [run_once(spec, workload, 1000 + i, seconds, 1) for i in range(TRACED_RUNS)]
        summary = summarize(untraced, e2e)
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']}, spread {s['spread']:.3f}")
        repeat = counts_repeat(traced, spec)
        print(f"  {workload} traced: correct={[r['correct'] for r in traced]} counts repeat between runs: {repeat}")
        result["workloads"][workload] = {
            "untraced": untraced,
            "traced": traced,
            "summary": summary,
            "failed_share": [r["failed"] / r["attempted"] for r in untraced],
            "traced_counts_repeat": repeat,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
