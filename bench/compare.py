"""Compare two result files written by bench/suite.py.

    python3 bench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians with their
quartiles, the ratio NEW/BASE, and a verdict against the metric's bound
from BENCHMARK.json:

- "unresolved": the run-to-run quartile spread of either side is wider
  than the bound, so a difference of the bound's size cannot be told
  apart from noise (unless every NEW run is better than every BASE run,
  which is reported as "better, all runs");
- "within bound": |ratio - 1| is at most the bound;
- "better"/"worse beyond bound": the median moved by more than the bound.

The raw pass wall time `run_s` is printed too, without a verdict.  Two
files recorded with different run lengths are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base, new, metric, base_values, new_values):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    if max(base["spread"], new["spread"]) > bound:
        if lower and max(new_values) < min(base_values) or not lower and min(new_values) > max(base_values):
            return "better, all runs"
        return "unresolved"
    ratio = new["median"] / base["median"]
    if abs(ratio - 1.0) <= bound:
        return "within bound"
    improved = ratio < 1.0 if lower else ratio > 1.0
    return "better beyond bound" if improved else "worse beyond bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    if base["run_seconds"] != new["run_seconds"]:
        print(
            f"error: {args.base} ran {base['run_seconds']} s runs, {args.new} ran {new['run_seconds']} s",
            file=sys.stderr,
        )
        return 2
    print(f"base: {args.base}  new: {args.new}  (ratio = new / base)")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            print(f"{workload}: missing from {args.new}")
            continue
        b_wl, n_wl = base["workloads"][workload], new["workloads"][workload]
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = b_wl["summary"][name], n_wl["summary"][name]
            b_values = [r["metrics"][name]["value"] for r in b_wl["untraced"]]
            n_values = [r["metrics"][name]["value"] for r in n_wl["untraced"]]
            print(
                f"  {name:14s} base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                f"  new {n['median']:.5g} [{n['q1']:.5g}, {n['q3']:.5g}] {b['unit']}"
                f"  ratio {n['median'] / b['median']:.3f} (base {b['median']:.5g})"
                f"  bound {metric['bound']:g}: {verdict(b, n, metric, b_values, n_values)}"
            )
        b, n = b_wl["summary"]["run_s"], n_wl["summary"]["run_s"]
        print(
            f"  {'run_s (raw)':14s} base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
            f"  new {n['median']:.5g} [{n['q1']:.5g}, {n['q3']:.5g}] s"
            f"  ratio {n['median'] / b['median']:.3f} (base {b['median']:.5g}), no bound"
        )
        b_fail, n_fail = sorted(set(b_wl["failed_share"])), sorted(set(n_wl["failed_share"]))
        if b_fail != n_fail:
            print(f"  failed share differs: base {b_fail} new {n_fail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
