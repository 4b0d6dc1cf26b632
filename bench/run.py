"""Benchmark of flamefront's branch and stability runs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; flamefront is imported from its
`src/`.  Workloads: branch-linear, branch-nonlinear, stability (see
workloads.py and README.md).  A run repeats whole passes over the
workload's operations while the next pass is expected to end within
--seconds, checks every output, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced); operation
times are reported in units of a reference loop timed while each
operation runs (see HostClock and README.md), raw seconds on the line
before.  With --trace 1 the run alternates untraced and traced passes and
reports the per-layer metrics, the tracing overhead and the kernel sweep;
it makes at least two pairs, however short --seconds is, and its counts
must repeat exactly between the traced passes.

Every input is fixed, so --seed changes nothing; it is accepted so that
all benchmark runs share one command line, and is echoed on the summary
line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one single-threaded process: keep BLAS to one thread before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402

# set-up is sampled this many times per run: this process plus fresh ones
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120
# host clock: a sample of SAMPLE_LOOPS FFT round trips of length REF_NX every
# SAMPLE_EVERY_S; one reference unit is the time of REF_LOOPS such round trips
SAMPLE_EVERY_S = 0.05
SAMPLE_LOOPS = 50
REF_LOOPS = 2000
REF_NX = 256


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time set-up alone and print it (used by the run itself)"
    )
    return parser.parse_args(argv)


def import_flamefront():
    if not (SRC / "flamefront" / "__init__.py").is_file():
        raise SystemExit(f"error: no flamefront sources under {SRC}")
    import flamefront

    if Path(flamefront.__file__).resolve().parent != SRC / "flamefront":
        raise SystemExit(f"error: imported flamefront from {flamefront.__file__}, not {SRC}")
    return flamefront


def setup_sample(workload):
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class HostClock:
    """Samples the host's speed while an operation runs.

    The host's speed drifts by up to a factor of two over seconds to tens
    of seconds, because other tenants share its cores.  While an operation
    runs, a timer signal every SAMPLE_EVERY_S runs a short reference loop
    (SAMPLE_LOOPS forward + inverse complex FFTs of length REF_NX) and
    records its time.  The operation's own time is its wall time minus the
    sampling time; its cost in reference units is that time divided by the
    mean sample time scaled up to REF_LOOPS loops.  See README.md.
    """

    def __init__(self):
        import numpy as np

        self._fft = np.fft
        self._x = np.sin(np.arange(REF_NX, dtype=float))
        self.samples = []
        self.ref_s = []  # per operation: the reference loop time at the host's speed
        # stays installed; start/stop only arm and disarm the timer
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        fft, x = self._fft, self._x
        t0 = time.perf_counter()
        for _ in range(SAMPLE_LOOPS):
            fft.ifft(fft.fft(x))
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, wall_s):
        """(own seconds, reference units) of the operation that took wall_s."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        own_s = wall_s - sum(self.samples)
        if not self.samples:  # shorter than one interval: sample right after
            self._sample()
        ref_s = statistics.fmean(self.samples) * REF_LOOPS / SAMPLE_LOOPS
        self.ref_s.append(ref_s)
        return own_s, own_s / ref_s


def passes_until(seconds, run_one, minimum=1):
    """Call run_one() while another call is expected to end within
    `seconds` of the first one's start; always at least `minimum` times."""
    t0 = time.perf_counter()
    out = [run_one()]
    while len(out) < minimum or (time.perf_counter() - t0) * (len(out) + 1) / len(out) <= seconds:
        out.append(run_one())
    return out


def tally(results, wl):
    attempted = wl.ops_per_pass * len(results)
    failed = sum(r.failed for r in results)
    ok = [r for r in results if not r.failed]
    # identical passes must produce identical outputs
    consistent = len({r.fingerprint for r in ok}) <= 1
    return attempted, failed, consistent


def untraced_run(args, wl, setup_s):
    # Set-up samples from fresh processes are taken between passes, so
    # that they fall at different moments of the run.
    samples = [setup_s]
    clock = HostClock()
    counter = iter(range(1 << 30))

    def one_pass():
        res = wl.run_pass(next(counter), clock)
        if len(samples) < SETUP_SAMPLES:
            samples.append(setup_sample(args.workload))
        return res

    results = passes_until(args.seconds, one_pass)
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(args.workload))
    ref_units = [sum(r.op_units) for r in results]
    rates = [r.results / u for r, u in zip(results, ref_units) if not r.failed]
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "run_ref": (statistics.median(ref_units), "ref"),
        "results_per_ref": (statistics.median(rates) if rates else 0.0, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "run_s": statistics.median(r.seconds for r in results),
        "ref_s": statistics.median(clock.ref_s),
        "pass_s": [r.seconds for r in results],
        "pass_ref": ref_units,
        "setup_samples": samples,
    }
    return results, metrics, detail


def traced_run(args, wl, ff, setup_summary):
    import kernels
    from spans import Summary, Tracer

    sweep_waves = kernels.solve_waves(ff)
    tracer = Tracer(ff, hooks={"evolution.imex_step": lambda a: a[0].theta.nx})
    counter = iter(range(1 << 30))

    def run_pair():
        plain = wl.run_pass(next(counter))
        with tracer:
            traced = wl.run_pass(next(counter))
        return plain, traced, layer_metrics(Summary(tracer, tracer.take()), traced)

    # two traced passes at least, so that their counts can be compared
    pairs = passes_until(args.seconds, run_pair, minimum=2)
    results = [r for p in pairs for r in p[:2]]
    per_pass = [p[2] for p in pairs]
    metrics = {}
    counts_repeat = True
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "count":
            counts_repeat &= len(set(values)) == 1
        if unit in ("count", "B"):
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    plain_s = statistics.median(p[0].seconds for p in pairs)
    traced_s = statistics.median(p[1].seconds for p in pairs)
    probe = [s for p in pairs for s in p[0].probe_seconds]
    metrics["evolution.probe_s"] = (statistics.median(probe) if probe else 0.0, "s")
    metrics["bifurcation.s"] = (setup_summary.layer_inclusive("bifurcation"), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    for name, value in kernels.run_sweep(ff, sweep_waves).items():
        metrics[name] = (value, "ms" if name.split(".")[1].endswith("_ms") else "us")
    detail = {"pairs": len(pairs), "untraced_run_s": plain_s, "traced_run_s": traced_s}
    return results, metrics, detail, counts_repeat


def layer_metrics(s, traced_pass):
    solves = s.count("solver.quasi_newton_solve")
    failed = int(s.failed[s.mask("solver.quasi_newton_solve")].sum())
    iters = s.count("linalg.lu_factor")
    solve_s = s.total("solver.quasi_newton_solve")
    imex = s.mask("evolution.imex_step")
    m = {
        "cli.self_s": (s.layer_self("cli"), "s"),
        "cli.bytes_written": (traced_pass.bytes_written, "B"),
        "solver.solves": (solves, "count"),
        "solver.failed_solves": (failed, "count"),
        "solver.converged_ratio": ((solves - failed) / solves if solves else 0.0, "ratio"),
        "solver.failed_solve_s": (float(s.dur[s.mask("solver.quasi_newton_solve") & s.failed].sum()), "s"),
        "solver.newton_iters": (iters, "count"),
        "solver.newton_iter_ms": (1e3 * solve_s / iters if iters else 0.0, "ms"),
        "solver.residual_evals": (s.count("model.residual"), "count"),
        "solver.self_s": (s.layer_self("solver"), "s"),
        "linalg.lu_s": (s.layer_self("linalg"), "s"),
        "model.residual_us": (1e6 * s.median("model.residual"), "us"),
        "model.residual_s": (s.total("model.residual", "self_dur"), "s"),
        "spectral.self_s": (s.layer_self("spectral"), "s"),
        "spectral.calls": (s.layer_calls("spectral"), "count"),
        "spectral.ffts": (s.ffts, "count"),
        "geometry.gap_scans": (s.count("geometry.min_nonadjacent_gap"), "count"),
        "geometry.gap_scan_s": (s.total("geometry.min_nonadjacent_gap"), "s"),
        "geometry.reconstruct_s": (s.total("geometry.reconstruct_curve"), "s"),
        "evolution.imex_steps": (int(imex.sum()), "count"),
        "evolution.rhs_s": (s.total("evolution.theta_rhs"), "s"),
        "evolution.probe_self_s": (s.total("evolution.stability_probe", "self_dur"), "s"),
    }
    for nx in (64, 256):
        m[f"evolution.imex_step_us.nx{nx}"] = (1e6 * s.median("evolution.imex_step", s.tag == nx), "us")
    return m


def main(argv=None):
    args = parse_args(argv)
    ff = import_flamefront()
    workdir = BENCH_DIR / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](workdir)
        setup_summary = None
        if args.trace:
            from spans import Summary, Tracer

            setup_tracer = Tracer(ff)
            with setup_tracer:
                setup_problems = wl.prepare()
            setup_summary = Summary(setup_tracer, setup_tracer.take())
        else:
            setup_problems = wl.prepare()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            results, metrics, detail, counts_repeat = traced_run(args, wl, ff, setup_summary)
        else:
            results, metrics, detail = untraced_run(args, wl, setup_s)
            counts_repeat = True
        attempted, failed, consistent = tally(results, wl)
        self_test = wl.self_test()
        correct = not setup_problems and consistent and counts_repeat and self_test
        for problem in setup_problems + [p for r in results for p in r.problems]:
            print(f"problem: {problem}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "self_test": self_test,
                    "consistent": consistent,
                    "counts_repeat": counts_repeat,
                    **detail,
                }
            )
        )
        print(
            json.dumps(
                {
                    "correct": bool(correct),
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
