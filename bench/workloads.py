"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass is one round of the workload's operations.  Each operation is timed
on its own; checking its output happens outside the timed region.  An
operation fails when it exits non-zero, raises, or fails its checks.

No workload takes random input: the branch commands and library calls are
fixed, so every pass of every run does the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class PassResult:
    op_seconds: list = field(default_factory=list)
    op_units: list = field(default_factory=list)  # reference units, with a host clock
    failed: int = 0
    problems: list = field(default_factory=list)
    results: int = 0  # converged waves written, or IMEX steps completed
    bytes_written: int = 0
    fingerprint: tuple = ()
    probe_seconds: list = field(default_factory=list)

    @property
    def seconds(self):
        return sum(self.op_seconds)


def _timed(fn, res, clock):
    """Run fn() as one timed operation of res; return (value or None, error
    text or None).

    With a clock (run.HostClock) the host's speed is sampled while fn runs;
    the sampling time is taken out of the operation's seconds, and its cost
    in reference units is recorded as well.
    """
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception:  # an operation that raises counts as failed, the run goes on
        value, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if clock is not None:
        seconds, units = clock.stop(seconds)
        res.op_units.append(units)
    res.op_seconds.append(seconds)
    return value, error


class BranchWorkload:
    """`flamefront branch --model <model> --k0 1` through `cli.main`, CLI
    defaults otherwise (h_step 0.05 linear / 0.02 nonlinear, h_max 10,
    nx 256), each pass into a fresh output directory."""

    ops_per_pass = 1

    def __init__(self, model, workdir):
        self.model = model
        self.workdir = workdir
        self.sample_wave = None

    def argv(self, out, extra=()):
        return ["branch", "--model", self.model, "--k0", "1", *extra, "--out", str(out)]

    def prepare(self):
        from flamefront import cli

        self.cli = cli
        # warm-up: a two-wave branch through the same code path
        h_max = "0.1" if self.model == "linear" else "0.04"
        out = self.workdir / "warm-up"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv(out, ("--h-max", h_max)))
        shutil.rmtree(out, ignore_errors=True)
        return [] if rc == 0 else [f"warm-up branch exited with {rc}"]

    def run_pass(self, index, clock=None):
        res = PassResult()
        out = self.workdir / f"pass-{index}"
        stdout = io.StringIO()

        def command():
            with contextlib.redirect_stdout(stdout):
                return self.cli.main(self.argv(out))

        rc, error = _timed(command, res, clock)
        if error is not None or rc != 0:
            res.problems.append(error or f"branch exited with {rc}")
        else:
            res.problems += self._check_output(out, stdout.getvalue(), res)
        res.failed = 1 if res.problems else 0
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _check_output(self, out, printed, res):
        csv_bytes = (out / "branch.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        names = [n for n in manifest["outputs"] if n.startswith("wave_")]
        waves = [json.loads((out / n).read_text()) for n in names]
        res.results = len(waves)
        res.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        res.fingerprint = (csv_bytes,)
        if not waves:
            return ["branch wrote no waves"]
        if self.sample_wave is None:
            self.sample_wave = waves[0]
        termination = printed.rsplit("terminated:", 1)[-1].strip() if "terminated:" in printed else None
        problems = []
        for name, wave in zip(names, waves):
            problems += checks.check_wave_file(wave, name)
        waves.sort(key=lambda w: w["h"])
        if self.model == "linear":
            problems += checks.check_linear_branch(waves, termination)
        else:
            problems += checks.check_nonlinear_branch(waves, termination)
        return problems

    def self_test(self):
        w = self.sample_wave
        return w is not None and checks.nudged_wave_is_caught(
            w["theta"], w["alpha"], w["beta"], w["L"], w["model"]
        )


# acceptance criterion 5: (mode k, end time) at nx 64, alpha 17, dt 1e-5
EVOLVE_RUNS = ((1, 0.1), (2, 0.1), (3, 0.05))
EVOLVE_NX = 64
EVOLVE_ALPHA = 17.0
EVOLVE_DT = 1e-5


class StabilityWorkload:
    """Seven library calls: stability_probe on the flat fronts at alpha 17
    and 37 and on the linear k0 = 2, 3 waves at h = 0.05 (solved during
    set-up), then the three criterion-5 evolutions."""

    ops_per_pass = 7

    def __init__(self, workdir):
        self.workdir = workdir

    def prepare(self):
        from flamefront import bifurcation, evolution, model, solver, spectral

        self.evolution = evolution
        linear = model.ModelKind.LINEAR
        self.waves = {}
        problems = []
        for k0 in (2, 3):
            guess = bifurcation.asymptotic_guess(k0, 0.05, linear)
            wave = solver.quasi_newton_solve(guess, 0.05, linear, k0=k0)
            problems += checks.check_wave(
                wave.theta.values, wave.alpha, wave.beta, wave.length, "linear", f"k0={k0} wave"
            )
            self.waves[k0] = wave
        # (label, wave, expected rate, tolerance); rates from the dispersion relation
        self.probes = [
            ("flat alpha=17", solver.flat_solution(17.0), checks.fastest_flat_rate(17.0), 0.5),
            ("flat alpha=37", solver.flat_solution(37.0), checks.fastest_flat_rate(37.0), 4.0),
        ]
        for k0 in (2, 3):
            rate = checks.fastest_flat_rate(4.0 * k0 * k0 + 1.0)
            self.probes.append((f"k0={k0} wave", self.waves[k0], rate, 0.1 * rate))
        sigma = spectral.grid(EVOLVE_NX)
        self.initial = {
            k: evolution.EvolutionState.from_theta(
                spectral.ThetaProfile.from_values(1e-6 * np.sin(k * sigma))
            )
            for k, _ in EVOLVE_RUNS
        }
        # warm-up: short runs of the stepper at both grid sizes and of the probe
        evolution.evolve(self.initial[1], EVOLVE_ALPHA, EVOLVE_DT, 20)
        short = evolution.StabilityProbeConfig(t_max=0.002)
        evolution.stability_probe(self.waves[2], short)
        return problems

    def run_pass(self, index, clock=None):
        res = PassResult()
        fingerprint = []
        for label, wave, expected, tol in self.probes:
            est, error = _timed(lambda: self.evolution.stability_probe(wave), res, clock)
            res.probe_seconds.append(res.op_seconds[-1])
            if error is not None:
                problems = [f"{label}: {error}"]
            else:
                problems = checks.check_probe(est.observed, est.rate, expected, tol, label)
                res.results += len(est.times)
                fingerprint.append(est.rate)
            res.failed += bool(problems)
            res.problems += problems
        for k, t_end in EVOLVE_RUNS:
            n = int(round(t_end / EVOLVE_DT))
            # only b_k(t) is kept, so the check's buffers stay small next to
            # the program's own memory
            weights = checks.sine_weights(EVOLVE_NX, k)
            times = np.empty(n)
            amps = np.empty(n)
            filled = [0]

            def record(state):
                i = filled[0]
                times[i] = state.time
                amps[i] = weights @ state.theta.values
                filled[0] = i + 1

            _, error = _timed(
                lambda: self.evolution.evolve(self.initial[k], EVOLVE_ALPHA, EVOLVE_DT, n, observer=record),
                res,
                clock,
            )
            if error is not None:
                problems = [f"evolve k={k}: {error}"]
            elif filled[0] != n:
                problems = [f"evolve k={k}: observer saw {filled[0]} of {n} steps"]
            else:
                problems = checks.check_dispersion_fit(times, amps, EVOLVE_ALPHA, k)
                res.results += n
                fingerprint.append(float(amps[-1]))
            res.failed += bool(problems)
            res.problems += problems
        res.fingerprint = tuple(fingerprint)
        return res

    def self_test(self):
        w = self.waves[2]
        return checks.nudged_wave_is_caught(w.theta.values, w.alpha, w.beta, w.length, "linear")


WORKLOADS = {
    "branch-linear": lambda workdir: BranchWorkload("linear", workdir),
    "branch-nonlinear": lambda workdir: BranchWorkload("nonlinear", workdir),
    "stability": StabilityWorkload,
}
