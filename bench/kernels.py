"""Kernel sweep of the traced run: single layer operations at nx = 128, 256, 512.

The inputs are the linear k0 = 1 wave at amplitude h = 0.3, solved at each
nx during set-up.  Each kernel is timed directly, with tracing off, and
reported as the median over repeats:

- residual: `model.residual` of the wave;
- newton_iter: one `quasi_newton_solve` iteration (max_iters = 1) from the
  wave towards h + 1e-3, which builds and factors one Newton matrix;
- lu: `scipy.linalg.lu_factor` + `lu_solve` of the Newton matrix that the
  solver factors in that iteration;
- imex_step: one `imex_step` of the wave, chained, dt = 1e-5;
- gap_scan: `geometry.min_nonadjacent_gap` of the reconstructed wave.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

from spans import Tracer

SWEEP_NX = (128, 256, 512)
SWEEP_H = 0.3
REPEATS = {"residual": 200, "newton_iter": 5, "lu": 50, "imex_step": 200, "gap_scan": 20}


def solve_waves(ff):
    linear = ff.ModelKind.LINEAR
    waves = {}
    for nx in SWEEP_NX:
        guess = ff.asymptotic_guess(1, SWEEP_H, linear, nx=nx)
        waves[nx] = ff.quasi_newton_solve(guess, SWEEP_H, linear, ff.SolveConfig(nx=nx), k0=1)
    return waves


def _median_time(fn, repeats):
    samples = np.empty(repeats)
    for i in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - t0
    return float(np.median(samples))


def _newton_matrix(ff, one_iteration):
    """The matrix the solver passes to lu_factor in one iteration."""
    grabbed = []

    def grab(args):
        grabbed.append(np.array(args[0]))
        return 0

    with Tracer(ff, hooks={"linalg.lu_factor": grab}):
        one_iteration()
    if not grabbed:
        raise RuntimeError("the Newton iteration did not call scipy.linalg.lu_factor")
    return grabbed[0]


def run_sweep(ff, waves):
    metrics = {}
    linear = ff.ModelKind.LINEAR
    for nx, wave in waves.items():
        params = ff.WaveParams(alpha=wave.alpha, beta=wave.beta, length=wave.length)
        guess = (wave.theta, params)
        cfg = ff.SolveConfig(nx=nx, max_iters=1)

        def one_iteration():
            try:
                ff.quasi_newton_solve(guess, wave.amplitude + 1e-3, linear, cfg, k0=1)
            except ff.ConvergenceError:
                pass

        matrix = _newton_matrix(ff, one_iteration)
        rhs = np.ones(matrix.shape[0])

        def lu():
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix, check_finite=False), rhs, check_finite=False)

        state = [ff.EvolutionState.from_theta(wave.theta)]

        def step():
            state[0] = ff.imex_step(state[0], wave.alpha, 1e-5)

        curve = ff.reconstruct_curve(wave.theta)
        timings = {
            "residual_us": (lambda: ff.residual(wave.theta, params, linear), REPEATS["residual"], 1e6),
            "newton_iter_ms": (one_iteration, REPEATS["newton_iter"], 1e3),
            "lu_us": (lu, REPEATS["lu"], 1e6),
            "imex_step_us": (step, REPEATS["imex_step"], 1e6),
            "gap_scan_ms": (lambda: ff.min_nonadjacent_gap(curve), REPEATS["gap_scan"], 1e3),
        }
        for name, (fn, repeats, scale) in timings.items():
            metrics[f"kernel.{name}.nx{nx}"] = scale * _median_time(fn, repeats)
    return metrics
