"""Command-line front end: bifurcation reports, branch runs, stability probes.

Output files are deterministic: floats are serialized with 17 significant
digits, iteration order is fixed, and the only wall-clock content is the
timestamp inside manifest.json.  The output directory is taken from
--out, else the FLAMEFRONT_OUT environment variable, else the working
directory; it is created only once the command's library call has
succeeded, so a failed command leaves none behind.

Each input is checked once, by the library function that takes it, and
exit codes map the exceptions by family: 0 success, 2 bad input (any
ValueError, which InvalidGridError and ContractViolationError are, and an
output directory that cannot be created), 3 any
other FlameFrontError (a solver, branch or time-stepping failure), 4
unsupported model.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bifurcation, evolution, solver, spectral
from .errors import ContractViolationError, DegenerateFrontError, FlameFrontError, UnsupportedModelError
from .model import ModelKind, WaveParams, length_from_theta, residual

__all__ = ["main"]

_USAGE_ERROR = 2
_SOLVER_ERROR = 3
_UNSUPPORTED_MODEL = 4

# first amplitude target and continuation step when --h-step is not given
_DEFAULT_H_STEP = {"linear": 0.05, "nonlinear": 0.02}


def _non_finite_error(value):
    return ValueError(f"out of range float values are not JSON compliant: {value!r}")


def _format_value(value):
    if isinstance(value, bool) or value is None:
        return "true" if value is True else "false" if value is False else "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise _non_finite_error(value)
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _to_json(obj, indent=0):
    """Deterministic JSON with 17-significant-digit floats.

    As with json's allow_nan=False, a NaN or infinite float raises
    ValueError: JSON has no literal for it.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_to_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        # one finiteness check and no per-element dispatch: the wave
        # files' four arrays are most of what a branch run writes
        if not np.isfinite(obj).all():
            raise _non_finite_error(obj[~np.isfinite(obj)][0])
        # one %-format call per array writes what format(v, ".17g") writes
        return "[" + ", ".join(["%.17g"] * obj.size) % tuple(obj.tolist()) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(_format_value(v) for v in seq) + "]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _format_value(obj)


def _write_json(path, obj):
    path.write_text(_to_json(obj) + "\n")


def _out_dir(args):
    if args.out is not None:
        base = Path(args.out)
    elif os.environ.get("FLAMEFRONT_OUT"):
        base = Path(os.environ["FLAMEFRONT_OUT"])
    else:
        base = Path.cwd()
    try:
        base.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. the path is an existing file, or a parent is not writable
        raise ValueError(f"output directory {base} cannot be created: {exc.strerror or exc}") from None
    return base


def _write_manifest(out, command, parameters, outputs):
    manifest = {
        "command": command,
        "parameters": parameters,
        "artifact_version": __version__,
        "outputs": outputs,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(out / "manifest.json", manifest)


def cmd_bifurcate(args):
    kind = ModelKind(args.model)
    report = {"model": kind.value, "k0": args.k0}
    if kind is ModelKind.LINEAR:
        alpha0 = bifurcation.linear_bifurcation_alpha(args.k0)
        report["alpha0"] = alpha0
        print(f"linear closure, k0={args.k0}: alpha0 = {alpha0}")
    else:
        cert = bifurcation.root_certificate(args.k0)
        report.update(
            {
                "alpha0": cert.alpha0,
                "q_at_root": cert.q_at_root,
                "bracket": list(cert.bracket),
                "discriminant": cert.discriminant,
                "resultant": cert.resultant,
            }
        )
        print(f"nonlinear closure, k0={args.k0}: alpha0 = {cert.alpha0:.10g}")
        print(f"  discriminant = {cert.discriminant:.10g} (< 0: real root is unique)")
        print(f"  resultant    = {cert.resultant:.10g} (> 0: root is simple)")
    out = _out_dir(args)
    _write_json(out / "bifurcation.json", report)
    _write_manifest(
        out,
        "bifurcate",
        {"model": kind.value, "k0": args.k0},
        ["bifurcation.json"],
    )
    return 0


# the scalar entries of a wave file, in the order of branch.csv's columns
_BRANCH_COLUMNS = ("h", "alpha", "beta", "L", "delta_alpha", "delta_beta", "delta_L", "residual_norm")


def _wave_payload(sol, alpha0):
    return {
        "model": sol.kind.value,
        "k0": sol.k0,
        "h": sol.amplitude,
        "alpha": sol.alpha,
        "beta": sol.beta,
        "L": sol.length,
        "delta_alpha": sol.alpha - alpha0,
        "delta_beta": sol.beta - 1.0,
        "delta_L": sol.length - 2.0 * np.pi,
        "residual_norm": sol.residual_norm,
        "sigma": spectral.grid(sol.theta.nx),
        "theta": sol.theta.values,
        "x": sol.curve.x,
        "y": sol.curve.y,
    }


def cmd_branch(args):
    kind = ModelKind(args.model)
    cfg = solver.SolveConfig(nx=args.nx)
    record = solver.continue_branch(args.k0, kind, args.h_step, args.h_max, cfg)
    alpha0 = bifurcation.asymptotic_expansion(args.k0, kind).alpha0
    out = _out_dir(args)

    outputs = ["branch.csv"]
    rows = [",".join(_BRANCH_COLUMNS)]
    for sol in record.solutions:
        payload = _wave_payload(sol, alpha0)
        rows.append(",".join(format(payload[key], ".17g") for key in _BRANCH_COLUMNS))
        name = f"wave_{sol.amplitude:.6f}.json"
        _write_json(out / name, payload)
        outputs.append(name)
    (out / "branch.csv").write_text("\n".join(rows) + "\n")
    _write_manifest(
        out,
        "branch",
        {
            "model": kind.value,
            "k0": args.k0,
            "h_step": args.h_step,
            "h_max": args.h_max,
            "nx": args.nx,
        },
        outputs,
    )
    print(
        f"{len(record.solutions)} wave(s) on the {kind.value} k0={args.k0} branch; "
        f"terminated: {record.termination}"
    )
    return 0


def _finite_entry(path, data, key, default):
    value = data.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"wave file {path} has a non-numeric {key!r} entry: {value!r}") from None
    except OverflowError:
        # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"wave file {path} has a non-finite {key!r} entry: {value!r}")
    # float() also takes true/false and numeric strings, which a wave
    # file written by this program never holds
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"wave file {path} has a {key!r} entry that is not a JSON number: {value!r}")
    return number


def _positive_int_entry(path, data, key, default):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"wave file {path} has a {key!r} entry that is not a positive integer: {value!r}")
    return value


def _theta_entry(path, data):
    value = data["theta"]
    if not isinstance(value, list):
        raise ValueError(f"wave file {path} has a 'theta' entry that is not a JSON array: {value!r}")
    numbers = []
    for i, item in enumerate(value):
        # np.asarray(..., dtype=float) would also take true/false and
        # numeric strings
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"wave file {path} has a 'theta' entry whose element {i} is not a JSON number: {item!r}")
        try:
            number = float(item)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"wave file {path} has a 'theta' entry whose values must be finite: element {i} is {item!r}")
        numbers.append(number)
    return np.array(numbers)


def _wave_from_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # a missing or unreadable file, bad UTF-8 or malformed JSON
        raise ValueError(f"wave file {path} cannot be read: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"wave file {path} does not hold a JSON object")
    for key in ("alpha", "theta"):
        if key not in data:
            raise ValueError(f"wave file {path} has no {key!r} entry")
    model = data.get("model", "linear")
    if model not in ("linear", "nonlinear"):
        raise ValueError(f"wave file {path} has a 'model' entry that is not 'linear' or 'nonlinear': {model!r}")
    kind = ModelKind(model)
    values = _theta_entry(path, data)
    # refused before the residual or a step can overflow on it
    evolution._check_blowup(values, 0.0)
    theta = spectral.ThetaProfile.from_values(values)
    if "L" in data:
        length = _finite_entry(path, data, "L", None)
    else:
        try:
            length = length_from_theta(theta)
        except DegenerateFrontError as exc:
            raise ValueError(f"wave file {path} has no 'L' entry, and its theta gives no length: {exc}") from None
    beta = _finite_entry(path, data, "beta", 1.0)
    alpha = _finite_entry(path, data, "alpha", None)
    try:
        params = WaveParams(alpha, beta, length)
    except ContractViolationError as exc:
        raise ContractViolationError(f"wave file {path} has an unusable 'L' entry: {exc}") from None
    if "residual_norm" in data:
        residual_norm = _finite_entry(path, data, "residual_norm", None)
    else:
        residual_norm = float(np.max(np.abs(residual(theta, params, kind))))
    return solver.WaveSolution(
        theta=theta,
        alpha=alpha,
        beta=beta,
        length=length,
        amplitude=float(np.max(theta.values)),
        residual_norm=residual_norm,
        k0=_positive_int_entry(path, data, "k0", 1),
        kind=kind,
    )


def cmd_stability(args):
    wave = _wave_from_file(args.wave)
    # the probe's start takes its L from theta, not from the file's "L"
    try:
        length_from_theta(wave.theta)
    except DegenerateFrontError as exc:
        raise ValueError(f"wave file {args.wave} has a theta that gives the probe no length: {exc}") from None
    cfg = evolution.StabilityProbeConfig(
        delta=args.delta, dt=args.dt, t_max=args.t_max
    )
    estimate = evolution.stability_probe(wave, cfg)
    out = _out_dir(args)
    lines = ["t,d"]
    for t, d in zip(estimate.times, estimate.norms):
        lines.append(f"{t:.17g},{d:.17g}")
    (out / "growth.csv").write_text("\n".join(lines) + "\n")
    fit = {
        "slope": estimate.rate,
        "intercept": estimate.intercept,
        "window": list(estimate.window),
        "observed": estimate.observed,
    }
    if estimate.note:
        fit["note"] = estimate.note
    _write_json(out / "fit.json", fit)
    _write_manifest(
        out,
        "stability",
        {
            "wave": str(args.wave),
            "delta": args.delta,
            "dt": args.dt,
            "t_max": args.t_max,
        },
        ["growth.csv", "fit.json"],
    )
    print(
        f"growth rate = {estimate.rate:.6g} over t in "
        f"[{estimate.window[0]:.6g}, {estimate.window[1]:.6g}]"
    )
    if estimate.note:
        print(estimate.note)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flamefront",
        description="Traveling waves of coordinate-free flame front models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output directory")

    p_bif = sub.add_parser("bifurcate", help="report a flat-front bifurcation point")
    p_bif.add_argument("--model", choices=["linear", "nonlinear"], required=True)
    p_bif.add_argument("--k0", type=int, required=True, help="destabilized mode number")
    add_common(p_bif)
    p_bif.set_defaults(func=cmd_bifurcate)

    p_br = sub.add_parser("branch", help="continue a traveling-wave branch in amplitude")
    p_br.add_argument("--model", choices=["linear", "nonlinear"], required=True)
    p_br.add_argument("--k0", type=int, required=True)
    p_br.add_argument(
        "--h-step",
        type=float,
        default=None,
        dest="h_step",
        help=f"first amplitude target and continuation step, in (0, {bifurcation._EPS_MAX}] "
        f"(default {_DEFAULT_H_STEP['linear']} linear, {_DEFAULT_H_STEP['nonlinear']} nonlinear)",
    )
    p_br.add_argument("--h-max", type=float, default=10.0, dest="h_max")
    p_br.add_argument("--nx", type=int, default=256)
    add_common(p_br)
    p_br.set_defaults(func=cmd_branch)

    p_st = sub.add_parser("stability", help="probe a wave file for instability growth")
    p_st.add_argument("--wave", required=True, help="wave JSON file to perturb")
    p_st.add_argument("--delta", type=float, default=1e-8)
    p_st.add_argument("--dt", type=float, default=1e-4)
    p_st.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    add_common(p_st)
    p_st.set_defaults(func=cmd_stability)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "branch" and args.h_step is None:
        args.h_step = _DEFAULT_H_STEP[args.model]
    try:
        return args.func(args)
    except (ValueError, FlameFrontError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedModelError):
            return _UNSUPPORTED_MODEL
        return _USAGE_ERROR if isinstance(exc, ValueError) else _SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
