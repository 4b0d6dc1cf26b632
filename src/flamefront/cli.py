"""Command-line front end: bifurcation reports, branch runs, stability probes.

Each command calls the library, builds its files and hands them to
_publish, the one function that creates the output directory and writes
manifest.json; the manifest's parameters are the parsed arguments.  The
output directory is taken from --out, else the FLAMEFRONT_OUT environment
variable, else the working directory; it is created only once the
command's library call has succeeded, so a failed command leaves none
behind.  Output files are deterministic: every float they hold, in JSON
or CSV, is written by one encoder, _encode, with 17 significant digits
(NaN and infinities are refused as bad input), iteration order is fixed,
and the only wall-clock content is the timestamp inside manifest.json.
The files are written one at a time, manifest.json last; when one cannot
be written, the ones written before it stay.

Each input is checked once, by the library function that takes it: a
wave file's entries here, with the default L from theta when the file
states none, and its theta by the stability probe (blown up, not odd to
rounding, no length for the probe's start).  Exit codes map
the exceptions by family: 0 success, 2 bad input (any
ValueError, which InvalidGridError and ContractViolationError are, an
output directory that cannot be created and an output file that cannot
be written), 3 any
other FlameFrontError (a solver, branch or time-stepping failure), 4
unsupported model.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bifurcation, evolution, solver, spectral
from .errors import (
    ContractViolationError,
    DegenerateFrontError,
    FlameFrontError,
    InvalidGridError,
    UnsupportedModelError,
    _finite_real,
    _integer,
)
from .model import ModelKind, WaveParams, length_from_theta, residual

__all__ = ["main"]

_USAGE_ERROR = 2
_SOLVER_ERROR = 3
_UNSUPPORTED_MODEL = 4

# first amplitude target and continuation step when --h-step is not given
_DEFAULT_H_STEP = {"linear": 0.05, "nonlinear": 0.02}


def _encode(values, sep=", "):
    """values, a float, a sequence of floats or a 2-d table of floats, as
    text with 17 significant digits, in one %-format call: a sequence's
    entries are joined by sep, and each row of a table is joined by sep
    and ends in a newline.

    As with json's allow_nan=False, a NaN or infinite value raises
    ValueError, which names it as a Python float (nan, inf or -inf)
    whatever its type: JSON has no literal for it.
    """
    array = np.asarray(values, dtype=float)
    flat = array.ravel().tolist()
    # checked in Python: numpy's isfinite(...).all() costs about 3 us even
    # on a scalar, and a wave file holds eight scalars beside its arrays
    if not all(map(math.isfinite, flat)):
        bad = next(v for v in flat if not math.isfinite(v))
        raise ValueError(f"out of range float values are not JSON compliant: {bad!r}")
    template = sep.join(["%.17g"] * (array.shape[-1] if array.ndim else 1))
    if array.ndim == 2:
        template = (template + "\n") * len(array)
    return template % tuple(flat)


class _JsonText(str):
    """JSON text that _to_json writes as it is."""


def _to_json(obj, indent=0):
    """Deterministic JSON with every float written by _encode.

    A 1-d float array, or a list or tuple of floats, is written inline;
    any other sequence one entry per line.
    """
    if isinstance(obj, _JsonText):
        return obj
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _encode(obj)
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" or (
        isinstance(obj, (list, tuple)) and obj and all(isinstance(v, (float, np.floating)) for v in obj)
    ):
        return "[" + _encode(obj) + "]"
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {_to_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(path, obj):
    path.write_text(_to_json(obj) + "\n")


def _publish(args, files):
    """Create the output directory, write files into it, then manifest.json.

    files holds (name, content) pairs: text (CSV) is written as given, a
    JSON object through _to_json.  The manifest's parameters are the parsed
    arguments less command, func and out, with main's defaults resolved.
    Two files of one name raise ValueError before the directory is made:
    the second would overwrite the first.  A directory that cannot be
    created, or a file that cannot be written, raises ValueError naming
    it; the files written before that one stay.
    """
    names = [name for name, _ in files]
    if len(set(names)) < len(names):
        twice = sorted({name for name in names if names.count(name) > 1})
        raise ValueError(f"output files would overwrite each other: {', '.join(twice)}")
    if args.out is not None:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("FLAMEFRONT_OUT") or Path.cwd())
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. the path is an existing file, or a parent is not writable
        raise ValueError(f"output directory {out} cannot be created: {exc.strerror or exc}") from None
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")},
        "artifact_version": __version__,
        "outputs": names,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    for name, content in [*files, ("manifest.json", manifest)]:
        try:
            if isinstance(content, str):
                (out / name).write_text(content)
            else:
                _write_json(out / name, content)
        except OSError as exc:
            # e.g. the path is an existing directory, or the disk is full
            raise ValueError(f"output file {out / name} cannot be written: {exc.strerror or exc}") from None


def cmd_bifurcate(args):
    report = {"model": args.model, "k0": args.k0}
    if args.model == "linear":
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
    _publish(args, [("bifurcation.json", report)])
    return 0


# the scalar entries of a wave file, in the order of branch.csv's columns
_BRANCH_COLUMNS = ("h", "alpha", "beta", "L", "delta_alpha", "delta_beta", "delta_L", "residual_norm")


@functools.cache
def _grid_json(nx):
    """The JSON text of spectral.grid(nx), formatted once per nx: every
    wave file of a branch holds the same grid."""
    return _JsonText(_to_json(spectral.grid(nx)))


def _wave_names(amplitudes):
    """wave_<h>.json names with h to the fewest decimals, at least 6, that
    keep the names of distinct amplitudes distinct.

    Amplitudes are told apart by repr, as their names are (-0.0 is not
    0.0); equal ones keep one name, which _publish refuses.
    """
    distinct = len(set(map(repr, amplitudes)))
    decimals = 6
    while True:
        names = [f"wave_{h:.{decimals}f}.json" for h in amplitudes]
        if len(set(names)) == distinct:
            return names
        decimals += 1


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
        "sigma": _grid_json(sol.theta.nx),
        "theta": sol.theta.values,
        "x": sol.curve.x,
        "y": sol.curve.y,
    }


def cmd_branch(args):
    kind = ModelKind(args.model)
    record = solver.continue_branch(args.k0, kind, args.h_step, args.h_max, solver.SolveConfig(nx=args.nx))
    alpha0 = bifurcation.asymptotic_expansion(args.k0, kind).alpha0
    names = _wave_names([sol.amplitude for sol in record.solutions])
    waves = [(name, _wave_payload(sol, alpha0)) for name, sol in zip(names, record.solutions)]
    table = [[payload[key] for key in _BRANCH_COLUMNS] for _, payload in waves]
    _publish(args, [("branch.csv", ",".join(_BRANCH_COLUMNS) + "\n" + _encode(table, ",")), *waves])
    print(
        f"{len(record.solutions)} wave(s) on the {kind.value} k0={args.k0} branch; "
        f"terminated: {record.termination}"
    )
    return 0


def _finite_entry(path, data, key, default):
    return _finite_real(f"wave file {path}: {key!r}", data.get(key, default))


def _positive_int_entry(path, data, key, default):
    return _integer(f"wave file {path}: {key!r}", data.get(key, default), 1)


def _theta_entry(path, data):
    value = data["theta"]
    if not isinstance(value, list):
        raise ValueError(f"wave file {path} has a 'theta' entry that is not a JSON array: {value!r}")
    return np.array([_finite_real(f"wave file {path}: 'theta'[{i}]", item) for i, item in enumerate(value)])


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
    try:
        theta = spectral.ThetaProfile.from_values(_theta_entry(path, data))
    except InvalidGridError as exc:
        raise ValueError(f"wave file {path} has a 'theta' entry that gives no grid: {exc}") from None
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
        # nothing writes this value; a blown-up theta is the probe's to refuse
        with np.errstate(over="ignore", invalid="ignore"):
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
    cfg = evolution.StabilityProbeConfig(dt=args.dt, t_max=args.t_max)
    try:
        estimate = evolution.stability_probe(wave, cfg)
    except (ValueError, DegenerateFrontError) as exc:
        # a wave that is not odd to rounding, or whose theta gives the
        # probe's start no length (it takes L from theta, not the file)
        raise ValueError(f"wave file {args.wave} cannot be probed: {exc}") from None
    growth = "t,d\n" + _encode(np.column_stack((estimate.times, estimate.norms)), ",")
    fit = {
        "slope": estimate.rate,
        "intercept": estimate.intercept,
        "window": list(estimate.window),
        "observed": estimate.observed,
    }
    if estimate.note:
        fit["note"] = estimate.note
    _publish(args, [("growth.csv", growth), ("fit.json", fit)])
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
    p_br.add_argument("--nx", type=int, default=solver.SolveConfig.nx)
    add_common(p_br)
    p_br.set_defaults(func=cmd_branch)

    p_st = sub.add_parser("stability", help="probe a wave file for instability growth")
    p_st.add_argument("--wave", required=True, help="wave JSON file to perturb")
    probe = evolution.StabilityProbeConfig
    p_st.add_argument("--dt", type=float, default=probe.dt)
    p_st.add_argument("--t-max", type=float, default=probe.t_max, dest="t_max")
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
