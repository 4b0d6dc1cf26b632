import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flamefront
from flamefront import geometry, solver
from flamefront.cli import _build_parser, _encode, _publish, _to_json, _wave_from_file, _write_json, main
from flamefront.evolution import StabilityProbeConfig, _probe_start, stability_probe
from flamefront.model import ModelKind, WaveParams, length_from_theta, residual
from flamefront.spectral import ThetaProfile, from_sine_coeffs, grid


def exit_code(argv):
    """main() returns codes for runtime failures; argparse-level rejections
    raise SystemExit instead.  Either way the process exit code is what
    matters."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_branch(out, nx=64, h_step=0.05, h_max=0.15, model="linear"):
    return main(
        [
            "branch",
            "--model",
            model,
            "--k0",
            "1",
            "--h-step",
            str(h_step),
            "--h-max",
            str(h_max),
            "--nx",
            str(nx),
            "--out",
            str(out),
        ]
    )


def test_bifurcate_linear(tmp_path, capsys):
    assert main(["bifurcate", "--model", "linear", "--k0", "2", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "bifurcation.json").read_text())
    assert data["model"] == "linear"
    assert data["k0"] == 2
    assert data["alpha0"] == 17.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "bifurcation.json" in manifest["outputs"]
    assert capsys.readouterr().out  # a human-readable summary is printed


def test_bifurcate_nonlinear_certificate(tmp_path):
    assert main(["bifurcate", "--model", "nonlinear", "--k0", "1", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "bifurcation.json").read_text())
    assert data["alpha0"] == pytest.approx(-3.3829757679062373, abs=1e-9)
    assert abs(data["q_at_root"]) < 1e-13
    assert data["discriminant"] == pytest.approx(-176.0)
    assert data["resultant"] == pytest.approx(176.0)
    assert data["bracket"] == [-4.0, -3.0 + 1e-9]


def test_bifurcate_rejects_bad_k0(tmp_path):
    assert exit_code(["bifurcate", "--model", "linear", "--k0", "0", "--out", str(tmp_path)]) == 2


def test_branch_outputs(tmp_path):
    assert run_branch(tmp_path) == 0
    with open(tmp_path / "branch.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["h", "alpha", "beta", "L", "delta_alpha", "delta_beta", "delta_L", "residual_norm"]
    assert len(rows) == 4
    hs = [float(r[0]) for r in rows[1:]]
    assert hs == pytest.approx([0.05, 0.10, 0.15], abs=1e-9)
    # weakly nonlinear check on the first row: beta - 1 = h^2/4
    first = dict(zip(rows[0], [float(v) for v in rows[1]]))
    assert first["delta_beta"] == pytest.approx(0.25 * 0.05**2, rel=0.05)
    assert first["delta_alpha"] == pytest.approx(first["alpha"] - 5.0, abs=1e-12)
    for h in hs:
        assert (tmp_path / f"wave_{h:.6f}.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["h_step"] == 0.05
    assert "branch.csv" in manifest["outputs"]


def test_wave_file_round_trips_residual(tmp_path):
    run_branch(tmp_path)
    data = json.loads((tmp_path / "wave_0.100000.json").read_text())
    theta = ThetaProfile.from_values(np.asarray(data["theta"]))
    params = WaveParams(alpha=data["alpha"], beta=data["beta"], length=data["L"])
    r = np.max(np.abs(residual(theta, params, ModelKind.LINEAR)))
    # the stored norm comes from the solver's exactly odd spectrum; going
    # through grid values adds k^3-amplified round-off, so only the shared
    # convergence contract is exact
    assert r <= 1e-10
    assert data["residual_norm"] <= 1e-10
    assert abs(r - data["residual_norm"]) < 1e-11
    assert len(data["sigma"]) == len(data["theta"]) == 64
    assert len(data["x"]) == len(data["y"]) == 65
    assert data["h"] == pytest.approx(0.1, abs=1e-9)


def test_branch_rejects_bad_steps(tmp_path):
    for h_step, h_max in ((-0.05, 0.15), (0.2, 0.1)):
        code = exit_code(
            ["branch", "--model", "linear", "--k0", "1", "--h-step", str(h_step),
             "--h-max", str(h_max), "--nx", "64", "--out", str(tmp_path)]
        )
        assert code == 2


def test_stability_no_growth_near_onset(tmp_path):
    # the h = 0.05 wave sits a hair above alpha = 5: d(t) does not grow
    # two decades by t_max 0.3, though its fitted slope is positive
    run_branch(tmp_path)
    code = main(
        [
            "stability",
            "--wave",
            str(tmp_path / "wave_0.050000.json"),
            "--dt",
            "1e-3",
            "--t-max",
            "0.3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["observed"] is False
    assert fit["note"] == "growth window not completed by t_max: slope is the steepest trailing fit"
    with open(tmp_path / "growth.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "d"]
    assert len(rows) == 301


def test_stability_observed_growth(tmp_path):
    # hand-written flat wave at alpha = 37: fastest mode grows at rate 80
    wave = {"model": "linear", "alpha": 37.0, "theta": [0.0] * 128}
    (tmp_path / "flat37.json").write_text(json.dumps(wave))
    code = main(
        [
            "stability",
            "--wave",
            str(tmp_path / "flat37.json"),
            "--t-max",
            "0.15",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["observed"] is True
    assert fit["slope"] == pytest.approx(80.0, abs=4.0)
    assert fit["window"][0] < fit["window"][1] <= 0.15


@pytest.fixture(scope="module")
def branch_wave_file(tmp_path_factory):
    """The linear k0 = 1, h = 0.05 wave file that `flamefront branch` writes at nx 256."""
    out = tmp_path_factory.mktemp("branch")
    assert run_branch(out, nx=256, h_step=0.05, h_max=0.05) == 0
    return out / "wave_0.050000.json"


def test_probe_of_a_wave_file_matches_the_solved_wave(linear_wave_small, branch_wave_file):
    # the file's grid values are odd only to rounding, so its half spectrum
    # has nonzero real parts; both probes start from the sine content, and
    # only that rounding separates them
    wave = _wave_from_file(branch_wave_file)
    assert wave.theta.coeffs.real.any()
    est = stability_probe(linear_wave_small)
    from_file = stability_probe(wave)
    assert len(from_file.times) == len(est.times) == 10000
    assert from_file.window == est.window
    assert from_file.rate == pytest.approx(est.rate, rel=1e-6)


def test_growth_csv_holds_the_per_row_format(tmp_path, branch_wave_file):
    # growth.csv comes from one %-format call over the interleaved (t, d)
    # values; its bytes are those of one f"{t:.17g},{d:.17g}" line per row
    assert main(["stability", "--wave", str(branch_wave_file), "--out", str(tmp_path)]) == 0
    est = stability_probe(_wave_from_file(branch_wave_file))
    assert not est.observed and len(est.times) == 10000
    rows = "".join(f"{t:.17g},{d:.17g}\n" for t, d in zip(est.times, est.norms))
    assert (tmp_path / "growth.csv").read_bytes() == ("t,d\n" + rows).encode()


def test_probe_of_a_wave_file_makes_no_fft_call_per_step(branch_wave_file, monkeypatch):
    # the start is exactly odd, so the probe steps on the dense odd maps
    wave = _wave_from_file(branch_wave_file)
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return call

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    est = stability_probe(wave, StabilityProbeConfig(dt=1e-4, t_max=0.05))
    assert len(est.times) == 500
    # at most the one-off tabulation of the nx-256 odd maps
    assert len(calls) <= 4


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_every_branch_wave_file_is_odd_to_rounding(tmp_path, model):
    # grid values of an odd wave are odd only to rounding; the probe's
    # start accepts every wave file that `flamefront branch` writes
    assert main(["branch", "--model", model, "--k0", "1", "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("wave_*.json"))
    assert len(paths) >= 20
    for path in paths:
        wave = _wave_from_file(path)
        assert wave.theta.coeffs.real.any()
        state, _ = _probe_start(wave)
        assert not state.theta.coeffs.real.any()


@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_wave_file_without_residual_norm_gets_its_closure_residual(tmp_path, model):
    theta = ThetaProfile.from_values(0.1 * np.sin(grid(64)))
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"model": model, "alpha": -3.3, "theta": theta.values.tolist()}))
    params = WaveParams(alpha=-3.3, beta=1.0, length=length_from_theta(theta))
    expected = float(np.max(np.abs(residual(theta, params, ModelKind(model)))))
    assert expected > 0.0
    assert _wave_from_file(path).residual_norm == expected


def test_stability_rejects_nonlinear_wave(tmp_path):
    wave = {"model": "nonlinear", "alpha": -3.3, "theta": [0.0] * 64}
    (tmp_path / "nl.json").write_text(json.dumps(wave))
    assert main(["stability", "--wave", str(tmp_path / "nl.json"), "--out", str(tmp_path)]) == 4


def test_stability_missing_wave_file(tmp_path):
    code = exit_code(["stability", "--wave", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert code == 2


def test_branch_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_branch(a)
    run_branch(b)
    assert (a / "branch.csv").read_bytes() == (b / "branch.csv").read_bytes()
    for name in ("wave_0.050000.json", "wave_0.100000.json", "wave_0.150000.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("created")
    mb.pop("created")
    assert ma == mb


def test_waves_of_close_amplitudes_get_files_of_their_own(tmp_path):
    # six decimals name all four waves wave_0.000000.json
    argv = ["branch", "--model", "linear", "--k0", "1", "--h-step", "1e-7", "--h-max", "4e-7", "--nx", "64"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "branch.csv") as fh:
        rows = list(csv.DictReader(fh))
    names = [f"wave_{h}.json" for h in ("0.0000001", "0.0000002", "0.0000003", "0.0000004")]
    assert sorted(path.name for path in tmp_path.glob("wave_*.json")) == names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == ["branch.csv", *names]
    for name, row in zip(names, rows):
        data = json.loads((tmp_path / name).read_text())
        assert data["h"] == float(row["h"])
        assert data["alpha"] == float(row["alpha"])


def test_publish_refuses_two_files_of_one_name(tmp_path):
    args = argparse.Namespace(command="branch", out=str(tmp_path / "out"))
    files = [("branch.csv", "h\n"), ("wave_0.000000.json", {"h": 1e-7}), ("wave_0.000000.json", {"h": 2e-7})]
    with pytest.raises(ValueError, match="output files would overwrite each other: wave_0.000000.json"):
        _publish(args, files)
    assert not (tmp_path / "out").exists()


def test_branches_on_two_grids_each_write_their_own_grid(tmp_path):
    for nx in (64, 32, 64):
        out = tmp_path / f"nx{nx}"
        assert run_branch(out, nx=nx, h_max=0.05) == 0
        text = (out / "wave_0.050000.json").read_text()
        assert '"sigma": ' + _to_json(grid(nx)) + "," in text
        assert json.loads(text)["sigma"] == grid(nx).tolist()


def test_branch_writes_the_converged_curves(tmp_path):
    assert run_branch(tmp_path) == 0
    record = solver.continue_branch(1, ModelKind.LINEAR, 0.05, 0.15, solver.SolveConfig(nx=64))
    assert len(record.solutions) == 3
    for sol in record.solutions:
        data = json.loads((tmp_path / f"wave_{sol.amplitude:.6f}.json").read_text())
        curve = geometry.reconstruct_curve(sol.theta)
        assert data["x"] == curve.x.tolist()
        assert data["y"] == curve.y.tolist()


def test_branch_rebuilds_each_curve_once(tmp_path, monkeypatch):
    # wrap reconstruct_curve wherever a flamefront module holds it, so a
    # module that imports it by name is counted too
    original = geometry.reconstruct_curve
    profiles = []

    def counting(p):
        profiles.append(p)
        return original(p)

    for name, mod in list(sys.modules.items()):
        if name.startswith("flamefront") and getattr(mod, "reconstruct_curve", None) is original:
            monkeypatch.setattr(mod, "reconstruct_curve", counting)
    records = []
    continue_branch = solver.continue_branch

    def recording(*args):
        records.append(continue_branch(*args))
        return records[-1]

    monkeypatch.setattr(solver, "continue_branch", recording)
    assert run_branch(tmp_path) == 0
    (record,) = records
    # three converged waves and the two predicted guesses between them
    waves = [sol.theta for sol in record.solutions]
    assert len(waves) == 3
    assert len(profiles) == 5
    for p in profiles:
        assert sum(q is p for q in profiles) == 1
    for w in waves:
        assert any(p is w for p in profiles)


def test_to_json_float_array_matches_per_element_format():
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0])
    expected = "[" + ", ".join(format(v, ".17g") for v in values.tolist()) + "]"
    assert _to_json(values) == expected
    assert _to_json(np.array([])) == "[]"


def test_to_json_writes_empty_containers_and_refuses_other_types():
    assert _to_json({}) == "{}"
    assert _to_json([]) == "[]"
    with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
        _to_json(object())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_to_json_refuses_a_non_finite_float_array(value):
    # the refusal names the first bad value, as a Python float
    with pytest.raises(ValueError, match=f"^out of range float values are not JSON compliant: {value!r}$"):
        _to_json(np.array([0.5, value, np.nan]))


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
@pytest.mark.parametrize(
    "wrap",
    [float, np.float64, lambda v: [v], lambda v: {"h": [0.5, np.float64(v)]}],
    ids=["float", "np.float64", "list", "nested-list"],
)
def test_a_non_finite_value_reads_one_way_whatever_its_type(value, text, wrap):
    # as test_to_json_refuses_a_non_finite_float_array does for an array
    message = f"out of range float values are not JSON compliant: {text}"
    with pytest.raises(ValueError) as info:
        _to_json(wrap(value))
    assert str(info.value) == message


@pytest.mark.parametrize("value, text", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_a_non_finite_table_cell_is_refused(value, text):
    # the CSV files go through the same encoder, as 2-d tables
    assert _encode([[0.5, 1.0], [2.0, 0.25]], ",") == "0.5,1\n2,0.25\n"
    with pytest.raises(ValueError) as info:
        _encode(np.array([[0.5, 1.0], [value, 0.25]]), ",")
    assert str(info.value) == f"out of range float values are not JSON compliant: {text}"


def test_branch_csv_cells_are_the_wave_files_scalars(tmp_path):
    assert run_branch(tmp_path) == 0
    with open(tmp_path / "branch.csv") as fh:
        header, *rows = list(csv.reader(fh))
    names = json.loads((tmp_path / "manifest.json").read_text())["outputs"][1:]
    assert len(rows) == len(names) == 3
    for name, row in zip(names, rows):
        data = json.loads((tmp_path / name).read_text())
        assert row == [format(data[key], ".17g") for key in header]


@pytest.mark.parametrize("residual_norm", [None, 0.0], ids=["no-residual-norm", "residual-norm"])
def test_stability_refuses_a_blown_up_wave_file(tmp_path, capsys, residual_norm):
    wave = {"model": "linear", "alpha": 5.0, "theta": (1e110 * np.sin(grid(64))).tolist()}
    if residual_norm is not None:
        wave["residual_norm"] = residual_norm
    (tmp_path / "big.json").write_text(json.dumps(wave))
    with warnings.catch_warnings():
        # no overflow warning from the residual or a step may come first
        warnings.simplefilter("error")
        code = exit_code(["stability", "--wave", str(tmp_path / "big.json"), "--t-max", "0.01",
                          "--dt", "1e-3", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "max|theta| = 1.000e+110 exceeded 1000 at t = 0\n" in capsys.readouterr().err


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FLAMEFRONT_OUT", str(tmp_path / "envout"))
    assert main(["bifurcate", "--model", "linear", "--k0", "1"]) == 0
    assert (tmp_path / "envout" / "bifurcation.json").exists()


def test_out_dir_defaults_to_cwd(tmp_path, monkeypatch):
    monkeypatch.delenv("FLAMEFRONT_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["bifurcate", "--model", "linear", "--k0", "1"]) == 0
    assert (tmp_path / "bifurcation.json").exists()


def test_console_script_entry_point(tmp_path):
    # the child finds the same package as this test, installed or not
    src = str(Path(flamefront.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "flamefront.cli",
            "bifurcate",
            "--model",
            "linear",
            "--k0",
            "3",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads((tmp_path / "bifurcation.json").read_text())["alpha0"] == 37.0


def test_branch_default_h_step_in_check_run_and_manifest(tmp_path):
    # the nonlinear default step 0.02 is above this cap, so nothing runs
    code = exit_code(["branch", "--model", "nonlinear", "--k0", "1", "--h-max", "0.01",
                      "--nx", "64", "--out", str(tmp_path)])
    assert code == 2
    assert main(["branch", "--model", "linear", "--k0", "1", "--h-max", "0.1",
                 "--nx", "64", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["h_step"] == 0.05
    assert manifest["outputs"] == ["branch.csv", "wave_0.050000.json", "wave_0.100000.json"]


def test_each_manifest_records_the_parsed_arguments(tmp_path, monkeypatch):
    # apart from its timestamp, a manifest is fixed: the parsed arguments
    # less command and out, in the parser's order, with --h-step resolved,
    # the probe's defaults filled in and the wave path as given
    monkeypatch.chdir(tmp_path)
    Path("flat.json").write_text(json.dumps(FLAT_WAVE))
    runs = [
        (["bifurcate", "--model", "nonlinear", "--k0", "2"], [("model", "nonlinear"), ("k0", 2)],
         ["bifurcation.json"]),
        (["branch", "--model", "linear", "--k0", "1", "--h-max", "0.1", "--nx", "64"],
         [("model", "linear"), ("k0", 1), ("h_step", 0.05), ("h_max", 0.1), ("nx", 64)],
         ["branch.csv", "wave_0.050000.json", "wave_0.100000.json"]),
        (["stability", "--wave", "flat.json"],
         [("wave", "flat.json"), ("dt", 1e-4), ("t_max", 1.0)], ["growth.csv", "fit.json"]),
    ]
    for argv, parameters, outputs in runs:
        command = argv[0]
        assert main([*argv, "--out", command]) == 0
        # pairs, so that the key order is compared too
        manifest = json.loads(Path(command, "manifest.json").read_text(), object_pairs_hook=list)
        assert manifest[:4] == [
            ("command", command),
            ("parameters", parameters),
            ("artifact_version", flamefront.__version__),
            ("outputs", outputs),
        ]
        assert len(manifest) == 5 and manifest[4][0] == "created"
        assert sorted(p.name for p in Path(command).iterdir()) == sorted([*outputs, "manifest.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bifurcate", "branch", "flat.json", "stability"]


def test_help_exits_cleanly_and_defaults_are_the_librarys(capsys):
    for command in ("branch", "stability"):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: flamefront {command}")
    parser = _build_parser()
    assert parser.parse_args(["branch", "--model", "linear", "--k0", "1"]).nx == solver.SolveConfig().nx
    args = parser.parse_args(["stability", "--wave", "wave.json"])
    probe = StabilityProbeConfig()
    assert (args.dt, args.t_max) == (probe.dt, probe.t_max)


@pytest.mark.parametrize("nx", ["31", "4"])
def test_branch_rejects_bad_nx(tmp_path, capsys, nx):
    code = exit_code(["branch", "--model", "linear", "--k0", "1", "--nx", nx, "--out", str(tmp_path)])
    assert code == 2
    assert f"error: nx must be an even integer >= 8, got {nx}" in capsys.readouterr().err


FLAT_WAVE = {"model": "linear", "alpha": 17.0, "theta": [0.0] * 64}


@pytest.mark.parametrize(
    "wave, message",
    [
        (3.0, "does not hold a JSON object"),
        ({"model": "linear", "theta": [0.0] * 64}, "has no 'alpha' entry"),
        ({"model": "linear", "alpha": 17.0}, "has no 'theta' entry"),
        ({"model": "linear", "alpha": 17.0, "theta": [0.0] * 63},
         "has a 'theta' entry that gives no grid: nx must be an even integer >= 8, got 63"),
        ({**FLAT_WAVE, "theta": []}, "has a 'theta' entry that gives no grid: nx must be an even integer >= 8, got 0"),
        ({"model": "linear", "alpha": 17.0, "theta": [float("nan")] + [0.0] * 63}, "must be finite"),
        ({**FLAT_WAVE, "residual_norm": None}, "'residual_norm' must be finite, got None"),
        ({**FLAT_WAVE, "residual_norm": "nan"}, "'residual_norm' must be finite, got 'nan'"),
        ({**FLAT_WAVE, "k0": 0}, "'k0' must be an integer >= 1, got 0"),
        ({**FLAT_WAVE, "k0": 1.7}, "'k0' must be an integer >= 1, got 1.7"),
        ({**FLAT_WAVE, "k0": "x"}, "'k0' must be an integer >= 1, got 'x'"),
        ({**FLAT_WAVE, "k0": True}, "'k0' must be an integer >= 1, got True"),
        ({**FLAT_WAVE, "alpha": True}, "'alpha' must be finite, got True"),
        ({**FLAT_WAVE, "alpha": "17"}, "'alpha' must be finite, got '17'"),
        ({**FLAT_WAVE, "alpha": True, "beta": "1.0"}, "'beta' must be finite, got '1.0'"),
        ({**FLAT_WAVE, "L": "6.283185307179586"}, "'L' must be finite, got '6.283185307179586'"),
        ({**FLAT_WAVE, "L": False}, "'L' must be finite, got False"),
        ({**FLAT_WAVE, "residual_norm": True}, "'residual_norm' must be finite, got True"),
        ({**FLAT_WAVE, "residual_norm": "0.0"}, "'residual_norm' must be finite, got '0.0'"),
        ({**FLAT_WAVE, "alpha": 10**400}, "'alpha' must be finite, got 1000"),
        ({**FLAT_WAVE, "theta": "abc"}, "has a 'theta' entry that is not a JSON array: 'abc'"),
        ({**FLAT_WAVE, "theta": 0.0}, "has a 'theta' entry that is not a JSON array: 0.0"),
        ({**FLAT_WAVE, "theta": ["0.0"] * 63 + [True]}, "'theta'[0] must be finite, got '0.0'"),
        ({**FLAT_WAVE, "theta": [0.0] * 63 + [True]}, "'theta'[63] must be finite, got True"),
        ({**FLAT_WAVE, "theta": [0.0] * 63 + [None]}, "'theta'[63] must be finite, got None"),
        ({**FLAT_WAVE, "theta": [[0.0]] * 64}, "'theta'[0] must be finite, got [0.0]"),
        ({**FLAT_WAVE, "theta": [0.0] * 5 + [10**400] + [0.0] * 58}, "'theta'[5] must be finite, got 1000"),
        ({**FLAT_WAVE, "model": "foo"}, "has a 'model' entry that is not 'linear' or 'nonlinear': 'foo'"),
        ({**FLAT_WAVE, "model": 5}, "has a 'model' entry that is not 'linear' or 'nonlinear': 5"),
        ({**FLAT_WAVE, "model": ["linear"]}, "has a 'model' entry that is not 'linear' or 'nonlinear': ['linear']"),
        ({**FLAT_WAVE, "model": None}, "has a 'model' entry that is not 'linear' or 'nonlinear': None"),
    ],
    ids=[
        "not-an-object", "no-alpha", "no-theta", "odd-theta", "empty-theta", "nan-theta",
        "null-residual", "nan-residual", "zero-k0", "fractional-k0", "text-k0", "bool-k0",
        "bool-alpha", "text-alpha", "bool-alpha-text-beta", "text-length", "bool-length",
        "bool-residual", "text-residual", "huge-alpha",
        "text-theta", "number-theta", "text-bool-theta", "bool-in-theta", "null-in-theta",
        "nested-theta", "huge-in-theta", "text-model", "number-model", "list-model", "null-model",
    ],
)
def test_stability_rejects_malformed_wave_file(tmp_path, capsys, wave, message):
    (tmp_path / "bad.json").write_text(json.dumps(wave))
    code = exit_code(["stability", "--wave", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    if "'theta' entry" in message or "'model' entry" in message:
        assert f"error: wave file {tmp_path / 'bad.json'} has " in err
    elif message.startswith("'"):
        # an entry refused by the rule for numeric arguments is named
        # after its file
        assert f"error: wave file {tmp_path / 'bad.json'}: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dt", "-1", "dt must be positive"),
        ("--dt", "0", "dt must be positive"),
        ("--t-max", "0", "t_max must be positive"),
        ("--t-max", "1e-5", "shorter than one step"),
        ("--t-max", "inf", "t_max must be positive and finite"),
        # the probe's perturbation is fixed at 1e-8
        ("--delta", "1e-8", "unrecognized arguments: --delta 1e-8"),
    ],
)
def test_stability_rejects_nonpositive_probe_settings(tmp_path, capsys, flag, value, message):
    wave = {"model": "linear", "alpha": 17.0, "theta": [0.0] * 64}
    (tmp_path / "flat.json").write_text(json.dumps(wave))
    code = exit_code(["stability", "--wave", str(tmp_path / "flat.json"), flag, value,
                      "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nx", ["31", "4"])
def test_branch_bad_nx_creates_no_output_directory(tmp_path, nx):
    code = exit_code(["branch", "--model", "linear", "--k0", "1", "--nx", nx, "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--h-step", "nan"), ("--h-step", "inf"), ("--h-max", "nan"), ("--h-max", "inf")],
)
def test_branch_rejects_non_finite_amplitudes(tmp_path, capsys, flag, value):
    code = exit_code(["branch", "--model", "linear", "--k0", "1", flag, value, "--nx", "64",
                      "--out", str(tmp_path / "out")])
    assert code == 2
    message = {"--h-step": "h_step must be positive and finite", "--h-max": "h_max must be finite"}[flag]
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["alpha", "beta", "L"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_stability_rejects_non_finite_wave_numbers(tmp_path, capsys, key, value):
    wave = {"model": "linear", "alpha": 17.0, "beta": 1.0, "L": 2.0 * np.pi, "theta": [0.0] * 64}
    wave[key] = value
    (tmp_path / "bad.json").write_text(json.dumps(wave))  # Python writes NaN / Infinity
    code = exit_code(["stability", "--wave", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"error: wave file {tmp_path / 'bad.json'}: {key!r} must be finite, got {value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, name, written",
    [("bifurcate", "manifest.json", ["bifurcation.json"]), ("branch", "branch.csv", []),
     ("stability", "fit.json", ["growth.csv"])],
)
def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, branch_wave_file, command, name, written):
    # a directory in the way of one file: the files before it stay, the
    # ones after it and the manifest are not written
    argv = {
        "bifurcate": ["bifurcate", "--model", "linear", "--k0", "1"],
        "branch": ["branch", "--model", "linear", "--k0", "1", "--h-max", "0.1", "--nx", "64"],
        "stability": ["stability", "--wave", str(branch_wave_file), "--dt", "1e-3", "--t-max", "0.05"],
    }[command]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output file {out / name} cannot be written: Is a directory\n"
    assert sorted(path.name for path in out.iterdir() if path.is_file()) == written


def test_write_json_rejects_non_finite_floats(tmp_path):
    for value in (float("nan"), np.inf, np.float64("-inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "x.json", {"h_max": value})
        assert not (tmp_path / "x.json").exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_json_output_is_strict_json(tmp_path):
    bif = tmp_path / "bif"
    assert main(["bifurcate", "--model", "nonlinear", "--k0", "1", "--out", str(bif)]) == 0
    br = tmp_path / "branch"
    assert run_branch(br) == 0
    st = tmp_path / "stability"
    assert main(["stability", "--wave", str(br / "wave_0.050000.json"), "--dt", "1e-3",
                 "--t-max", "0.05", "--out", str(st)]) == 0
    files = sorted(tmp_path.glob("*/*.json"))
    assert {f.name for f in files} >= {"bifurcation.json", "manifest.json", "wave_0.150000.json", "fit.json"}
    assert len(files) == 8  # 2 + (3 waves + manifest) + 2
    for f in files:
        json.loads(f.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("k0, nx", [("128", "256"), ("40", "64")])
def test_branch_rejects_unresolved_k0(tmp_path, capsys, k0, nx):
    code = exit_code(["branch", "--model", "linear", "--k0", k0, "--nx", nx,
                      "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: k0={k0} is not resolved on an nx={nx} grid" in err
    assert not (tmp_path / "out").exists()


# b_30 = 1e306 at nx 64: the probe's start rows would overflow on it
BIG_MODE_30 = np.append(np.zeros(29), [1e306, 0.0])


@pytest.mark.parametrize(
    "argv, wave, code, message",
    [
        (["branch", "--model", "linear", "--k0", "1", "--h-step", "0.5", "--nx", "64"], None, 2,
         "h_step must be in (0, 0.3], got 0.5"),
        (["branch", "--model", "nonlinear", "--k0", "1", "--h-step", "0.31", "--h-max", "1", "--nx", "64"],
         None, 2, "h_step must be in (0, 0.3], got 0.31"),
        (["branch", "--model", "nonlinear", "--k0", "1", "--h-step", "0.3", "--h-max", "0.3", "--nx", "16"],
         None, 3, "first solve at target_h 0.3 failed"),
        (["stability"], json.dumps({**FLAT_WAVE, "L": -1.0}), 2,
         "wave file {wave} has an unusable 'L' entry: length must be positive and finite, got -1.0"),
        (["stability"], json.dumps({**FLAT_WAVE, "L": 0.0, "residual_norm": 0.0}), 2,
         "wave file {wave} has an unusable 'L' entry: length must be positive and finite, got 0.0"),
        (["stability"], json.dumps(FLAT_WAVE)[:40], 2, "wave file {wave} cannot be read: "),
        (["stability"], json.dumps({**FLAT_WAVE, "theta": [1.6] * 64}), 2,
         "wave file {wave} has no 'L' entry, and its theta gives no length: integral of cos(theta)"),
        # odd, but mean(cos(3 sin sigma)) = J0(3) < 0: the probe's start,
        # which takes L from theta, refuses it
        (["stability"], json.dumps({**FLAT_WAVE, "L": 7.0, "theta": list(3.0 * np.sin(grid(64)))}), 2,
         "wave file {wave} cannot be probed: integral of cos(theta)"),
        (["stability", "--t-max", "0.3"], json.dumps({**FLAT_WAVE, "theta": list(0.3 * np.cos(grid(64)))}), 2,
         "wave file {wave} cannot be probed: the probe takes odd waves only: the wave's cosine content "
         "max|Re c_n| = 1.500e-01 exceeds 4 ulps of max|theta| = 3.000e-01"),
        (["stability", "--dt", "1e-300", "--t-max", "1e300"], json.dumps(FLAT_WAVE), 2,
         "t_max 1e+300 over dt 1e-300 is too many steps to count"),
        (["stability", "--dt", "1e-3", "--t-max", "0.01"], json.dumps({**FLAT_WAVE, "alpha": 1e308}), 3,
         "theta is not finite at t = 0.001"),
        (["stability"], json.dumps({**FLAT_WAVE, "L": 7.0, "theta": list(from_sine_coeffs(BIG_MODE_30, 64).values)}),
         3, "max|theta| = 1.000e+306 exceeded 1000 at t = 0\n"),
        (["stability"], json.dumps({**FLAT_WAVE, "model": "nonlinear", "theta": list(1e110 * np.sin(grid(64)))}), 4,
         "time evolution is implemented for the linear closure only"),
        (["stability"], json.dumps({**FLAT_WAVE, "theta": [0.0] * 63}), 2,
         "wave file {wave} has a 'theta' entry that gives no grid: nx must be an even integer >= 8, got 63"),
        (["stability"], json.dumps({**FLAT_WAVE, "theta": []}), 2,
         "wave file {wave} has a 'theta' entry that gives no grid: nx must be an even integer >= 8, got 0"),
        (["bifurcate", "--model", "nonlinear", "--k0", str(10**39)], None, 2,
         f"k0={10**39} is too large to certify"),
        (["bifurcate", "--model", "nonlinear", "--k0", str(10**160)], None, 2,
         f"k0={10**160} is too large to certify"),
    ],
    ids=["h-step-above-eps-cap", "nonlinear-h-step-above-cap", "branch-start-error", "negative-length",
         "zero-length-with-residual", "truncated-wave-file", "no-length-from-theta",
         "stated-length-but-no-length-from-theta", "cosine-wave", "step-count-overflow", "huge-alpha",
         "blown-up-high-mode", "blown-up-nonlinear-wave", "odd-theta", "empty-theta", "k0-1e39", "k0-1e160"],
)
def test_failed_command_creates_no_output_directory(tmp_path, capsys, argv, wave, code, message):
    path = tmp_path / "wave.json"
    if wave is not None:
        path.write_text(wave)
        argv = [*argv, "--wave", str(path)]
    with warnings.catch_warnings():
        # no overflow warning may come before the refusal
        warnings.simplefilter("error")
        assert exit_code([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message.format(wave=path) in err
    assert not (tmp_path / "out").exists()


def test_stated_length_is_read_without_the_default(tmp_path):
    # the default L comes from theta, and is computed only when "L" is
    # absent: this theta gives none, but the file states one
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({**FLAT_WAVE, "L": 7.0, "theta": [1.6] * 64}))
    wave = _wave_from_file(path)
    assert wave.length == 7.0
    np.testing.assert_array_equal(wave.theta.values, 1.6)


def test_output_path_that_is_a_file_is_refused(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("kept\n")
    assert exit_code(["bifurcate", "--model", "linear", "--k0", "1", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {path} cannot be created: ")
    assert "Traceback" not in err
    assert path.read_text() == "kept\n"
