"""The one rule for numeric arguments, at every entry point that applies it.

A real argument must be a finite real, also within its bound: a bool or
str is no number, and an int beyond the float range is infinite.  A count
must be an integer at least its minimum: a bool is no count, and neither
is a float of integer value.  Each refusal is a ValueError that names the
argument.
"""

import json
import re

import numpy as np
import pytest

from flamefront.bifurcation import asymptotic_guess, linear_bifurcation_alpha
from flamefront.cli import main
from flamefront.evolution import EvolutionState, StabilityProbeConfig, evolve, imex_step, theta_rhs
from flamefront.model import ModelKind, WaveParams, unstable_modes
from flamefront.solver import SolveConfig, continue_branch, flat_solution, quasi_newton_solve
from flamefront.spectral import ThetaProfile, deriv, grid

LINEAR = ModelKind.LINEAR
STATE = EvolutionState.from_theta(ThetaProfile.from_values(0.1 * np.sin(grid(16))))
FLAT = ThetaProfile.from_values(np.zeros(16))
GUESS = (FLAT, WaveParams(alpha=5.0, beta=1.0, length=2.0 * np.pi))
CFG = SolveConfig(nx=16)


def stability(tmp_path, key, value):
    """Run flamefront stability on a flat wave file whose key entry is
    value (key "theta" sets theta's element 0): its exit code and path."""
    wave = {"model": "linear", "alpha": 17.0, "theta": [0.0] * 16, "k0": 1}
    if key == "theta":
        wave["theta"] = [value] + wave["theta"][1:]
    else:
        wave[key] = value
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(wave))  # Python writes NaN and Infinity
    code = main(["stability", "--wave", str(path), "--out", str(tmp_path / "out")])
    return code, path


# (entry point, argument name, call with the value, a value it accepts);
# the accepted value is None for the CLI, whose JSON holds no numpy types
REALS = [
    ("evolve", "alpha", lambda v: evolve(STATE, v, 1e-5, 1), 17.0),
    ("evolve", "dt", lambda v: evolve(STATE, 17.0, v, 1), 1e-5),
    ("imex_step", "alpha", lambda v: imex_step(STATE, v, 1e-5), 17.0),
    ("imex_step", "dt", lambda v: imex_step(STATE, 17.0, v), 1e-5),
    ("theta_rhs", "alpha", lambda v: theta_rhs(STATE, v), 17.0),
    ("StabilityProbeConfig", "dt", lambda v: StabilityProbeConfig(dt=v), 1e-4),
    ("StabilityProbeConfig", "t_max", lambda v: StabilityProbeConfig(t_max=v), 1.0),
    ("continue_branch", "h_step", lambda v: continue_branch(1, LINEAR, v, 0.1, CFG), 0.1),
    ("continue_branch", "h_max", lambda v: continue_branch(1, LINEAR, 0.1, v, CFG), 0.1),
    ("quasi_newton_solve", "target_h", lambda v: quasi_newton_solve(GUESS, v, LINEAR, CFG, k0=1), 0.0),
    ("flat_solution", "alpha", lambda v: flat_solution(v, nx=16), 17.0),
    ("unstable_modes", "alpha", unstable_modes, 17.0),
    ("WaveParams", "length", lambda v: WaveParams(alpha=5.0, beta=1.0, length=v), 7.0),
    ("stability", "'alpha'", "alpha", None),
    ("stability", "'theta'[0]", "theta", None),
]
COUNTS = [
    ("evolve", "n_steps", lambda v: evolve(STATE, 17.0, 1e-5, v), 0, 2),
    ("continue_branch", "k0", lambda v: continue_branch(v, LINEAR, 0.1, 0.1, CFG), 1, 1),
    ("quasi_newton_solve", "k0", lambda v: quasi_newton_solve(GUESS, 0.0, LINEAR, CFG, k0=v), 1, 1),
    ("SolveConfig", "max_iters", lambda v: SolveConfig(max_iters=v), 1, 5),
    ("deriv", "order", lambda v: deriv(FLAT, v), 1, 3),
    ("linear_bifurcation_alpha", "k0", linear_bifurcation_alpha, 1, 2),
    ("stability", "'k0'", "k0", 1, None),
]
BAD_REALS = [("huge-int", 10**400), ("nan", float("nan")), ("inf", float("inf")), ("text", "1"), ("bool", True)]
# numpy's bools, which JSON does not hold, so the CLI's entries skip them
NUMPY_BOOLS = [("numpy-bool", np.True_), ("0d-bool-array", np.array(True))]
# 10**400 is an integer, refused by a count only where the count has an
# upper bound (deriv's order, a k0 on the grid)
BAD_COUNTS = [("nan", float("nan")), ("inf", float("inf")), ("text", "1"), ("bool", True), ("fraction", 2.5)]


def refusals():
    for entry, name, call, good in REALS:
        for label, value in BAD_REALS if good is None else BAD_REALS + NUMPY_BOOLS:
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{label}")
    for entry, name, call, minimum, _ in COUNTS:
        for label, value in BAD_COUNTS + [("below-minimum", minimum - 1)]:
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{label}")


def acceptances():
    for entry, name, call, good in REALS:
        if good is None:
            continue
        yield pytest.param(call, np.float64(good), id=f"{entry}-{name}-float64")
        yield pytest.param(call, np.array(good), id=f"{entry}-{name}-0d-array")
        if float(good).is_integer():
            yield pytest.param(call, np.int64(good), id=f"{entry}-{name}-int64")
    for entry, name, call, _, good in COUNTS:
        if good is None:
            continue
        yield pytest.param(call, np.int64(good), id=f"{entry}-{name}-int64")
        yield pytest.param(call, np.array(good), id=f"{entry}-{name}-0d-array")


@pytest.mark.parametrize("call, name, value", refusals())
def test_argument_rule_refuses(tmp_path, capsys, call, name, value):
    if isinstance(call, str):
        # the CLI refuses a wave-file entry with exit code 2, naming it
        code, path = stability(tmp_path, call, value)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: wave file {path}: {name} must be ")
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(value)


@pytest.mark.parametrize("call, value", acceptances())
def test_argument_rule_accepts_numpy_numbers(call, value):
    call(value)


def test_huge_count_is_refused_where_the_count_has_a_bound():
    with pytest.raises(ValueError, match="^order must be at most 4"):
        deriv(FLAT, 10**400)
    with pytest.raises(ValueError, match="^k0=10+ is not resolved on an nx=16 grid"):
        continue_branch(10**400, LINEAR, 0.1, 0.1, CFG)


@pytest.mark.parametrize(
    "length", ["7", True, np.True_, 10**400], ids=["text", "bool", "numpy-bool", "huge-int"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda state: theta_rhs(state, 5.0),
        lambda state: imex_step(state, 5.0, 1e-5),
        lambda state: evolve(state, 5.0, 1e-5, 1),
    ],
    ids=["theta_rhs", "imex_step", "evolve"],
)
def test_a_state_length_that_is_no_finite_real_is_refused(call, length):
    # a state's L passes the rule before its stiffness 4*(2*pi/L)^4 is
    # taken: "7" is no number, True no length, and 10**400 is infinite
    with pytest.raises(ValueError, match=f"^L must be positive and finite, got {re.escape(repr(length))}$"):
        call(EvolutionState(STATE.theta, length))


def test_the_amplitude_of_the_asymptotic_guess_is_a_finite_real():
    with pytest.raises(ValueError, match="^eps must be positive and finite, got '0.1'$"):
        asymptotic_guess(1, "0.1", LINEAR)
    # a finite eps above the expansion's range keeps its own refusal
    with pytest.raises(ValueError, match=r"^eps must be in \(0, 0.3\], got 0.31$"):
        asymptotic_guess(1, 0.31, LINEAR)
