"""Hostile config values: a run either exits 0 with sane regrets, or exits 2
with a ``ConfigError`` that names the key it rejects.

Each example sets one or two of the keys an experiment reads (``keys_read``)
to values that break arithmetic (NaN, infinities, signed zeros, negatives,
1e-300, 1e300) or sit on a documented boundary, then runs ``cli.main`` at a
tiny scale.  README "Exit codes" names exit 4 for a valid config only for an
audited batch too little diverse to simulate from; nothing here may exit 3.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsim.cli import main
from banditsim.config import ExperimentConfig
from banditsim.experiments import EXPERIMENT_SPECS, keys_read
from oracles import parse_csv

HOSTILE = ("nan", "inf", "-inf", "0", "0.0", "-0.0", "-1", "-1e-300", "1e-300", "1e300")

# Documented boundaries, and values just inside or outside them.
BOUNDARIES = {
    "horizons": ("2", "3", "4", "200, 200"),
    "replicates": ("1", "2"),
    "master_seed": (str(2**64 - 1),),
    "batch": ("1", "2"),
    "d": ("1", "2", "3"),
    "n_actions": ("1", "2"),
    "rho": ("9.999999999999999e-101", "1e-100", "0.5773502691896258", "0.7071067811865476", "0.70710678119", "1"),
    "catalog_size": ("1", "2"),
    "catalog_seed": (str(2**64 - 1),),
    "prior_scale": ("1e-100", "9.999999999999999e-101", "9.999999999999999e99", "1e100"),
    "minority_prob": ("5e-324", "0.5", "0.9999999999999999", "1"),
    "noise": ("gaussian", "bernoulli", "Gaussian"),
    "theta_variant": ("theta0", "theta1", "theta2"),
    "population": ("full", "minority", ""),
    "ridge": ("1e-100", "9.999999999999999e-101", "1.7976931348623157e308"),
    "n_targets": ("1",),
    "sim_draws": ("9", "10"),
    "restriction": ("minority", "coin", "none"),
    "restriction_p": ("5e-324", "0.9999999999999999", "1"),
}

# Horizons and sample sizes at which a run of every allowed policy takes
# milliseconds; smaller than test_cli.TINY, whose seeds and horizons are picked
# for its sync test.
SCALE = {
    "TwoBridgeLinUCB": ["horizons=100,200", "batch=20"],
    "TwoBridgeImpossibility": ["horizons=100,200", "batch=20"],
    "GreedyVsLinUCB": ["horizons=400", "batch=20"],
    "ScalingFit": ["horizons=50,60,70", "batch=10"],
    "ExternalityVanishing": ["horizons=400", "batch=20"],
    "SimulationVerify": ["horizons=60", "batch=30", "n_targets=2", "sim_draws=100"],
    "EigGrowth": ["horizons=2000"],
}


def _base(experiment: str) -> tuple:
    """The tiny config's settings, and the keys it reads that have hostile values."""
    spec = EXPERIMENT_SPECS[experiment]
    sets = dict(item.split("=", 1) for item in SCALE[experiment])
    sets.update(policies=",".join(spec.policies), replicates="2", restriction="coin")
    read = keys_read(ExperimentConfig(experiment, policies=spec.policies, restriction="coin"))
    return {k: v for k, v in sets.items() if k in read}, sorted(read & BOUNDARIES.keys())


@st.composite
def hostile_pairs(draw, experiment):
    sets, read = _base(experiment)
    keys = draw(st.lists(st.sampled_from(read), min_size=2, max_size=2, unique=True))
    for key in keys:
        sets[key] = draw(st.sampled_from(HOSTILE + BOUNDARIES[key]))
    return keys, sets


def _run(experiment: str, sets: dict, tmp_path) -> tuple:
    out = tmp_path / "results.csv"
    argv = ["run", "--set", f"experiment={experiment}", "--workers", "1", "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue(), out


def _check(experiment: str, keys: list, sets: dict, tmp_path) -> None:
    code, err, out = _run(experiment, sets, tmp_path)
    if code == 0:
        rows = parse_csv(out.read_text())
        assert rows or experiment == "SimulationVerify", sets
        for row in rows:
            assert 0.0 <= row.regret_minority <= row.regret_total < math.inf, (sets, row)
        return
    error = json.loads(err.strip().splitlines()[-1])
    if code == 4 and experiment == "SimulationVerify":
        assert error["error"] == "InsufficientDiversityError", (sets, error)
        return
    assert code == 2 and error["error"] == "ConfigError", (sets, code, error)
    # A list key may be named in the singular: "cannot run at T = 2 ... the horizon".
    assert any(key.rstrip("s") in error["message"] for key in keys), (sets, error)


@pytest.mark.parametrize("experiment", list(SCALE))
def test_each_hostile_value_exits_0_or_2_by_name(experiment, tmp_path):
    base, read = _base(experiment)
    for key in read:
        for value in HOSTILE + BOUNDARIES[key]:
            _check(experiment, [key], {**base, key: value}, tmp_path)


@pytest.mark.parametrize("experiment", list(SCALE))
def test_hostile_pairs_exit_0_or_2_by_name(experiment, tmp_path):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=hostile_pairs(experiment))
    def check(case):
        _check(experiment, *case, tmp_path)

    check()
