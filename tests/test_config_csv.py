"""Config text parsing/validation and CSV result serialization."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditsim.config import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    convert_value,
    defaults_table,
    dumps_defaults,
    parse_config,
)
from banditsim.csvio import HEADER, ResultRow, emit_csv
from banditsim.experiments import EXPERIMENT_SPECS, keys_read
from oracles import parse_csv


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("experiment = GreedyVsLinUCB")
        assert cfg.replicates == 200
        assert cfg.master_seed == 20260814
        assert cfg.ridge == 1.0
        assert cfg.batch == 200
        assert cfg.horizons == (20000,)
        assert cfg.policies == ("batch_bayes_greedy", "batch_freq_greedy", "linucb")
        assert cfg.restriction == "minority"
        assert cfg.restriction_p == 0.5

    def test_two_bridge_defaults_disable_ridge(self):
        cfg = parse_config("experiment = TwoBridgeLinUCB")
        assert "ridge" not in keys_read(cfg)
        assert cfg.horizons == (10000, 40000, 160000)
        assert cfg.policies == ("linucb",)
        assert parse_config("experiment = TwoBridgeImpossibility").noise == "bernoulli"

    @pytest.mark.parametrize("experiment", ["TwoBridgeLinUCB", "TwoBridgeImpossibility"])
    def test_two_bridge_rejects_nonzero_ridge(self, experiment):
        # Two-bridge LinUCB uses the ridge-free closed-form bound: no ridge is read.
        for ridge in ("5", "0"):
            with pytest.raises(ConfigError, match=f"{experiment} does not read key 'ridge'"):
                parse_config(f"experiment = {experiment}\nridge = {ridge}")

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            """
            # pick the experiment
            experiment = ScalingFit   # trailing comment
            replicates = 7
            """
        )
        assert cfg.experiment == "ScalingFit"
        assert cfg.replicates == 7

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="unknown key 'horizon' on line 2"):
            parse_config("experiment = ScalingFit\nhorizon = 100")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="duplicate key 'replicates' on line 3"):
            parse_config("experiment = ScalingFit\nreplicates = 1\nreplicates = 2")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("experiment ScalingFit")

    def test_malformed_int(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_config("experiment = ScalingFit\nreplicates = soon")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("replicates = 5")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="TwoBridgeLinUC"):
            parse_config("experiment = TwoBridgeLinUC")

    def test_negative_rho_rejected_by_name(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("experiment = ScalingFit\nrho = -0.1")

    def test_rho_above_norm_cap_rejected(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("experiment = ScalingFit\nrho = 0.8")

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigError, match="policies"):
            parse_config("experiment = ScalingFit\npolicies = ,")

    def test_policy_allowlist_per_experiment(self):
        with pytest.raises(ConfigError, match="batch_bayes_greedy"):
            parse_config("experiment = TwoBridgeLinUCB\npolicies = batch_bayes_greedy")
        with pytest.raises(ConfigError, match="oracle"):
            parse_config("experiment = ScalingFit\npolicies = oracle")
        with pytest.raises(ConfigError, match="uniform_random"):
            parse_config("experiment = ExternalityVanishing\npolicies = uniform_random")
        # Each two-bridge experiment allows one name for LinUCB on the simulated rounds alone.
        for experiment, policy in (("TwoBridgeLinUCB", "linucb_minority"), ("TwoBridgeImpossibility", "linucb")):
            with pytest.raises(ConfigError, match=rf"policies must be one of \(.*\), got '{policy}' on {experiment}$"):
                parse_config(f"experiment = {experiment}\npolicies = {policy}")

    def test_externality_needs_minority_mass(self):
        with pytest.raises(ConfigError, match="minority_prob"):
            parse_config("experiment = ExternalityVanishing\nminority_prob = 0.0")

    def test_two_group_catalog_needs_two_entries(self):
        with pytest.raises(ConfigError, match="catalog_size"):
            parse_config("experiment = ExternalityVanishing\ncatalog_size = 1")
        with pytest.raises(ConfigError, match="catalog_size"):
            parse_config("experiment = ScalingFit\nminority_prob = 0.2\ncatalog_size = 1")
        assert parse_config("experiment = ExternalityVanishing\ncatalog_size = 2").catalog_size == 2
        assert parse_config("experiment = ScalingFit\ncatalog_size = 1").catalog_size == 1

    def test_two_group_catalog_needs_two_dimensions(self):
        # Each group's entries lean towards their own axis: axes 0 and 1.
        with pytest.raises(ConfigError, match="d of at least 2"):
            parse_config("experiment = ExternalityVanishing\nd = 1\nrho = 0.5")
        with pytest.raises(ConfigError, match="d of at least 2"):
            parse_config("experiment = ScalingFit\nd = 1\nrho = 0.5\nminority_prob = 0.2")
        assert parse_config("experiment = ScalingFit\nd = 1\nrho = 0.5").d == 1

    def test_unused_c0_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'c0'"):
            parse_config("experiment = ScalingFit\nc0 = 2")

    def test_eig_growth_needs_two_dimensions(self):
        with pytest.raises(ConfigError, match="d = 2"):
            parse_config("experiment = EigGrowth\nd = 3\nrho = 0.3")
        assert parse_config("experiment = ScalingFit\nd = 3\nrho = 0.3").d == 3

    @pytest.mark.parametrize("text, message", [
        ("rho = 0", "rho must be positive"),
        ("horizons = 200", "first horizon must be at least batch"),
        ("horizons = 2\nbatch = 1", "batch must be at least d"),
    ], ids=["no-perturbation", "no-full-batch", "batch-below-d"])
    def test_audit_needs_a_full_diverse_batch(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f"experiment = SimulationVerify\n{text}")
        # LinUCB cannot run at T = 2, so the control runs greedy only.
        control = f"experiment = ScalingFit\npolicies = batch_freq_greedy\n{text}"
        assert parse_config(control).experiment == "ScalingFit"

    @pytest.mark.parametrize("experiment", ["GreedyVsLinUCB", "ExternalityVanishing"])
    def test_comparator_experiments_take_one_horizon(self, experiment):
        with pytest.raises(ConfigError, match=f"{experiment} takes one horizon"):
            parse_config(f"experiment = {experiment}\nhorizons = 400, 410\nbatch = 20")
        assert parse_config(f"experiment = {experiment}\nhorizons = 400\nbatch = 20").horizons == (400,)
        assert parse_config("experiment = ScalingFit\nhorizons = 400, 410, 420").horizons == (400, 410, 420)

    # The audit's batch ends at one horizon, and EigGrowth's checks read one.
    @pytest.mark.parametrize("experiment", ["SimulationVerify", "EigGrowth"])
    def test_checked_experiments_take_one_horizon(self, experiment):
        with pytest.raises(ConfigError, match=f"{experiment} takes one horizon"):
            parse_config(f"experiment = {experiment}\nhorizons = 2000, 4000")
        assert parse_config(f"experiment = {experiment}\nhorizons = 4000").horizons == (4000,)

    def test_duplicate_horizons_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            parse_config("experiment = ScalingFit\nhorizons = 100, 100, 200")

    def test_restriction_validation(self):
        cfg = parse_config(
            "experiment = ScalingFit\nrestriction = coin\nrestriction_p = 0.25"
        )
        assert cfg.restriction == "coin"
        assert cfg.restriction_p == 0.25
        with pytest.raises(ConfigError, match="restriction"):
            parse_config("experiment = ScalingFit\nrestriction = weekends")
        with pytest.raises(ConfigError, match="restriction_p"):
            parse_config("experiment = ScalingFit\nrestriction = coin\nrestriction_p = 1.0")

    def test_width_floor_key_removed(self):
        # The two-bridge width floor 2 sqrt(ln T) never exceeded S, so the key changed nothing.
        with pytest.raises(ConfigError, match="unknown key 'enforce_width_floor'"):
            parse_config("experiment = TwoBridgeLinUCB\nenforce_width_floor = false")

    def test_overrides_take_precedence(self):
        cfg = parse_config(
            "experiment = ScalingFit\nreplicates = 5",
            overrides={"replicates": 9, "master_seed": 123},
        )
        assert cfg.replicates == 9
        assert cfg.master_seed == 123
        assert cfg.policies == ("linucb", "batch_bayes_greedy", "batch_freq_greedy")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config("experiment = ScalingFit", overrides={"horizon": 100})

    def test_default_experiment_only_fills_gaps(self):
        cfg = parse_config("batch = 300", default_experiment="SimulationVerify")
        assert cfg.experiment == "SimulationVerify"
        named = parse_config(
            "experiment = ScalingFit", default_experiment="SimulationVerify"
        )
        assert named.experiment == "ScalingFit"


class TestKeysRead:
    def test_keys_read_follow_the_policies(self):
        assert parse_config("experiment = ScalingFit\npolicies = batch_freq_greedy\nbatch = 50").batch == 50
        assert parse_config("experiment = GreedyVsLinUCB\npolicies = linucb\nbatch = 50").batch == 50
        assert parse_config("experiment = TwoBridgeLinUCB\npolicies = batch_freq_greedy\nbatch = 50").batch == 50
        cfg = parse_config("experiment = ExternalityVanishing\nrestriction = coin\nrestriction_p = 0.25")
        assert cfg.restriction_p == 0.25

    def test_settable_pairs(self):
        # Every allowed policy and restriction = coin: the most keys each experiment reads.
        counts = {
            name: len(keys_read(ExperimentConfig(name, policies=spec.policies, restriction="coin"))) - 1
            for name, spec in EXPERIMENT_SPECS.items()
        }
        assert counts == {
            "TwoBridgeLinUCB": 10, "TwoBridgeImpossibility": 8, "GreedyVsLinUCB": 15, "ScalingFit": 15,
            "ExternalityVanishing": 15, "SimulationVerify": 13, "EigGrowth": 14,
        }


def _render(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


# Values each key may take whatever the others hold, within the spec defaults.
READ_VALUES = {
    "master_seed": st.integers(0, 2**64 - 1),
    "replicates": st.integers(1, 10**6),
    "batch": st.integers(4, 50),
    "n_actions": st.integers(2, 64),
    "rho": st.floats(1e-3, 0.5),
    "catalog_size": st.integers(2, 10**4),
    "catalog_seed": st.integers(0, 2**64 - 1),
    "prior_scale": st.floats(1e-100, 1e100, exclude_max=True),
    "minority_prob": st.floats(1e-9, 1.0, exclude_max=True),
    "noise": st.sampled_from(["gaussian", "bernoulli"]),
    "theta_variant": st.sampled_from(["theta0", "theta1"]),
    "population": st.sampled_from(["full", "minority"]),
    "ridge": st.floats(1e-100, 1e300),
    "n_targets": st.integers(1, 10**6),
    "sim_draws": st.integers(10, 10**9),
    "restriction_p": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
}


@st.composite
def named_values(draw):
    """An experiment and values for a subset of the keys it reads."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    spec = EXPERIMENT_SPECS[experiment]
    values = {"experiment": experiment}
    if draw(st.booleans()):
        values["policies"] = tuple(draw(st.lists(st.sampled_from(spec.policies), min_size=1, unique=True)))
    if draw(st.booleans()):
        values["restriction"] = draw(st.sampled_from(["minority", "coin"]))
    if draw(st.booleans()):
        one = spec.comparator or spec.lambda_checks or spec.family == "audit"
        values["horizons"] = tuple(draw(st.lists(st.integers(10**4, 10**6), min_size=1,
                                                 max_size=1 if one else 4, unique=True)))
    if draw(st.booleans()) and experiment != "EigGrowth":
        values["d"] = draw(st.integers(2, 4))
    read = keys_read(ExperimentConfig(**{**spec.defaults, **values}))
    values = {k: v for k, v in values.items() if k in read}
    for key in sorted(read & READ_VALUES.keys()):
        if draw(st.booleans()):
            values[key] = draw(READ_VALUES[key])
    return values


class TestConfigRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=named_values())
    def test_round_trip_property(self, values):
        text = "".join(f"{key} = {_render(value)}\n" for key, value in values.items())
        spec = EXPERIMENT_SPECS[values["experiment"]]
        assert parse_config(text) == ExperimentConfig(**{**spec.defaults, **values})


class TestConvertValue:
    def test_typed_conversions(self):
        assert convert_value("replicates", "12") == 12
        assert convert_value("rho", "0.25") == 0.25
        assert convert_value("horizons", "100, 200") == (100, 200)
        assert convert_value("policies", "linucb, oracle") == ("linucb", "oracle")
        assert convert_value("noise", "gaussian") == "gaussian"

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            convert_value("horizon", "100")

    def test_malformed_value(self):
        with pytest.raises(ConfigError):
            convert_value("replicates", "twelve")


class TestDefaults:
    def test_table_covers_every_experiment(self):
        table = defaults_table()
        assert set(table["experiments"]) == set(EXPERIMENTS)
        assert table["global"]["replicates"] == 200

    def test_dump_is_json(self):
        parsed = json.loads(dumps_defaults())
        assert parsed["global"]["master_seed"] == 20260814

    def test_field_names_match_keys(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert "experiment" in names
        assert "restriction_p" in names
        defaults = defaults_table()["global"]
        assert set(defaults) == set(names) - {"experiment"}


def _row(policy="linucb", horizon=100, replicate=0, total=1.0) -> ResultRow:
    return ResultRow(
        experiment="ScalingFit",
        policy=policy,
        horizon=horizon,
        replicate=replicate,
        seed=42,
        regret_total=total,
        regret_minority=total / 2,
        regret_prediction=total / 4,
        theta_draw_id=replicate,
    )


def _bits(row: ResultRow) -> tuple:
    """A row with its floats as hex, so that -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308])
ROWS = st.lists(
    st.builds(
        ResultRow,
        experiment=st.sampled_from(EXPERIMENTS),
        policy=st.sampled_from(["linucb", "linucb_full", "batch_bayes_greedy", "oracle"]),
        horizon=st.integers(2, 10**7),
        replicate=st.integers(0, 10**5),
        seed=st.integers(0, 2**64 - 1),
        regret_total=FINITE,
        regret_minority=FINITE,
        regret_prediction=FINITE,
        theta_draw_id=st.integers(0, 10**5),
    ),
    max_size=12,
)


class TestCsv:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=ROWS)
    def test_round_trip_property(self, rows):
        parsed = parse_csv(emit_csv(rows))
        assert [_bits(r) for r in parsed] == [_bits(r) for r in sorted(rows, key=ResultRow.sort_key)]

    def test_header_only(self):
        assert emit_csv([]) == ",".join(HEADER) + "\n"

    def test_single_row(self):
        text = emit_csv([_row(total=1 / 3)])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "0.33333333333333331" in lines[1]

    def test_rows_sorted_on_emit(self):
        rows = [
            _row(policy="linucb", horizon=200, replicate=1),
            _row(policy="batch_freq_greedy", horizon=100, replicate=0),
            _row(policy="linucb", horizon=100, replicate=2),
            _row(policy="linucb", horizon=100, replicate=0),
        ]
        parsed = parse_csv(emit_csv(rows))
        keys = [(r.policy, r.horizon, r.replicate) for r in parsed]
        assert keys == sorted(keys)

    def test_round_trip_is_exact(self):
        rows = [_row(replicate=i, total=(i + 1) * 0.1234567890123456789) for i in range(5)]
        parsed = parse_csv(emit_csv(rows))
        assert parsed == sorted(rows, key=ResultRow.sort_key)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("policy,T\nlinucb,100\n")

    def test_malformed_row_rejected(self):
        text = emit_csv([_row()])
        broken = text + "linucb,100\n"
        with pytest.raises(ValueError, match="malformed"):
            parse_csv(broken)
