import json
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, lp_export
from prballoc.errors import DataError, InfeasibleError, UsageError

from helpers import STATE, baseline, op_ps_entry


def recompute(cfg, realization):
    """(distances, gains, q) of one realization, redrawn with plain numpy.

    Draw order: distances, then the Exp(1) gains; powers from the dBm budget,
    128 + 37.6*log10(d_km) path loss, in watts.
    """
    rng = np.random.default_rng(channel.derive_seed(cfg.seed, 1, realization))
    distances = rng.uniform(cfg.distance_min_m, cfg.distance_max_m,
                            size=(cfg.num_users, cfg.num_bs))
    gains = rng.exponential(1.0, size=(cfg.num_users, cfg.prbs_per_bs, cfg.num_bs))
    loss_db = 128.0 + 37.6 * np.log10(distances / 1000.0)
    q = gains * 10.0 ** ((cfg.tx_power_per_prb_dbm - 30.0 - loss_db) / 10.0)[:, None, :]
    return distances, gains, q


class TestConversions:
    def test_path_loss_anchors(self):
        assert channel.path_loss_db(1000.0) == pytest.approx(128.0, abs=1e-12)
        assert channel.path_loss_db(100.0) == pytest.approx(90.4, abs=1e-12)
        assert channel.path_loss_db(300.0) == pytest.approx(108.34, abs=0.01)

    def test_path_loss_monotone(self):
        ds = np.linspace(10, 2000, 50)
        losses = [channel.path_loss_db(d) for d in ds]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_path_loss_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            channel.path_loss_db(0.0)

    def test_dbm_anchors_and_round_trip(self):
        assert channel.dbm_to_mw(0.0) == 1.0
        assert channel.dbm_to_mw(30.0) == pytest.approx(1000.0, rel=1e-12)
        for x in (-20.0, 0.0, 17.0, 23.0):
            assert 10.0 * math.log10(channel.dbm_to_mw(x)) == pytest.approx(x, abs=1e-12)

    def test_noise_power_anchors(self):
        assert channel.noise_power_w(-30.0, 1.0) == pytest.approx(1e-6, rel=1e-12)
        assert channel.noise_power_w(-162.0, 180000.0) == pytest.approx(1.135e-14, rel=0.005)
        one = channel.noise_power_w(-162.0, 180000.0)
        assert channel.noise_power_w(-162.0, 360000.0) == pytest.approx(2 * one, rel=1e-12)
        with pytest.raises(ValueError):
            channel.noise_power_w(-162.0, 0.0)

    def test_received_power_anchors(self):
        # Every user 300 m from both BSs: q / gain is the unit-gain power there.
        cfg = channel.ScenarioConfig(seed=6, distance_min_m=300.0, distance_max_m=300.0)
        pm = channel.generate_power_map(channel.Scenario(config=cfg), realization=2)
        distances, gains, _ = recompute(cfg, 2)
        assert (distances == 300.0).all()
        ratio = pm.q / gains
        assert ratio == pytest.approx(7.34e-13, rel=0.01)
        assert ratio == pytest.approx(ratio[0, 0, 0], rel=1e-12)  # linear in the gain


class TestFading:
    def test_deterministic_nonnegative_unit_mean(self):
        # 10^6 gains, read back from one map by dividing out the path loss.
        cfg = channel.ScenarioConfig(seed=5, num_users=1000, num_normal=997, prbs_per_bs=500)
        sc, pm = channel.generate_scenario(cfg)
        again = channel.generate_power_map(sc, realization=0)
        assert np.array_equal(pm.q, again.q)
        distances, drawn, _ = recompute(cfg, 0)
        loss_db = 128.0 + 37.6 * np.log10(distances / 1000.0)
        gains = pm.q / (10.0 ** ((17.0 - 30.0 - loss_db) / 10.0))[:, None, :]
        np.testing.assert_allclose(gains, drawn, rtol=1e-12, atol=0)
        assert (gains >= 0).all()
        assert 0.997 <= gains.mean() <= 1.003


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert channel.derive_seed(42, 1, 2) == channel.derive_seed(42, 1, 2)
        seen = {channel.derive_seed(42, i) for i in range(100)}
        assert len(seen) == 100


class TestScenarioConfig:
    def test_defaults_match_baseline(self):
        cfg = channel.ScenarioConfig()
        assert (cfg.num_bs, cfg.prbs_per_bs, cfg.num_users, cfg.num_normal) == (2, 5, 10, 7)
        assert cfg.op_ids == (8, 9, 10)
        assert cfg.user_ids == tuple(range(1, 11))
        assert cfg.noise_w == pytest.approx(1.135e-14, rel=0.005)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            channel.ScenarioConfig(num_users=11)

    def test_bad_split_rejected(self):
        with pytest.raises(UsageError):
            channel.ScenarioConfig(num_normal=10)

    @pytest.mark.parametrize("field, value", [
        ("num_bs", 0), ("prbs_per_bs", -2), ("num_users", 0), ("num_normal", -1),
        ("tx_power_per_prb_dbm", 1e308), ("max_power_per_connection_dbm", -1e308),
        ("prb_bandwidth_hz", 0.0), ("noise_density_dbm_hz", 1e308),
        ("noise_density_dbm_hz", -1e308),
        # the mean received power overflows at 1e-300 m and 1e-322 m, and is 0 W at 1e200 m
        ("distance_min_m", 1e-300), ("distance_min_m", 1e-322), ("distance_max_m", 1e200),
    ])
    def test_bad_count_or_power_rejected(self, field, value):
        with pytest.raises(UsageError, match=field):
            channel.ScenarioConfig(**{field: value})

    def test_refused_where_every_map_entry_is_0_w(self):
        """At 2.3e90 m, 300 dBm less the path loss is 5.2e-315 W in the dB domain, but a map
        scales 1e30 mW by an attenuation of 5e-342, which is 0.0 as a float: refused."""
        with pytest.raises(UsageError, match="mean received power"):
            channel.ScenarioConfig(tx_power_per_prb_dbm=300.0, max_power_per_connection_dbm=300.0,
                                   distance_min_m=2.3e90, distance_max_m=2.3e90)

    def test_power_above_cap_infeasible(self):
        with pytest.raises(InfeasibleError, match="cap"):
            channel.ScenarioConfig(tx_power_per_prb_dbm=23.5)

    @pytest.mark.parametrize("field, value", [
        ("prbs_per_bs", 5.0), ("num_bs", True), ("num_bs", "5"), ("seed", None),
        ("noise_density_dbm_hz", math.nan), ("prb_bandwidth_hz", math.inf),
        ("distance_min_m", False), ("tx_power_per_prb_dbm", "17.0"),
        # the other configs' fields, by the same rule
        ("SolverConfig.prioritization", "no"), ("SolverConfig.pwl", (1.0, 2.0)),
        ("SolverConfig.alpha", "5"), ("HeuristicConfig.prioritization", 1),
        ("HeuristicConfig.seed", 1.5), ("HeuristicConfig.iterations", 2.5),
        ("HeuristicConfig.iterations", True), ("HeuristicConfig.alpha", True),
        pytest.param("HeuristicConfig.alpha", 10**400, id="HeuristicConfig.alpha-huge-int"),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value):
        """The type rule comes before every other, with the message a scenario file gets."""
        config, _, field = field.rpartition(".")
        make = {"": channel.ScenarioConfig, "SolverConfig": ex.SolverConfig,
                "HeuristicConfig": heur.HeuristicConfig}[config]
        with pytest.raises(UsageError, match=f"{field} must be a {'' if config else 'finite'}"):
            make(**{field: value})

    def test_numpy_numbers_accepted_as_plain_ones(self):
        cfg = channel.ScenarioConfig(prbs_per_bs=np.int64(5), seed=np.int64(3),
                                     distance_max_m=np.float64(600.0),
                                     tx_power_per_prb_dbm=np.float32(17.0))
        assert cfg == channel.ScenarioConfig(seed=3)
        assert [type(getattr(cfg, f.name)) for f in fields(cfg)] == [int] * 4 + [float] * 6 + [int]
        # an integer in a float field stays whole, as 300 in a scenario file does
        assert type(channel.ScenarioConfig(distance_min_m=np.int64(300)).distance_min_m) is int
        scenario, pm = channel.generate_scenario(cfg, op_ps=cli.REFERENCE_OP_PS)
        assert channel.scenario_to_json(scenario) == channel.scenario_to_json(baseline()[0])
        assert pm.q.shape == (10, 5, 2)

    def test_frozen(self):
        cfg = channel.ScenarioConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.num_users = 11
        assert cfg.num_users == 10


class TestScenario:
    """`Scenario` checks its per-user data when built, in code as from a file."""

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"op_ps": {3: 0.5}}, "op_ps names user 3", id="ps-normal-user"),
        pytest.param({"op_ps": {11: 0.5}}, "op_ps names user 11", id="ps-unknown-user"),
        pytest.param({"op_ps": {3: 0.5}}, re.escape("op_ps names user 3, which is not an"
                     " outpatient (users 8-10)"), id="ps-normal-user-message"),
        # scenario_to_json would write "8.0" and "True", which no scenario file may hold
        pytest.param({"op_ps": {8.0: 0.5}}, "op_ps names user 8.0, which is not an integer",
                     id="ps-float-key"),
        pytest.param({"op_ps": {True: 0.5}}, "op_ps names user True, which is not an integer",
                     id="ps-bool-key"),
        pytest.param({"current_states": {8.0: STATE}}, "current_states names user 8.0",
                     id="state-float-key"),
        pytest.param({"op_ps": {8: 1.5}}, "outside", id="ps-above-one"),
        pytest.param({"op_ps": {8: -0.1}}, "outside", id="ps-negative"),
        pytest.param({"op_ps": {8: math.nan}}, "outside", id="ps-nan"),
        pytest.param({"op_ps": {8: True}}, "op_ps of user 8 is True", id="ps-bool"),
        pytest.param({"current_states": {3: STATE}}, "current_states names user 3",
                     id="state-normal-user"),
        pytest.param({"current_states": {8: {**STATE, "f1": "Bogus"}}},
                     "outpatient 8: unknown level 'Bogus' for f1", id="state-unknown-level"),
        pytest.param({"current_states": {9: {"f1": "Normal"}}}, "outpatient 9: want exactly",
                     id="state-only-f1"),
        pytest.param({"current_states": {9: {**STATE, "f5": "High"}}},
                     "outpatient 9: want exactly", id="state-extra-key"),
        pytest.param({"current_states": {10: None}}, "outpatient 10", id="state-none"),
    ])
    def test_bad_user_data_rejected(self, fields, message):
        with pytest.raises(UsageError, match=message):
            channel.Scenario(config=channel.ScenarioConfig(), **fields)
        valid = channel.Scenario(config=channel.ScenarioConfig(), op_ps=dict(cli.REFERENCE_OP_PS),
                                 current_states={8: STATE})
        with pytest.raises(UsageError, match=message):
            replace(valid, **fields)

    def test_numpy_ids_stored_as_ints(self):
        sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps={np.int64(8): 0.5},
                              current_states={np.int32(9): STATE})
        assert [type(k) for k in (*sc.op_ps, *sc.current_states)] == [int, int]
        assert channel.scenario_from_json(channel.scenario_to_json(sc)) == sc

    def test_million_user_file_parses_in_constant_memory(self):
        # every user an outpatient: each key is checked against num_normal and num_users,
        # not against a set of every outpatient id
        text = json.dumps({"num_bs": 2, "prbs_per_bs": 500_000, "num_users": 10**6,
                           "num_normal": 0, "op_ps": {"1000000": "0.5"}})
        tracemalloc.start()
        try:
            sc = channel.scenario_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sc.op_ps == {10**6: 0.5}
        assert peak < 1 << 20

    def test_read_only_maps_over_copies(self):
        op_ps, state = dict(cli.REFERENCE_OP_PS), dict(STATE)
        sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps=op_ps,
                              current_states={8: state})
        with pytest.raises(FrozenInstanceError):
            sc.op_ps = {3: 0.5}
        with pytest.raises(TypeError):
            sc.op_ps[8] = 5.0
        with pytest.raises(TypeError):
            sc.current_states[9] = STATE
        with pytest.raises(TypeError):
            sc.current_states[8]["f1"] = "Bogus"
        op_ps[8], state["f1"] = 5.0, "Bogus"  # the caller's dicts are not the scenario's
        assert sc.op_ps == cli.REFERENCE_OP_PS and sc.current_states == {8: STATE}
        changed = replace(sc, op_ps={**sc.op_ps, 8: 0.5})
        assert changed.op_ps[8] == 0.5 and sc.op_ps[8] == cli.REFERENCE_OP_PS[8]


def test_every_allocator_refuses_a_mismatched_map():
    """A map built in code for 5 of the scenario's 10 users is a DataError everywhere."""
    scenario, pm = baseline()
    small = channel.PowerMap(q=pm.q[:5], noise_w=pm.noise_w)
    assignment, _ = ex.solve_exact(scenario, pm, ex.SolverConfig())
    calls = {
        "solve_exact": lambda: ex.solve_exact(scenario, small, ex.SolverConfig()),
        "evaluate_assignment": lambda: ex.evaluate_assignment(
            assignment, small, scenario, ex.SolverConfig()),
        "run_iteration": lambda: heur.run_iteration(
            scenario, small, heur.HeuristicConfig(iterations=1), np.random.default_rng(0)),
        "SwapSearch": lambda: heur.SwapSearch(scenario, small, heur.HeuristicConfig()),
        "run_heuristic": lambda: heur.run_heuristic(
            scenario, [pm, small], heur.HeuristicConfig(iterations=1)),
        "milp_rows": lambda: lp_export.milp_rows(scenario, small, ex.SolverConfig()),
        "export_milp": lambda: lp_export.export_milp(scenario, small, ex.SolverConfig()),
    }
    for call in calls.values():
        with pytest.raises(DataError, match=r"\(5, 5, 2\) do not match the scenario's"):
            call()


class TestGeneration:
    def test_cardinality_positivity_and_determinism(self):
        _, pm1 = baseline(42)
        _, pm2 = baseline(42)
        assert pm1.q.shape == (10, 5, 2)
        assert (pm1.q > 0).all()
        assert np.array_equal(pm1.q, pm2.q)

    def test_entries_bounded_by_closest_distance(self):
        cfg = channel.ScenarioConfig(seed=1)
        sc, pm = channel.generate_scenario(cfg)
        _, gains, _ = recompute(cfg, 0)
        bound = 10.0 ** ((17.0 - 30.0 - channel.path_loss_db(300.0)) / 10.0) * gains.max()
        assert pm.q.max() <= bound * (1 + 1e-12)

    def test_round_trip_against_componentwise_recomputation(self):
        for cfg in (
            channel.ScenarioConfig(seed=3),
            channel.ScenarioConfig(seed=3, num_bs=3, num_users=12, num_normal=9),
            channel.ScenarioConfig(seed=3, prbs_per_bs=100, num_users=200, num_normal=197),
        ):
            sc, _ = channel.generate_scenario(cfg)
            for r in (0, 1, 7):
                pm = channel.generate_power_map(sc, realization=r)
                _, _, q = recompute(cfg, r)
                np.testing.assert_allclose(pm.q, q, rtol=1e-12, atol=0)

    def test_power_map_holds_one_per_slot_array(self):
        # q is the only (K, N, B) array a generated map keeps.
        _, pm = channel.generate_scenario(channel.ScenarioConfig(seed=3))
        arrays = {f.name for f in fields(pm) if isinstance(getattr(pm, f.name), np.ndarray)}
        assert arrays == {"q"}

    def test_realizations_differ_and_are_reproducible(self):
        sc, _ = channel.generate_scenario(channel.ScenarioConfig(seed=9))
        pm0 = channel.generate_power_map(sc, realization=0)
        pm1 = channel.generate_power_map(sc, realization=1)
        again = channel.generate_power_map(sc, realization=1)
        assert not np.array_equal(pm0.q, pm1.q)
        assert not np.array_equal(recompute(sc.config, 0)[0], recompute(sc.config, 1)[0])
        assert np.array_equal(pm1.q, again.q)

    def test_distances_within_range(self):
        cfg = channel.ScenarioConfig(seed=4)
        _, pm = channel.generate_scenario(cfg)
        distances, _, q = recompute(cfg, 0)
        np.testing.assert_allclose(pm.q, q, rtol=1e-12, atol=0)  # the map's own distances
        assert (distances >= 300.0).all() and (distances <= 600.0).all()


class TestSerialization:
    def test_scenario_json_round_trip(self):
        cfg = channel.ScenarioConfig(seed=11)
        sc = channel.Scenario(config=cfg, op_ps=dict(cli.REFERENCE_OP_PS),
                              current_states={8: STATE})
        back = channel.scenario_from_json(channel.scenario_to_json(sc))
        assert back.config == sc.config
        assert back.op_ps == sc.op_ps
        assert back.current_states == sc.current_states

    def test_scenario_json_without_distances(self):
        sc, _ = baseline(11)
        back = channel.scenario_from_json(channel.scenario_to_json(sc))
        assert np.array_equal(
            channel.generate_power_map(back, 3).q, channel.generate_power_map(sc, 3).q
        )

    def test_json_number_posteriors_read_as_floats(self):
        sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps=dict(cli.REFERENCE_OP_PS))
        payload = json.loads(channel.scenario_to_json(sc))
        payload["op_ps"] = {"8": 0.5, "9": 1, "10": 0}
        back = channel.scenario_from_json(json.dumps(payload))
        assert back.op_ps == {8: 0.5, 9: 1.0, 10: 0.0}
        assert {type(ps) for ps in back.op_ps.values()} == {float}

    @pytest.mark.parametrize("old, new, message", [
        pytest.param(op_ps_entry(8), '"8": true', "op_ps of user 8 is True", id="ps-bool"),
        pytest.param(op_ps_entry(8), '"8": "0.1", "8": "0.7"', "key '8' given twice",
                     id="ps-repeated-user"),
        pytest.param("{", '{"seed": 4, ', "key 'seed' given twice", id="repeated-field"),
        pytest.param('"f1": "Normal"', '"f1": "High", "f1": "Normal"', "key 'f1' given twice",
                     id="state-repeated-feature"),
        pytest.param(op_ps_entry(8), op_ps_entry(8, "08"), "op_ps names user '08'",
                     id="ps-zero-padded-id"),
        pytest.param(op_ps_entry(8), op_ps_entry(8) + ', "08": "0.7"', "op_ps names user '08'",
                     id="ps-id-in-two-spellings"),
        pytest.param(op_ps_entry(10), op_ps_entry(10, "1_0"), "op_ps names user '1_0'",
                     id="ps-underscored-id"),
        pytest.param('"8": {', '"+8": {', "current_states names user '+8'",
                     id="state-signed-id"),
        pytest.param('"8": {', '" 8": {', "current_states names user ' 8'",
                     id="state-spaced-id"),
    ])
    def test_file_names_each_value_once_in_one_spelling(self, old, new, message):
        sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps=dict(cli.REFERENCE_OP_PS),
                              current_states={8: STATE})
        text = channel.scenario_to_json(sc)
        assert old in text
        with pytest.raises(DataError, match=re.escape(message)):
            channel.scenario_from_json(text.replace(old, new, 1))

    def test_power_map_csv_round_trip_lossless(self, tmp_path):
        sc, pm = channel.generate_scenario(channel.ScenarioConfig(seed=2))
        path = tmp_path / "pm.csv"
        channel.write_power_map_csv(pm, path)
        back = channel.read_power_map_csv(path, sc.config.noise_w)
        assert np.array_equal(back.q, pm.q)
