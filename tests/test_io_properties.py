"""Round-trip property tests of the scenario JSON and the power-map CSV.

Hypothesis draws the scenarios and the powers; `derandomize=True` keeps every
run on the same examples.
"""

import json
import math
import os
import tempfile
from dataclasses import asdict, fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prballoc import channel  # noqa: E402
from prballoc.errors import DataError, UsageError  # noqa: E402
from prballoc.medrecords import FEATURES, LEVEL_NAMES  # noqa: E402

from helpers import STATE  # noqa: E402

# No shrinking: a failure reports the example that found it at once.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])

# A path loss from -1113 to 1144 dB: a per-PRB power in TX_DBM then gives a mean
# received power within 1e-300 to 1e300 mW at every drawn distance.
DISTANCE = st.floats(1e-30, 1e30)
TX_DBM = st.floats(-1800.0, 1800.0)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# zero and subnormals drawn on purpose, next to every other non-negative finite float
POWERS = st.sampled_from([0.0, 5e-324, 1e-310]) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)


@st.composite
def scenarios(draw):
    num_bs, prbs = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    num_users = draw(st.integers(1, num_bs * prbs))
    lo = draw(DISTANCE)
    # The config admits dBm values that convert to finite positive watts, a per-PRB
    # power at most the cap, a noise power over the PRB that is finite and > 0, and
    # a mean received power at each distance that is finite and > 0.
    tx_dbm = draw(TX_DBM)
    bandwidth = draw(POSITIVE)
    density_lo = -3000.0 - 10.0 * math.log10(bandwidth)
    config = channel.ScenarioConfig(
        num_bs=num_bs,
        prbs_per_bs=prbs,
        num_users=num_users,
        num_normal=draw(st.integers(0, num_users - 1)),
        distance_min_m=lo,
        distance_max_m=draw(st.floats(lo, 1e30)),
        tx_power_per_prb_dbm=tx_dbm,
        max_power_per_connection_dbm=draw(st.floats(min_value=tx_dbm, max_value=3000.0)),
        noise_density_dbm_hz=draw(st.floats(density_lo, density_lo + 6000.0)),
        prb_bandwidth_hz=bandwidth,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    ops = st.sampled_from(config.op_ids)
    levels = st.fixed_dictionaries({f: st.sampled_from(LEVEL_NAMES[f]) for f in FEATURES})
    return channel.Scenario(
        config=config,
        op_ps=draw(st.dictionaries(ops, st.floats(0.0, 1.0))),
        current_states=draw(st.dictionaries(ops, levels)),
    )


@settings(PROPERTY, max_examples=200)
@given(scenarios())
def test_scenario_json_round_trip(scenario):
    back = channel.scenario_from_json(channel.scenario_to_json(scenario))
    assert repr(back.config) == repr(scenario.config)  # types and signed zeros too
    assert back.op_ps == scenario.op_ps
    assert back.current_states == scenario.current_states


# a bool is refused as a posterior, as in every config field
POSTERIOR = st.floats(-0.5, 1.5) | st.just(math.nan) | st.booleans()
# a full state, an unknown level, a missing feature, an extra key
STATES = st.sampled_from([STATE, {**STATE, "f1": "Bogus"}, {"f1": "Normal"},
                          {**STATE, "f5": "High"}])
# One config field's value recast as another kind: an int field takes an integer
# (numpy's too), a float field any finite real; bools, text, NaN and inf are refused.
KINDS = {
    "int": int, "bool": bool, "integral float": float, "str": str,
    "nan": lambda v: math.nan, "inf": lambda v: math.inf, "numpy int": np.int64,
}


@st.composite
def user_data(draw):
    """Config settings and per-user data, valid or not: one field drawn as any kind,
    keys over all users, posteriors in [-0.5, 1.5], NaN or a bool and current states with
    bad or missing levels."""
    num_bs, prbs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    num_users = draw(st.integers(1, num_bs * prbs))
    config_kw = asdict(channel.ScenarioConfig(
        num_bs=num_bs, prbs_per_bs=prbs, num_users=num_users,
        num_normal=draw(st.integers(0, num_users - 1))))
    if draw(st.booleans()):
        name = draw(st.sampled_from([f.name for f in fields(channel.ScenarioConfig)]))
        config_kw[name] = KINDS[draw(st.sampled_from(sorted(KINDS)))](config_kw[name])
    users = st.integers(1, num_users)
    states = st.dictionaries(users, STATES, max_size=2)
    return config_kw, draw(st.dictionaries(users, POSTERIOR)), draw(states)


@settings(PROPERTY, max_examples=300)
@given(user_data())
def test_constructor_and_parser_keep_one_rule(data):
    config_kw, op_ps, states = data
    # JSON has no numpy integers: the file holds the plain integer; a bool is JSON's own
    payload = {k: int(v) if isinstance(v, np.integer) else v for k, v in config_kw.items()}
    payload["op_ps"] = {str(k): v if isinstance(v, bool) else repr(v) for k, v in op_ps.items()}
    payload["current_states"] = {str(k): v for k, v in states.items()}
    try:
        built = channel.Scenario(config=channel.ScenarioConfig(**config_kw), op_ps=op_ps,
                                 current_states=states)
    except UsageError:
        built = None
    try:
        parsed = channel.scenario_from_json(json.dumps(payload))
    except DataError:
        parsed = None
    assert (built is None) == (parsed is None)
    if built is not None:
        assert channel.scenario_to_json(built) == channel.scenario_to_json(parsed)


@settings(PROPERTY, max_examples=100)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)), st.data())
def test_power_map_csv_round_trip_is_bit_equal(shape, data):
    cells = data.draw(st.lists(POWERS, min_size=math.prod(shape), max_size=math.prod(shape)))
    q = np.array(cells, dtype=float).reshape(shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "power_map.csv")
        channel.write_power_map_csv(channel.PowerMap(q=q, noise_w=1.0), path)
        back = channel.read_power_map_csv(path, 1.0)
    assert back.q.shape == q.shape
    assert back.q.tobytes() == q.tobytes()
