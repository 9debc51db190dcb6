"""Round-trip property tests of the scenario JSON and the power-map CSV.

Hypothesis draws the scenarios and the powers; `derandomize=True` keeps every
run on the same examples.
"""

import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prballoc import channel  # noqa: E402

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
    distances = None
    if draw(st.booleans()):
        cells = draw(st.lists(DISTANCE, min_size=num_users * num_bs, max_size=num_users * num_bs))
        distances = np.array(cells).reshape(num_users, num_bs)
    ops = st.sampled_from(config.op_ids)
    levels = st.dictionaries(st.sampled_from(["f1", "f2", "f3", "f4"]), st.text(max_size=8))
    return channel.Scenario(
        config=config,
        distances=distances,
        op_ps=draw(st.dictionaries(ops, st.floats(0.0, 1.0))),
        current_states=draw(st.dictionaries(ops, levels)),
    )


@settings(PROPERTY, max_examples=200)
@given(scenarios())
def test_scenario_json_round_trip(scenario):
    back = channel.scenario_from_json(channel.scenario_to_json(scenario))
    assert repr(back.config) == repr(scenario.config)  # types and signed zeros too
    if scenario.distances is None:
        assert back.distances is None
    else:
        assert back.distances.tobytes() == scenario.distances.tobytes()
    assert back.op_ps == scenario.op_ps
    assert back.current_states == scenario.current_states


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
