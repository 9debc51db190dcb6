"""The heuristic's construction as plain sets and dicts: the scalar reference.

`reference_iteration` admits users slot by slot, with a set of free slots and
a list of unserved users per admission, draws each one's slot from
`helpers.reference_pool`, and hands the swap phase a {user: (bs, prb)} dict.
`run_iteration` keeps the same state in arrays; the tests here hold it to the
reference bit for bit, dict order included.
"""

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli

from helpers import baseline, occupants, reference_pool, slots_of, three_cells


def reference_iteration(scenario, power_map, config, rng, improver):
    cfg = scenario.config
    order = improver.serve_order(rng)
    free = {(b, n) for b in range(1, cfg.num_bs + 1) for n in range(1, cfg.prbs_per_bs + 1)}
    slots = {}
    at_sinr = {}
    pool_sizes = []
    for user in order:
        if user in slots:
            continue  # already placed as someone's interferer
        unserved = [m for m in order if m not in slots and m != user]
        pool = reference_pool(user, slots, unserved, power_map, scenario)
        pool_sizes.append(len(pool))
        slot, interferer, sinr = pool[int(rng.integers(len(pool)))]
        b, n = slot
        slots[user] = slot
        free.discard(slot)
        at_sinr[user] = sinr
        if interferer is not None:
            co = min(w for w in range(1, cfg.num_bs + 1) if w != b and (w, n) in free)
            m = interferer
            slots[m] = (co, n)
            free.discard((co, n))
            heard = sum(float(power_map.q[k - 1, n - 1, co - 1])
                        for k, (_, p) in slots.items() if p == n and k != m)
            at_sinr[m] = float(power_map.q[m - 1, n - 1, co - 1]) / (heard + power_map.noise_w)
    assert len(slots) == cfg.num_users
    occ = occupants(slots, cfg)
    swaps = improver.improve(occ)
    slots = slots_of(occ, slots)
    final = ex.sinr_of(ex.Assignment(slots=slots), power_map)
    return heur.IterationTrace(
        serve_order=order,
        slots=slots,
        at_assignment_sinr=at_sinr,
        final_sinr=final,
        pool_sizes=pool_sizes,
        swaps=swaps,
    )


def assert_same_trace(trace, want):
    """Equal values in the same order; float equality is bit equality here."""
    assert trace.serve_order == want.serve_order
    assert list(trace.slots.items()) == list(want.slots.items())
    assert list(trace.at_assignment_sinr.items()) == list(want.at_assignment_sinr.items())
    assert trace.pool_sizes == want.pool_sizes
    assert trace.swaps == want.swaps
    assert list(trace.final_sinr.items()) == list(want.final_sinr.items())


def check_against_reference(sc, maps, seeds, prio):
    config = heur.HeuristicConfig(prioritization=prio)
    for pm in maps:
        search = heur.SwapSearch(sc, pm, config)
        reference_search = heur.SwapSearch(sc, pm, config)
        for s in seeds:
            trace = heur.run_iteration(sc, pm, config, np.random.default_rng(s), search)
            want = reference_iteration(sc, pm, config, np.random.default_rng(s), reference_search)
            assert_same_trace(trace, want)


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
def test_baseline_matches_reference(prio):
    sc, _ = baseline()
    maps = [channel.generate_power_map(sc, r) for r in range(3)]
    check_against_reference(sc, maps, range(20), prio)


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
def test_three_cells_match_reference(prio):
    sc, _ = three_cells()
    maps = [channel.generate_power_map(sc, r) for r in range(3)]
    check_against_reference(sc, maps, range(20), prio)


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
def test_200_users_match_reference(prio):
    cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=100, num_users=200, num_normal=197)
    sc, pm = channel.generate_scenario(cfg, dict(zip(cfg.op_ids, cli.REFERENCE_OP_PS.values())))
    check_against_reference(sc, [pm], range(2), prio)
