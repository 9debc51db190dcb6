"""Differential property tests of the exact solver, the SINR kernel and the
heuristic's bound.

Hypothesis draws the instance shapes and the seed of the powers; the powers
themselves come from numpy, continuous and, where asked, with exact zeros, so
that no two assignments tie except by construction.
`derandomize=True` keeps every run on the same examples.
"""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prballoc import allocator_exact as ex  # noqa: E402
from prballoc import allocator_heuristic as heur  # noqa: E402
from prballoc import channel  # noqa: E402
from prballoc.errors import InfeasibleError  # noqa: E402

from helpers import oracle_optimum, oracle_sinrs  # noqa: E402

# No shrinking: a failure reports the example that found it at once, rather than
# re-running the oracle through minutes of shrink steps.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])

# (max PRBs, max users) per BS count; the oracle walks every injective map
SHAPES = {2: (3, 6), 3: (2, 5), 4: (2, 5)}
EXAMPLES = {2: 40, 3: 30, 4: 15}


@st.composite
def instances(draw, num_bs, zero_share=0.0, max_ops=1):
    """A scenario whose last users, one up to max_ops, are outpatients, and a random
    power map."""
    max_prbs, max_users = SHAPES[num_bs]
    N = max_prbs - draw(st.integers(0, max_prbs - 1))  # drawn down from the largest shape
    K = min(max_users, num_bs * N)
    K -= draw(st.integers(0, K - 2))
    ops = draw(st.integers(1, min(max_ops, K - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = channel.ScenarioConfig(num_bs=num_bs, prbs_per_bs=N, num_users=K, num_normal=K - ops)
    scenario = channel.Scenario(
        config=cfg, op_ps={k: float(rng.uniform(0.001, 0.01)) for k in cfg.op_ids}
    )
    q = rng.uniform(0.05, 5.0, size=(K, N, num_bs))
    q[rng.random(q.shape) < zero_share] = 0.0
    return scenario, channel.PowerMap(q=q, noise_w=float(rng.uniform(0.5, 2.0)))


def check_against_oracle(scenario, pm, config, log=math.log):
    want = oracle_optimum(scenario, pm, config, log)
    if want is None:
        with pytest.raises(InfeasibleError):
            ex.solve_exact(scenario, pm, config)
        return
    assignment, report = ex.solve_exact(scenario, pm, config)
    assert assignment.slots == want[1]
    # placement order, PRB by PRB, in which the objective is summed
    slots = assignment.slots
    assert list(slots) == sorted(slots, key=lambda k: (slots[k][1], k))
    assert report.objective_value == pytest.approx(want[0], rel=1e-12, abs=1e-12)


SETTINGS = [(objective, prio) for objective in ("wsrmax", "pf") for prio in (False, True)]


@pytest.mark.parametrize("num_bs", sorted(SHAPES))
@pytest.mark.parametrize("objective, prio", SETTINGS)
def test_dp_equals_oracle(num_bs, objective, prio):
    config = ex.SolverConfig(objective=objective, prioritization=prio)

    @settings(PROPERTY, max_examples=EXAMPLES[num_bs])
    @given(instances(num_bs))
    def check(instance):
        check_against_oracle(*instance, config)

    check()


@pytest.mark.parametrize("num_bs", [2, 3])
@pytest.mark.parametrize("prio", [False, True])
def test_pf_with_zero_powers_prunes_like_oracle(num_bs, prio):
    """Zero powers leave some users at zero SINR: the DP's PF prune must skip
    exactly the assignments the oracle skips, and fail when none is left."""
    config = ex.SolverConfig(objective="pf", prioritization=prio)

    @settings(PROPERTY, max_examples=2 * EXAMPLES[num_bs])
    @given(instances(num_bs, zero_share=0.4))
    def check(instance):
        check_against_oracle(*instance, config)

    check()


@pytest.mark.parametrize("num_bs", [2, 3])
@pytest.mark.parametrize("prio", [False, True])
def test_piecewise_pf_equals_oracle(num_bs, prio):
    """Piecewise PF maximises the tangent-line envelope of ln: the DP equals the
    oracle whose log term is the minimum over the tangents s/p + ln p - 1."""

    @settings(PROPERTY, max_examples=EXAMPLES[num_bs])
    @given(instances(num_bs),
           st.lists(st.floats(0.01, 50.0), min_size=1, max_size=6, unique=True))
    def check(instance, points):
        config = ex.SolverConfig(objective="pf", prioritization=prio, pf_log_mode="piecewise",
                                 pwl=ex.PwlSpec(tuple(points)))
        check_against_oracle(
            *instance, config, log=lambda s: min(s / p + math.log(p) - 1 for p in points)
        )

    check()


@pytest.mark.parametrize("num_bs", [2, 3])
@pytest.mark.parametrize("prio", [False, True])
def test_heuristic_stays_at_or_below_optimum(num_bs, prio):
    """Every heuristic iteration ends in a feasible assignment, so its weighted
    SINR sum never exceeds the WSRMax optimum under the same weights."""
    solver = ex.SolverConfig(objective="wsrmax", prioritization=prio, alpha=ex.DEFAULT_ALPHA)
    config = heur.HeuristicConfig(prioritization=prio, alpha=ex.DEFAULT_ALPHA)

    @settings(PROPERTY, max_examples=EXAMPLES[num_bs])
    @given(instances(num_bs, max_ops=3), st.integers(0, 2**32 - 1))
    def check(instance, seed):
        scenario, pm = instance
        _, optimum = ex.solve_exact(scenario, pm, solver)
        weights = optimum.priorities
        assert ex.priorities_for(scenario, config) == weights
        search = heur.SwapSearch(scenario, pm, config)
        for i in range(10):
            trace = heur.run_iteration(scenario, pm, config, np.random.default_rng([seed, i]),
                                       search)
            value = sum(weights[k] * s for k, s in trace.final_sinr.items())
            assert value <= optimum.objective_value * (1 + 1e-12)

    check()


@settings(PROPERTY, max_examples=60)
@given(num_bs=st.integers(2, 3), data=st.data())
def test_sinr_of_bit_equal_to_direct_loop(num_bs, data):
    """Up to two interferers, the kernel's BS-order sum is exact: bit-equal SINRs."""
    scenario, pm = data.draw(instances(num_bs, zero_share=0.2))
    cfg = scenario.config
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    slots = list(itertools.product(range(1, cfg.num_bs + 1), range(1, cfg.prbs_per_bs + 1)))
    users = rng.permutation(cfg.num_users)[: data.draw(st.integers(0, cfg.num_users))] + 1
    picked = rng.permutation(len(slots))[: len(users)]
    assignment = ex.Assignment(slots={int(k): slots[i] for k, i in zip(users, picked)})
    got = ex.sinr_of(assignment, pm)
    assert list(got.items()) == list(oracle_sinrs(assignment.slots, pm).items())
    assert all(type(s) is float for s in got.values())


def lagrangian_bound(scenario, pm, config, prices):
    """L(λ) = Σλ + Σ over PRBs of the best column state's value less its users' prices λ.

    A column state puts one user or nobody at each BS of a PRB; its SINRs, weights and log
    rule are written out here.  The empty state is worth 0, so every PRB's best is finite.
    Any assignment that serves each user once is worth Σλ plus its columns' (value − λ), so
    L(λ) bounds it from above (weak duality), whatever the prices.
    """
    cfg = scenario.config
    users = list(cfg.user_ids)
    ops = set(cfg.op_ids) if config.prioritization else set()
    weights = {k: 1.0 + config.alpha * scenario.ps_of(k) if k in ops else 1.0 for k in users}
    logged = {k for k in users if config.objective == "pf" and k not in ops}
    bound = sum(prices.values())
    for n in range(cfg.prbs_per_bs):
        best = 0.0  # nobody at any BS
        for row in itertools.product([None, *users], repeat=cfg.num_bs):
            placed = {k: b for b, k in enumerate(row) if k is not None}
            if len(placed) < len(row) - row.count(None):
                continue  # a user at two BSs
            value = 0.0
            for k, b in placed.items():
                interference = sum(pm.q[m - 1, n, b] for m, w in placed.items() if w != b)
                sinr = pm.q[k - 1, n, b] / (interference + pm.noise_w)
                if k not in logged:
                    value += weights[k] * sinr
                else:
                    value += math.log(sinr) if sinr > 0 else -math.inf
                value -= prices[k]
            best = max(best, value)
        bound += best
    return bound


@pytest.mark.parametrize("num_bs", [2, 3])
@pytest.mark.parametrize("objective, prio", SETTINGS)
def test_lagrangian_bound_above_optimum_and_heuristic(num_bs, objective, prio):
    """L(λ), at zero prices and at prices Hypothesis draws, is at least the DP optimum and,
    under WSRMax, at least every heuristic iteration's objective: a certificate that trusts
    neither the DP nor its option table."""
    config = ex.SolverConfig(objective=objective, prioritization=prio)
    heuristic = heur.HeuristicConfig(prioritization=prio, alpha=config.alpha)

    @settings(PROPERTY, max_examples=EXAMPLES[num_bs])
    @given(instances(num_bs, max_ops=3), st.integers(0, 2**32 - 1), st.data())
    def check(instance, seed, data):
        scenario, pm = instance
        users = scenario.config.user_ids
        drawn = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=len(users),
                                   max_size=len(users)))
        bounds = [lagrangian_bound(scenario, pm, config, dict(zip(users, prices)))
                  for prices in ([0.0] * len(users), drawn)]
        values = [ex.solve_exact(scenario, pm, config)[1].objective_value]
        if objective == "wsrmax":
            search = heur.SwapSearch(scenario, pm, heuristic)
            for i in range(10):
                trace = heur.run_iteration(scenario, pm, heuristic,
                                           np.random.default_rng([seed, i]), search)
                values.append(ex.Objective(scenario, config).value(trace.final_sinr))
        for bound in bounds:
            for value in values:
                assert bound >= value - 1e-12 * abs(value)

    check()
