import itertools
import math

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, lp_export
from prballoc.errors import DataError, UsageError

from helpers import (LambdaTooSmallError, baseline, hand_instance, oracle_optimum,
                     random_instance, verify_linearization)


def two_users(config, weights):
    """The Objective of user 1, a normal user, and user 2, an outpatient, with `weights` set
    on it; weights default to 1."""
    cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=1, num_users=2, num_normal=1)
    objective = ex.Objective(channel.Scenario(config=cfg), config)
    objective.w[:2] = [{1: 1.0, 2: 1.0, **weights}[k] for k in (1, 2)]
    return objective


def scalar_term(weight, logged, pwl, s):
    """One term by the scalar rule: weight * SINR, or for a log user ln SINR (the minimum
    over the tangents of `pwl` when given), NaN at SINR 0."""
    if not logged:
        return weight * s
    if s == 0:
        return math.nan
    return math.log(s) if pwl is None else min(m * s + h for m, h in pwl.segments)


class TestPwlSpec:
    def test_tangency_and_envelope(self):
        pwl = ex.PwlSpec((0.5, 1.0, 5.0))
        objective = two_users(ex.SolverConfig("pf", pf_log_mode="piecewise", pwl=pwl), {})

        def value(s):  # user 1's PF terms at the SINRs s: the piecewise log
            return objective.terms(np.zeros(len(s), dtype=int), s)

        assert value(np.array([1.0])) == pytest.approx([0.0], abs=1e-15)
        s = np.linspace(0.05, 30, 200)
        assert (value(s) >= np.log(s) - 1e-12).all()
        points = np.array(pwl.tangent_points)
        assert value(points) == pytest.approx(np.log(points), abs=1e-12)

    def test_slopes_strictly_decreasing(self):
        pwl = ex.PwlSpec.default()
        slopes = [m for m, _ in pwl.segments]
        assert all(a > b > 0 for a, b in zip(slopes, slopes[1:]))
        assert pwl.tangent_points[0] == pytest.approx(0.1)
        assert pwl.tangent_points[-1] == pytest.approx(20.0)

    def test_validation(self):
        for points in [(), (0.0, 1.0), (-1.0, 1.0), (1.0, 1.0)]:  # empty, zero, negative, duplicate
            with pytest.raises(UsageError):
                ex.PwlSpec(points)


def objective_of(sinrs, weights, config):
    """Sum of Objective.terms over `sinrs`; user 1 is a normal user, user 2 an outpatient."""
    users, sinr = np.array(list(sinrs)) - 1, np.array(list(sinrs.values()))
    terms = two_users(config, weights).terms(users, sinr)
    return sum(terms.tolist())


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("make", [ex.SolverConfig, heur.HeuristicConfig],
                         ids=["solver", "heuristic"])
def test_objective_weights_are_the_configs(make, prio):
    sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps=cli.REFERENCE_OP_PS)
    config = make(prioritization=prio, alpha=100.0)
    objective = ex.Objective(sc, config)
    weights = ex.priorities_for(sc, config)
    assert objective.weights == weights
    assert objective.w.tolist() == [weights[k] for k in sc.config.user_ids] + [0.0]
    assert (objective.w[:-1] > 1.0).any() == prio


class TestObjectives:
    def test_wsrmax_plain_sum_when_off(self):
        sinrs = {1: 2.0, 2: 3.0}
        assert objective_of(sinrs, {1: 1.0, 2: 1.0}, ex.SolverConfig()) == 5.0

    def test_wsrmax_weighted_term(self):
        assert objective_of({1: 5.0}, {1: 4.2}, ex.SolverConfig()) == pytest.approx(21.0)

    def test_pf_all_ones_is_zero(self):
        cfg = ex.SolverConfig(objective="pf")
        sinrs = {1: 1.0, 2: 1.0}
        assert objective_of(sinrs, {1: 1.0, 2: 1.0}, cfg) == 0.0

    def test_pf_after_prioritization_mixes_terms(self):
        cfg = ex.SolverConfig(objective="pf", prioritization=True)
        sinrs = {1: 1.0, 2: 5.0}
        weights = {1: 1.0, 2: 2.04}
        assert objective_of(sinrs, weights, cfg) == pytest.approx(10.2)

    def test_pf_zero_sinr_undefined(self):
        cfg = ex.SolverConfig(objective="pf")
        assert math.isnan(objective_of({1: 0.0}, {1: 1.0}, cfg))
        with pytest.raises(DataError, match="zero SINR"):
            two_users(cfg, {}).value({1: 0.0})


# the three term rules: the weighted SINR, the exact log and the piecewise log
RULES = [("wsrmax", "exact_log"), ("pf", "exact_log"), ("pf", "piecewise")]
RULE_IDS = ["wsrmax", "pf-exact", "pf-piecewise"]


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("objective, mode", RULES, ids=RULE_IDS)
def test_terms_match_the_scalar_rule_bit_for_bit(objective, mode, prio):
    sc = channel.Scenario(config=channel.ScenarioConfig(), op_ps=cli.REFERENCE_OP_PS)
    config = ex.SolverConfig(objective, prio, pf_log_mode=mode)
    weights = ex.priorities_for(sc, config)
    rng = np.random.default_rng(5)
    # 0-based users, index 10 is nobody; enough log terms that np.log would differ in some
    users = rng.integers(0, 11, size=(4000, 3))
    sinr = rng.exponential(2.0, size=users.shape)
    sinr[rng.random(users.shape) < 0.2] = 0.0
    got = ex.Objective(sc, config).terms(users, sinr)
    want = [scalar_term(weights.get(u + 1, 0.0), objective == "pf" and u < 10
                        and not (prio and u + 1 in sc.config.op_ids), config.pwl, s)
            for u, s in zip(users.ravel().tolist(), sinr.ravel().tolist())]
    assert got.shape == users.shape
    assert [repr(t) for t in got.ravel().tolist()] == [repr(t) for t in want]
    assert np.isnan(got).any() == (objective == "pf")


@pytest.mark.parametrize("num_bs", [1, 2, 3])
def test_prb_options_sum_terms_in_user_order(num_bs):
    """Each user pick and BS order is one option, its occupant row with K for an empty BS; its
    total is its users' terms summed in user order by plain Python; a pick that leaves a log
    user at SINR 0 is dropped.  Option order is no part of the contract."""
    rng = np.random.default_rng(31)
    for _ in range(4):
        sc, pm = random_instance(rng, num_bs)
        pm.q[0, 0, 0] = 0.0  # user 1 has no power on (bs 1, prb 1)
        K = sc.config.num_users
        for (name, mode), prio in itertools.product(RULES, (False, True)):
            config = ex.SolverConfig(name, prio, pf_log_mode=mode)
            weights = ex.priorities_for(sc, config)
            objective = ex.Objective(sc, config)
            logged = {k: name == "pf" and not (prio and k in sc.config.op_ids)
                      for k in sc.config.user_ids}
            for n in range(sc.config.prbs_per_bs):
                want = []
                for size in range(num_bs + 1):
                    for users in itertools.combinations(range(1, K + 1), size):
                        for order in itertools.permutations(range(1, num_bs + 1), size):
                            slots = {k: (b, n + 1) for k, b in zip(users, order)}
                            sinrs = ex.sinr_of(ex.Assignment(slots=slots), pm)
                            total = 0.0
                            for k in users:
                                total += scalar_term(weights[k], logged[k], config.pwl, sinrs[k])
                            if not math.isnan(total):
                                row = [K] * num_bs
                                for k, b in zip(users, order):
                                    row[b - 1] = k - 1
                                want.append((sum(1 << (k - 1) for k in users), total, tuple(row)))
                assert sorted(ex._prb_options(n, pm, objective, num_bs)) == sorted(want)


class TestSinrOf:
    def test_spec_arithmetic_anchor(self):
        # 2e-13 W signal, one 5e-14 W interferer, 1.135e-14 W noise
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=1, num_users=2, num_normal=1)
        q = np.array([[[2e-13, 1e-15]], [[5e-14, 1e-13]]])
        pm = channel.PowerMap(q=q, noise_w=1.135e-14)
        assignment = ex.Assignment(slots={1: (1, 1), 2: (2, 1)})
        assert ex.sinr_of(assignment, pm)[1] == pytest.approx(3.260, abs=0.001)

    def test_no_interferer_and_scale_invariance(self):
        sc, pm = hand_instance()
        lone = ex.Assignment(slots={1: (1, 1)})
        assert ex.sinr_of(lone, pm) == {1: 4.0}
        both = ex.Assignment(slots={1: (1, 1), 2: (2, 1)})
        scaled = channel.PowerMap(q=pm.q * 7.0, noise_w=pm.noise_w * 7.0)
        assert ex.sinr_of(both, scaled) == pytest.approx(ex.sinr_of(both, pm), rel=1e-12)


class TestSolveExact:
    def test_hand_instance(self):
        sc, pm = hand_instance()
        assignment, report = ex.solve_exact(sc, pm, ex.SolverConfig())
        assert assignment.slots == {1: (1, 1), 2: (2, 1)}
        assert report.objective_value == 16.0 / 3.0

    def test_single_user_takes_argmax_slot(self):
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=2, num_normal=1)
        sc = channel.Scenario(config=cfg)
        rng = np.random.default_rng(0)
        q = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        q[0, 1, 0] = 9.0
        q[1] = 1e-9  # second user negligible, so user 1 dominates the objective
        pm = channel.PowerMap(q=q, noise_w=1.0)
        assignment, report = ex.solve_exact(sc, pm, ex.SolverConfig())
        assert assignment.slots[1] == (1, 2)
        assert report.sinr[1] == pytest.approx(9.0, rel=1e-6)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for i in range(12):
            sc, pm = random_instance(rng)
            for objective in ("wsrmax", "pf"):
                for prio in (False, True):
                    config = ex.SolverConfig(objective=objective, prioritization=prio)
                    _, report = ex.solve_exact(sc, pm, config)
                    want = oracle_optimum(sc, pm, config)[0]
                    assert report.objective_value == pytest.approx(want, rel=1e-12)

    def test_matches_oracle_on_three_cell_instances(self):
        # the DP places up to 3 users per PRB in every BS order; N <= 2, K <= 5
        rng = np.random.default_rng(29)
        shapes = set()
        for i in range(10):
            sc, pm = random_instance(rng, num_bs=3)
            shapes.add(pm.q.shape[:2])
            for objective in ("wsrmax", "pf"):
                for prio in (False, True):
                    config = ex.SolverConfig(objective=objective, prioritization=prio)
                    assignment, report = ex.solve_exact(sc, pm, config)
                    value, slots = oracle_optimum(sc, pm, config)
                    assert report.objective_value == pytest.approx(value, rel=1e-12)
                    assert assignment.slots == slots
        assert any(k > 2 * n for k, n in shapes)  # some PRB serves all three BSs

    def test_matches_oracle_assignment_including_tie_break(self):
        rng = np.random.default_rng(23)
        for i in range(8):
            sc, pm = random_instance(rng)
            assignment, report = ex.solve_exact(sc, pm, ex.SolverConfig())
            value, slots = oracle_optimum(sc, pm, ex.SolverConfig())
            assert assignment.slots == slots
            assert report.objective_value == pytest.approx(value, rel=1e-14)

    def test_tie_break_lexicographic(self):
        # symmetric instance: every assignment on distinct PRBs scores the same
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=2, num_normal=1)
        sc = channel.Scenario(config=cfg)
        pm = channel.PowerMap(q=np.full((2, 2, 2), 1.0), noise_w=1.0)
        assignment, _ = ex.solve_exact(sc, pm, ex.SolverConfig())
        _, slots = oracle_optimum(sc, pm, ex.SolverConfig())
        assert assignment.slots == slots == {1: (1, 1), 2: (1, 2)}

    def test_report_recomputes(self):
        sc, _ = baseline(5)
        pm = channel.generate_power_map(sc, 0)
        config = ex.SolverConfig(objective="pf", prioritization=True)
        assignment, report = ex.solve_exact(sc, pm, config)
        redo = ex.evaluate_assignment(assignment, pm, sc, config)
        assert report.objective_value == pytest.approx(redo.objective_value, rel=1e-12)
        used = set(assignment.slots.values())
        assert len(used) == len(assignment.slots)  # no slot shared

    def test_alpha_monotonicity_on_fixed_map(self):
        sc, _ = baseline(8)
        pm = channel.generate_power_map(sc, 0)
        weighted = []
        for alpha in cli.DEFAULT_ALPHAS:
            config = ex.SolverConfig(objective="wsrmax", prioritization=True, alpha=alpha)
            _, report = ex.solve_exact(sc, pm, config)
            weighted.append(sum(sc.ps_of(k) * report.sinr[k] for k in sc.config.op_ids))
        assert all(b >= a - 1e-12 for a, b in zip(weighted, weighted[1:]))

    def test_config_validation(self):
        with pytest.raises(UsageError):
            ex.SolverConfig(objective="maxmin")
        with pytest.raises(UsageError, match="pf_log_mode 'bogus'"):
            ex.SolverConfig(pf_log_mode="bogus")
        # the piecewise log without tangents takes the default ones
        assert ex.SolverConfig(objective="pf", pf_log_mode="piecewise").pwl == ex.PwlSpec.default()
        # tangents with the exact log would be ignored by the DP
        with pytest.raises(UsageError, match="PwlSpec"):
            ex.SolverConfig("pf", True, pf_log_mode="exact_log", pwl=ex.PwlSpec.default())


class TestLinearization:
    def test_deviation_tiny_and_lambda_detection(self):
        sc, _ = baseline(6)
        pm = channel.generate_power_map(sc, 0)
        assignment, report = ex.solve_exact(sc, pm, ex.SolverConfig())
        assert verify_linearization(assignment, pm) < 1e-9
        max_t = max(report.sinr.values())
        with pytest.raises(LambdaTooSmallError):
            verify_linearization(assignment, pm, lam=max_t * 0.5)

    def test_evaluates_the_balance_rows(self, monkeypatch):
        sc, _ = baseline()
        pm = channel.generate_power_map(sc, 0)
        assignment, _ = ex.solve_exact(sc, pm, ex.SolverConfig())
        assert verify_linearization(assignment, pm) < 1e-9
        balance_row = lp_export.balance_row

        def heard_at_own_bs(power_map, k, n, b):
            phis, x_coef = balance_row(power_map, k, n, b)
            own = [(m, w, float(power_map.q[m - 1, n - 1, w - 1]) / power_map.noise_w) for m, w, _ in phis]
            return own, x_coef

        monkeypatch.setattr(lp_export, "balance_row", heard_at_own_bs)
        assert verify_linearization(assignment, pm) > 1e-3

    def test_no_interferers_degenerates(self):
        sc, pm = hand_instance()
        lone = ex.Assignment(slots={1: (1, 1)})
        assert verify_linearization(lone, pm) == 0.0

    def test_default_lambda_dominates(self):
        sc, _ = baseline(6)
        pm = channel.generate_power_map(sc, 0)
        assert lp_export.big_m(pm) > float(pm.q.max()) / pm.noise_w
