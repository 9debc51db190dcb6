import collections
import csv
import dataclasses
import itertools
import math
import statistics
import warnings

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli
from prballoc.errors import InfeasibleError, UsageError

from helpers import baseline, occupants, reference_pool, slots_of, three_cells


def layout(num_bs):
    """The seed-3 baseline's scenario at 2 BSs, else a small 3- or 4-BS layout."""
    if num_bs == 2:
        return baseline()[0]
    if num_bs == 3:
        return three_cells()[0]
    cfg = channel.ScenarioConfig(num_bs=4, prbs_per_bs=3, num_users=10, num_normal=7, seed=2)
    return channel.generate_scenario(cfg, op_ps=cli.REFERENCE_OP_PS)[0]


class TestServeOrder:
    def test_op_prefix_sorted_by_priority(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=True, alpha=100.0)
        order = heur.SwapSearch(sc, pm, config).serve_order(np.random.default_rng(0).random(7))
        # UP at alpha=100: u9 1.64, u8 1.32, u10 1.208
        assert order[:3] == [9, 8, 10]
        assert sorted(order[3:]) == [1, 2, 3, 4, 5, 6, 7]

    def test_off_is_full_permutation(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=False)
        keys = np.random.default_rng(1).random(10)
        a = heur.SwapSearch(sc, pm, config).serve_order(keys)
        b = heur.SwapSearch(sc, pm, config).serve_order(keys)
        assert a == b
        assert sorted(a) == list(range(1, 11))

    def test_orders_vary_across_draws(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=False)
        search = heur.SwapSearch(sc, pm, config)
        draws = np.random.default_rng(2).random((20, 10))
        orders = {tuple(search.serve_order(keys)) for keys in draws}
        assert len(orders) > 1


def occupancy(free, pm):
    """The (N, B) occupants of pm's slots: nobody on the 0-based (bs, prb) slots `free`,
    the last user on every other slot."""
    num_users, num_prbs, num_bs = pm.q.shape
    occ = np.full((num_prbs, num_bs), num_users - 1)
    for bs, prb in free:
        occ[prb, bs] = num_users
    return occ


def draw(free, candidates, pm, u=0.0):
    """best_sinr_pool at the uniform u; candidates as a list of occupant indices."""
    return heur.best_sinr_pool(occupancy(free, pm), np.array(candidates, dtype=int), pm, u)


UNIFORMS = np.arange(10) / 10  # ten evenly spaced uniforms in [0, 1)


class TestPool:
    """The drawn slot and interferer.  The SINRs they give are checked through
    `run_iteration`'s at_assignment_sinr: against the scalar reference in
    test_heuristic_reference.py and in test_at_assignment_sinrs_at_unit_powers."""

    def test_one_entry_per_free_slot(self):
        sc, pm = baseline()
        free = {(0, 0), (1, 0), (1, 2), (0, 4)}
        drawn = {draw(free, range(1, 10), pm, u)[0] for u in UNIFORMS}
        assert drawn == free

    def test_argmin_interferer(self):
        sc, pm = baseline()
        free = {(0, 0), (1, 0)}
        for u in UNIFORMS:
            (b, n), interferer = draw(free, [1, 2], pm, u)
            cands = {m: float(pm.q[m, n, b]) for m in (1, 2)}
            assert interferer == min(cands, key=cands.get)

    def test_ties_go_to_the_lowest_id(self):
        pm = channel.PowerMap(q=np.ones((4, 1, 2)), noise_w=1.0)
        for u in UNIFORMS:
            _, interferer = draw({(0, 0), (1, 0)}, [0, 1, 2], pm, u)
            assert interferer == 0

    def test_no_candidates_is_interference_free(self):
        sc, pm = baseline()
        free = {(0, 0), (1, 0)}
        for u in UNIFORMS:
            _, interferer = draw(free, [], pm, u)
            assert interferer is None

    def test_no_free_slot_errors(self):
        sc, pm = baseline()
        with pytest.raises(InfeasibleError):
            draw(set(), [1], pm)

    def test_no_co_channel_free_slot_counts_its_holder(self):
        sc, pm = baseline()
        for u in UNIFORMS:
            _, interferer = draw({(0, 0), (1, 1)}, [1, 2], pm, u)
            assert interferer is None


class TestSemiGreedyPick:
    """The pool pick: one uniform over the free slots."""

    def test_singleton_and_determinism(self):
        sc, pm = baseline()
        assert {draw({(1, 2)}, [1], pm, u)[0] for u in UNIFORMS} == {(1, 2)}
        free = {(b, n) for b in (0, 1) for n in range(5)}
        assert draw(free, [1, 2], pm, 0.5) == draw(free, [1, 2], pm, 0.5)

    def test_uniformity(self):
        sc, pm = baseline()
        occ = occupancy({(0, n) for n in range(4)}, pm)
        none = np.array([], dtype=int)
        counts = [0, 0, 0, 0]
        n = 100_000
        for u in np.random.default_rng(42).random(n):
            (_, prb), _ = heur.best_sinr_pool(occ, none, pm, u)
            counts[prb] += 1
        for c in counts:
            assert abs(c / n - 0.25) < 0.01

    @pytest.mark.parametrize("num_bs", [2, 3])
    @pytest.mark.parametrize("with_candidates", [True, False], ids=["candidates", "alone"])
    def test_draw_is_the_reference_pool_entry(self, num_bs, with_candidates):
        """The entry picked is the scalar reference pool's slot and interferer at the
        same uniform, as 0-based indices."""
        cfg = channel.ScenarioConfig(
            num_bs=num_bs, prbs_per_bs=4, num_users=4 * num_bs, num_normal=4 * num_bs - 2, seed=1
        )
        sc, pm = channel.generate_scenario(cfg)
        setup = np.random.default_rng(num_bs)
        for _ in range(200):
            free = setup.random((cfg.prbs_per_bs, num_bs)) < setup.uniform(0.1, 0.9)
            free.flat[setup.integers(free.size)] = True
            occ = np.where(free, cfg.num_users, setup.permutation(cfg.num_users).reshape(free.shape))
            user = int(setup.integers(1, cfg.num_users + 1))
            others = [m for m in cfg.user_ids if m != user] if with_candidates else []
            candidates = sorted(m for m in others if setup.random() < 0.5)
            u = setup.random()
            got = heur.best_sinr_pool(occ, np.array(candidates, dtype=int) - 1, pm, u)
            held = {k + 1: (b + 1, n + 1)
                    for (n, b), k in np.ndenumerate(occ) if k < cfg.num_users}
            pool = reference_pool(user, held, candidates, pm, sc)
            (b, n), m = pool[int(u * len(pool))][:2]  # 1-based ids
            assert got == ((b - 1, n - 1), None if m is None else m - 1)


class TestObjective:
    def test_swap_search_takes_the_configs_weights(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=True)
        objective = heur.SwapSearch(sc, pm, config).objective
        assert not objective.log.any()
        assert objective.weights == ex.priorities_for(sc, config)
        assert objective.weights != ex.priorities_for(sc, heur.HeuristicConfig())

    @pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
    def test_pf_is_refused(self, prio):
        sc, pm = baseline()
        config = ex.SolverConfig(objective="pf", prioritization=prio)
        with pytest.raises(UsageError):
            heur.SwapSearch(sc, pm, config)
        with pytest.raises(UsageError):
            heur.run_iteration(sc, pm, config, np.random.default_rng(0))

    def test_the_objective_is_a_constant_not_a_field(self):
        assert (heur.HeuristicConfig.objective, heur.HeuristicConfig.pwl) == ("wsrmax", None)
        with pytest.raises(TypeError):
            heur.HeuristicConfig(objective="pf")

    @pytest.mark.parametrize("config, name", [
        (heur.HeuristicConfig(), "objective"), (heur.HeuristicConfig(), "iterations"),
        (ex.SolverConfig(), "objective"), (ex.SolverConfig("pf", pf_log_mode="piecewise"), "pwl"),
        (ex.PwlSpec.default(), "segments"),
    ])
    def test_configs_are_frozen(self, config, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, None)


class TestRunIteration:
    def test_feasible_and_saturating(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=True)
        trace = heur.run_iteration(sc, pm, config, np.random.default_rng(1))
        assert sorted(trace.slots) == list(range(1, 11))
        assert len(set(trace.slots.values())) == 10
        assert sorted(trace.serve_order) == list(range(1, 11))

    def test_prioritized_outpatients_may_share_a_prb(self):
        """The heuristic searches the DP's feasible set: with prioritization on,
        both outpatients may take PRB 1, where each is strong at its own BS."""
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=2, num_normal=0)
        sc = channel.Scenario(config=cfg, op_ps={1: 0.003, 2: 0.006})
        q = np.full((2, 2, 2), 0.01)  # (user, prb, bs)
        q[0, 0, 0] = q[1, 0, 1] = 10.0
        q[:, 1, :] = 0.1
        pm = channel.PowerMap(q=q, noise_w=1.0)
        config = heur.HeuristicConfig(prioritization=True)
        _, optimum = ex.solve_exact(sc, pm, ex.SolverConfig(prioritization=True))
        weights = optimum.priorities
        best = max(
            sum(weights[k] * s for k, s in trace.final_sinr.items())
            for trace in (
                heur.run_iteration(sc, pm, config, np.random.default_rng(i)) for i in range(20)
            )
        )
        assert best == pytest.approx(optimum.objective_value, rel=1e-12)
        assert optimum.objective_value == pytest.approx(64.356, abs=1e-3)

    def test_at_assignment_sinrs_at_unit_powers(self):
        """Unit powers and noise on 2 BSs x 2 PRBs: the first admitted user takes
        the lowest-id other user as its interferer (a tie) and both read 1/2; the
        last user, with no candidate left, is alone on the other PRB and reads 1."""
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=3, num_normal=2)
        sc = channel.Scenario(config=cfg)
        pm = channel.PowerMap(q=np.ones((3, 2, 2)), noise_w=1.0)
        for seed in range(10):
            trace = heur.run_iteration(sc, pm, heur.HeuristicConfig(), np.random.default_rng(seed))
            first = trace.serve_order[0]
            partner, last = sorted(set(cfg.user_ids) - {first})
            assert list(trace.at_assignment_sinr.items()) == [(first, 0.5), (partner, 0.5),
                                                              (last, 1.0)]
            assert trace.pool_sizes == [4, 2]

    def test_final_sinrs_match_recomputation(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(prioritization=False)
        trace = heur.run_iteration(sc, pm, config, np.random.default_rng(3))
        recomputed = ex.sinr_of(ex.Assignment(slots=trace.slots), pm)
        for k, s in trace.final_sinr.items():
            assert s == pytest.approx(recomputed[k], rel=1e-12)


def csv_rows(report, tmp_path):
    """write_heuristic_csv's rows in file order: user -> [n, mean, sd, ci_low, ci_high],
    an empty cell as None."""
    path = tmp_path / "heur.csv"
    heur.write_heuristic_csv(report, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["user", "n", "mean", "sd", "ci_low", "ci_high"]
    return {int(row[0]): [int(row[1])] + [float(c) if c else None for c in row[2:]]
            for row in rows}


class TestRunHeuristic:
    def test_no_power_map_is_a_usage_error(self):
        sc, _ = baseline()
        with pytest.raises(UsageError, match="at least one power map"):
            heur.run_heuristic(sc, [], heur.HeuristicConfig(iterations=1))

    def test_single_file_single_iteration_is_that_trace(self, tmp_path):
        sc, pm = baseline()
        config = heur.HeuristicConfig(iterations=1, seed=7)
        report = heur.run_heuristic(sc, [pm], config)
        rng = np.random.default_rng(channel.derive_seed(7, 2, 0))
        trace = heur.run_iteration(sc, pm, config, rng)
        rows = csv_rows(report, tmp_path)
        assert rows.keys() == trace.final_sinr.keys()
        for k, (n, mean, sd, _, _) in rows.items():
            assert n == 1
            assert mean == pytest.approx(trace.final_sinr[k], rel=1e-15)
            assert sd is None

    def test_deterministic_given_seed(self):
        sc, pm = baseline()
        config = heur.HeuristicConfig(iterations=20, seed=9)
        a = heur.run_heuristic(sc, [pm, pm], config)
        b = heur.run_heuristic(sc, [pm, pm], config)
        assert a.per_file_means == b.per_file_means

    def test_ci_width_formula(self, tmp_path):
        sc, _ = baseline()
        pms = [channel.generate_power_map(sc, i) for i in range(5)]
        config = heur.HeuristicConfig(iterations=10, seed=1)
        report = heur.run_heuristic(sc, pms, config)
        for n, _, sd, ci_low, ci_high in csv_rows(report, tmp_path).values():
            assert n == 5
            assert ci_high - ci_low == pytest.approx(2 * 1.96 * sd / np.sqrt(5), rel=1e-12)

    def test_dominance_against_exact(self):
        sc, _ = baseline()
        config = heur.HeuristicConfig(iterations=50, prioritization=True, alpha=500.0, seed=2)
        solver = ex.SolverConfig(objective="wsrmax", prioritization=True, alpha=500.0)
        for i in range(3):
            pm = channel.generate_power_map(sc, i)
            _, best = ex.solve_exact(sc, pm, solver)
            _, objectives = heur.run_file(sc, pm, config, file_index=i)
            assert max(objectives) <= best.objective_value + 1e-9

    def test_csv_output(self, tmp_path):
        """Each user's row, in id order, is the file count and the mean, sample SD and 95% CI
        of its per-file means, computed here with `statistics`."""
        sc, _ = baseline()
        pms = [channel.generate_power_map(sc, i) for i in range(3)]
        report = heur.run_heuristic(sc, pms, heur.HeuristicConfig(iterations=2))
        rows = csv_rows(report, tmp_path)
        assert list(rows) == list(sc.config.user_ids)
        for k, row in rows.items():
            values = [means[k] for means in report.per_file_means]
            mean, sd = statistics.fmean(values), statistics.stdev(values)
            half = 1.96 * sd / math.sqrt(len(values))
            assert row == pytest.approx([3, mean, sd, mean - half, mean + half], rel=1e-12)


class _Rows:
    """A Generator's stand-in that hands out the rows of `rows`, one per `random` call."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def random(self, size):
        row = next(self.rows)
        assert row.shape == (size,)
        return row


class TestDrawContract:
    """A heuristic file reads its own stream, one row of 2K uniforms per iteration."""

    def test_map_and_heuristic_seeds_are_disjoint(self, monkeypatch):
        """Over the acceptance fixture's ranges (seed 3, 100 maps, 100 files of 1000
        iterations), no power map's Generator shares its seed with a heuristic one."""
        sc, _ = baseline()
        seeds, make = [], np.random.default_rng

        def recording(seed=None):
            seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        maps = [channel.generate_power_map(sc, r) for r in range(100)]
        map_seeds = set(seeds)
        seeds.clear()
        # the seeds do not depend on what an iteration computes, so none is computed
        monkeypatch.setattr(heur, "run_iteration", lambda scenario, *_: heur.IterationTrace(
            [], {}, {}, dict.fromkeys(scenario.config.user_ids, 1.0), [], 0))
        heur.run_heuristic(sc, maps, heur.HeuristicConfig(iterations=1000, seed=3))
        assert len(map_seeds) == 100 and seeds
        assert map_seeds.isdisjoint(seeds)

    def test_an_iteration_draws_one_row(self):
        """run_iteration leaves its Generator where one `random(2K)` call leaves a twin."""
        for sc, pm in (baseline(), three_cells()):
            for prio in (False, True):
                rng, twin = np.random.default_rng(5), np.random.default_rng(5)
                heur.run_iteration(sc, pm, heur.HeuristicConfig(prioritization=prio), rng)
                twin.random(2 * sc.config.num_users)
                assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
    def test_a_file_reads_its_stream_row_by_row(self, prio):
        """run_file's iteration `it` is run_iteration on row `it` of one (I, 2K) draw
        from the file's stream, `derive_seed(seed, 2, file_index)`."""
        sc, _ = baseline()
        pm = channel.generate_power_map(sc, 1)
        config = heur.HeuristicConfig(iterations=6, prioritization=prio, seed=3)
        _, objectives = heur.run_file(sc, pm, config, file_index=1)
        stream = np.random.default_rng(channel.derive_seed(3, 2, 1))
        rows = _Rows(stream.random((config.iterations, 2 * sc.config.num_users)))
        search = heur.SwapSearch(sc, pm, config)
        traces = [heur.run_iteration(sc, pm, config, rows, search)
                  for _ in range(config.iterations)]
        assert objectives == [search.objective.value(t.final_sinr) for t in traces]

    def test_serve_orders_are_uniform(self):
        """At K=4 with prioritization off, every user is in the shuffled rest, and 2400
        iterations' serve orders spread over the 24 permutations: chi-square below 49.73,
        its 0.999 quantile at 23 degrees of freedom."""
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=4, num_normal=3, seed=1)
        sc, pm = channel.generate_scenario(cfg)
        config = heur.HeuristicConfig()
        search = heur.SwapSearch(sc, pm, config)
        rows = _Rows(np.random.default_rng(0).random((2400, 8)))
        counts = collections.Counter(
            tuple(heur.run_iteration(sc, pm, config, rows, search).serve_order)
            for _ in range(2400))
        want = 2400 / 24
        chi2 = sum((counts[p] - want) ** 2 / want for p in itertools.permutations(cfg.user_ids))
        assert chi2 < 49.73


class _Unchanged(heur.SwapSearch):
    """A search that leaves the construction as it is."""

    def improve(self, occ):
        return 0


def weighted_objective(slots, pm, weights):
    sinrs = ex.sinr_of(ex.Assignment(slots=slots), pm)
    return sum(weights[k] * sinrs[k] for k in slots)


def improving_swaps(slots, pm, sc, weights, tol=1e-12):
    """Brute force: every swap of two slots' occupants that gains."""
    cfg = sc.config
    all_slots = [(b, n) for n in range(1, cfg.prbs_per_bs + 1) for b in range(1, cfg.num_bs + 1)]
    holder = {slot: k for k, slot in slots.items()}
    base = weighted_objective(slots, pm, weights)

    found = []
    for i, s1 in enumerate(all_slots):
        for s2 in all_slots[i + 1:]:
            u1, u2 = holder.get(s1), holder.get(s2)
            if u1 is None and u2 is None:
                continue
            moved = dict(slots)
            if u1 is not None:
                moved[u1] = s2
            if u2 is not None:
                moved[u2] = s1
            gain = weighted_objective(moved, pm, weights) - base
            if gain > tol * base:
                found.append((s1, s2, gain))
    return found


class TestSwapImprovement:
    def test_never_below_construction(self):
        sc, _ = baseline()
        for prio in (False, True):
            config = heur.HeuristicConfig(prioritization=prio)
            weights = ex.priorities_for(sc, config)
            for r in range(3):
                pm = channel.generate_power_map(sc, r)
                for s in range(10):
                    built = heur.run_iteration(
                        sc, pm, config, np.random.default_rng(s), _Unchanged(sc, pm, config)
                    )
                    trace = heur.run_iteration(sc, pm, config, np.random.default_rng(s))
                    assert trace.serve_order == built.serve_order
                    assert trace.at_assignment_sinr == built.at_assignment_sinr
                    before = weighted_objective(built.slots, pm, weights)
                    after = weighted_objective(trace.slots, pm, weights)
                    assert after >= before * (1 - 1e-12)
                    assert (trace.swaps > 0) == (trace.slots != built.slots)

    @pytest.mark.parametrize("prio", [False, True])
    def test_no_improving_swap_left(self, prio):
        sc, _ = baseline()
        config = heur.HeuristicConfig(prioritization=prio)
        weights = ex.priorities_for(sc, config)
        for r in range(3):
            pm = channel.generate_power_map(sc, r)
            trace = heur.run_iteration(sc, pm, config, np.random.default_rng(r))
            assert trace.swaps > 0
            assert improving_swaps(trace.slots, pm, sc, weights) == []

    def test_no_improving_swap_left_three_cells(self):
        sc, pm = three_cells()
        for prio in (False, True):
            config = heur.HeuristicConfig(prioritization=prio)
            weights = ex.priorities_for(sc, config)
            for s in range(3):
                trace = heur.run_iteration(sc, pm, config, np.random.default_rng(s))
                assert len(set(trace.slots.values())) == 8
                assert improving_swaps(trace.slots, pm, sc, weights) == []

    def test_user_moves_into_free_slot(self):
        cfg = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=2, num_normal=1)
        sc = channel.Scenario(config=cfg)
        q = np.ones((2, 2, 2))  # (user, prb, bs)
        q[0, 1, 1] = 10.0  # user 1 is strong at BS 2 on PRB 2
        q[1, 0, 0] = 10.0  # user 2 is strong at BS 1 on PRB 1
        pm = channel.PowerMap(q=q, noise_w=1.0)
        search = heur.SwapSearch(sc, pm, heur.HeuristicConfig())
        occ = occupants({1: (1, 1), 2: (2, 1)}, cfg)
        swaps = search.improve(occ)
        slots = slots_of(occ, (1, 2))
        assert slots == {1: (2, 2), 2: (1, 1)}
        assert swaps == 2
        assert weighted_objective(slots, pm, {1: 1.0, 2: 1.0}) == pytest.approx(20.0)

    @pytest.mark.parametrize("other", ["map", "config", "scenario"])
    def test_an_improver_built_for_another_instance_is_refused(self, other):
        sc, pm = baseline()
        config = heur.HeuristicConfig()
        built_for = {"map": (sc, channel.generate_power_map(sc, 1), config),
                     "config": (sc, pm, heur.HeuristicConfig(prioritization=True)),
                     "scenario": (baseline(seed=4)[0], pm, config)}[other]
        with pytest.raises(UsageError, match="built for another"):
            heur.run_iteration(sc, pm, config, np.random.default_rng(0),
                               heur.SwapSearch(*built_for))

    def test_same_generator_same_trace(self):
        sc, pm = baseline()
        for prio in (False, True):
            config = heur.HeuristicConfig(prioritization=prio)
            shared = heur.SwapSearch(sc, pm, config)
            for s in range(5):
                a = heur.run_iteration(sc, pm, config, np.random.default_rng(s))
                b = heur.run_iteration(sc, pm, config, np.random.default_rng(s))
                c = heur.run_iteration(sc, pm, config, np.random.default_rng(s), shared)
                assert a == b == c

    def test_no_warning_where_a_signal_drowns_the_noise(self):
        """At -400 dBm/Hz a signal passes 2^53 times the noise, which an interference
        computed as a total less a term loses to rounding; the swap search warns of nothing."""
        cfg = channel.ScenarioConfig(seed=3, noise_density_dbm_hz=-400.0)
        sc, _ = channel.generate_scenario(cfg, op_ps=cli.REFERENCE_OP_PS)
        for prio in (False, True):
            config = heur.HeuristicConfig(prioritization=prio)
            for r in range(2):
                pm = channel.generate_power_map(sc, r)
                search = heur.SwapSearch(sc, pm, config)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for s in range(25):
                        heur.run_iteration(sc, pm, config, np.random.default_rng(s), search)

    @pytest.mark.parametrize("batch_floats", [heur.BATCH_FLOATS, 1],
                             ids=["default-batches", "one-column-batches"])
    @pytest.mark.parametrize("memo_floats", [heur.MEMO_FLOATS, 0], ids=["memo-kept", "memo-dropped"])
    @pytest.mark.parametrize("num_bs", [2, 3])
    def test_batches_and_memo_leave_the_result_alone(self, monkeypatch, num_bs, memo_floats,
                                                     batch_floats):
        """The seed-3 baseline, and a 3-BS layout small enough that its memo is kept: a
        search with its memo kept or dropped, in default or one-column batches, applies
        the default search's swaps to each of ten constructions in turn."""
        if num_bs == 2:
            sc, pm = baseline()
        else:  # 2 PRBs x 7^3 occupant states x 25 floats = 17,150 <= MEMO_FLOATS
            cfg = channel.ScenarioConfig(num_bs=3, prbs_per_bs=2, num_users=6, num_normal=4, seed=1)
            sc, pm = channel.generate_scenario(cfg, op_ps={5: 0.004, 6: 0.006})
        config = heur.HeuristicConfig(prioritization=True)
        built = [heur.run_iteration(sc, pm, config, np.random.default_rng(s),
                                    _Unchanged(sc, pm, config)).slots for s in range(10)]
        default = heur.SwapSearch(sc, pm, config)
        want = [occupants(slots, sc.config) for slots in built]
        want_swaps = [default.improve(occ) for occ in want]
        monkeypatch.setattr(heur, "BATCH_FLOATS", batch_floats)
        monkeypatch.setattr(heur, "MEMO_FLOATS", memo_floats)
        search = heur.SwapSearch(sc, pm, config)
        for slots, want_occ, swaps in zip(built, want, want_swaps):
            occ = occupants(slots, sc.config)
            assert search.improve(occ) == swaps
            assert (occ == want_occ).all()
        assert min(want_swaps) > 0
        assert search.keep == (memo_floats > 0)
        if search.keep:
            assert search.memo
        else:
            assert search.memo == {}


@pytest.mark.parametrize("prio", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("num_bs", [2, 3, 4])
def test_at_assignment_sinr_is_the_sinr_right_after_the_admission(num_bs, prio):
    """Each recorded SINR is `sinr_of` of the construction right after the admission
    that placed the user (the admitted user, then its interferer), bit for bit."""
    sc = layout(num_bs)
    num_slots = sc.config.num_bs * sc.config.prbs_per_bs
    config = heur.HeuristicConfig(prioritization=prio)
    for r in range(3):
        pm = channel.generate_power_map(sc, r)
        for s in range(20):
            trace = heur.run_iteration(sc, pm, config, np.random.default_rng(s),
                                       _Unchanged(sc, pm, config))
            placed = list(trace.slots.items())  # the construction's, in placement order
            ends = [num_slots - size for size in trace.pool_sizes[1:]] + [len(placed)]
            for start, end in zip([0] + ends, ends):
                sinr = ex.sinr_of(ex.Assignment(slots=dict(placed[:end])), pm)
                for k, _ in placed[start:end]:
                    assert trace.at_assignment_sinr[k] == sinr[k]


@pytest.mark.parametrize("num_bs", [2, 3, 4])
def test_column_values_are_column_sinrs_at_unit_weights(num_bs):
    """With prioritization off, `_column_gains` values each column at the sum of its
    `column_sinrs`, and each rearrangement at that of the rearranged rows, bit for bit."""
    sc = layout(num_bs)
    num_users, num_prbs = sc.config.num_users, sc.config.prbs_per_bs
    prbs = np.arange(num_prbs)
    draws = np.random.default_rng(num_bs)
    for r in range(3):
        pm = channel.generate_power_map(sc, r)
        search = heur.SwapSearch(sc, pm, heur.HeuristicConfig())
        for _ in range(100):
            seated = np.concatenate([draws.permutation(num_users), np.full(num_users, num_users)])
            occ = draws.permutation(seated)[: num_prbs * num_bs].reshape(num_prbs, num_bs)
            values, _, within = search._column_gains(occ, prbs)
            assert (values == ex.column_sinrs(pm.q, pm.noise_w, occ, prbs).sum(axis=1)).all()
            moved = occ[:, search.perms]  # (C, P, B)
            rearranged = ex.column_sinrs(pm.q, pm.noise_w, moved.reshape(-1, num_bs),
                                         np.repeat(prbs, len(search.perms)))
            assert (within == rearranged.sum(axis=1).reshape(num_prbs, -1) - values[:, None]).all()
