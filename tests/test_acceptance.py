"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible even under output capture) and
asserts the corresponding criterion at its stated tolerance.  The statistical
experiments share one precomputed baseline-scenario dataset: 100 channel
realizations, exact solves for both objectives with prioritization off/on, and
the 1000-iteration heuristic on the same realizations.
"""

import math
import time

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, lp_export, metrics, risk
from prballoc.medrecords import FEATURES, LEVEL_NAMES, DayEntry, MedicalRecord

from helpers import (LambdaTooSmallError, baseline, hand_instance, oracle_optimum, oracle_posterior,
                     oracle_sinrs, paired_bootstrap, random_instance, verify_linearization,
                     write_solution_file)

ACCEPTANCE_SEED = 3
REALIZATIONS = 100
ITERATIONS = 1000


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def dataset():
    """Exact and heuristic results on 100 shared channel realizations."""
    sc, _ = baseline(ACCEPTANCE_SEED)
    pms = [channel.generate_power_map(sc, i) for i in range(REALIZATIONS)]
    exact = {}
    optima = {}
    for objective in ("wsrmax", "pf"):
        for prio in (False, True):
            config = ex.SolverConfig(objective=objective, prioritization=prio, alpha=500.0)
            runs = []
            values = []
            for pm in pms:
                _, rep = ex.solve_exact(sc, pm, config)
                runs.append(rep.sinr)
                values.append(rep.objective_value)
            exact[(objective, prio)] = runs
            optima[(objective, prio)] = values
    heuristic = {}
    for prio in (False, True):
        config = heur.HeuristicConfig(
            iterations=ITERATIONS, prioritization=prio, alpha=500.0, seed=ACCEPTANCE_SEED
        )
        heuristic[prio] = heur.run_heuristic(sc, pms, config)
    return {"scenario": sc, "pms": pms, "exact": exact, "optima": optima,
            "heuristic": heuristic}


def test_criterion_1_priority_intervals(capsys):
    expected = {
        50.0: (1.104, 1.32),
        100.0: (1.208, 1.64),
        150.0: (1.312, 1.96),
        250.0: (1.52, 2.6),
        500.0: (2.04, 4.2),
    }
    start = time.perf_counter()
    worst = 0.0
    for alpha, (lo, hi) in expected.items():
        config = risk.RiskConfig(alpha=alpha)
        ups = [risk.priority(ps, config, True) for ps in cli.REFERENCE_OP_PS.values()]
        worst = max(worst, abs(min(ups) - lo), abs(max(ups) - hi))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(capsys, "criterion 1 (priority intervals)",
           ok, f"max deviation {worst:.2e}, {elapsed:.3f}s")
    assert ok


def test_criterion_2_bayes_oracle(capsys):
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_days = int(rng.integers(5, 61))
        days = [
            DayEntry(
                day=d + 1,
                levels={f: LEVEL_NAMES[f][rng.integers(3)] for f in FEATURES},
                stroke=bool(rng.random() < 0.15),
            )
            for d in range(n_days)
        ]
        if not any(e.stroke for e in days):
            days[0].stroke = True
        record = MedicalRecord(patient_id="p", days=days)
        state = risk.CurrentState(**{f: LEVEL_NAMES[f][rng.integers(3)] for f in FEATURES})
        got = risk.posterior_stroke(record, state)
        want = oracle_posterior(record, state)
        if want == 0.0:
            worst = max(worst, abs(got))
        else:
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-15 and elapsed < 10.0
    report(capsys, "criterion 2 (Bayes oracle, 1000 records)",
           ok, f"max rel diff {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_exact_oracle(capsys):
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        sc, pm = random_instance(rng)
        for objective in ("wsrmax", "pf"):
            for prio in (False, True):
                config = ex.SolverConfig(objective=objective, prioritization=prio)
                _, rep = ex.solve_exact(sc, pm, config)
                want = oracle_optimum(sc, pm, config)[0]
                worst = max(worst, abs(rep.objective_value - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    report(capsys, "criterion 3 (exact vs exhaustive oracle, 50 instances)",
           ok, f"max rel diff {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_linearization(capsys):
    sc, _ = baseline(ACCEPTANCE_SEED)
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    slots = [(b, n) for b in (1, 2) for n in range(1, 6)]
    start = time.perf_counter()
    worst = 0.0
    detections = 0
    for i in range(100):
        pm = channel.generate_power_map(sc, i)
        perm = [slots[j] for j in rng.permutation(10)]
        assignment = ex.Assignment(slots=dict(zip(sc.config.user_ids, perm)))
        direct = ex.sinr_of(assignment, pm)
        # independent resolution of the balance-equation system given fixed X
        for k, t_linearized in oracle_sinrs(assignment.slots, pm).items():
            worst = max(worst, abs(t_linearized - direct[k]) / direct[k])
        worst = max(worst, verify_linearization(assignment, pm))
        max_t = max(direct.values())
        try:
            verify_linearization(assignment, pm, lam=max_t * 0.9)
        except LambdaTooSmallError:
            detections += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and detections == 100 and elapsed < 30.0
    report(capsys, "criterion 4 (linearization fidelity, 100 assignments)",
           ok, f"max rel dev {worst:.2e}, lambda detections {detections}/100, {elapsed:.1f}s")
    assert ok


def _op_improvement(dataset, objective):
    before = dataset["exact"][(objective, False)]
    after = dataset["exact"][(objective, True)]
    op_ids = dataset["scenario"].config.op_ids
    b = _mean(_mean(r[k] for k in op_ids) for r in before)
    a = _mean(_mean(r[k] for k in op_ids) for r in after)
    return metrics.improvement_pct(b, a)


def _op_means(dataset, objective, prio):
    """Each realization's mean outpatient SINR."""
    op_ids = dataset["scenario"].config.op_ids
    runs = dataset["exact"][(objective, prio)]
    return np.array([[r[k] for k in op_ids] for r in runs]).mean(axis=1)


def _resampled_improvement(before, after):
    """improvement_pct of the mean over realizations, per resample."""
    return 100.0 * (after.mean(axis=1) - before.mean(axis=1)) / before.mean(axis=1)


def _improvement_interval(dataset, objective):
    """Paired bootstrap 95% interval of an objective's OP improvement."""
    return paired_bootstrap(_resampled_improvement, _op_means(dataset, objective, False),
                            _op_means(dataset, objective, True))


def test_criterion_5a_wsrmax_improvement(capsys, dataset):
    impr = _op_improvement(dataset, "wsrmax")
    low, high = _improvement_interval(dataset, "wsrmax")
    before = dataset["exact"][("wsrmax", False)]
    after = dataset["exact"][("wsrmax", True)]
    sys_b = _mean(_mean(r.values()) for r in before)
    sys_a = _mean(_mean(r.values()) for r in after)
    sys_change = metrics.improvement_pct(sys_b, sys_a)
    ok = 10.0 <= impr <= 60.0 and sys_change >= -10.0
    report(capsys, "criterion 5a (WSRMax OP improvement)",
           ok, f"OP improvement {impr:.1f}% (band 10-60, 95% CI {low:.1f}-{high:.1f}%), "
           f"system change {sys_change:.2f}%")
    assert ok


def test_criterion_5b_pf_exceeds_wsrmax(capsys, dataset):
    pf = _op_improvement(dataset, "pf")
    wsr = _op_improvement(dataset, "wsrmax")
    pf_low, pf_high = _improvement_interval(dataset, "pf")
    gap_low, gap_high = paired_bootstrap(
        lambda pb, pa, wb, wa: _resampled_improvement(pb, pa) - _resampled_improvement(wb, wa),
        _op_means(dataset, "pf", False), _op_means(dataset, "pf", True),
        _op_means(dataset, "wsrmax", False), _op_means(dataset, "wsrmax", True))
    ok = pf > wsr
    report(capsys, "criterion 5b (PF improvement exceeds WSRMax)",
           ok, f"PF {pf:.1f}% (95% CI {pf_low:.1f}-{pf_high:.1f}%) vs WSRMax {wsr:.1f}%, "
           f"PF - WSRMax {pf - wsr:.1f} points (95% CI {gap_low:.0f}-{gap_high:.0f})")
    assert ok


def test_criterion_5c_fairness_bands(capsys, dataset):
    sc = dataset["scenario"]
    healthy = [k for k in sc.config.user_ids if k <= sc.config.num_normal]
    sds, ci, per_sd, jain = {}, {}, {}, {}
    for objective in ("wsrmax", "pf"):
        after = dataset["exact"][(objective, True)]
        user_means = [_mean(r[k] for r in after) for k in healthy]
        sds[objective] = metrics.fairness_sd(user_means)
        sinrs = np.array([[r[k] for k in healthy] for r in after])  # realization x user
        ci[objective] = paired_bootstrap(lambda x: x.mean(axis=1).std(axis=1, ddof=1), sinrs)
        # the same users' spread within each realization, which does not shrink with more of them
        per_sd[objective] = sinrs.std(axis=1, ddof=1).mean()
        jain[objective] = np.mean(sinrs.sum(axis=1) ** 2 / (sinrs ** 2).sum(axis=1)) / len(healthy)
    ordered = sds["pf"] < sds["wsrmax"]
    in_bands = 0.1 <= sds["pf"] <= 0.6 and 0.2 <= sds["wsrmax"] <= 1.0
    ok = ordered and in_bands
    report(capsys, "criterion 5c (healthy-user SD bands)", ok,
           f"PF SD {sds['pf']:.3f} (band 0.1-0.6), WSRMax SD {sds['wsrmax']:.3f} "
           f"(band 0.2-1.0), PF<WSRMax {ordered}; 95% CI PF {ci['pf'][0]:.2f}-{ci['pf'][1]:.2f}, "
           f"WSRMax {ci['wsrmax'][0]:.2f}-{ci['wsrmax'][1]:.2f}; per realization (mean of "
           f"{REALIZATIONS}): SD PF {per_sd['pf']:.1f} vs WSRMax {per_sd['wsrmax']:.1f}, "
           f"Jain's index PF {jain['pf']:.3f} vs WSRMax {jain['wsrmax']:.3f}")
    assert ok


def test_criterion_5d_op_ordering(capsys, dataset):
    after = dataset["exact"][("wsrmax", True)]
    ps = cli.REFERENCE_OP_PS
    means = {k: _mean(r[k] for r in after) for k in ps}
    highest = max(ps, key=ps.get)  # user 9
    lowest = min(ps, key=ps.get)  # user 10
    ok = all(means[highest] >= means[k] for k in ps) and all(
        means[lowest] <= means[k] for k in ps
    )
    report(capsys, "criterion 5d (OP ordering at alpha=500)", ok,
           "mean SINR " + ", ".join(f"u{k}={means[k]:.2f}" for k in sorted(ps)))
    assert ok


def test_criterion_5e_wsrmax_total_exceeds_pf(capsys, dataset):
    """The abstract: WSRMax reaches the higher total SINR (prioritized, alpha=500)."""
    sums = {objective: [sum(r.values()) for r in dataset["exact"][(objective, True)]]
            for objective in ("wsrmax", "pf")}
    totals = {objective: _mean(values) for objective, values in sums.items()}
    low, high = paired_bootstrap(lambda wsr, pf: wsr.mean(axis=1) - pf.mean(axis=1),
                                 sums["wsrmax"], sums["pf"])
    ok = totals["wsrmax"] > totals["pf"]
    report(capsys, "criterion 5e (WSRMax total SINR exceeds PF)", ok,
           f"mean total SINR WSRMax {totals['wsrmax']:.1f} vs PF {totals['pf']:.1f}, "
           f"WSRMax - PF 95% CI {low:.1f}-{high:.1f}")
    assert ok


def test_criterion_5f_pf_margin_of_error(capsys, dataset):
    """The abstract: PF's OP SINR has the lower margin of error, the 95% CI half-width
    (normal approximation, sample SD) of the per-realization OP mean (prioritized, alpha=500)."""
    half, ci = {}, {}
    for objective in ("wsrmax", "pf"):
        runs = dataset["exact"][(objective, True)]
        op_means = [_mean(r[k] for k in cli.REFERENCE_OP_PS) for r in runs]
        mean = _mean(op_means)
        var = sum((v - mean) ** 2 for v in op_means) / (len(op_means) - 1)
        half[objective] = 1.96 * math.sqrt(var / len(op_means))
        ci[objective] = paired_bootstrap(
            lambda x: 1.96 * x.std(axis=1, ddof=1) / math.sqrt(len(op_means)), op_means)
    ok = half["pf"] < half["wsrmax"]
    report(capsys, "criterion 5f (PF OP margin of error below WSRMax)", ok,
           f"OP-mean 95% CI half-width PF {half['pf']:.2f} (95% CI {ci['pf'][0]:.2f}-"
           f"{ci['pf'][1]:.2f}) vs WSRMax {half['wsrmax']:.2f} (95% CI {ci['wsrmax'][0]:.2f}-"
           f"{ci['wsrmax'][1]:.2f})")
    assert ok


def test_criterion_6_alpha_monotonicity(capsys, dataset):
    sc = dataset["scenario"]
    violations = 0
    for pm in dataset["pms"][:10]:
        weighted = []
        for alpha in cli.DEFAULT_ALPHAS:
            config = ex.SolverConfig(objective="wsrmax", prioritization=True, alpha=alpha)
            _, rep = ex.solve_exact(sc, pm, config)
            weighted.append(sum(sc.ps_of(k) * rep.sinr[k] for k in sc.config.op_ids))
        violations += sum(
            1 for a, b in zip(weighted, weighted[1:]) if b < a - 1e-12
        )
    ok = violations == 0
    report(capsys, "criterion 6 (alpha monotonicity, 10 maps)",
           ok, f"{violations} violations")
    assert ok


def test_criterion_7_heuristic_dominance_and_gap(capsys, dataset):
    sc = dataset["scenario"]
    dominance_ok = True
    ratios, ci = {}, {}
    for prio in (False, True):
        rep = dataset["heuristic"][prio]
        optima = dataset["optima"][("wsrmax", prio)]
        heuristic_means = []
        for objectives, best in zip(rep.per_file_objectives, optima):
            if max(objectives) > best + 1e-9 * max(1.0, abs(best)):
                dominance_ok = False
            heuristic_means.append(_mean(objectives))
        ratios[prio] = _mean(heuristic_means) / _mean(optima)
        # each map's heuristic mean and optimum are resampled together
        ci[prio] = paired_bootstrap(lambda h, o: h.mean(axis=1) / o.mean(axis=1),
                                    heuristic_means, optima)
    gap_ok = all(r >= 0.85 for r in ratios.values())
    ok = dominance_ok and gap_ok
    report(capsys, "criterion 7 (heuristic dominance and 15% gap)", ok,
           f"dominance {dominance_ok}, objective ratio off={ratios[False]:.3f} "
           f"(95% CI {ci[False][0]:.3f}-{ci[False][1]:.3f}) on={ratios[True]:.3f} "
           f"(95% CI {ci[True][0]:.3f}-{ci[True][1]:.3f}) (need >= 0.85)")
    assert ok


def test_criterion_8_scalability(capsys, tmp_path):
    spec = cli.ExperimentSpec(
        kind="scalability", output_dir=str(tmp_path / "scale"), runs=3, seed=0
    )
    rows = cli.run_scalability(spec)
    times = [seconds for _, _, _, seconds in rows]
    prbs = [n for _, n, _, _ in rows]
    monotone = all(b >= a for a, b in zip(times, times[1:]))
    slope = float(np.polyfit(np.log(prbs), np.log(times), 1)[0])
    ok = monotone and slope <= 5.5
    report(capsys, "criterion 8 (scalability trend)", ok,
           f"monotone {monotone}, log-log slope {slope:.2f} (cap 5.5), "
           f"times {['%.4f' % t for t in times]}")
    assert ok


def test_criterion_9_lp_round_trip(capsys, tmp_path, monkeypatch):
    import os

    sc, pm = hand_instance()
    config = ex.SolverConfig()
    monkeypatch.setattr(lp_export, "big_m", lambda power_map: 100.0)  # the golden's lambda
    text1 = lp_export.export_milp(sc, pm, config)
    text2 = lp_export.export_milp(sc, pm, config)
    golden_path = os.path.join(os.path.dirname(__file__), "data", "hand_instance.lp")
    with open(golden_path, encoding="utf-8") as fh:
        golden_ok = text1 == fh.read()
    assignment, rep = ex.solve_exact(sc, pm, config)
    sol = tmp_path / "solution.txt"
    write_solution_file(assignment, rep.objective_value, sol)
    parity = lp_export.validate_external_solution(sol.read_text(), sc, pm, config)
    parity_ok = (
        parity.objective_match
        and parity.is_optimal
        and parity.recomputed_objective == 16.0 / 3.0
    )
    ok = golden_ok and text1 == text2 and parity_ok
    report(capsys, "criterion 9 (LP round-trip)", ok,
           f"golden bytes {golden_ok}, deterministic {text1 == text2}, "
           f"objective {parity.recomputed_objective!r} == 16/3 {parity_ok}")
    assert ok
