"""The four benchmark workloads: inputs, one timed repetition, and checks.

Every workload builds its inputs from the seed in `setup`, runs one
repetition of fixed size in `rep`, and checks that repetition's outputs with
the independent code in `oracle`.  Library functions are always called
through their module (`channel.generate_power_map`, not a bound name), so
that the tracer's patches see every call.
"""

import csv
import hashlib
import math
import os
import statistics
import time

import numpy as np

import oracle

# Imported by run.py after it has put the checkout's src/ on sys.path.
from prballoc import allocator_exact as exact
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, lp_export, medrecords, risk

ALPHA = 500.0

# Per-workload sizes.  "full" is what the benchmark measures; "tiny" keeps
# every code path and check but finishes in seconds (used by selftest.py).
SIZES = {
    "full": dict(realizations=100, quota=20, iterations=1000, rt_calls=5, rt_maps=4,
                 patients=200, days=40),
    "tiny": dict(realizations=4, quota=2, iterations=20, rt_calls=2, rt_maps=2,
                 patients=12, days=40),
}


class Checker:
    """Counts correctness checks; every failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def _baseline(seed, maps_needed):
    """The paper's baseline: 2 BS x 5 PRBs, K=10, 3 outpatients, reference PS."""
    scenario, _ = channel.generate_scenario(
        channel.ScenarioConfig(seed=seed), op_ps=cli.REFERENCE_OP_PS
    )
    maps = [channel.generate_power_map(scenario, realization=r) for r in range(maps_needed)]
    return scenario, maps


def _scenario_weights(scenario, prioritization, alpha=ALPHA):
    cfg = scenario.config
    return oracle.weights(cfg.num_users, cfg.num_normal, scenario.op_ps, prioritization, alpha)


class Workload:
    """Base: subclasses set `name`, `taps`, and implement setup/rep/check."""

    name = ""
    taps = ()  # (module, function) whose results rep() needs for its checks

    def __init__(self, seed, size, workdir, reference):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = os.path.join(workdir, self.name)
        os.makedirs(self.workdir, exist_ok=True)
        self.reference = reference
        self.captured = {}
        self.first = None  # signature of repetition 0, for the determinism check
        self.counts = {}  # name -> values seen per repetition; must be one value

    def quota_reps(self):
        """Repetitions an untraced run must complete whatever its length."""
        return 1

    def quality(self):
        """heur_opt_ratio_off/on; 1.0 where no heuristic result meets an optimum."""
        return {"heur_opt_ratio_off": 1.0, "heur_opt_ratio_on": 1.0}

    def take(self, function):
        return self.captured.pop(function, [])

    def count(self, name, value):
        """Record a per-repetition count; it must repeat exactly."""
        self.counts.setdefault(name, set()).add(value)

    def same_as_first(self, check, signature, rep):
        if self.first is None:
            self.first = (rep, signature)
        elif self.first[0] == rep:
            check(self.first[1] == signature, f"{self.name}: rep {rep} is not reproducible")


class BeforeAfter(Workload):
    """cli.run_before_after on the baseline scenario, one realization per call.

    Repetition r takes realization r of the seed's channel, so the quality
    ratio covers `quota` distinct realizations.
    """

    name = "before_after"
    taps = (("allocator_exact", "solve_exact"), ("allocator_heuristic", "run_heuristic"))

    def setup(self):
        self.scenario, self.maps = _baseline(self.seed, self.size["realizations"])
        self.sums = {False: [0.0, 0.0], True: [0.0, 0.0]}  # heuristic, optimum
        self.quality_reps = set()

    def quota_reps(self):
        return self.size["quota"]

    def rep(self, rep):
        spec = cli.ExperimentSpec(
            kind="before_after", output_dir=self.workdir, realizations=1,
            iterations=self.size["iterations"], seed=self.seed,
        )
        maps = [self.maps[rep % len(self.maps)]]
        t0 = time.perf_counter()
        result = cli.run_before_after(spec, scenario=self.scenario, power_maps=maps)
        return [time.perf_counter() - t0], result

    def check(self, rep, result, check):
        r = rep % len(self.maps)
        pm = self.maps[r]
        solves = self.take("solve_exact")
        reports = self.take("run_heuristic")
        cfg = self.scenario.config
        if not check(len(solves) == 2 and len(reports) == 2,
                     f"{self.name}: expected 2 exact solves and 2 heuristic runs"):
            return
        optima = {}
        heuristic = {}
        for prio, (assignment, report), heur_report, means in zip(
                (False, True), solves, reports, (result.heuristic_before, result.heuristic_after)):
            w = _scenario_weights(self.scenario, prio)
            check(oracle.slots_valid(assignment.slots, cfg.num_users, cfg.num_bs, cfg.prbs_per_bs),
                  f"{self.name}: invalid exact assignment")
            s = oracle.sinr(pm.q, pm.noise_w, assignment.slots)
            optima[prio] = oracle.wsrmax(s, w)
            check(all(oracle.close(s[k - 1], report.sinr[k]) for k in cfg.user_ids),
                  f"{self.name}: exact SINR differs from the oracle")
            check(oracle.close(optima[prio], report.objective_value),
                  f"{self.name}: exact objective differs from the oracle")
            runner = result.exact_after if prio else result.exact_before
            check(runner == [report.sinr], f"{self.name}: runner lost an exact result")
            ref = self.reference.get(f"wsrmax_{'on' if prio else 'off'}")
            if ref is not None and r < len(ref):
                check(oracle.close(optima[prio], ref[r]),
                      f"{self.name}: optimum {optima[prio]!r} != reference {ref[r]!r}")
            (objectives,) = heur_report.per_file_objectives
            check(len(objectives) == self.size["iterations"], f"{self.name}: wrong iteration count")
            check(max(objectives) <= optima[prio] * (1 + 1e-9),
                  f"{self.name}: a heuristic iteration beats the optimum")
            heuristic[prio] = statistics.fmean(objectives)
            check(oracle.close(sum(w[k - 1] * means[0][k] for k in cfg.user_ids), heuristic[prio]),
                  f"{self.name}: heuristic means disagree with the objectives")
        if rep < self.size["quota"] and rep not in self.quality_reps:
            self.quality_reps.add(rep)
            for prio in (False, True):
                self.sums[prio][0] += heuristic[prio]
                self.sums[prio][1] += optima[prio]
        self.count("allocator_exact.solves", len(solves))
        self.count("allocator_heuristic.iterations",
                   sum(len(o) for hr in reports for o in hr.per_file_objectives))
        signature = (optima[False], optima[True],
                     tuple(math.fsum(o) for hr in reports for o in hr.per_file_objectives))
        self.same_as_first(check, signature, rep)

    def quality(self):
        """Mean heuristic objective over mean exact optimum, off and on."""
        return {f"heur_opt_ratio_{tag}": self.sums[p][0] / self.sums[p][1]
                for p, tag in ((False, "off"), (True, "on"))}


class AlphaSweepPf(Workload):
    """cli.run_alpha_sweep, PF objective, the five default alphas.

    Repetition r sweeps realization r of the seed's channel, so a run's median
    spans many realizations rather than one instance's DP cost.
    """

    name = "alpha_sweep_pf"
    taps = (("allocator_exact", "solve_exact"),)

    def setup(self):
        self.scenario, self.maps = _baseline(self.seed, self.size["realizations"])
        self.alphas = tuple(sorted(cli.DEFAULT_ALPHAS))

    def rep(self, rep):
        spec = cli.ExperimentSpec(
            kind="alpha_sweep", output_dir=self.workdir, objective="pf", realizations=1,
            seed=self.seed,
        )
        maps = [self.maps[rep % len(self.maps)]]
        t0 = time.perf_counter()
        table = cli.run_alpha_sweep(spec, scenario=self.scenario, power_maps=maps)
        return [time.perf_counter() - t0], table

    def check(self, rep, table, check):
        solves = self.take("solve_exact")
        cfg = self.scenario.config
        expected = len(self.alphas)
        check(len(solves) == expected and len(table) == len(self.alphas),
              f"{self.name}: expected {expected} solves")
        if len(solves) != expected:
            return
        values = []
        j = rep % len(self.maps)
        pm = self.maps[j]
        for i, (assignment, report) in enumerate(solves):
            alpha = self.alphas[i]
            w = _scenario_weights(self.scenario, True, alpha)
            check(oracle.slots_valid(assignment.slots, cfg.num_users, cfg.num_bs, cfg.prbs_per_bs),
                  f"{self.name}: invalid exact assignment")
            s = oracle.sinr(pm.q, pm.noise_w, assignment.slots)
            value = oracle.pf(s, w, cfg.num_normal, True)
            check(oracle.close(value, report.objective_value),
                  f"{self.name}: PF objective differs from the oracle")
            ref = self.reference.get(f"pf_alpha_{alpha:g}")
            if ref is not None and j < len(ref):
                check(oracle.close(value, ref[j]),
                      f"{self.name}: optimum {value!r} != reference {ref[j]!r}")
            values.append(value)
        for (_, report), row, alpha in zip(solves, table, self.alphas):
            avg = statistics.fmean(report.sinr[k] for k in cfg.user_ids)
            check(row["alpha"] == alpha and oracle.close(row["avg_sinr"], avg),
                  f"{self.name}: sweep table disagrees with its solves")
        self.count("allocator_exact.solves", len(solves))
        self.same_as_first(check, tuple(values), rep)


class Realtime20Mhz(Workload):
    """Single prioritized run_iteration calls on 2 BS x 100 PRBs, 200 users.

    Each call is timed on its own; its Generator is built outside the timer.
    """

    name = "realtime_20mhz"
    taps = ()

    def setup(self):
        bandwidth, prbs = cli.SCALABILITY_CASES[-1]
        users = 2 * prbs
        config = channel.ScenarioConfig(
            num_bs=2, prbs_per_bs=prbs, num_users=users, num_normal=users - 3, seed=self.seed
        )
        ops = range(users - 2, users + 1)
        op_ps = dict(zip(ops, cli.REFERENCE_OP_PS.values()))
        self.scenario, _ = channel.generate_scenario(config, op_ps=op_ps)
        self.maps = [channel.generate_power_map(self.scenario, realization=r)
                     for r in range(self.size["rt_maps"])]
        self.config = heur.HeuristicConfig(iterations=1, prioritization=True, seed=self.seed)
        w = _scenario_weights(self.scenario, True)
        self.op_order = sorted(ops, key=lambda k: (-w[k - 1], k))

    def rep(self, rep):
        calls = self.size["rt_calls"]
        durations, traces = [], []
        for i in range(rep * calls, (rep + 1) * calls):
            rng = np.random.default_rng([self.seed, i])
            pm = self.maps[i % len(self.maps)]
            t0 = time.perf_counter()
            trace = heur.run_iteration(self.scenario, pm, self.config, rng)
            durations.append(time.perf_counter() - t0)
            traces.append((i, trace))
        return durations, traces

    def check(self, rep, traces, check):
        cfg = self.scenario.config
        for i, trace in traces:
            pm = self.maps[i % len(self.maps)]
            check(oracle.slots_valid(trace.slots, cfg.num_users, cfg.num_bs, cfg.prbs_per_bs),
                  f"{self.name}: call {i} does not give every user its own slot")
            s = oracle.sinr(pm.q, pm.noise_w, trace.slots)
            check(all(oracle.close(s[k - 1], trace.final_sinr[k]) for k in cfg.user_ids),
                  f"{self.name}: call {i} final SINR differs from the oracle")
            check(trace.serve_order[:len(self.op_order)] == self.op_order,
                  f"{self.name}: call {i} does not admit outpatients first")
        self.count("allocator_heuristic.iterations", len(traces))


def _write_raw_csv(path, rng, patients, days):
    """Synthetic raw records with injected bad rows; returns (rows, clean rows).

    Each patient-day gets one clean row.  About 2% of rows are followed by a
    row with a missing cell, 2% by one with a negative reading and 2% by an
    exact duplicate; cleansing must drop every injected row.
    """
    rows = clean = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(medrecords.CSV_COLUMNS)
        for p in range(1, patients + 1):
            pid = f"p{p:05d}"
            for d in range(1, days + 1):
                row = [pid, d, round(float(rng.uniform(95, 180)), 1),
                       round(float(rng.uniform(60, 110)), 1),
                       round(float(rng.uniform(150, 300)), 1),
                       int(rng.integers(0, 40)), int(rng.random() < 0.15)]
                writer.writerow(row)
                rows += 1
                clean += 1
                fault = rng.random()
                if fault < 0.02:
                    bad = list(row)
                    bad[2 + int(rng.integers(0, 5))] = ""
                    writer.writerow(bad)
                    rows += 1
                elif fault < 0.04:
                    bad = list(row)
                    bad[2 + int(rng.integers(0, 4))] = -1.0
                    writer.writerow(bad)
                    rows += 1
                elif fault < 0.06:
                    writer.writerow(row)
                    rows += 1
    return rows, clean


class RecordsToLp(Workload):
    """The documented file pipeline from raw records to an exported MILP.

    ingest -> risk -> scenario JSON -> power map CSV -> LP export, with every
    file written and read back inside the checkout.
    """

    name = "records_to_lp"
    taps = (("lp_export", "export_milp"),)

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        self.raw_path = os.path.join(self.workdir, "raw.csv")
        self.raw_rows, self.clean_rows = _write_raw_csv(
            self.raw_path, rng, self.size["patients"], self.size["days"]
        )
        self.lp_config = {
            "wsrmax": exact.SolverConfig(objective="wsrmax", prioritization=True, alpha=ALPHA),
            "pf": exact.SolverConfig(objective="pf", prioritization=True, alpha=ALPHA,
                                     pf_log_mode="piecewise", pwl=exact.PwlSpec.default()),
        }

    def path(self, name):
        return os.path.join(self.workdir, name)

    def rep(self, rep):
        t0 = time.perf_counter()
        out = {}
        rows = medrecords.load_raw_records(self.raw_path)
        kept = medrecords.cleanse(rows)
        segmented = medrecords.segment(kept, all_patient_ids={r.patient_id for r in rows})
        medrecords.write_records_csv(segmented, self.path("records.csv"))
        records = {r.patient_id: r for r in medrecords.read_records_csv(self.path("records.csv"))}
        config = risk.RiskConfig(alpha=ALPHA)
        posteriors = {}
        for pid in sorted(records):
            state = risk.CurrentState(**records[pid].days[-1].levels)
            ps = risk.posterior_stroke(records[pid], state)
            posteriors[pid] = (state, ps, risk.priority(ps, config, True))
        scenario_config = channel.ScenarioConfig(
            num_bs=2, prbs_per_bs=10, num_users=20, num_normal=17, seed=self.seed
        )
        ops = sorted(records)[:3]
        scenario = channel.Scenario(
            config=scenario_config,
            op_ps={17 + i: posteriors[pid][1] for i, pid in enumerate(ops, start=1)},
            current_states={17 + i: vars(posteriors[pid][0]) for i, pid in enumerate(ops, start=1)},
        )
        scenario_json = channel.scenario_to_json(scenario)
        cli.write_text_atomic(self.path("scenario.json"), scenario_json)
        with open(self.path("scenario.json"), encoding="utf-8") as fh:
            scenario = channel.scenario_from_json(fh.read())
        pm = channel.generate_power_map(scenario, realization=0)
        channel.write_power_map_csv(pm, self.path("power_map.csv"))
        read_pm = channel.read_power_map_csv(self.path("power_map.csv"), scenario.config.noise_w)
        models = {}
        for objective, lp_config in self.lp_config.items():
            models[objective] = lp_export.export_milp(scenario, read_pm, lp_config)
            cli.write_text_atomic(self.path(f"model_{objective}.lp"), models[objective])
        elapsed = time.perf_counter() - t0
        out.update(rows=rows, kept=kept, segmented=segmented, records=records,
                   posteriors=posteriors, scenario_json=scenario_json, scenario=scenario,
                   pm=pm, read_pm=read_pm, models=models)
        return [elapsed], out

    def check(self, rep, out, check):
        name = self.name
        check(len(out["rows"]) == self.raw_rows, f"{name}: loaded {len(out['rows'])} raw rows")
        check(len(out["kept"]) == self.clean_rows,
              f"{name}: kept {len(out['kept'])} rows, expected {self.clean_rows}")
        dropped = len(out["rows"]) - len(out["kept"])
        check(len(out["kept"]) + dropped == self.raw_rows and dropped == self.raw_rows - self.clean_rows,
              f"{name}: kept + dropped != input rows")
        window = medrecords.DEFAULT_OBSERVATION_DAYS
        written = [(r.patient_id, [(e.day, e.levels, e.stroke) for e in r.days])
                   for r in out["segmented"]]
        read = [(pid, [(e.day, e.levels, e.stroke) for e in r.days])
                for pid, r in out["records"].items()]
        check(written == read, f"{name}: records CSV does not round-trip")
        check(all(len(days) == min(window, self.size["days"]) for _, days in read),
              f"{name}: records not cut to the observation window")
        for pid, (state, ps, up) in out["posteriors"].items():
            days = [tuple(e.levels[f] for f in medrecords.FEATURES) + (e.stroke,)
                    for e in out["records"][pid].days]
            expected = oracle.posterior(days, tuple(vars(state)[f] for f in medrecords.FEATURES))
            check(oracle.close(ps, expected) and oracle.close(up, 1.0 + ALPHA * expected),
                  f"{name}: posterior of {pid} differs from the oracle")
        check(channel.scenario_to_json(out["scenario"]) == out["scenario_json"],
              f"{name}: scenario JSON does not round-trip")
        check(np.array_equal(out["pm"].q, out["read_pm"].q),
              f"{name}: power map CSV does not round-trip")
        exports = self.take("export_milp")
        cfg = out["scenario"].config
        K, N, B = cfg.num_users, cfg.prbs_per_bs, cfg.num_bs
        phi = lp_export.variable_counts(K, N, B)["PHI"]
        rows = 0
        for objective, text in out["models"].items():
            pf = objective == "pf"
            expected = oracle.lp_row_counts(
                K, N, B, pf, K - len(cfg.op_ids), len(self.lp_config["pf"].pwl.segments)
            )
            found = oracle.lp_rows_by_family(text)
            check(found == expected and found["c13"] == phi,
                  f"{name}: {objective} LP rows {found} != {expected}")
            rows += sum(found.values())
        check(len(exports) == len(self.lp_config), f"{name}: expected {len(self.lp_config)} exports")
        self.count("medrecords.rows_kept", len(out["kept"]))
        self.count("channel.maps", 1)
        self.count("channel.csv_bytes", os.path.getsize(self.path("power_map.csv")))
        self.count("lp_export.bytes", sum(len(t) for t in out["models"].values()))
        self.count("lp_export.rows", rows)
        digest = hashlib.sha256(out["models"]["wsrmax"].encode()).hexdigest()
        self.same_as_first(check, (digest, tuple(p[1] for p in out["posteriors"].values())), rep)


WORKLOADS = {w.name: w for w in (BeforeAfter, AlphaSweepPf, Realtime20Mhz, RecordsToLp)}
