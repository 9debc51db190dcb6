"""Batch experiment runner: scenario generation, risk scoring, solving, and
the before/after, alpha-sweep and scalability experiment suites."""

import argparse
import hashlib
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import allocator_exact as exact
from . import allocator_heuristic as heur
from . import channel, lp_export, medrecords, metrics, risk
from .errors import DataError, InfeasibleError, UsageError, check_field_types
from .fileio import atomic_open, read_text, write_csv, write_text_atomic

DEFAULT_ALPHAS = (50.0, 100.0, 150.0, 250.0, 500.0)
KINDS = ("alpha_sweep", "before_after", "scalability")

# Stroke posteriors reported for the three outpatients in the reference
# experiments; used when no medical records are wired in.
REFERENCE_OP_PS = {8: 0.0032, 9: 0.0064, 10: 0.00208}

# Standard LTE PRB counts per bandwidth; the baseline scenario keeps 5 PRBs
# at 1.4 MHz, the scalability suite uses the standard counts.
SCALABILITY_CASES = ((1.4, 6), (3.0, 15), (5.0, 25), (10.0, 50), (15.0, 75), (20.0, 100))


def _check_counts(settings, *names):
    """The rule for a count that no config type owns: it must be >= 1."""
    for name in names:
        if getattr(settings, name) < 1:
            raise UsageError(f"{name} must be >= 1")


def _config(cls, settings, **fixed):
    """`cls` from the entries of `settings` (parsed options or an ExperimentSpec) that name
    its fields, then `fixed`; a field that neither gives keeps the class default."""
    given = {k: v for k, v in vars(settings).items() if k in cls.__dataclass_fields__}
    return cls(**{**given, **fixed})


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str  # one of KINDS
    output_dir: str
    scenario_path: str | None = None
    objective: str = "wsrmax"
    alphas: tuple | list = DEFAULT_ALPHAS  # stored as a tuple
    alpha: float = exact.DEFAULT_ALPHA
    realizations: int = 100
    iterations: int = 1000
    seed: int = 0
    runs: int = 3

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}")
        if not self.alphas:
            raise UsageError("alphas must be a non-empty list")
        _check_counts(self, "realizations", "runs")
        _config(heur.HeuristicConfig, self)
        _config(exact.SolverConfig, self)
        alphas = tuple(_config(exact.SolverConfig, self, alpha=a).alpha for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)


def _read_scenario(path):
    return channel.scenario_from_json(read_text(path))


def _check_kind(spec, kind):
    if spec.kind != kind:
        raise UsageError(f"the {kind} runner was given a spec of kind {spec.kind!r}")


def _inputs(spec, scenario, power_maps):
    """The runner's scenario and power maps: those given, else the spec's scenario
    file (or the seed's baseline scenario) and its first `realizations` maps.
    Given maps are checked before any output: of its shape, one per realization."""
    if scenario is None and spec.scenario_path:
        scenario = _read_scenario(spec.scenario_path)
    elif scenario is None:
        scenario = channel.Scenario(config=_config(channel.ScenarioConfig, spec),
                                    op_ps=REFERENCE_OP_PS)
    if power_maps is None:
        return scenario, [channel.generate_power_map(scenario, realization=i)
                          for i in range(spec.realizations)]
    for i, pm in enumerate(power_maps):
        channel.check_map_shape(scenario, pm, f"power map {i}")
    if len(power_maps) != spec.realizations:
        raise UsageError(f"{len(power_maps)} power_maps given for {spec.realizations} realizations")
    return scenario, power_maps


def _write_scenario_dir(scenario, power_maps, outdir):
    """Write scenario.json and one power_map_NNN.csv per map, as the iterable
    `power_maps` yields them; return the map files' sha256 digests."""
    os.makedirs(outdir, exist_ok=True)
    write_text_atomic(os.path.join(outdir, "scenario.json"), channel.scenario_to_json(scenario))
    hashes = []
    for i, pm in enumerate(power_maps):
        path = os.path.join(outdir, f"power_map_{i:03d}.csv")
        channel.write_power_map_csv(pm, path)
        with open(path, "rb") as fh:
            hashes.append(hashlib.sha256(fh.read()).hexdigest())
    return hashes


def _echo_config(spec, extra=None):
    payload = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
    if extra:
        payload.update(extra)
    path = os.path.join(spec.output_dir, "config_echo.json")
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def _gain_pct(before, after, users=None):
    """improvement_pct of the mean over realizations of each realization's mean SINR
    over `users`, or over every user in the order the realization's dict holds them."""
    def level(runs):
        return metrics.mean([metrics.mean([r[k] for k in users or r]) for r in runs])
    return metrics.improvement_pct(level(before), level(after))


@dataclass
class BeforeAfterResult:
    exact_before: list  # per realization: dict user -> SINR
    exact_after: list
    heuristic_before: list  # per realization: dict user -> mean SINR
    heuristic_after: list
    summary: dict  # summary.csv: metric -> value, in row order


def run_before_after(spec, scenario=None, power_maps=None):
    """Paired before/after prioritization runs on identical realizations: one
    pass with prioritization off, then one with it on."""
    _check_kind(spec, "before_after")
    scenario, power_maps = _inputs(spec, scenario, power_maps)
    hashes = _write_scenario_dir(scenario, power_maps, spec.output_dir)
    cfg = scenario.config
    result = BeforeAfterResult([], [], [], [], {})
    for prioritization, tag, exact_runs, heuristic_means in (
        (False, "before", result.exact_before, result.heuristic_before),
        (True, "after", result.exact_after, result.heuristic_after),
    ):
        solver = _config(exact.SolverConfig, spec, prioritization=prioritization)
        exact_runs.extend(exact.solve_exact(scenario, pm, solver)[1].sinr for pm in power_maps)
        metrics.write_summary_csv(exact_runs, os.path.join(spec.output_dir, f"exact_{tag}.csv"))
        heuristic = _config(heur.HeuristicConfig, spec, prioritization=prioritization)
        report = heur.run_heuristic(scenario, power_maps, heuristic)
        heuristic_means.extend(report.per_file_means)
        heur.write_heuristic_csv(report, os.path.join(spec.output_dir, f"heuristic_{tag}.csv"))
    for gain, users in (("op_improvement", cfg.op_ids), ("system_change", None)):
        for method, runs in (("exact", (result.exact_before, result.exact_after)),
                             ("heuristic", (result.heuristic_before, result.heuristic_after))):
            result.summary[f"{gain}_{method}_pct"] = _gain_pct(*runs, users)
    write_csv(os.path.join(spec.output_dir, "summary.csv"), ["metric", "value"],
              result.summary.items())
    _echo_config(spec, extra={"realization_sha256": hashes})
    return result


def run_alpha_sweep(spec, scenario=None, power_maps=None):
    """Exact after-prioritization solves per alpha: average SINR, healthy-user
    SD (None for fewer than two healthy users), and per-OP means, ordered by alpha."""
    _check_kind(spec, "alpha_sweep")
    scenario, power_maps = _inputs(spec, scenario, power_maps)
    os.makedirs(spec.output_dir, exist_ok=True)
    cfg = scenario.config
    healthy = [k for k in cfg.user_ids if k not in cfg.op_ids]
    table = []
    for alpha in sorted(spec.alphas):
        config = _config(exact.SolverConfig, spec, prioritization=True, alpha=alpha)
        sinr_runs = [exact.solve_exact(scenario, pm, config)[1].sinr for pm in power_maps]
        user_means = {k: metrics.mean([r[k] for r in sinr_runs]) for k in cfg.user_ids}
        sd = metrics.fairness_sd([user_means[k] for k in healthy]) if healthy else None
        table.append({
            "alpha": alpha,
            "avg_sinr": metrics.mean(list(user_means.values())),
            "healthy_sd": sd,
            "op_means": {k: user_means[k] for k in cfg.op_ids},
        })
    write_csv(
        os.path.join(spec.output_dir, "alpha_sweep.csv"),
        ["alpha", "avg_sinr", "healthy_sd"] + [f"op_{k}_mean" for k in cfg.op_ids],
        (
            [row["alpha"], row["avg_sinr"], row["healthy_sd"]]
            + [row["op_means"][k] for k in cfg.op_ids]
            for row in table
        ),
    )
    _echo_config(spec)
    return table


def run_scalability(spec):
    """Heuristic wall-clock per standard PRB count with all slots occupied."""
    _check_kind(spec, "scalability")
    os.makedirs(spec.output_dir, exist_ok=True)
    rows = []
    for bandwidth_mhz, prbs in SCALABILITY_CASES:
        users = 2 * prbs
        config = _config(channel.ScenarioConfig, spec, num_bs=2, prbs_per_bs=prbs,
                         num_users=users, num_normal=users - 3)
        scenario, pm = channel.generate_scenario(config)
        hconfig = _config(heur.HeuristicConfig, spec, iterations=1)
        times = []
        for r in range(spec.runs):
            rng = np.random.default_rng(channel.derive_seed(spec.seed, 3, prbs, r))
            start = time.perf_counter()
            heur.run_iteration(scenario, pm, hconfig, rng)
            times.append(time.perf_counter() - start)
        rows.append((bandwidth_mhz, prbs, users, float(np.median(times))))
    write_csv(
        os.path.join(spec.output_dir, "scalability.csv"),
        ["bandwidth_mhz", "prbs", "users", "seconds"],
        rows,
    )
    _echo_config(spec)
    return rows


# --- command wiring ---------------------------------------------------------


def _cmd_ingest(args):
    rows = medrecords.load_raw_records(args.input)
    # in first-seen order, so that the warnings come in file order; an empty id names no one
    raw_ids = dict.fromkeys(r.patient_id for r in rows if r.patient_id)
    records = medrecords.segment(
        medrecords.cleanse(rows), window=args.window, all_patient_ids=raw_ids
    )
    medrecords.write_records_csv(records, args.output)
    print(f"wrote {len(records)} records to {args.output}")


def _cmd_risk(args):
    """Write the scenario back out with op_ps set to each outpatient's posterior.
    The i-th outpatient is scored from the i-th record id in string order."""
    records = {r.patient_id: r for r in medrecords.read_records_csv(args.records)}
    scenario = _read_scenario(args.scenario)
    cfg = scenario.config
    if len(records) < cfg.num_users - cfg.num_normal:  # O(1): before op_ids is built
        raise DataError("fewer patient records than outpatients")
    posteriors = {}
    for uid, patient_id in zip(cfg.op_ids, sorted(records)):
        if uid not in scenario.current_states:
            raise DataError(f"no current state for outpatient {uid}")
        state = risk.CurrentState(**scenario.current_states[uid])
        posteriors[uid] = risk.posterior_stroke(records[patient_id], state,
                                                smoothing=args.smoothing)
    scored = replace(scenario, op_ps=posteriors)
    write_text_atomic(args.output, channel.scenario_to_json(scored))
    print(f"wrote the posteriors of {len(posteriors)} outpatients to {args.output}")


def _cmd_generate(args):
    _check_counts(args, "realizations")
    config = _config(channel.ScenarioConfig, args)
    op_ps = {k: ps for k, ps in REFERENCE_OP_PS.items() if args.reference_ps and k in config.op_ids}
    scenario = channel.Scenario(config=config, op_ps=op_ps)
    maps = (channel.generate_power_map(scenario, realization=i) for i in range(args.realizations))
    maps = itertools.chain([next(maps)], maps)  # map 0 is drawn before any output exists
    _write_scenario_dir(scenario, maps, args.output)
    print(f"wrote scenario and {args.realizations} power maps to {args.output}")


def _read_power_map(path, scenario):
    pm = channel.read_power_map_csv(path, scenario.config.noise_w)
    channel.check_map_shape(scenario, pm, path)
    return pm


def _read_scenario_and_map(args):
    scenario = _read_scenario(args.scenario)
    return scenario, _read_power_map(args.power_map, scenario)


def _cmd_solve(args):
    config = _config(exact.SolverConfig, args)
    scenario, pm = _read_scenario_and_map(args)
    assignment, report = exact.solve_exact(scenario, pm, config)
    exact.write_result_csv(assignment, report, args.output)
    print(f"objective {report.objective_value!r}")


def _cmd_heuristic(args):
    config = _config(heur.HeuristicConfig, args)
    scenario = _read_scenario(args.scenario)
    power_maps = [_read_power_map(p, scenario) for p in args.power_maps]
    report = heur.run_heuristic(scenario, power_maps, config)
    heur.write_heuristic_csv(report, args.output)
    print(f"wrote heuristic report for {len(power_maps)} file(s) to {args.output}")


def _cmd_export_lp(args):
    config = _config(exact.SolverConfig, args, pf_log_mode="piecewise")
    scenario, pm = _read_scenario_and_map(args)
    rows = lp_export.milp_rows(scenario, pm, config)  # checks the inputs before any file exists
    with atomic_open(args.output) as fh:
        fh.writelines(rows)
    print(f"wrote LP model to {args.output}")


def _cmd_validate_solution(args):
    config = _config(exact.SolverConfig, args, pf_log_mode="piecewise")  # export-lp's model
    scenario, pm = _read_scenario_and_map(args)
    parity = lp_export.validate_external_solution(
        read_text(args.solution), scenario, pm, config
    )
    print(
        f"recomputed {parity.recomputed_objective!r} "
        f"reported {parity.reported_objective!r} "
        f"optimum {parity.internal_optimum!r} "
        f"objective_match={parity.objective_match} is_optimal={parity.is_optimal}"
    )
    if not parity.is_optimal:
        print("solution is below the internal optimum")


def _cmd_before_after(args):
    result = run_before_after(_config(ExperimentSpec, args, kind="before_after"))
    print(f"OP improvement (exact) {result.summary['op_improvement_exact_pct']:.2f}%")


def _cmd_sweep_alpha(args):
    table = run_alpha_sweep(_config(ExperimentSpec, args, kind="alpha_sweep"))
    for row in table:
        sd = "n/a" if row["healthy_sd"] is None else f"{row['healthy_sd']:.4f}"
        print(f"alpha={row['alpha']:g} avg_sinr={row['avg_sinr']:.4f} healthy_sd={sd}")


def _cmd_scalability(args):
    rows = run_scalability(_config(ExperimentSpec, args, kind="scalability"))
    for bw, prbs, users, seconds in rows:
        print(f"{bw:g} MHz: {prbs} PRBs, {users} users, {seconds:.4f} s")


# stored name -> flag and argparse keywords; a config field's name where the option sets one
OPTIONS = {
    "input": ("--input", dict(required=True)),
    "output": ("--output", dict(required=True)),
    "window": ("--window", dict(type=int, default=medrecords.DEFAULT_OBSERVATION_DAYS)),
    "records": ("--records", dict(required=True)),
    "scenario": ("--scenario", dict(required=True)),
    "smoothing": ("--smoothing", dict(choices=risk.SMOOTHING_MODES, default="off")),
    "realizations": ("--realizations", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "num_bs": ("--bs", dict(type=int, metavar="BS")),
    "prbs_per_bs": ("--prbs", dict(type=int, metavar="PRBS")),
    "num_users": ("--users", dict(type=int, metavar="USERS")),
    "num_normal": ("--normal", dict(type=int, metavar="NORMAL")),
    "reference_ps": ("--reference-ps", dict(action="store_true", default=False,
                                            help="inject the reference OP posteriors")),
    "power_map": ("--power-map", dict(required=True)),
    "power_maps": ("--power-map", dict(required=True, nargs="+", action="extend",
                                       metavar="POWER_MAP")),
    "objective": ("--objective", dict(choices=exact.OBJECTIVES)),
    "prioritization": ("--prioritize", dict(action="store_true")),
    "alpha": ("--alpha", dict(type=float)),
    "iterations": ("--iterations", dict(type=int)),
    "solution": ("--solution", dict(required=True)),
    "output_dir": ("--output", dict(required=True)),
    "scenario_path": ("--scenario", dict()),
    "alphas": ("--alphas", dict(type=float, nargs="+", action="extend")),
    "runs": ("--runs", dict(type=int)),
}

# command -> summary, its options' stored names in help order, and its parser's set_defaults
COMMANDS = {
    "ingest": ("discretize raw medical records", "input output window", dict(func=_cmd_ingest)),
    "risk": ("score outpatients from discretized records into a scenario",
             "records scenario smoothing output", dict(func=_cmd_risk)),
    "generate": ("write a scenario and power-map realizations",
                 "output realizations seed num_bs prbs_per_bs num_users num_normal reference_ps",
                 dict(func=_cmd_generate, realizations=1)),
    "solve": ("exact solve of one instance",
              "scenario power_map objective prioritization alpha output", dict(func=_cmd_solve)),
    "heuristic": ("semi-greedy allocation with averaging",
                  "scenario power_maps iterations prioritization alpha seed output",
                  dict(func=_cmd_heuristic)),
    "export-lp": ("emit the MILP in LP format",
                  "scenario power_map objective prioritization alpha output",
                  dict(func=_cmd_export_lp)),
    "validate-solution": ("check an external solver solution",
                          "scenario power_map objective prioritization alpha solution",
                          dict(func=_cmd_validate_solution)),
    "before-after": ("paired prioritization experiment",
                     "output_dir scenario_path objective realizations seed alpha iterations",
                     dict(func=_cmd_before_after)),
    "sweep-alpha": ("fairness and SINR across alpha values",
                    "output_dir scenario_path objective realizations seed alphas",
                    dict(func=_cmd_sweep_alpha)),
    "scalability": ("heuristic timing across PRB counts", "output_dir runs seed",
                    dict(func=_cmd_scalability)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prballoc", description="Patient-priority OFDMA uplink PRB allocation"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names, defaults) in COMMANDS.items():
        # an option not given is left out, so each config field keeps its default
        p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for name in names.split():
            flag, kwargs = OPTIONS[name]
            p.add_argument(flag, dest=name, **kwargs)
        p.set_defaults(**defaults)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("infeasible: the instance does not fit in memory", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
