"""prballoc benchmark: one workload per invocation, in-process, single thread.

    python3 perfbench/run.py --workload before_after --seed 0 --seconds 12 --trace 0

With --trace 0 the run measures every end-to-end metric with tracing off.
With --trace 1 it runs the workload untraced for half of --seconds, then with
a span around every call into prballoc's public functions for the other half,
and reports the untraced timings, per-layer metrics and the tracing
overhead.  Either way every
output is checked against independent code (see oracle.py), and the last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check passed.

Inputs come from --seed alone; the program sees only those inputs.  The
benchmark must run from a checkout holding src/prballoc, and writes only
under .perfbench_out/ in that checkout.
"""

import argparse
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5
DEFAULT_SEED = 0

# name -> unit; the order and units must match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "heur_opt_ratio_off": "ratio", "heur_opt_ratio_on": "ratio",
    "peak_rss_mb": "MB", "success_rate": "ratio",
}
PER_LAYER = {
    "allocator_heuristic.iteration_us": "us", "allocator_heuristic.pool_us": "us",
    "allocator_heuristic.iterations": "count", "allocator_heuristic.pool_calls": "count",
    "allocator_heuristic.pool_entries": "count", "allocator_heuristic.busy_share": "ratio",
    "allocator_heuristic.file_self_ms": "ms", "allocator_heuristic.pool_size_mean": "count",
    "allocator_heuristic.interference_free_share": "ratio",
    "allocator_heuristic.sinr_drop_mean": "ratio", "allocator_heuristic.self_ms": "ms",
    "allocator_exact.solve_ms_p50": "ms", "allocator_exact.solve_ms_p90": "ms",
    "allocator_exact.solves": "count", "allocator_exact.busy_share": "ratio",
    "allocator_exact.self_ms": "ms",
    "channel.map_us": "us", "channel.maps": "count", "channel.csv_write_ms": "ms",
    "channel.csv_read_ms": "ms", "channel.csv_bytes": "bytes", "channel.self_ms": "ms",
    "lp_export.export_ms": "ms", "lp_export.bytes": "bytes", "lp_export.rows": "count",
    "lp_export.self_ms": "ms",
    "medrecords.load_ms": "ms", "medrecords.cleanse_ms": "ms", "medrecords.segment_ms": "ms",
    "medrecords.csv_write_ms": "ms", "medrecords.csv_read_ms": "ms",
    "medrecords.kept_ratio": "ratio", "medrecords.rows_kept": "count",
    "medrecords.self_ms": "ms",
    "risk.posterior_us": "us", "risk.patients": "count", "risk.self_ms": "ms",
    "metrics.summarize_us": "us", "metrics.calls": "count", "metrics.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.spans": "count", "trace.overhead_share": "ratio",
    "untraced.wall_s": "s", "untraced.alloc_p50_ms": "ms", "untraced.alloc_p90_ms": "ms",
    "untraced.alloc_samples": "count",
}


def machine_speed():
    """Seconds for a fixed pure-Python loop: a CPU-contention diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


def import_seconds():
    """Time to import numpy and every prballoc module in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import numpy, prballoc.cli; print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every path and check at a size that runs in seconds")
    return parser.parse_args(argv)


def load_reference(workload, seed, size):
    """Optima recorded from the exact solver for the default seed, if any."""
    with open(os.path.join(HERE, "reference_optima.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(f"{workload}/seed{seed}/{size}", {})


def run_phase(workload, check, seconds, min_reps, tracer=None):
    """Repetitions 0, 1, ... until `seconds` have passed and `min_reps` are done.

    Each repetition's outputs are checked after it, untimed.  Returns the wall
    time of each repetition and of each timed call.
    """
    walls, calls = [], []
    begin = time.perf_counter()
    try:
        while len(walls) < min_reps or time.perf_counter() - begin < seconds:
            rep = len(walls)
            if tracer is not None:
                tracer.run_id = rep
            durations, output = workload.rep(rep)
            walls.append(sum(durations))
            calls.extend(durations)
            if tracer is not None:
                tracer.digest_traces()
            workload.check(rep, output, check)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        check(False, f"{workload.name}: repetition raised {exc!r}")
    workload.captured.clear()
    return walls, calls


def exact_counts(workload, check, traced):
    """Merge per-repetition counts; each must repeat exactly and agree with spans."""
    merged = {}
    for name, values in workload.counts.items():
        check(len(values) == 1, f"count {name} did not repeat exactly: {sorted(values)}")
        merged[name] = float(min(values))
        if name in traced and traced[name] != merged[name]:
            check(False, f"count {name}: spans saw {traced[name]}, outputs {merged[name]}")
    return merged


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prballoc", "__init__.py")):
        print(f"error: no prballoc sources under {SRC}", file=sys.stderr)
        return 2
    speed_start = machine_speed()

    sys.path.insert(0, SRC)
    import numpy as np
    import prballoc
    import spans
    import workloads
    if os.path.dirname(os.path.abspath(prballoc.__file__)) != os.path.join(SRC, "prballoc"):
        print(f"error: imported prballoc from {prballoc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Patients without stroke days log a warning per posterior; the checks
    # cover those values, so keep stderr for real errors.
    logging.getLogger("prballoc").setLevel(logging.ERROR)

    cls = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload, args.seed, args.size)
    # Set-up = imports (in a fresh interpreter) + input generation, several
    # times; the median is reported.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        begin = time.perf_counter()
        workload = cls(args.seed, args.size, OUT, reference)
        workload.setup()
        setup_times.append(import_s + time.perf_counter() - begin)
    setup_s = statistics.median(setup_times)

    check = workloads.Checker()
    undo = []
    metrics = {}
    diagnostics = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "size": args.size, "setup_samples_s": setup_times}
    try:
        if args.trace == 0:
            spans.install_taps(cls.taps, workload.captured, undo)
            walls, _ = run_phase(workload, check, args.seconds, workload.quota_reps())
            spans.restore(undo)
            if len(walls) < workload.quota_reps():
                print("error: the run did not complete its repetitions", file=sys.stderr)
                return 1
            metrics = {
                "setup_s": setup_s,
                **workload.quality(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            diagnostics.update(rep_walls_s=walls)
        else:
            half = args.seconds / 2.0
            spans.install_taps(cls.taps, workload.captured, undo)
            plain, calls = run_phase(workload, check, half, 1)
            spans.restore(undo)
            tracer = spans.Tracer()
            tracer.install(undo)
            spans.install_taps(cls.taps, workload.captured, undo)
            traced, _ = run_phase(workload, check, half, 1, tracer=tracer)
            spans.restore(undo)
            if not plain or not traced:
                print("error: no repetition completed", file=sys.stderr)
                return 1
            layer = spans.layer_metrics(tracer, len(traced), sum(traced))
            counts = exact_counts(workload, check, layer)
            layer.update(counts)
            if "medrecords.rows_kept" in counts:
                layer["medrecords.kept_ratio"] = counts["medrecords.rows_kept"] / workload.raw_rows
            plain_s, traced_s = statistics.median(plain), statistics.median(traced)
            layer["trace.overhead_share"] = (traced_s - plain_s) / plain_s
            layer["untraced.wall_s"] = plain_s
            layer["untraced.alloc_p50_ms"] = float(np.percentile(calls, 50)) * 1e3
            layer["untraced.alloc_p90_ms"] = float(np.percentile(calls, 90)) * 1e3
            layer["untraced.alloc_samples"] = float(len(calls))
            metrics = {name: layer.get(name, 0.0) for name in PER_LAYER}
            diagnostics.update(untraced_rep_walls_s=plain, traced_rep_walls_s=traced)
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    finally:
        spans.restore(undo)

    if args.trace == 0:
        metrics["success_rate"] = 1.0 - check.failed / max(check.attempted, 1)
    units = END_TO_END if args.trace == 0 else PER_LAYER
    speed_end = machine_speed()
    diagnostics.update(machine_speed_start_s=speed_start, machine_speed_end_s=speed_end,
                       failures=check.messages)
    result = {
        "correct": check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"diagnostics": diagnostics, **result}, fh, indent=1)
    for message in check.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"machine_speed_s start={speed_start:.4f} end={speed_end:.4f}  "
          f"(fixed 2M-step Python loop; a rise means CPU contention)")
    for name in units:
        print(f"{name:45s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
