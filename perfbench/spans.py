"""Spans around calls into prballoc's public functions, and per-layer metrics.

A span records name, start, end, parent span and run id (the repetition it
belongs to).  Spans are kept in memory in flat integer arrays and written out
once, when the benchmark ends.  Patches replace a function in every prballoc
module that holds it, so `from .x import y` aliases (such as `sinr_of` in
allocator_heuristic, `solve_exact` and `priorities_for` in lp_export) are
traced as well as the defining module's attribute.

Nothing in prballoc waits on another thread, a queue or a lock, so no metric
here measures waiting time: a layer's time is all busy time.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Public functions traced per layer; each layer is the module defining them.
TRACED = {
    "medrecords": ("load_raw_records", "cleanse", "segment", "write_records_csv",
                   "read_records_csv"),
    "risk": ("posterior_stroke", "priority"),
    "channel": ("generate_power_map", "write_power_map_csv", "read_power_map_csv",
                "scenario_to_json", "scenario_from_json"),
    "allocator_exact": ("solve_exact", "evaluate_assignment", "sinr_of", "priorities_for"),
    "allocator_heuristic": ("run_heuristic", "run_file", "run_iteration", "best_sinr_pool",
                            "write_heuristic_csv"),
    "lp_export": ("export_milp",),
    "metrics": ("summarize", "fairness_sd", "improvement_pct", "write_summary_csv"),
    "cli": ("run_before_after", "run_alpha_sweep"),
}
LAYERS = tuple(TRACED)


def _patch_everywhere(module_name, function_name, make_wrapper, undo):
    """Replace one function in every loaded prballoc module that refers to it."""
    original = getattr(sys.modules[f"prballoc.{module_name}"], function_name)
    wrapper = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if name == "prballoc" or name.startswith("prballoc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))


def restore(undo):
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
    undo.clear()


def install_taps(taps, sink, undo):
    """Keep every result of the tapped functions in `sink[function_name]`."""
    for module_name, function_name in taps:
        def make(fn, key=function_name):
            @functools.wraps(fn)
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.setdefault(key, []).append(result)
                return result
            return tapped
        _patch_everywhere(module_name, function_name, make, undo)


class Tracer:
    """Records a span per call of every function in TRACED."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.stack = []
        # Per-call facts the spans cannot hold, taken from returned values.
        self.pool_sizes = array("q")
        self.pool_runs = array("q")
        self.iteration_traces = []
        self.picks = self.interference_free = self.users = 0
        self.sinr_drop = 0.0

    def install(self, undo):
        for i, name in enumerate(self.names):
            layer, fn = name.split(".")
            _patch_everywhere(layer, fn, functools.partial(self._wrap, i, name), undo)

    def _wrap(self, name_id, name, fn):
        ids, starts, ends, parents, runs, stack = (
            self.name_id, self.start, self.end, self.parent, self.run, self.stack)
        clock = time.perf_counter_ns
        keep_size = name == "allocator_heuristic.best_sinr_pool"
        keep_trace = name == "allocator_heuristic.run_iteration"
        sizes, size_runs, traces = self.pool_sizes, self.pool_runs, self.iteration_traces

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if keep_size:
                sizes.append(len(result))
                size_runs.append(self.run_id)
            elif keep_trace:
                traces.append(result)
            return result

        return span

    def digest_traces(self):
        """Fold the kept IterationTraces into totals and drop them.

        A pool pick with an interferer places two users and one without
        places one, so an iteration with P picks over K users made 2P - K
        interference-free picks.  sinr_drop: relative loss from the SINR a
        user saw when admitted to its final SINR, caused by later admissions.
        Both read 0 when every slot is taken and every pick brings a partner.
        Called between repetitions, outside every span.
        """
        for trace in self.iteration_traces:
            picks = len(trace.pool_sizes)
            self.picks += picks
            self.interference_free += 2 * picks - len(trace.slots)
            for k, at in trace.at_assignment_sinr.items():
                self.users += 1
                self.sinr_drop += (at - trace.final_sinr[k]) / at
        self.iteration_traces.clear()

    def write(self, path):
        """Write every span to one uncompressed .npz file."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int64),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64),
                 run=np.frombuffer(self.run, np.int64))


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if len(values) else 0.0


def layer_metrics(tracer, reps, traced_wall_s):
    """Per-layer metrics from the spans of `reps` traced repetitions.

    Times are medians over all traced calls, except *.self_ms (mean per
    repetition) and *.busy_share (share of the traced wall time spent in
    calls made from the runner or the benchmark itself into that layer).
    Counts are those of the first repetition (run id 0), whose inputs are the
    same in every run of a seed, so they repeat exactly.  A layer the workload
    never calls reports 0.
    """
    name_id = np.frombuffer(tracer.name_id, np.int64)
    duration = np.frombuffer(tracer.end, np.int64) - np.frombuffer(tracer.start, np.int64)
    parent = np.frombuffer(tracer.parent, np.int64)
    first = np.frombuffer(tracer.run, np.int64) == 0
    n = len(duration)
    layer_of_name = np.array([LAYERS.index(x.split(".")[0]) for x in tracer.names])
    layer = layer_of_name[name_id] if n else np.zeros(0, np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    self_time = duration - child_time
    cli_layer = LAYERS.index("cli")
    from_runner = ~has_parent
    from_runner[has_parent] = layer[parent[has_parent]] == cli_layer
    entered = from_runner & (layer != cli_layer)

    def select(name):
        return duration[name_id == tracer.names.index(name)]

    def calls(name):
        return float(np.count_nonzero(first & (name_id == tracer.names.index(name))))

    wall_ns = traced_wall_s * 1e9
    m = {}
    for i, layer_name in enumerate(LAYERS):
        m[f"{layer_name}.self_ms"] = float(self_time[layer == i].sum()) / reps / 1e6
    for layer_name in ("allocator_heuristic", "allocator_exact"):
        i = LAYERS.index(layer_name)
        m[f"{layer_name}.busy_share"] = float(duration[entered & (layer == i)].sum()) / wall_ns

    # allocator_heuristic
    m["allocator_heuristic.iteration_us"] = _median(select("allocator_heuristic.run_iteration")) / 1e3
    m["allocator_heuristic.pool_us"] = _median(select("allocator_heuristic.best_sinr_pool")) / 1e3
    m["allocator_heuristic.iterations"] = calls("allocator_heuristic.run_iteration")
    m["allocator_heuristic.pool_calls"] = calls("allocator_heuristic.best_sinr_pool")
    pool_sizes = np.frombuffer(tracer.pool_sizes, np.int64)
    pool_first = np.frombuffer(tracer.pool_runs, np.int64) == 0
    m["allocator_heuristic.pool_entries"] = float(pool_sizes[pool_first].sum())
    iteration_id = tracer.names.index("allocator_heuristic.run_iteration")
    is_iteration = name_id == iteration_id
    in_iteration = has_parent & is_iteration
    iteration_time = np.bincount(parent[in_iteration], weights=duration[in_iteration], minlength=n)
    file_spans = name_id == tracer.names.index("allocator_heuristic.run_file")
    m["allocator_heuristic.file_self_ms"] = _median(
        (duration - iteration_time)[file_spans]) / 1e6
    m["allocator_heuristic.pool_size_mean"] = float(pool_sizes.mean()) if len(pool_sizes) else 0.0
    m["allocator_heuristic.interference_free_share"] = tracer.interference_free / max(tracer.picks, 1)
    m["allocator_heuristic.sinr_drop_mean"] = tracer.sinr_drop / max(tracer.users, 1)

    # allocator_exact
    solves = select("allocator_exact.solve_exact")
    m["allocator_exact.solve_ms_p50"] = _median(solves) / 1e6
    m["allocator_exact.solve_ms_p90"] = _p90(solves) / 1e6
    m["allocator_exact.solves"] = calls("allocator_exact.solve_exact")

    # channel
    m["channel.map_us"] = _median(select("channel.generate_power_map")) / 1e3
    m["channel.maps"] = calls("channel.generate_power_map")
    m["channel.csv_write_ms"] = _median(select("channel.write_power_map_csv")) / 1e6
    m["channel.csv_read_ms"] = _median(select("channel.read_power_map_csv")) / 1e6

    m["lp_export.export_ms"] = _median(select("lp_export.export_milp")) / 1e6

    for fn, key in (("load_raw_records", "load_ms"), ("cleanse", "cleanse_ms"),
                    ("segment", "segment_ms"), ("write_records_csv", "csv_write_ms"),
                    ("read_records_csv", "csv_read_ms")):
        m[f"medrecords.{key}"] = _median(select(f"medrecords.{fn}")) / 1e6

    m["risk.posterior_us"] = _median(select("risk.posterior_stroke")) / 1e3
    m["risk.patients"] = calls("risk.posterior_stroke")

    m["metrics.summarize_us"] = _median(select("metrics.summarize")) / 1e3
    m["metrics.calls"] = calls("metrics.summarize")

    m["trace.spans"] = float(np.count_nonzero(first))
    return m
