"""Smoke self-test of the benchmark at the tiny size.

    python3 perfbench/selftest.py

Runs all four workloads, untraced and traced, for two seeds, and asserts that
every metric named in BENCHMARK.json is emitted with its unit, that no check
failed, that spans reach the `from .x import y` aliases, and that the
benchmark refuses to run without the program's sources.  Exits 0 on success.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def parent_names(path, child):
    """Names of the spans that called `child`, from a written span file."""
    with np.load(path) as data:
        names, ids, parents = list(data["names"]), data["name_id"], data["parent"]
    calls = np.flatnonzero(ids == names.index(child))
    return {names[ids[p]] for p in parents[calls] if p >= 0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (0, 1):
            for trace in (0, 1):
                proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                            "--trace", str(trace), "--size", "tiny"])
                label = f"{workload} seed {seed} trace {trace}"
                assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
                assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, label
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                assert units == expected[trace], f"{label}: metrics {sorted(units)}"
                if trace == 0:
                    assert result["metrics"]["success_rate"]["value"] == 1.0, label
                print(f"ok  {label}: {result['attempted']} checks")

    assert "allocator_heuristic.run_iteration" in parent_names(
        os.path.join(OUT, "spans-before_after-seed1.npz"), "allocator_exact.sinr_of")
    lp_spans = os.path.join(OUT, "spans-records_to_lp-seed1.npz")
    assert "lp_export.export_milp" in parent_names(lp_spans, "allocator_exact.priorities_for")
    print("ok  spans reach sinr_of in allocator_heuristic and priorities_for in lp_export")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "before_after", "--seed", "0", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/prballoc")


if __name__ == "__main__":
    main()
