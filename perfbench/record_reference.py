"""Record the exact optima that the benchmark checks for the default seed.

    python3 perfbench/record_reference.py

Solves every instance that before_after and alpha_sweep_pf check against a
reference, at both sizes, with prballoc's exact solver, and rewrites
perfbench/reference_optima.json.  Run it only when the optimum itself is meant
to change; a faster solver must reproduce the recorded values.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from prballoc import allocator_exact as exact  # noqa: E402
from prballoc import cli  # noqa: E402


def optima(scenario, maps, config):
    return [exact.solve_exact(scenario, pm, config)[1].objective_value for pm in maps]


def main():
    table = {}
    seed = run.DEFAULT_SEED
    for size, dims in workloads.SIZES.items():
        scenario, maps = workloads._baseline(seed, dims["realizations"])
        table[f"before_after/seed{seed}/{size}"] = {
            f"wsrmax_{tag}": optima(scenario, maps, exact.SolverConfig(
                prioritization=prio, alpha=workloads.ALPHA))
            for prio, tag in ((False, "off"), (True, "on"))
        }
        table[f"alpha_sweep_pf/seed{seed}/{size}"] = {
            f"pf_alpha_{alpha:g}": optima(scenario, maps, exact.SolverConfig(
                objective="pf", prioritization=True, alpha=alpha))
            for alpha in sorted(cli.DEFAULT_ALPHAS)
        }
    with open(os.path.join(HERE, "reference_optima.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
