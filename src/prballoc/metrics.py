"""Aggregate statistics: means, sample SD, 95% confidence intervals, fairness."""

import functools
import math
import operator
from dataclasses import dataclass

from .fileio import write_csv

Z_95 = 1.96  # normal-approximation quantile; adequate for ~100 samples


@dataclass
class StatSummary:
    n: int
    mean: float
    sd: float | None  # undefined for n == 1
    ci_low: float
    ci_high: float


def left_sum(values):
    """The sum in left-to-right order, as `sum` gave before Python 3.12 compensated floats."""
    return functools.reduce(operator.add, values, 0)


def mean(values):
    """The mean of a non-empty sequence of reals, summed left to right."""
    return left_sum(values) / len(values)


def summarize(values):
    """Mean, sample (n-1) SD and 95% CI of a list of reals; an SD past a float is inf."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty list")
    n, centre = len(values), mean(values)
    if n == 1:
        return StatSummary(n=1, mean=centre, sd=None, ci_low=centre, ci_high=centre)
    try:  # a square past a float overflows; `** 2` stays, as `x * x` differs in a last bit
        var = left_sum((v - centre) ** 2 for v in values) / (n - 1)
    except OverflowError:
        var = math.inf
    sd = math.sqrt(var)
    half = Z_95 * sd / math.sqrt(n)
    return StatSummary(n=n, mean=centre, sd=sd, ci_low=centre - half, ci_high=centre + half)


def improvement_pct(before, after):
    """Relative change in percent against a positive baseline."""
    if before <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (after - before) / before


def fairness_sd(values):
    """Sample SD of a subset's mean SINRs, by `summarize`'s rules; lower means fairer."""
    return summarize(values).sd


def write_summary_csv(runs, path):
    """One row per user id, ascending: `summarize` of the user's values in `runs`, the
    per-user dicts of one realization or file each."""
    summaries = ((k, summarize([r[k] for r in runs])) for k in sorted(runs[0]))
    write_csv(path, ["user", "n", "mean", "sd", "ci_low", "ci_high"], (
        [k, s.n, s.mean, s.sd, s.ci_low, s.ci_high] for k, s in summaries
    ))
