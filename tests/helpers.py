"""Helpers the tests share that the program itself never calls: synthetic raw
records in the ingestion schema, solution files in the validator's format, the
check of the MILP's linearization at an assignment, and a bootstrap interval."""

import numpy as np

from prballoc import lp_export
from prballoc.allocator_exact import sinr_of
from prballoc.fileio import write_text_atomic
from prballoc.medrecords import RawRecordRow


class LambdaTooSmallError(ValueError):
    """Big-M constant below an SINR it must dominate."""


def synthesize_raw_records(num_patients, days, rng, stroke_rate=0.1):
    """Raw rows of patients p1, p2, ..., one per day, drawn from `rng`."""
    rows = []
    for p in range(1, num_patients + 1):
        pid = f"p{p}"
        for d in range(1, days + 1):
            rows.append(
                RawRecordRow(
                    patient_id=pid,
                    day=d,
                    sysbp=float(rng.uniform(95, 180)),
                    diabp=float(rng.uniform(60, 110)),
                    totchol=float(rng.uniform(150, 300)),
                    cigpday=float(rng.integers(0, 40)),
                    stroke=int(rng.random() < stroke_rate),
                )
            )
    return rows


def write_solution_file(assignment, objective, path):
    """Serialize a solution in the validator's `name value` format."""
    lines = [f"# objective {float(objective)!r}\n"]
    lines += [f"X_{k}_{n}_{b} 1\n" for k, (b, n) in sorted(assignment.slots.items())]
    write_text_atomic(path, "".join(lines))


def verify_linearization(assignment, power_map, lam=None):
    """Largest residual of the assigned users' c16 rows, each over its X coefficient.

    X is the assignment, T each user's SINR (`sinr_of`) and PHI = T X, the product rows
    c13-c15 pin.  `lam` defaults to the exported model's `lp_export.big_m`.  Raises when
    an SINR exceeds lam: c13 or c15 then cut the point off.
    """
    lam = lp_export.big_m(power_map) if lam is None else lam
    sinr = sinr_of(assignment, power_map)
    worst = 0.0
    for k, (b, n) in assignment.slots.items():
        if sinr[k] > lam:
            raise LambdaTooSmallError(f"lambda {lam} below SINR {sinr[k]} of user {k}; big-M binds")
        phis, x_coef = lp_export.balance_row(power_map, k, n, b)
        value = sum(q * sinr[k] for m, w, q in phis if assignment.slots.get(m) == (w, n))
        worst = max(worst, abs(value + sinr[k] - x_coef) / x_coef)
    return worst


def paired_bootstrap(statistic, *samples, resamples=5000, level=0.95, seed=0):
    """Percentile bootstrap interval of `statistic` (Efron & Tibshirani, 1993, ch. 13).

    Each sample holds one value per realization along its first axis, the same
    realizations in each.  A resample draws n realizations with replacement and takes
    them from every sample alike, so paired readings keep their pairing.  `statistic`
    gets the resampled arrays, each with a leading resample axis, and returns one value
    per resample.  One Generator, seeded by `seed`, draws every resample.
    """
    arrays = [np.asarray(sample, dtype=float) for sample in samples]
    n = len(arrays[0])
    picks = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
    tail = 50 * (1 - level)
    low, high = np.percentile(statistic(*(a[picks] for a in arrays)), [tail, 100 - tail])
    return float(low), float(high)
