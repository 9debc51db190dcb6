"""Helpers the tests share that the program itself never calls: synthetic raw
records in the ingestion schema, and solution files in the validator's format."""

from prballoc.fileio import write_text_atomic
from prballoc.medrecords import RawRecordRow


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
