"""Outpatient medical record ingestion and discretization.

Raw longitudinal patient data goes through three stages: reduction (only the
four clinical features below are kept), cleansing (incomplete, erroneous, or
inconsistent rows are dropped) and generalization (numeric readings are mapped
to three severity levels each).
"""

import bisect
import functools
import itertools
import logging
import math
import operator
import sys
from dataclasses import dataclass, fields
from types import MappingProxyType

from .errors import DataError, UsageError
from .fileio import parse_id, read_csv, write_csv

log = logging.getLogger(__name__)


@dataclass(slots=True)
class RawRecordRow:  # its fields are the raw CSV's columns: patient_id, then the numeric ones
    patient_id: str
    day: float | None
    sysbp: float | None
    diabp: float | None
    totchol: float | None
    cigpday: float | None
    stroke: float | None


CSV_COLUMNS = [f.name for f in fields(RawRecordRow)]

# Severity tables: feature -> (raw reading column, bounds, names); a reading takes
# names[i] for the i bounds <= it.  Printed ranges are closed on both printed endpoints,
# "<x" is strictly less and "x+" means >= x.  0 cigarettes/day falls into Light.
LEVEL_TABLES = {
    "f1": ("sysbp", (120.0, 140.0), ("Normal", "Pre-hypertension", "High-Hypertension")),
    "f2": ("diabp", (80.0, 90.0), ("Normal", "Pre-hypertension", "High-Hypertension")),
    "f3": ("totchol", (200.0, 240.0), ("Optimal", "Normal", "High")),
    "f4": ("cigpday", (11.0, 20.0), ("Light", "Moderate", "Heavy")),
}

FEATURES = tuple(LEVEL_TABLES)
RECORD_COLUMNS = ["patient_id", "day", *FEATURES, "stroke"]
LEVEL_NAMES = {f: names for f, (_, _, names) in LEVEL_TABLES.items()}

# A raw row's readings, in FEATURES order.
_readings = operator.attrgetter(*(column for column, _, _ in LEVEL_TABLES.values()))

# One read-only {feature: level} mapping per combination of the four levels
# (3**4 of them), keyed by the tokens in FEATURES order.  Every DayEntry shares
# one of these instead of holding its own dict.
_LEVEL_MAPPINGS = {
    tokens: MappingProxyType(dict(zip(FEATURES, tokens)))
    for tokens in itertools.product(*(LEVEL_NAMES[f] for f in FEATURES))
}

DEFAULT_OBSERVATION_DAYS = 30


@dataclass(slots=True)
class DayEntry:
    day: int
    levels: MappingProxyType  # feature name -> level token; shared, read-only
    stroke: bool


@dataclass(slots=True)
class MedicalRecord:
    patient_id: str
    days: list  # of DayEntry, ascending by day


def level_of(feature, value):
    """Map a numeric reading to its severity level token."""
    if feature not in LEVEL_TABLES:
        raise ValueError(f"unknown feature {feature!r}")
    if value < 0:
        raise ValueError(f"negative reading {value} for {feature}")
    _, bounds, names = LEVEL_TABLES[feature]
    return names[bisect.bisect_right(bounds, value)]


def shared_levels(tokens):
    """The shared read-only mapping of tokens in FEATURES order; ValueError if one is unknown."""
    try:
        return _LEVEL_MAPPINGS[tokens]
    except (KeyError, TypeError):
        for feat, token in zip(FEATURES, tokens):
            if token not in LEVEL_NAMES[feat]:
                raise ValueError(f"unknown level {token!r} for {feat}") from None
        raise


def _parse_cell(text, column, cast):
    if text == "":
        return None
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"non-numeric value {text!r} in column {column!r}") from None


def load_raw_records(path):
    """Read the raw CSV (one row per patient-day) into floats; empty cells stay missing.

    Only cleanse judges the values.  Rows share one float per distinct cell text, through a
    per-file cache: that pays where readings repeat, as clinical ones do (the benchmark's
    file: 2,433 texts for 33,879 readings, half the rows' memory); else the peak triples.
    """
    def start(header):  # the header names CSV_COLUMNS once each, in any order, among others
        if header is None:
            raise ValueError("empty file")
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for c in CSV_COLUMNS:
            if header.count(c) != 1:
                raise ValueError(f"repeated column {c!r}")
        (pid_at, _), *numeric = [(header.index(c), c) for c in CSV_COLUMNS]
        number = functools.cache(float)  # a ValueError is not cached

        def row(cells):
            return RawRecordRow(sys.intern(cells[pid_at]),
                                *[_parse_cell(cells[i], c, number) for i, c in numeric])
        return row

    return list(read_csv(path, start))


def _is_complete(row):  # nan and inf fail `row.day % 1`, and -inf fails `row.day < 1`
    if not row.patient_id or row.day is None or row.day < 1 or row.day % 1 or row.stroke not in (0, 1):
        return False
    return all(v is not None and math.isfinite(v) and v >= 0 for v in _readings(row))


def cleanse(rows):
    """Drop incomplete, erroneous and inconsistent rows; order is preserved.

    A row survives only if its patient id is not empty, its day is a whole number
    >= 1, its stroke flag is 0 or 1, its four readings are present, finite and
    non-negative, and its (patient, day) pair has not been seen before.
    """
    kept = []
    seen = set()
    for row in rows:
        if not _is_complete(row):
            continue
        key = (row.patient_id, row.day)
        if key in seen:
            continue
        seen.add(key)
        kept.append(row)
    dropped = len(rows) - len(kept)
    if dropped:
        log.info("cleanse: dropped %d of %d rows", dropped, len(rows))
    return kept


def generalize(row):
    """Discretize one cleansed row into a DayEntry of severity levels."""
    levels = shared_levels(tuple(map(level_of, FEATURES, _readings(row))))
    return DayEntry(day=int(row.day), levels=levels, stroke=bool(row.stroke))


def _by_patient(pairs):
    """{patient id: items ascending by day} of (patient id, item) pairs, in first-seen order."""
    groups = {}
    for pid, item in pairs:
        groups.setdefault(pid, []).append(item)
    for items in groups.values():
        items.sort(key=operator.attrgetter("day"))
    return groups


def segment(rows, window=DEFAULT_OBSERVATION_DAYS, all_patient_ids=None):
    """Group cleansed rows into per-patient records of at most `window` days.

    Days are sorted ascending and the record keeps the first `window` of them.
    `all_patient_ids` may list patients seen before cleansing, so that patients
    who lost every day can be warned about.
    """
    if window < 1:
        raise UsageError("window must be >= 1")
    by_patient = _by_patient((row.patient_id, row) for row in rows)
    if all_patient_ids is not None:
        for pid in all_patient_ids:
            if pid not in by_patient:
                log.warning("patient %s has no valid days and was excluded", pid)
    return [MedicalRecord(patient_id=pid, days=[generalize(r) for r in patient_rows[:window]])
            for pid, patient_rows in by_patient.items()]


def write_records_csv(records, path):
    """Write discretized records with level names as tokens."""
    write_csv(path, RECORD_COLUMNS, (
        [rec.patient_id, entry.day]
        + [entry.levels[f] for f in FEATURES]
        + [1 if entry.stroke else 0]
        for rec in records
        for entry in rec.days
    ))


def read_records_csv(path):
    """Read discretized records written by write_records_csv."""
    def start(header):
        if header != RECORD_COLUMNS:
            raise ValueError(f"expected header {','.join(RECORD_COLUMNS)}")
        return row

    def row(cells):
        pid, day, *levels, stroke = cells
        if not pid:
            raise ValueError("empty patient_id")
        entry = DayEntry(day=parse_id(day), levels=shared_levels(tuple(levels)),
                         stroke=stroke == "1")
        if entry.day < 1 or stroke not in ("0", "1"):
            raise ValueError(f"want a day >= 1 and a stroke of 0 or 1, got {day!r} and {stroke!r}")
        return sys.intern(pid), entry

    by_patient = _by_patient(read_csv(path, start))
    for pid, entries in by_patient.items():
        for a, b in itertools.pairwise(entries):
            if a.day == b.day:
                raise DataError(f"{path}: patient {pid!r} repeats day {a.day}")
    return [MedicalRecord(patient_id=pid, days=entries) for pid, entries in by_patient.items()]
