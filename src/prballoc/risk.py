"""Naive Bayes stroke posterior and priority weight per outpatient.

The posterior is prior (stroke-day frequency) times the product of the four
per-feature conditional likelihoods on stroke days, evaluated at the user's
current state.  An outpatient's weight is 1 + alpha * posterior; normal users
always weigh 1.
"""

import logging
import math
from dataclasses import dataclass

from .errors import DataError, UsageError
from .fileio import open_csv, write_csv
from .medrecords import FEATURES, LEVEL_NAMES

log = logging.getLogger(__name__)

NUM_LEVELS = 3  # every feature has exactly three severity levels
RISK_COLUMNS = ["user_id", "is_op", "ps", "up"]
SMOOTHING_MODES = ("off", "laplace")


def check_alpha(alpha):
    """The one rule for a priority scale: alpha must be finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise UsageError(f"alpha must be finite and > 0, got {alpha!r}")


@dataclass
class RiskConfig:
    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)


@dataclass
class CurrentState:
    """The four feature levels describing a user's present readings."""

    f1: str
    f2: str
    f3: str
    f4: str

    def __post_init__(self):
        for feat in FEATURES:
            token = getattr(self, feat)
            if token not in LEVEL_NAMES[feat]:
                raise ValueError(f"unknown level {token!r} for {feat}")

    def level(self, feature):
        return getattr(self, feature)


@dataclass
class RiskProfile:
    user_id: int
    is_outpatient: bool
    ps: float
    up: float


def prior_stroke(record):
    """Fraction of days in the record on which a stroke occurred."""
    if not record.days:
        raise DataError(f"patient {record.patient_id}: empty record")
    stroke_days = sum(1 for e in record.days if e.stroke)
    return stroke_days / len(record.days)


def conditional_probability(record, feature, level, stroke=True, smoothing="off"):
    """P(feature = level | class = stroke/no-stroke) by counting days."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}")
    class_count = sum(1 for e in record.days if e.stroke == stroke)
    joint = sum(1 for e in record.days if e.stroke == stroke and e.levels[feature] == level)
    if smoothing == "laplace":
        return (joint + 1) / (class_count + NUM_LEVELS)
    if class_count == 0:
        raise DataError(
            f"patient {record.patient_id}: undefined conditional, "
            f"no days with stroke={stroke}"
        )
    return joint / class_count


def posterior_stroke(record, state, smoothing="off"):
    """Stroke posterior PS for the given current state, in [0, 1]."""
    if smoothing not in SMOOTHING_MODES:
        raise UsageError(f"unknown smoothing mode {smoothing!r}")
    prior = prior_stroke(record)
    if prior == 0.0 and smoothing == "off":
        # A healthy history degrades the outpatient to normal priority.
        log.warning(
            "patient %s has no stroke days; posterior forced to 0", record.patient_id
        )
        return 0.0
    ps = prior
    for feature in FEATURES:
        ps *= conditional_probability(
            record, feature, state.level(feature), stroke=True, smoothing=smoothing
        )
    return ps


def priority(ps, config, is_outpatient):
    """User weight: 1 for normal users, 1 + config.alpha * PS for outpatients."""
    if not 0.0 <= ps <= 1.0:
        raise ValueError(f"posterior {ps} outside [0, 1]")
    if not is_outpatient:
        return 1.0
    return 1.0 + config.alpha * ps


def write_risk_csv(profiles, path):
    write_csv(path, RISK_COLUMNS, (
        [p.user_id, int(p.is_outpatient), repr(p.ps), repr(p.up)] for p in profiles
    ))


def read_risk_csv(path):
    with open_csv(path) as (header, reader):
        if header != RISK_COLUMNS:
            raise DataError(f"{path}: bad risk CSV header")
        profiles = []
        for row in reader:
            try:
                uid, op, ps, up = row
                uid, op, ps, up = int(uid), int(op), float(ps), float(up)
                ok = op in (0, 1) and 0.0 <= ps <= 1.0 and 1.0 <= up < math.inf
            except ValueError:
                ok = False
            if not ok:
                raise DataError(
                    f"{path}: line {reader.line_num}: want user_id, is_op 0 or 1, ps in [0, 1]"
                    f" and a finite up >= 1, got {row}"
                )
            profiles.append(RiskProfile(user_id=uid, is_outpatient=bool(op), ps=ps, up=up))
        return profiles
