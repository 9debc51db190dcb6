"""Naive Bayes stroke posterior and priority weight per outpatient.

The posterior is prior (stroke-day frequency) times the product of the four
per-feature conditional likelihoods on stroke days, evaluated at the user's
current state.  An outpatient's weight is 1 + alpha * posterior; normal users
always weigh 1.
"""

import logging
import math
from dataclasses import dataclass

from .errors import DataError, UsageError, check_field_types
from .medrecords import FEATURES, LEVEL_NAMES, shared_levels

log = logging.getLogger(__name__)

SMOOTHING_MODES = ("off", "laplace")


def check_alpha(alpha):
    """The one rule for a priority scale: alpha must be finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise UsageError(f"alpha must be finite and > 0, got {alpha!r}")


@dataclass
class RiskConfig:
    alpha: float

    def __post_init__(self):
        check_field_types(self)
        check_alpha(self.alpha)


@dataclass
class CurrentState:
    """The four feature levels describing a user's present readings."""

    f1: str
    f2: str
    f3: str
    f4: str

    def __post_init__(self):
        shared_levels((self.f1, self.f2, self.f3, self.f4))  # ValueError for an unknown level

    def level(self, feature):
        return getattr(self, feature)


def prior_stroke(record):
    """Fraction of days in the record on which a stroke occurred."""
    if not record.days:
        raise DataError(f"patient {record.patient_id}: empty record")
    stroke_days = sum(1 for e in record.days if e.stroke)
    return stroke_days / len(record.days)


def conditional_probability(record, feature, level, smoothing="off"):
    """P(feature = level | stroke) by counting the stroke days."""
    if feature not in FEATURES:
        raise ValueError(f"unknown feature {feature!r}")
    stroke_days = [e for e in record.days if e.stroke]
    joint = sum(1 for e in stroke_days if e.levels[feature] == level)
    if smoothing == "laplace":
        return (joint + 1) / (len(stroke_days) + len(LEVEL_NAMES[feature]))
    if not stroke_days:
        raise DataError(f"patient {record.patient_id}: undefined conditional, no stroke days")
    return joint / len(stroke_days)


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
        ps *= conditional_probability(record, feature, state.level(feature), smoothing=smoothing)
    return ps


def priority(ps, config, is_outpatient):
    """User weight: 1 for normal users, 1 + config.alpha * PS for outpatients."""
    if not 0.0 <= ps <= 1.0:
        raise ValueError(f"posterior {ps} outside [0, 1]")
    if not is_outpatient:
        return 1.0
    return 1.0 + config.alpha * ps
