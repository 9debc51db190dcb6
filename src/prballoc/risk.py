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


def posterior_stroke(record, state, smoothing="off"):
    """Stroke posterior PS for the given current state, in [0, 1]: the stroke-day share times,
    per feature, the share of stroke days at the state's level (Laplace-smoothed on request)."""
    if smoothing not in SMOOTHING_MODES:
        raise UsageError(f"unknown smoothing mode {smoothing!r}")
    if not record.days:
        raise DataError(f"patient {record.patient_id}: empty record")
    stroke_levels = [e.levels for e in record.days if e.stroke]
    strokes = len(stroke_levels)
    if not strokes and smoothing == "off":
        # A healthy history degrades the outpatient to normal priority.
        log.warning("patient %s has no stroke days; posterior forced to 0", record.patient_id)
        return 0.0
    ps = strokes / len(record.days)
    for feature in FEATURES:
        level = state.level(feature)
        joint = sum(1 for levels in stroke_levels if levels[feature] == level)
        if smoothing == "laplace":
            ps *= (joint + 1) / (strokes + len(LEVEL_NAMES[feature]))
        else:
            ps *= joint / strokes
    return ps


def priority(ps, config, is_outpatient):
    """User weight: 1 for normal users, 1 + config.alpha * PS for outpatients.  PS is a
    posterior in [0, 1], the rule `Scenario` checks for every op_ps it holds."""
    if not is_outpatient:
        return 1.0
    return 1.0 + config.alpha * ps
