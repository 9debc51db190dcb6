import math

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, risk
from prballoc.errors import DataError, UsageError
from prballoc.medrecords import FEATURES, LEVEL_NAMES, DayEntry, MedicalRecord

from helpers import oracle_posterior


def _record(day_specs):
    """day_specs: list of (levels dict, stroke flag)."""
    days = [
        DayEntry(day=i + 1, levels=dict(levels), stroke=stroke)
        for i, (levels, stroke) in enumerate(day_specs)
    ]
    return MedicalRecord(patient_id="p1", days=days)


def _levels(f1="Normal", f2="Normal", f3="Optimal", f4="Light"):
    return {"f1": f1, "f2": f2, "f3": f3, "f4": f4}


def test_current_state_and_scenario_share_the_level_rule():
    bad = {**_levels(), "f2": "Bogus"}
    with pytest.raises(ValueError, match="unknown level 'Bogus' for f2"):
        risk.CurrentState(**bad)
    config = channel.ScenarioConfig()
    with pytest.raises(UsageError, match="outpatient 8: unknown level 'Bogus' for f2"):
        channel.Scenario(config=config, current_states={8: bad})


BASE_STATE = risk.CurrentState(**_levels())


class TestPrior:
    """The stroke-day share, read where every stroke day matches the state."""

    def test_counting(self):
        rec = _record([(_levels(), False)] * 29 + [(_levels(), True)])
        assert risk.posterior_stroke(rec, BASE_STATE) == 1 / 30

    def test_zero_and_one(self):
        for smoothing in risk.SMOOTHING_MODES:
            rec = _record([(_levels(), False)] * 5)
            assert risk.posterior_stroke(rec, BASE_STATE, smoothing) == 0.0
        assert risk.posterior_stroke(_record([(_levels(), True)] * 4), BASE_STATE) == 1.0

    def test_empty_record(self):
        for smoothing in risk.SMOOTHING_MODES:
            with pytest.raises(DataError, match="empty record"):
                risk.posterior_stroke(MedicalRecord(patient_id="p", days=[]), BASE_STATE, smoothing)


class TestConditional:
    """One feature's share of the stroke days, read where the other features all match."""

    def test_hand_counts(self):
        days = [(_levels(), False)] * 8
        days += [(_levels(f3="High"), True), (_levels(f3="High"), True)]
        state = risk.CurrentState(**_levels(f3="High"))
        assert risk.posterior_stroke(_record(days), state) == (2 / 10) * 1.0
        days[-1] = (_levels(f3="Normal"), True)
        assert risk.posterior_stroke(_record(days), state) == (2 / 10) * 0.5

    def test_laplace_formula(self):
        rec = _record([(_levels(f1="Normal"), True), (_levels(f1="High-Hypertension"), True)])
        got = risk.posterior_stroke(rec, BASE_STATE, smoothing="laplace")
        f1 = (1 + 1) / (2 + 3)  # one of the two stroke days at Normal, out of f1's 3 levels
        rest = (2 + 1) / (2 + 3)  # both stroke days at the state's level
        assert got == (2 / 2) * f1 * rest * rest * rest


class TestPosterior:
    def test_spec_hand_example(self):
        stroke_levels = _levels("High-Hypertension", "High-Hypertension", "High", "Heavy")
        days = [(_levels(), False)] * 2 + [(stroke_levels, True)] + [(_levels(), False)] * 2
        rec = _record(days)
        state = risk.CurrentState(**stroke_levels)
        assert risk.posterior_stroke(rec, state) == pytest.approx(0.2, abs=1e-15)

    def test_unseen_level_gives_zero(self):
        stroke_levels = _levels("High-Hypertension", "High-Hypertension", "High", "Heavy")
        days = [(_levels(), False)] * 4 + [(stroke_levels, True)]
        state = risk.CurrentState(**_levels(f4="Moderate", f1="High-Hypertension",
                                            f2="High-Hypertension", f3="High"))
        assert risk.posterior_stroke(_record(days), state) == 0.0

    def test_no_stroke_history_warns_and_zeroes(self, caplog):
        rec = _record([(_levels(), False)] * 10)
        with caplog.at_level("WARNING"):
            ps = risk.posterior_stroke(rec, risk.CurrentState(**_levels()))
        assert ps == 0.0
        assert any("no stroke days" in r.message for r in caplog.records)

    @pytest.mark.parametrize("stroke", [False, True])
    def test_unknown_smoothing_mode_rejected(self, stroke):
        rec = _record([(_levels(), False)] * 4 + [(_levels(), stroke)])
        with pytest.raises(UsageError, match="bogus"):
            risk.posterior_stroke(rec, risk.CurrentState(**_levels()), smoothing="bogus")

    def test_matches_oracle_on_random_records(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_days = int(rng.integers(5, 61))
            days = []
            for d in range(n_days):
                levels = {f: LEVEL_NAMES[f][rng.integers(3)] for f in FEATURES}
                days.append((levels, bool(rng.random() < 0.2)))
            if not any(s for _, s in days):
                days[0] = (days[0][0], True)
            rec = _record(days)
            state = risk.CurrentState(**{f: LEVEL_NAMES[f][rng.integers(3)] for f in FEATURES})
            for smoothing in risk.SMOOTHING_MODES:
                got = risk.posterior_stroke(rec, state, smoothing)
                assert got == oracle_posterior(rec, state, smoothing), smoothing


class TestPriority:
    def test_paper_anchors(self):
        cfg = risk.RiskConfig(alpha=500.0)
        assert risk.priority(0.0064, cfg, True) == pytest.approx(4.2, abs=1e-12)
        cfg = risk.RiskConfig(alpha=50.0)
        assert risk.priority(0.00208, cfg, True) == pytest.approx(1.104, abs=1e-12)

    def test_normal_user_always_one(self):
        cfg = risk.RiskConfig(alpha=500.0)
        assert risk.priority(0.9, cfg, False) == 1.0

    def test_zero_posterior(self):
        cfg = risk.RiskConfig(alpha=500.0)
        assert risk.priority(0.0, cfg, True) == 1.0

    def test_ordering_preserved_and_monotone_in_alpha(self):
        ps_values = list(cli.REFERENCE_OP_PS.values())
        for alpha in cli.DEFAULT_ALPHAS:
            cfg = risk.RiskConfig(alpha=alpha)
            ups = [risk.priority(p, cfg, True) for p in ps_values]
            assert sorted(range(3), key=lambda i: ups[i]) == sorted(
                range(3), key=lambda i: ps_values[i]
            )
        up_by_alpha = [risk.priority(ps_values[0], risk.RiskConfig(alpha=a), True)
                       for a in cli.DEFAULT_ALPHAS]
        assert up_by_alpha == sorted(up_by_alpha) and len(set(up_by_alpha)) == 5

    def test_config_validation(self):
        """Every config that carries alpha takes only a finite alpha > 0."""
        for make in (risk.RiskConfig, ex.SolverConfig, heur.HeuristicConfig):
            for alpha in (0.0, -1000.0, math.nan, math.inf, -math.inf, "5", True):
                with pytest.raises(UsageError, match="alpha"):
                    make(alpha=alpha)
