import math

import pytest

from prballoc import allocator_exact as ex
from prballoc import channel, metrics


class TestSummarize:
    def test_constant_data(self):
        s = metrics.summarize([5, 5, 5, 5])
        assert (s.mean, s.sd, s.ci_low, s.ci_high) == (5, 0, 5, 5)

    def test_two_point_hand_example(self):
        s = metrics.summarize([4, 6])
        assert s.mean == 5
        assert s.sd == pytest.approx(math.sqrt(2), rel=1e-12)
        assert s.ci_low == pytest.approx(5 - 1.96, rel=1e-12)
        assert s.ci_high == pytest.approx(5 + 1.96, rel=1e-12)

    def test_single_value_degenerate(self):
        s = metrics.summarize([7])
        assert s.sd is None
        assert s.ci_low == s.ci_high == s.mean == 7

    def test_permutation_invariant(self):
        assert metrics.summarize([1, 2, 9]) == metrics.summarize([9, 1, 2])

    def test_ci_halves_when_n_quadruples(self):
        # at equal sample SD, quadrupling n halves the interval width
        base = [4, 6] * 8
        small = metrics.summarize(base[:4])
        large = metrics.summarize(base)
        width = lambda s: (s.ci_high - s.ci_low) / s.sd
        assert width(large) == pytest.approx(width(small) / 2, rel=1e-12)

    def test_spread_whose_square_passes_a_float_is_inf(self):
        # (1e200 - 5e199) ** 2 raises OverflowError; the SD and the CI's half-width read inf
        s = metrics.summarize([0.0, 1e200])
        assert (s.mean, s.sd, s.ci_low, s.ci_high) == (5e199, math.inf, -math.inf, math.inf)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            metrics.summarize([])

    def test_sums_go_left_to_right(self):
        """1e16 + 1.0 rounds back to 1e16, so left to right these read 0.0; a compensated
        sum, such as the built-in `sum` of Python 3.12 and later, reads 1.0."""
        values = [1e16, 1.0, -1e16]
        assert math.fsum(values) == 1.0
        assert metrics.left_sum(values) == 0.0
        assert metrics.summarize(values).mean == 0.0
        assert metrics.mean(values) == 0.0
        sc = channel.Scenario(config=channel.ScenarioConfig())
        assert ex.Objective(sc, ex.SolverConfig()).value(dict(zip((1, 2, 3), values))) == 0.0


class TestImprovementPct:
    def test_paper_anchor(self):
        assert metrics.improvement_pct(100, 126.6) == pytest.approx(26.6, rel=1e-12)

    def test_identity_and_decrease(self):
        assert metrics.improvement_pct(5, 5) == 0.0
        assert metrics.improvement_pct(4, 2) == -50.0

    def test_sign_convention(self):
        for before, after in ((1.0, 2.0), (2.0, 1.0), (3.0, 3.0)):
            got = metrics.improvement_pct(before, after)
            assert (got > 0) == (after > before) and (got < 0) == (after < before)

    def test_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            metrics.improvement_pct(0.0, 1.0)


class TestFairnessSd:
    def test_hand_example(self):
        assert metrics.fairness_sd([4, 6, 5]) == pytest.approx(1.0, rel=1e-12)

    def test_equal_is_zero(self):
        assert metrics.fairness_sd([3, 3, 3]) == 0.0

    def test_singleton_undefined(self):
        assert metrics.fairness_sd([4]) is None

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            metrics.fairness_sd([])


class TestSummaryCsv:
    def test_layout(self, tmp_path):
        rows = [
            ("mean_sinr", "healthy", metrics.summarize([4, 6])),
            ("mean_sinr", "ops", metrics.summarize([7])),
        ]
        path = tmp_path / "summary.csv"
        metrics.write_summary_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,subset,n,mean,sd,ci_low,ci_high"
        assert lines[2].split(",")[4] == ""  # sd blank for n == 1
