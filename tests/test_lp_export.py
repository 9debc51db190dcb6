import hashlib
import os

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import channel, cli, lp_export
from prballoc.errors import DataError, UsageError

from helpers import baseline, hand_instance, write_solution_file

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def export_lp_before_output(tmp_path, monkeypatch, capsys, *argv, power_map=None):
    """Run `export-lp` on the baseline's files, its map replaced by `power_map` if given,
    with `argv` added, failing if it opens its output; return its exit code and stderr."""
    sc, pm = baseline()
    pm = pm if power_map is None else power_map
    (tmp_path / "scenario.json").write_text(channel.scenario_to_json(sc))
    channel.write_power_map_csv(pm, str(tmp_path / "map.csv"))

    def opened(path):
        raise AssertionError(f"export-lp opened {path} before its checks")

    monkeypatch.setattr(cli, "atomic_open", opened)
    capsys.readouterr()
    code = cli.main([
        "export-lp", "--scenario", str(tmp_path / "scenario.json"),
        "--power-map", str(tmp_path / "map.csv"), "--output", str(tmp_path / "model.lp"),
        *argv,
    ])
    assert sorted(os.listdir(tmp_path)) == ["map.csv", "scenario.json"]
    return code, capsys.readouterr().err


class TestExport:
    def test_variable_counts_table_scale(self):
        counts = lp_export.variable_counts(10, 5, 2)
        assert counts == {"X": 100, "T": 100, "PHI": 900}
        assert lp_export.variable_counts(2, 1, 2) == {"X": 4, "T": 4, "PHI": 4}

    def test_counts_match_emitted_model(self):
        sc, pm = baseline()
        text = lp_export.export_milp(sc, pm, ex.SolverConfig())
        x_vars = {tok for line in text.splitlines() for tok in line.split() if tok.startswith("X_")}
        phi_vars = {tok for line in text.splitlines() for tok in line.split() if tok.startswith("PHI_")}
        assert len(x_vars) == 100
        assert len(phi_vars) == 900

    def test_every_phi_in_its_four_rows(self):
        sc, pm = hand_instance()
        text = lp_export.export_milp(sc, pm, ex.SolverConfig())
        for suffix in ("c13", "c14", "c15"):
            rows = [l for l in text.splitlines() if l.strip().startswith(suffix)]
            assert len(rows) == 4
        balance = [l for l in text.splitlines() if l.strip().startswith("c16")]
        assert len(balance) == 4
        assert sum(l.count("PHI_") for l in balance) == 4

    def test_deterministic_bytes(self):
        sc, pm = baseline()
        cfg = ex.SolverConfig()
        assert lp_export.export_milp(sc, pm, cfg) == lp_export.export_milp(sc, pm, cfg)

    def test_golden_hand_instance(self, monkeypatch):
        sc, pm = hand_instance()
        monkeypatch.setattr(lp_export, "big_m", lambda power_map: 100.0)  # the golden's lambda
        text = lp_export.export_milp(sc, pm, ex.SolverConfig())
        with open(os.path.join(DATA_DIR, "hand_instance.lp"), encoding="utf-8") as fh:
            assert text == fh.read()

    def test_golden_hand_instance_pf(self, monkeypatch):
        # pins the c21 and c24 rows and the Bounds section of the PF model
        sc, pm = hand_instance()
        cfg = ex.SolverConfig(
            objective="pf",
            prioritization=True,
            pf_log_mode="piecewise",
            pwl=ex.PwlSpec.default(),
        )
        monkeypatch.setattr(lp_export, "big_m", lambda power_map: 100.0)  # the golden's lambda
        text = lp_export.export_milp(sc, pm, cfg)
        with open(os.path.join(DATA_DIR, "hand_instance_pf.lp"), encoding="utf-8") as fh:
            assert text == fh.read()

    @pytest.mark.parametrize("config, digest", [
        (ex.SolverConfig(), "9c5967ebafbcb0ae89dd5cdb2356179f4d769d143bd3c69b446f5430256497a9"),
        (ex.SolverConfig(objective="pf", prioritization=True, pf_log_mode="piecewise"),
         "859b5bc68e9f956bc4287df4f3c7fd242ebcb108b0a1c338114d50ad5f1806fd"),
    ], ids=["wsrmax", "pf-prioritized"])
    def test_three_bs_bytes(self, config, digest):
        # pins every row's (prb, bs) order at 3 BSs, where the goldens above have 2
        three_bs = os.path.join(DATA_DIR, "three_bs")
        with open(os.path.join(three_bs, "scenario.json"), encoding="utf-8") as fh:
            sc = channel.scenario_from_json(fh.read())
        pm = channel.read_power_map_csv(os.path.join(three_bs, "power_map_000.csv"),
                                        sc.config.noise_w)
        text = lp_export.export_milp(sc, pm, config)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_pf_rows(self):
        sc, pm = baseline()
        cfg = ex.SolverConfig(
            objective="pf",
            prioritization=True,
            pf_log_mode="piecewise",
            pwl=ex.PwlSpec.default(),
        )
        text = lp_export.export_milp(sc, pm, cfg)
        lines = text.splitlines()
        s_defs = [l for l in lines if l.strip().startswith("c21_")]
        tangents = [l for l in lines if l.strip().startswith("c24_")]
        frees = [l for l in lines if l.strip().endswith("free")]
        assert len(s_defs) == 10
        assert len(tangents) == 7 * 10  # log rows for the 7 normal users only
        assert len(frees) == 7
        # OPs enter the objective linearly with their weights
        assert "S_8" in lines[2] and "L_8" not in lines[2]

    @pytest.mark.parametrize("power", [0.0, 1e300])
    def test_big_m_from_a_bad_map_is_a_data_error(self, power, tmp_path, monkeypatch, capsys):
        # the default lambda, 10x the largest power over the noise, is 0 or overflows
        sc, pm = baseline()
        q = pm.q.copy() if power else np.zeros_like(pm.q)
        q[0, 0, 0] = power
        bad = channel.PowerMap(q=q, noise_w=pm.noise_w)
        with pytest.raises(DataError, match="lambda"):
            lp_export.milp_rows(sc, bad, ex.SolverConfig())  # not iterated
        code, err = export_lp_before_output(tmp_path, monkeypatch, capsys, power_map=bad)
        assert code == 4 and "power map" in err

    def test_big_m_from_a_nan_map_is_a_data_error(self):
        # the map reader refuses nan first, so only a map built in code reaches big_m
        sc, pm = baseline()
        q = pm.q.copy()
        q[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="lambda"):
            lp_export.milp_rows(sc, channel.PowerMap(q=q, noise_w=pm.noise_w), ex.SolverConfig())

    def test_pf_without_pwl_rejected(self, tmp_path, monkeypatch, capsys):
        sc, pm = baseline()
        cfg = ex.SolverConfig(objective="pf")  # pf_log_mode "exact_log"
        with pytest.raises(UsageError, match="piecewise"):
            lp_export.export_milp(sc, pm, cfg)
        with pytest.raises(UsageError, match="piecewise"):
            lp_export.milp_rows(sc, pm, cfg)  # not iterated
        monkeypatch.setattr(cli, "_config", lambda cls, settings, **fixed: cfg)
        code, err = export_lp_before_output(tmp_path, monkeypatch, capsys, "--objective", "pf")
        assert code == 2 and "PwlSpec" in err


class TestValidation:
    def test_round_trip_parity(self, tmp_path):
        sc, pm = baseline()
        cfg = ex.SolverConfig(objective="wsrmax", prioritization=True)
        assignment, report = ex.solve_exact(sc, pm, cfg)
        path = tmp_path / "solution.txt"
        write_solution_file(assignment, report.objective_value, path)
        parity = lp_export.validate_external_solution(path.read_text(), sc, pm, cfg)
        assert parity.objective_match and parity.is_optimal
        # user iteration order may differ, so only bit-near equality holds
        assert parity.recomputed_objective == pytest.approx(
            report.objective_value, rel=1e-12
        )

    def test_suboptimal_flagged(self, tmp_path):
        sc, pm = hand_instance()
        cfg = ex.SolverConfig()
        bad = ex.Assignment(slots={1: (2, 1), 2: (1, 1)})
        path = tmp_path / "bad.txt"
        write_solution_file(bad, 0.2, path)
        parity = lp_export.validate_external_solution(path.read_text(), sc, pm, cfg)
        assert parity.objective_match and not parity.is_optimal

    def test_fractional_rejected(self):
        sc, pm = hand_instance()
        with pytest.raises(DataError, match="non-integral"):
            lp_export.validate_external_solution(
                "X_1_1_1 0.4\nX_2_1_2 1\n", sc, pm, ex.SolverConfig()
            )

    def test_duplicate_slot_rejected(self):
        sc, pm = hand_instance()
        with pytest.raises(DataError):
            lp_export.validate_external_solution(
                "X_1_1_1 1\nX_1_1_2 1\nX_2_1_2 1\n", sc, pm, ex.SolverConfig()
            )

    def test_missing_user_rejected(self):
        sc, pm = hand_instance()
        with pytest.raises(DataError, match="without a slot"):
            lp_export.validate_external_solution("X_1_1_1 1\n", sc, pm, ex.SolverConfig())

    def test_malformed_line(self):
        with pytest.raises(DataError, match="line 1"):
            lp_export.parse_solution_text("X_1_1_1\n")

    @pytest.mark.parametrize("text", ["X_1_1_1 0\n\nX_1_1_1 1\n", "X_1_1_1 1\n\nX_1_1_1 0\n"])
    def test_repeated_variable_names_both_lines(self, text):
        with pytest.raises(DataError, match="lines 1 and 3 both give X_1_1_1"):
            lp_export.parse_solution_text(text)

    def test_repeated_objective_names_both_lines(self):
        with pytest.raises(DataError, match="lines 1 and 2 both give # objective"):
            lp_export.parse_solution_text("# objective 1.0\n# objective 2.0\nX_1_1_1 1")
        assert lp_export.parse_solution_text("#objective 2.5\n# a comment\nX_1_1_1 1") == (
            2.5, {"X_1_1_1": 1.0})
