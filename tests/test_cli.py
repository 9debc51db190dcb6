import json
import os

import numpy as np
import pytest

from prballoc import channel, cli, medrecords
from prballoc.errors import UsageError


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scn"
    assert run([
        "generate", "--output", str(out), "--realizations", "2",
        "--seed", "3", "--reference-ps",
    ]) == 0
    return out


class TestWriteTextAtomic:
    def test_replaces_and_leaves_only_target(self, tmp_path):
        path = tmp_path / "out.txt"
        cli.write_text_atomic(str(path), "old\n")
        cli.write_text_atomic(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_leaves_no_stray_file(self, tmp_path):
        path = tmp_path / "out.txt"
        cli.write_text_atomic(str(path), "old\n")
        with pytest.raises(UnicodeEncodeError):
            cli.write_text_atomic(str(path), "lone surrogate \ud800")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestGenerate:
    def test_writes_scenario_and_maps(self, scenario_dir):
        assert (scenario_dir / "scenario.json").exists()
        assert (scenario_dir / "power_map_000.csv").exists()
        assert (scenario_dir / "power_map_001.csv").exists()

    def test_infeasible_exit_code(self, tmp_path):
        code = run([
            "generate", "--output", str(tmp_path / "x"),
            "--users", "11", "--normal", "8",
        ])
        assert code == 3


class TestSolveAndExport:
    def test_solve_heuristic_export_validate(self, scenario_dir, tmp_path):
        scenario = str(scenario_dir / "scenario.json")
        pm = str(scenario_dir / "power_map_000.csv")
        out = tmp_path / "solve.csv"
        assert run([
            "solve", "--scenario", scenario, "--power-map", pm,
            "--prioritize", "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "user,bs,prb,sinr,log_sinr,up"
        assert lines[-1].startswith("objective,")

        heur_out = tmp_path / "heur.csv"
        assert run([
            "heuristic", "--scenario", scenario, "--power-map", pm,
            "--iterations", "5", "--output", str(heur_out),
        ]) == 0
        assert heur_out.exists()

        lp_out = tmp_path / "model.lp"
        assert run([
            "export-lp", "--scenario", scenario, "--power-map", pm,
            "--prioritize", "--output", str(lp_out),
        ]) == 0
        assert lp_out.read_text().startswith("\\ prballoc MILP export")

        # serialize the exact solution and validate it back
        from prballoc import allocator_exact as ex, lp_export

        with open(scenario) as fh:
            sc = channel.scenario_from_json(fh.read())
        power_map = channel.read_power_map_csv(pm, sc.config.noise_w)
        cfg = ex.SolverConfig(prioritization=True)
        assignment, report = ex.solve_exact(sc, power_map, cfg)
        sol = tmp_path / "solution.txt"
        lp_export.write_solution_file(assignment, report.objective_value, sol)
        assert run([
            "validate-solution", "--scenario", scenario, "--power-map", pm,
            "--solution", str(sol), "--prioritize",
        ]) == 0

    def test_missing_file_exit_code(self, scenario_dir, tmp_path):
        code = run([
            "solve", "--scenario", str(scenario_dir / "scenario.json"),
            "--power-map", str(tmp_path / "missing.csv"),
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 4


class TestIngestAndRisk:
    def test_pipeline(self, tmp_path, scenario_dir):
        raw = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        rows = medrecords.synthesize_raw_records(3, 35, rng, stroke_rate=0.3)
        with open(raw, "w") as fh:
            fh.write(",".join(medrecords.CSV_COLUMNS) + "\n")
            for r in rows:
                fh.write(
                    f"{r.patient_id},{r.day},{r.sysbp},{r.diabp},{r.totchol},{r.cigpday},{r.stroke}\n"
                )
        records = tmp_path / "records.csv"
        assert run(["ingest", "--input", str(raw), "--output", str(records)]) == 0

        # add current states for the three outpatients to the scenario file
        scenario_path = scenario_dir / "scenario.json"
        payload = json.loads(scenario_path.read_text())
        state = {"f1": "Normal", "f2": "Normal", "f3": "High", "f4": "Heavy"}
        payload["current_states"] = {str(k): state for k in (8, 9, 10)}
        scenario_path.write_text(json.dumps(payload))
        out = tmp_path / "risk.csv"
        assert run([
            "risk", "--records", str(records), "--scenario", str(scenario_path),
            "--smoothing", "laplace", "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "user_id,is_op,ps,up"
        assert len(lines) == 11

    def test_risk_without_states_is_data_error(self, tmp_path, scenario_dir):
        records = tmp_path / "records.csv"
        records.write_text(",".join(medrecords.RECORD_COLUMNS) + "\n"
                           "p1,1,Normal,Normal,High,Heavy,1\n")
        code = run([
            "risk", "--records", str(records),
            "--scenario", str(scenario_dir / "scenario.json"),
            "--output", str(tmp_path / "risk.csv"),
        ])
        assert code == 4


class TestExperiments:
    def test_before_after_smoke(self, tmp_path):
        out = tmp_path / "ba"
        spec = cli.ExperimentSpec(
            kind="before_after", output_dir=str(out),
            realizations=3, iterations=5, seed=3,
        )
        result = cli.run_before_after(spec)
        assert len(result.exact_before) == 3
        assert (out / "summary.csv").exists()
        assert (out / "scenario.json").exists()
        echo = json.loads((out / "config_echo.json").read_text())
        assert len(echo["realization_sha256"]) == 3

    def test_before_after_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            spec = cli.ExperimentSpec(
                kind="before_after", output_dir=str(tmp_path / name),
                realizations=2, iterations=3, seed=3,
            )
            cli.run_before_after(spec)
            outs.append((tmp_path / name / "summary.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_alpha_sweep(self, tmp_path):
        spec = cli.ExperimentSpec(
            kind="alpha_sweep", output_dir=str(tmp_path / "sweep"),
            realizations=3, seed=3, alphas=(50.0, 500.0),
        )
        table = cli.run_alpha_sweep(spec)
        assert [row["alpha"] for row in table] == [50.0, 500.0]
        lines = (tmp_path / "sweep" / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,avg_sinr,healthy_sd,op_8_mean,op_9_mean,op_10_mean"

    def test_empty_alphas_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            cli.ExperimentSpec(kind="alpha_sweep", output_dir=str(tmp_path), alphas=())

    def test_scalability_csv(self, tmp_path):
        spec = cli.ExperimentSpec(
            kind="scalability", output_dir=str(tmp_path / "scale"), runs=1, seed=0,
        )
        rows = cli.run_scalability(spec)
        assert [r[1] for r in rows] == [6, 15, 25, 50, 75, 100]
        assert all(r[2] == 2 * r[1] for r in rows)
        lines = (tmp_path / "scale" / "scalability.csv").read_text().splitlines()
        assert lines[0] == "bandwidth_mhz,prbs,users,seconds"
