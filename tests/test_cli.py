import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from prballoc import allocator_exact as ex
from prballoc import allocator_heuristic as heur
from prballoc import channel, cli, fileio, lp_export, medrecords, risk
from prballoc.errors import DataError, UsageError

from helpers import STATE, baseline, op_ps_entry, synthesize_raw_records, write_solution_file

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "before_after_seed3.json")
THREE_BS = os.path.join(os.path.dirname(__file__), "data", "three_bs")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def _rows_then_fail():
    yield ["new"]
    raise RuntimeError("row source failed")


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

    def test_large_text_written_in_bounded_slices(self, tmp_path):
        path = tmp_path / "out.txt"
        text = "0123456789abcde\n" * (2_000_000 // 16)
        tracemalloc.start()
        try:
            cli.write_text_atomic(str(path), text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert path.read_text() == text

    def test_multibyte_char_across_slice_boundary(self, tmp_path):
        # slice 1 ends in a 3-byte character, whose UTF-8 bytes run past byte 2**16
        path = tmp_path / "out.txt"
        text = "a" * (fileio.WRITE_SLICE - 1) + "\u20ac\U0001f600\r\n" + "z" * fileio.WRITE_SLICE
        cli.write_text_atomic(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize(
        "rows, error",
        [(lambda: [["lone surrogate \ud800"]], UnicodeEncodeError), (_rows_then_fail, RuntimeError)],
        ids=["unencodable-cell", "rows-raise-part-way"],
    )
    def test_failed_csv_write_leaves_previous_file(self, tmp_path, rows, error):
        path = tmp_path / "out.csv"
        fileio.write_csv(str(path), ["a"], [["old"]])
        with pytest.raises(error):
            fileio.write_csv(str(path), ["a"], rows())
        assert path.read_text() == "a\nold\n"
        assert os.listdir(tmp_path) == ["out.csv"]


# Each CSV reader: (read, header, a good row, a bad row).  The reads compare with ==.
CSV_READERS = {
    "raw-records": (medrecords.load_raw_records, medrecords.CSV_COLUMNS,
                    "p1,1,120,80,200,0,0", "p1,2,abc,80,200,0,0"),
    "records": (medrecords.read_records_csv, medrecords.RECORD_COLUMNS,
                "p1,1,Normal,Normal,High,Heavy,1", "p1,x,Normal,Normal,High,Heavy,1"),
    "power-map": (lambda path: channel.read_power_map_csv(path, 1e-13).q.tolist(),
                  channel.POWER_MAP_COLUMNS, "1,1,1,0.5", "1,1,2,-1"),
}


class TestReadCsv:
    """`fileio.read_csv`'s row rules hold for every reader: a row error names the file and
    the line its row starts on, a blank row is skipped, and a row's cells number the header's."""

    @pytest.mark.parametrize("case", ["two-line-cell", "blank-row", "extra-cell"])
    @pytest.mark.parametrize("reader", CSV_READERS)
    def test_row_rules(self, tmp_path, reader, case):
        read, columns, good, bad = CSV_READERS[reader]
        first, rest = good.split(",", 1)
        body, error = {
            # the good row's first cell, quoted, ends in a newline: file lines 2-3
            "two-line-cell": (f'"{first}\n",{rest}\n{bad}\n', "line 4: "),
            "blank-row": (f"\n{good}\n ,  \n", None),
            "extra-cell": (f"{good},9\n", f"line 2: expected {len(columns)} cells, found"),
        }[case]
        path = tmp_path / "in.csv"
        path.write_text(",".join(columns) + "\n" + body)
        if error is None:
            clean = tmp_path / "clean.csv"
            clean.write_text(",".join(columns) + "\n" + good + "\n")
            assert read(str(path)) == read(str(clean))
        else:
            with pytest.raises(DataError) as exc:
                read(str(path))
            assert str(exc.value).startswith(f"{path}: {error}")


class TestParseId:
    """The one id rule: an id reads only as str(int) writes it."""

    @pytest.mark.parametrize("text", ["0", "7", "10", "-3", "12345678901234567890123"])
    def test_canonical_decimal_reads_as_its_number(self, text):
        assert str(fileio.parse_id(text)) == text

    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int reads as 3
    @pytest.mark.parametrize("text", ["01", "+1", "1_0", " 1", "1 ", "-0", "1.0", "", "x",
                                      "\u0663"])
    def test_any_other_spelling_is_refused(self, text):
        with pytest.raises(ValueError):
            fileio.parse_id(text)


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
        from prballoc import allocator_exact as ex

        with open(scenario) as fh:
            sc = channel.scenario_from_json(fh.read())
        power_map = channel.read_power_map_csv(pm, sc.config.noise_w)
        cfg = ex.SolverConfig(prioritization=True)
        assignment, report = ex.solve_exact(sc, power_map, cfg)
        sol = tmp_path / "solution.txt"
        write_solution_file(assignment, report.objective_value, sol)
        assert run([
            "validate-solution", "--scenario", scenario, "--power-map", pm,
            "--solution", str(sol), "--prioritize",
        ]) == 0

    def test_validate_pf_judges_the_exported_piecewise_model(self, scenario_dir, tmp_path, capsys):
        """`export-lp --objective pf` writes the piecewise model, so the validator
        must find that model's optimum to be optimal and its objective matched."""
        from prballoc import allocator_exact as ex

        scenario = str(scenario_dir / "scenario.json")
        pm = str(scenario_dir / "power_map_000.csv")
        with open(scenario) as fh:
            sc = channel.scenario_from_json(fh.read())
        power_map = channel.read_power_map_csv(pm, sc.config.noise_w)
        cfg = ex.SolverConfig(objective="pf", pf_log_mode="piecewise", pwl=ex.PwlSpec.default())
        assignment, report = ex.solve_exact(sc, power_map, cfg)
        sol = tmp_path / "solution.txt"
        write_solution_file(assignment, report.objective_value, sol)
        capsys.readouterr()
        assert run([
            "validate-solution", "--scenario", scenario, "--power-map", pm,
            "--solution", str(sol), "--objective", "pf",
        ]) == 0
        assert "objective_match=True is_optimal=True" in capsys.readouterr().out

    def test_validate_reads_only_the_x_lines(self, scenario_dir, tmp_path, capsys):
        """A solver's T_, S_ and PHI_ values beside the X_ lines leave the parity line as it is."""
        scenario = str(scenario_dir / "scenario.json")
        pm = str(scenario_dir / "power_map_000.csv")
        with open(scenario) as fh:
            sc = channel.scenario_from_json(fh.read())
        power_map = channel.read_power_map_csv(pm, sc.config.noise_w)
        assignment, report = ex.solve_exact(sc, power_map, ex.SolverConfig())
        sol = tmp_path / "solution.txt"
        write_solution_file(assignment, report.objective_value, sol)
        lines = []
        for text in (sol.read_text(), sol.read_text() + "T_1_1_1 3.5\nS_1 3.5\nPHI_1 0.25\n"
                     "PHI_2_1_1_2_1 0.25\n"):
            sol.write_text(text)
            capsys.readouterr()
            assert run(["validate-solution", "--scenario", scenario, "--power-map", pm,
                        "--solution", str(sol)]) == 0
            lines.append(capsys.readouterr().out)
        assert "objective_match=True is_optimal=True" in lines[0]
        assert lines[1] == lines[0]

    @pytest.mark.parametrize("where", ["seed3", "three_bs"])
    @pytest.mark.parametrize("objective", ["wsrmax", "pf"])
    def test_export_lp_writes_export_milp_text(self, scenario_dir, tmp_path, where, objective):
        from prballoc import allocator_exact as ex, lp_export

        d = str(scenario_dir) if where == "seed3" else THREE_BS
        pf = objective == "pf"
        out = tmp_path / "model.lp"
        assert run([
            "export-lp", "--scenario", f"{d}/scenario.json", "--power-map",
            f"{d}/power_map_000.csv", "--output", str(out),
            *(["--prioritize", "--objective", "pf"] if pf else []),
        ]) == 0
        with open(f"{d}/scenario.json") as fh:
            sc = channel.scenario_from_json(fh.read())
        pm = channel.read_power_map_csv(f"{d}/power_map_000.csv", sc.config.noise_w)
        cfg = ex.SolverConfig(
            objective=objective, prioritization=pf, pf_log_mode="piecewise" if pf else "exact_log",
            pwl=ex.PwlSpec.default() if pf else None,
        )
        assert out.read_bytes() == lp_export.export_milp(sc, pm, cfg).encode("utf-8")

    def test_export_lp_holds_no_model_in_memory(self, tmp_path):
        scn = tmp_path / "k40"
        assert run(["generate", "--output", str(scn), "--users", "40", "--normal", "37",
                    "--prbs", "20", "--realizations", "1"]) == 0
        out = tmp_path / "model.lp"
        argv = ["export-lp", "--scenario", str(scn / "scenario.json"), "--power-map",
                str(scn / "power_map_000.csv"), "--output", str(out)]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(out) / 8
        sc = channel.scenario_from_json((scn / "scenario.json").read_text())
        pm = channel.read_power_map_csv(str(scn / "power_map_000.csv"), sc.config.noise_w)
        assert out.read_bytes() == lp_export.export_milp(sc, pm, ex.SolverConfig()).encode("utf-8")

    def test_missing_file_exit_code(self, scenario_dir, tmp_path):
        code = run([
            "solve", "--scenario", str(scenario_dir / "scenario.json"),
            "--power-map", str(tmp_path / "missing.csv"),
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 4


def _ingest(tmp_path, num_patients):
    """Raw rows of `num_patients` synthetic patients (ids p1, p2, ...), ingested."""
    raw = tmp_path / "raw.csv"
    rng = np.random.default_rng(0)
    rows = synthesize_raw_records(num_patients, 35, rng, stroke_rate=0.3)
    with open(raw, "w") as fh:
        fh.write(",".join(medrecords.CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                f"{r.patient_id},{r.day},{r.sysbp},{r.diabp},{r.totchol},{r.cigpday},{r.stroke}\n"
            )
    records = tmp_path / "records.csv"
    assert run(["ingest", "--input", str(raw), "--output", str(records)]) == 0
    return records


def _with_states(scenario_dir):
    """The scenario with current states for outpatients 8-10 and no posteriors."""
    scenario_path = scenario_dir / "scenario.json"
    payload = json.loads(scenario_path.read_text())
    payload["op_ps"] = {}
    payload["current_states"] = {str(k): STATE for k in (8, 9, 10)}
    scenario_path.write_text(json.dumps(payload))
    return scenario_path


class TestTooLargeToAllocate:
    """An instance whose arrays cannot be allocated ends in exit 3, with no traceback, and
    leaves no output.  Each request is 1 PiB or more, past any address space, so it is
    refused before a page is touched.  `risk` refuses too few records before it sizes
    anything (exit 4)."""

    BIG = ["--users", "1000000", "--normal", "999997"]

    @pytest.mark.parametrize("prbs, reason", [
        ("500000000", "Unable to allocate 7.11 PiB"),  # numpy's MemoryError
        ("1000000000000000000", "array is too big"),  # a size past intp: numpy's ValueError
    ])
    def test_generate_writes_nothing(self, tmp_path, capsys, prbs, reason):
        out = tmp_path / "big"
        assert run(["generate", "--output", str(out), *self.BIG, "--prbs", prbs]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"infeasible: a power map of (users, PRBs, BSs)"
                              f" (1000000, {prbs}, 2)")
        assert reason in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_before_after_on_a_scenario_file(self, tmp_path, capsys):
        config = channel.ScenarioConfig(num_users=10**6, num_normal=10**6 - 3,
                                        prbs_per_bs=5 * 10**8)
        scenario = tmp_path / "big.json"
        scenario.write_text(channel.scenario_to_json(channel.Scenario(config)))
        out = tmp_path / "ba"
        assert run(["before-after", "--scenario", str(scenario), "--output", str(out),
                    "--realizations", "1", "--iterations", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: a power map of (users, PRBs, BSs)"
                              " (1000000, 500000000, 2)")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["big.json"]

    def test_risk_on_a_scenario_of_1e15_outpatients(self, tmp_path, capsys):
        """One record for 10^15 outpatients is refused from the two counts, before any
        per-outpatient tuple is built."""
        config = channel.ScenarioConfig(num_users=10**15, num_normal=0, prbs_per_bs=5 * 10**14)
        scenario = tmp_path / "huge.json"
        scenario.write_text(channel.scenario_to_json(channel.Scenario(config)))
        records = tmp_path / "records.csv"
        records.write_text(",".join(medrecords.RECORD_COLUMNS) + "\n"
                           "p1,1,Normal,Normal,High,Heavy,1\n")
        out = tmp_path / "scored.json"
        assert run(["risk", "--records", str(records), "--scenario", str(scenario),
                    "--output", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "data error: fewer patient records than outpatients\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["huge.json", "records.csv"]

    def test_a_memory_error_ends_in_exit_3(self, tmp_path, capsys, monkeypatch):
        def refuse(path):
            raise MemoryError

        monkeypatch.setattr(medrecords, "load_raw_records", refuse)
        out = tmp_path / "records.csv"
        assert run(["ingest", "--input", str(tmp_path / "raw.csv"), "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "infeasible: the instance does not fit in memory\n"
        assert captured.out == "" and os.listdir(tmp_path) == []


class TestIngestAndRisk:
    def test_pipeline(self, tmp_path, scenario_dir):
        records = _ingest(tmp_path, 3)
        scenario_path = _with_states(scenario_dir)
        out = tmp_path / "scored.json"
        assert run([
            "risk", "--records", str(records), "--scenario", str(scenario_path),
            "--smoothing", "laplace", "--output", str(out),
        ]) == 0
        given, scored = json.loads(scenario_path.read_text()), json.loads(out.read_text())
        assert sorted(scored.pop("op_ps"), key=int) == ["8", "9", "10"]
        assert scored == {k: v for k, v in given.items() if k != "op_ps"}

    def test_scored_scenario_drives_the_prioritized_solve(self, tmp_path, scenario_dir):
        """ingest -> risk -> solve --prioritize equals a solve on the posteriors injected
        by hand.  Outpatient 7 + i is scored from the i-th record id in string order."""
        records_path = _ingest(tmp_path, 11)
        scenario_path = _with_states(scenario_dir)
        scored = tmp_path / "scored.json"
        assert run(["risk", "--records", str(records_path), "--scenario", str(scenario_path),
                    "--output", str(scored)]) == 0

        records = {r.patient_id: r for r in medrecords.read_records_csv(str(records_path))}
        scenario = channel.scenario_from_json(scenario_path.read_text())
        posteriors = {uid: risk.posterior_stroke(
            records[pid], risk.CurrentState(**scenario.current_states[uid]))
            for uid, pid in {8: "p1", 9: "p10", 10: "p11"}.items()}
        scenario = replace(scenario, op_ps=posteriors)
        hand = tmp_path / "hand.json"
        hand.write_text(channel.scenario_to_json(scenario))
        assert channel.scenario_from_json(scored.read_text()).op_ps == scenario.op_ps

        results = []
        for scn in (scored, hand):
            out = tmp_path / f"solve_{scn.stem}.csv"
            assert run(["solve", "--scenario", str(scn), "--power-map",
                        str(scenario_dir / "power_map_000.csv"), "--prioritize",
                        "--output", str(out)]) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1]

    def test_ingest_warns_only_of_named_patients(self, tmp_path, caplog):
        """A dropped empty-id row draws no warning; a patient who lost every day still does."""
        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(medrecords.CSV_COLUMNS) + "\n"
                       ",1,120,80,200,0,0\np1,1,120,80,200,0,0\np2,1,120,80,,0,0\n")
        with caplog.at_level("WARNING"):
            assert run(["ingest", "--input", str(raw), "--output", str(tmp_path / "r.csv")]) == 0
        warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warned == ["patient p2 has no valid days and was excluded"]

    def test_ingest_warns_in_file_order(self, tmp_path):
        """Patients who lost every day are warned about in the order the raw file names
        them, whatever the interpreter's string hash seed."""
        lost = ["qa", "qb", "qc", "qd"]
        raw = tmp_path / "raw.csv"
        raw.write_text("\n".join([",".join(medrecords.CSV_COLUMNS), "p1,1,120,80,200,0,0",
                                  *(f"{pid},0,120,80,200,0,0" for pid in lost)]) + "\n")
        argv = [sys.executable, "-m", "prballoc.cli", "ingest", "--input", str(raw),
                "--output", str(tmp_path / "records.csv")]
        errs = {subprocess.run(argv, env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
                               capture_output=True, text=True, check=True).stderr
                for seed in ("1", "2", "3", "4")}
        assert len(errs) == 1
        warned = [line.split()[1] for line in errs.pop().splitlines() if line.startswith("WARNING")]
        assert warned == lost

    def test_risk_without_states_is_data_error(self, tmp_path, scenario_dir, capsys):
        """One record per outpatient, so the refusal is of the missing current states."""
        records = tmp_path / "records.csv"
        records.write_text("\n".join([",".join(medrecords.RECORD_COLUMNS), *STROKE_DAYS]) + "\n")
        code = run([
            "risk", "--records", str(records),
            "--scenario", str(scenario_dir / "scenario.json"),
            "--output", str(tmp_path / "scored.json"),
        ])
        assert code == 4
        assert "no current state for outpatient 8" in capsys.readouterr().err


class TestExperiments:
    def test_before_after_smoke(self, tmp_path):
        out = tmp_path / "ba"
        spec = cli.ExperimentSpec(
            kind="before_after", output_dir=str(out),
            realizations=3, iterations=5, seed=3,
        )
        result = cli.run_before_after(spec)
        assert len(result.exact_before) == 3
        assert (out / "summary.csv").read_text().splitlines()[1:] == [
            f"{metric},{value!r}" for metric, value in result.summary.items()]
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
        for kind in cli.KINDS:  # not only the sweep's: the rule holds for every kind
            with pytest.raises(UsageError, match="alphas"):
                cli.ExperimentSpec(kind=kind, output_dir=str(tmp_path), alphas=())

    @pytest.mark.parametrize("field, value", [
        ("iterations", 0), ("alpha", math.nan), ("alpha", -1000.0), ("alpha", math.inf),
        ("alphas", (500.0, 0.0)), ("alphas", (math.nan,)), ("objective", "maxmin"),
        # a value of the wrong type
        ("iterations", 2.5), ("iterations", True), ("realizations", "1"),
        ("runs", 2.5), ("alpha", "5"), ("alpha", True), ("alphas", ("500",)),
        ("scenario_path", 3), ("alphas", 500.0),
    ])
    def test_bad_settings_fail_before_any_output(self, tmp_path, field, value):
        out = tmp_path / "out"
        with pytest.raises(UsageError):
            spec = cli.ExperimentSpec(kind="before_after", output_dir=str(out),
                                      **{"realizations": 1, "iterations": 1, field: value})
            cli.run_before_after(spec)
        assert not out.exists()

    def test_numpy_alphas_are_echoed_as_plain_floats(self, tmp_path):
        spec = cli.ExperimentSpec(
            kind="alpha_sweep", output_dir=str(tmp_path), realizations=1,
            alpha=np.float32(500.0), alphas=[np.float32(50.0), np.float64(150.0)],
        )
        assert spec.alphas == (50.0, 150.0)
        assert {type(a) for a in (spec.alpha, *spec.alphas)} == {float}
        with pytest.raises(FrozenInstanceError):
            spec.alpha = 50.0
        cli.run_alpha_sweep(spec)
        echo = json.loads((tmp_path / "config_echo.json").read_text())
        assert (echo["alpha"], echo["alphas"]) == (500.0, [50.0, 150.0])

    @pytest.mark.parametrize("normal", [0, 1])
    def test_sweep_with_fewer_than_two_healthy_users(self, tmp_path, capsys, normal):
        """The healthy-user SD is undefined: an empty cell and "n/a", not a crash."""
        scn = tmp_path / "scn"
        assert run(["generate", "--output", str(scn), "--users", "4", "--normal", str(normal),
                    "--prbs", "2", "--seed", "3"]) == 0
        capsys.readouterr()
        assert run(["sweep-alpha", "--scenario", str(scn / "scenario.json"), "--output",
                    str(tmp_path / "sw"), "--realizations", "2", "--alphas", "50", "500"]) == 0
        assert capsys.readouterr().out.count("healthy_sd=n/a\n") == 2
        lines = (tmp_path / "sw" / "alpha_sweep.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["", ""]

    def test_spread_past_a_float_reads_inf(self, tmp_path):
        """A 1000 dBm per-PRB power over a -1000 dBm/Hz noise density gives SINRs near 1e184,
        whose spread squared passes a float: every SD that does reads inf, and its CI -inf to
        inf, in each command that writes one."""
        config = channel.ScenarioConfig(num_users=6, num_normal=3, tx_power_per_prb_dbm=1000.0,
                                        max_power_per_connection_dbm=1000.0,
                                        noise_density_dbm_hz=-1000.0)
        scenario = channel.Scenario(config, op_ps={4: 0.5, 5: 0.2, 6: 0.1})
        (tmp_path / "scenario.json").write_text(channel.scenario_to_json(scenario))
        scn = str(tmp_path / "scenario.json")
        maps = [str(tmp_path / f"power_map_{r}.csv") for r in range(2)]
        for r, path in enumerate(maps):
            channel.write_power_map_csv(channel.generate_power_map(scenario, r), path)
        experiment = ["--scenario", scn, "--realizations", "2"]
        assert run(["heuristic", "--scenario", scn, "--power-map", *maps, "--iterations", "2",
                    "--output", str(tmp_path / "h.csv")]) == 0
        assert run(["before-after", *experiment, "--iterations", "2",
                    "--output", str(tmp_path / "ba")]) == 0
        assert run(["sweep-alpha", *experiment, "--output", str(tmp_path / "sw")]) == 0

        def rows(path):
            return [line.split(",") for line in (tmp_path / path).read_text().splitlines()[1:]]

        for path in ["h.csv", "ba/heuristic_before.csv", "ba/exact_before.csv"]:
            assert ["inf", "-inf", "inf"] in [row[-3:] for row in rows(path)], path
        assert {row[2] for row in rows("sw/alpha_sweep.csv")} == {"inf"}  # healthy_sd

    def test_scalability_csv(self, tmp_path):
        spec = cli.ExperimentSpec(
            kind="scalability", output_dir=str(tmp_path / "scale"), runs=1, seed=0,
        )
        rows = cli.run_scalability(spec)
        assert [r[1] for r in rows] == [6, 15, 25, 50, 75, 100]
        assert all(r[2] == 2 * r[1] for r in rows)
        lines = (tmp_path / "scale" / "scalability.csv").read_text().splitlines()
        assert lines[0] == "bandwidth_mhz,prbs,users,seconds"

    def test_scalability_prints_one_line_per_case(self, tmp_path, capsys):
        out = tmp_path / "scale"
        assert run(["scalability", "--output", str(out), "--runs", "1"]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in (out / "scalability.csv").read_text().splitlines()[1:]]
        assert [(float(bw), int(prbs)) for bw, prbs, _, _ in rows] == list(cli.SCALABILITY_CASES)
        assert printed == [f"{float(bw):g} MHz: {prbs} PRBs, {users} users, {float(s):.4f} s"
                           for bw, prbs, users, s in rows]


class _Captured(Exception):
    """Raised by a patched callee once it holds the config a command built."""


# command -> the callee handed the config, the argument holding it, the config's class and
# the command's fixed fields; nothing is written, since the callee raises
_CONFIG_CALLEES = {
    "generate": (cli, "_write_scenario_dir", 0, channel.ScenarioConfig, {}),
    "solve": (ex, "solve_exact", 2, ex.SolverConfig, {}),
    "export-lp": (lp_export, "milp_rows", 2, ex.SolverConfig, {"pf_log_mode": "piecewise"}),
    "validate-solution": (lp_export, "validate_external_solution", 3, ex.SolverConfig,
                          {"pf_log_mode": "piecewise"}),
    "heuristic": (heur, "run_heuristic", 2, heur.HeuristicConfig, {}),
    "before-after": (cli, "run_before_after", 0, cli.ExperimentSpec,
                     {"kind": "before_after", "output_dir": "out"}),
    "sweep-alpha": (cli, "run_alpha_sweep", 0, cli.ExperimentSpec,
                    {"kind": "alpha_sweep", "output_dir": "out"}),
    "scalability": (cli, "run_scalability", 0, cli.ExperimentSpec,
                    {"kind": "scalability", "output_dir": "out"}),
}


class TestConfigFromOptions:
    """Each command builds its config from the options given; the rest keep the
    class defaults, so no parser restates one."""

    def _built(self, monkeypatch, scenario_dir, command, *options):
        module, name, index, _, _ = _CONFIG_CALLEES[command]
        seen = []

        def callee(*args, **kwargs):
            seen.append(args[index])
            raise _Captured

        monkeypatch.setattr(module, name, callee)
        scenario = str(scenario_dir / "scenario.json")
        instance = ["--scenario", scenario,
                    "--power-map", str(scenario_dir / "power_map_000.csv")]
        if command == "validate-solution":  # any readable file will do as the solution
            required = instance + ["--solution", scenario]
        else:
            required = (instance if command in ("solve", "export-lp", "heuristic") else [])
            required += ["--output", "out"]
        with pytest.raises(_Captured):
            run([command, *required, *options])
        (held,) = seen
        return held.config if command == "generate" else held  # generate hands on its scenario

    def _expected(self, command, **fields):
        _, _, _, cls, fixed = _CONFIG_CALLEES[command]
        return cls(**fixed, **fields)

    @pytest.mark.parametrize("command", list(_CONFIG_CALLEES))
    def test_required_options_only_give_the_class_defaults(
            self, monkeypatch, scenario_dir, command):
        assert self._built(monkeypatch, scenario_dir, command) == self._expected(command)

    @pytest.mark.parametrize("command, options, fields", [
        ("generate", ["--bs", "3", "--prbs", "4", "--users", "9", "--normal", "4", "--seed", "5"],
         dict(num_bs=3, prbs_per_bs=4, num_users=9, num_normal=4, seed=5)),
        ("solve", ["--objective", "pf", "--prioritize", "--alpha", "150"],
         dict(objective="pf", prioritization=True, alpha=150.0)),
        ("export-lp", ["--objective", "pf", "--prioritize", "--alpha", "150"],
         dict(objective="pf", prioritization=True, alpha=150.0)),
        ("validate-solution", ["--objective", "pf", "--prioritize", "--alpha", "150"],
         dict(objective="pf", prioritization=True, alpha=150.0)),
        ("heuristic", ["--iterations", "7", "--prioritize", "--alpha", "50", "--seed", "4"],
         dict(iterations=7, prioritization=True, alpha=50.0, seed=4)),
        ("before-after", ["--scenario", "s.json", "--objective", "pf", "--realizations", "2",
                          "--seed", "3", "--alpha", "150", "--iterations", "9"],
         dict(scenario_path="s.json", objective="pf", realizations=2, seed=3, alpha=150.0,
              iterations=9)),
        ("sweep-alpha", ["--scenario", "s.json", "--objective", "pf", "--realizations", "2",
                         "--seed", "3", "--alphas", "50", "500"],
         dict(scenario_path="s.json", objective="pf", realizations=2, seed=3,
              alphas=(50.0, 500.0))),
        ("scalability", ["--runs", "2", "--seed", "4"], dict(runs=2, seed=4)),
    ])
    def test_every_option_lands_in_its_field(
            self, monkeypatch, scenario_dir, command, options, fields):
        built = self._built(monkeypatch, scenario_dir, command, *options)
        assert built == self._expected(command, **fields)
        assert all(getattr(built, k) != getattr(self._expected(command), k) for k in fields)


NOT_STORED = "not stored"  # an option left out of the namespace when not given
OBJECTIVE = ("--objective", "objective", False, None, None, ("wsrmax", "pf"), NOT_STORED)
PRIORITIZE = ("--prioritize", "prioritization", False, 0, None, None, NOT_STORED)
ALPHA = ("--alpha", "alpha", False, None, float, None, NOT_STORED)
SEED = ("--seed", "seed", False, None, int, None, NOT_STORED)

# command -> its options in help order: flag, stored name, required, nargs, type, choices and
# what the namespace holds when the option is not given (None for a required option); written
# out here, not read from the CLI's own table
OPTION_SURFACE = {
    "ingest": [
        ("--input", "input", True, None, None, None, None),
        ("--output", "output", True, None, None, None, None),
        ("--window", "window", False, None, int, None, 30),
    ],
    "risk": [
        ("--records", "records", True, None, None, None, None),
        ("--scenario", "scenario", True, None, None, None, None),
        ("--smoothing", "smoothing", False, None, None, ("off", "laplace"), "off"),
        ("--output", "output", True, None, None, None, None),
    ],
    "generate": [
        ("--output", "output", True, None, None, None, None),
        ("--realizations", "realizations", False, None, int, None, 1),
        SEED,
        ("--bs", "num_bs", False, None, int, None, NOT_STORED),
        ("--prbs", "prbs_per_bs", False, None, int, None, NOT_STORED),
        ("--users", "num_users", False, None, int, None, NOT_STORED),
        ("--normal", "num_normal", False, None, int, None, NOT_STORED),
        ("--reference-ps", "reference_ps", False, 0, None, None, False),
    ],
    "solve": [
        ("--scenario", "scenario", True, None, None, None, None),
        ("--power-map", "power_map", True, None, None, None, None),
        OBJECTIVE, PRIORITIZE, ALPHA,
        ("--output", "output", True, None, None, None, None),
    ],
    "heuristic": [
        ("--scenario", "scenario", True, None, None, None, None),
        ("--power-map", "power_maps", True, "+", None, None, None),
        ("--iterations", "iterations", False, None, int, None, NOT_STORED),
        PRIORITIZE, ALPHA, SEED,
        ("--output", "output", True, None, None, None, None),
    ],
    "export-lp": [
        ("--scenario", "scenario", True, None, None, None, None),
        ("--power-map", "power_map", True, None, None, None, None),
        OBJECTIVE, PRIORITIZE, ALPHA,
        ("--output", "output", True, None, None, None, None),
    ],
    "validate-solution": [
        ("--scenario", "scenario", True, None, None, None, None),
        ("--power-map", "power_map", True, None, None, None, None),
        OBJECTIVE, PRIORITIZE, ALPHA,
        ("--solution", "solution", True, None, None, None, None),
    ],
    "before-after": [
        ("--output", "output_dir", True, None, None, None, None),
        ("--scenario", "scenario_path", False, None, None, None, NOT_STORED),
        OBJECTIVE,
        ("--realizations", "realizations", False, None, int, None, NOT_STORED),
        SEED, ALPHA,
        ("--iterations", "iterations", False, None, int, None, NOT_STORED),
    ],
    "sweep-alpha": [
        ("--output", "output_dir", True, None, None, None, None),
        ("--scenario", "scenario_path", False, None, None, None, NOT_STORED),
        OBJECTIVE,
        ("--realizations", "realizations", False, None, int, None, NOT_STORED),
        SEED,
        ("--alphas", "alphas", False, "+", float, None, NOT_STORED),
    ],
    "scalability": [
        ("--output", "output_dir", True, None, None, None, None),
        ("--runs", "runs", False, None, int, None, NOT_STORED),
        SEED,
    ],
}


class TestOptionSurface:
    """Each command offers exactly the options listed, declared and stored as listed."""

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    def test_each_option_is_declared_as_listed(self, command):
        (commands,) = [a.choices for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert list(commands) == list(OPTION_SURFACE)
        declared = [(*a.option_strings, a.dest, a.required, a.nargs, a.type, a.choices)
                    for a in commands[command]._actions if a.dest != "help"]
        assert declared == [row[:6] for row in OPTION_SURFACE[command]]

    @pytest.mark.parametrize("command", list(OPTION_SURFACE))
    def test_options_not_given_store_as_listed(self, command):
        rows = OPTION_SURFACE[command]
        argv = [command]
        for flag, _, required, *_ in rows:
            argv += [flag, "x"] if required else []
        stored = vars(cli.build_parser().parse_args(argv))
        assert stored.pop("command") == command and callable(stored.pop("func"))
        assert stored == {
            name: (["x"] if nargs == "+" else "x") if required else default
            for _, name, required, nargs, _, _, default in rows
            if required or default != NOT_STORED
        }

    @pytest.mark.parametrize("command", [None, *OPTION_SURFACE])
    def test_help_renders_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        names = [row[0] for row in OPTION_SURFACE[command]] if command else OPTION_SURFACE
        assert all(name in out for name in names)


class TestRepeatedListOption:
    """A list option given twice adds to its list, as if its values came in one flag."""

    def test_heuristic_power_maps(self, scenario_dir, tmp_path, capsys):
        pm0, pm1 = (str(scenario_dir / f"power_map_00{i}.csv") for i in (0, 1))
        base = ["heuristic", "--scenario", str(scenario_dir / "scenario.json"),
                "--iterations", "2"]
        capsys.readouterr()
        assert run([*base, "--power-map", pm0, pm1, "--power-map", pm0,
                    "--output", str(tmp_path / "repeated.csv")]) == 0
        assert capsys.readouterr().out.startswith("wrote heuristic report for 3 file(s)")
        assert run([*base, "--power-map", pm0, pm1, pm0,
                    "--output", str(tmp_path / "once.csv")]) == 0
        assert (tmp_path / "repeated.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()

    def test_sweep_alpha_alphas(self, tmp_path):
        scn = tmp_path / "scn"
        assert run(["generate", "--output", str(scn), "--users", "4", "--normal", "2",
                    "--prbs", "2", "--seed", "3"]) == 0
        base = ["sweep-alpha", "--scenario", str(scn / "scenario.json"), "--realizations", "1"]
        assert run([*base, "--alphas", "50", "--alphas", "100",
                    "--output", str(tmp_path / "repeated")]) == 0
        assert run([*base, "--alphas", "50", "100", "--output", str(tmp_path / "once")]) == 0
        table = (tmp_path / "repeated" / "alpha_sweep.csv").read_text()
        assert [line.split(",")[0] for line in table.splitlines()[1:]] == ["50.0", "100.0"]
        assert table == (tmp_path / "once" / "alpha_sweep.csv").read_text()


class TestRunnerRefusals:
    """A bad spec or bad given maps are refused before any output exists."""

    def test_unknown_kind_rejected(self, tmp_path):
        out = tmp_path / "out"
        for alphas in ((), cli.DEFAULT_ALPHAS):
            with pytest.raises(UsageError, match="kind"):
                cli.run_alpha_sweep(cli.ExperimentSpec(
                    kind="bogus", output_dir=str(out), alphas=alphas, realizations=1))
        assert not out.exists()

    @pytest.mark.parametrize("runner, kind", [("run_before_after", "alpha_sweep"),
                                              ("run_alpha_sweep", "scalability"),
                                              ("run_scalability", "before_after")])
    def test_a_spec_of_another_kind_is_refused(self, tmp_path, runner, kind):
        out = tmp_path / "out"
        spec = cli.ExperimentSpec(kind=kind, output_dir=str(out), realizations=1, iterations=1)
        with pytest.raises(UsageError, match=kind):
            getattr(cli, runner)(spec)
        assert not out.exists()

    @pytest.mark.parametrize("runner", ["run_before_after", "run_alpha_sweep"])
    def test_given_maps_must_number_the_realizations(self, tmp_path, runner):
        scenario, pm = channel.generate_scenario(channel.ScenarioConfig(seed=3))
        kind = "before_after" if runner == "run_before_after" else "alpha_sweep"
        out = tmp_path / "out"
        spec = cli.ExperimentSpec(kind=kind, output_dir=str(out), realizations=2, iterations=1)
        with pytest.raises(UsageError, match="realizations"):
            getattr(cli, runner)(spec, scenario, [pm])
        assert not out.exists()

    @pytest.mark.parametrize("runner", ["run_before_after", "run_alpha_sweep"])
    def test_given_maps_checked_before_any_output(self, tmp_path, runner):
        scenario, pm = channel.generate_scenario(channel.ScenarioConfig(seed=3))
        _, other = channel.generate_scenario(channel.ScenarioConfig(num_bs=3, prbs_per_bs=4))
        kind = "before_after" if runner == "run_before_after" else "alpha_sweep"
        out = tmp_path / "out"
        spec = cli.ExperimentSpec(kind=kind, output_dir=str(out), realizations=1, iterations=1)
        with pytest.raises(UsageError, match="power_maps"):
            getattr(cli, runner)(spec, scenario, [])
        with pytest.raises(DataError, match="power map 1"):
            getattr(cli, runner)(spec, scenario, [pm, other])
        assert not out.exists()


class TestScenarioDirectory:
    def test_generate_and_before_after_write_the_same_inputs(self, tmp_path):
        gen, ba = tmp_path / "gen", tmp_path / "ba"
        assert run(["generate", "--seed", "3", "--realizations", "3", "--reference-ps",
                    "--output", str(gen)]) == 0
        assert run(["before-after", "--seed", "3", "--realizations", "3", "--iterations", "1",
                    "--output", str(ba)]) == 0
        maps = [f"power_map_{i:03d}.csv" for i in range(3)]
        for name in ["scenario.json"] + maps:
            assert (gen / name).read_bytes() == (ba / name).read_bytes(), name
        echo = json.loads((ba / "config_echo.json").read_text())
        assert echo["realization_sha256"] == [
            hashlib.sha256((ba / name).read_bytes()).hexdigest() for name in maps
        ]

    @pytest.mark.parametrize("runner", ["run_before_after", "run_alpha_sweep"])
    def test_given_scenario_and_maps_write_what_the_spec_alone_writes(self, tmp_path, runner):
        """The seed's baseline scenario and its first maps, given, give the spec's own files."""
        kind = "before_after" if runner == "run_before_after" else "alpha_sweep"
        scenario = baseline()[0]
        maps = [channel.generate_power_map(scenario, i) for i in range(2)]
        outs = [tmp_path / "alone", tmp_path / "given"]
        for out, given in zip(outs, [(), (scenario, maps)]):
            spec = cli.ExperimentSpec(kind=kind, output_dir=str(out), realizations=2,
                                      iterations=5, seed=3)
            getattr(cli, runner)(spec, *given)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert "config_echo.json" in names
        for name in names:
            alone, given = ((out / name).read_bytes() for out in outs)
            if name == "config_echo.json":
                alone, given = (json.loads(text) for text in (alone, given))
                assert (alone.pop("output_dir"), given.pop("output_dir")) == tuple(map(str, outs))
            assert alone == given, name


class TestBeforeAfterGolden:
    """Exact SINRs and heuristic means recorded from an earlier version.

    Compared with a relative tolerance, not bytes: numpy's SIMD reductions
    may round differently on other CPUs.
    """

    @pytest.mark.parametrize("objective", ["wsrmax", "pf"])
    def test_matches_recorded_run(self, tmp_path, objective):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[objective]
        spec = cli.ExperimentSpec(
            kind="before_after", output_dir=str(tmp_path), objective=objective,
            realizations=3, iterations=20, seed=3,
        )
        result = cli.run_before_after(spec)
        for name, want in golden.items():
            got = getattr(result, name)
            assert len(got) == len(want)
            for got_run, want_run in zip(got, want):
                assert {str(k) for k in got_run} == set(want_run)
                for k, value in got_run.items():
                    assert value == pytest.approx(want_run[str(k)], rel=1e-9), (name, k)

    def test_summary_is_recomputed_from_the_runs(self, tmp_path, capsys):
        """Each summary.csv cell, and the printed OP line, equals the gain recomputed with
        plain left-to-right loops: the mean over realizations of each realization's mean
        SINR over the outpatients, or over every user in the run's order."""
        def level(runs, users):
            total = 0.0
            for r in runs:
                keys = list(r) if users is None else users
                user_sum = 0.0
                for k in keys:
                    user_sum += r[k]
                total += user_sum / len(keys)
            return total / len(runs)

        def gain(before, after, users=None):
            b, a = level(before, users), level(after, users)
            return 100.0 * (a - b) / b

        spec = cli.ExperimentSpec(kind="before_after", output_dir=str(tmp_path / "runner"),
                                  realizations=3, iterations=20, seed=3)
        result = cli.run_before_after(spec)
        ops = (8, 9, 10)  # the baseline's outpatients, users num_normal + 1 to num_users
        want = {
            "op_improvement_exact_pct": gain(result.exact_before, result.exact_after, ops),
            "op_improvement_heuristic_pct": gain(result.heuristic_before, result.heuristic_after,
                                                 ops),
            "system_change_exact_pct": gain(result.exact_before, result.exact_after),
            "system_change_heuristic_pct": gain(result.heuristic_before, result.heuristic_after),
        }
        lines = (tmp_path / "runner" / "summary.csv").read_text().splitlines()
        assert lines == ["metric,value"] + [f"{k},{v!r}" for k, v in want.items()]
        capsys.readouterr()
        assert run(["before-after", "--output", str(tmp_path / "cli"), "--realizations", "3",
                    "--iterations", "20", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            f"OP improvement (exact) {want['op_improvement_exact_pct']:.2f}%\n")
        summary = (tmp_path / "cli" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "runner" / "summary.csv").read_bytes()


class TestThreeCellGolden:
    """Result files of a 3-BS, 8-user scenario (`generate --seed 1 --bs 3 --prbs 3
    --users 8 --normal 5 --reference-ps`, stored with its two power maps), compared
    byte for byte with recorded ones.  A SINR sums at most two interferers here,
    which is exact in any order, so no summation order may move a byte.
    """

    MAP = ["--scenario", "{d}/scenario.json", "--power-map", "{d}/power_map_000.csv"]

    @pytest.mark.parametrize("argv, name", [
        (["solve", *MAP], "solve_wsrmax.csv"),
        (["solve", *MAP, "--prioritize", "--objective", "pf"], "solve_pf_prioritized.csv"),
        (["heuristic", *MAP, "{d}/power_map_001.csv", "--prioritize", "--iterations", "50"],
         "heuristic_prioritized.csv"),
    ], ids=["solve-wsrmax", "solve-pf-prioritized", "heuristic-prioritized"])
    def test_matches_recorded_bytes(self, tmp_path, argv, name):
        out = tmp_path / name
        assert run([a.format(d=THREE_BS) for a in argv] + ["--output", str(out)]) == 0
        with open(os.path.join(THREE_BS, name), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_generate_writes_the_recorded_inputs(self, tmp_path):
        """--reference-ps writes only the posteriors of users that are outpatients here."""
        assert run(["generate", "--seed", "1", "--bs", "3", "--prbs", "3", "--users", "8",
                    "--normal", "5", "--reference-ps", "--realizations", "2",
                    "--output", str(tmp_path)]) == 0
        assert list(json.loads((tmp_path / "scenario.json").read_text())["op_ps"]) == ["8"]
        for name in ("scenario.json", "power_map_000.csv", "power_map_001.csv"):
            with open(os.path.join(THREE_BS, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


def _set_power_cell(text, line=3):
    """Replace the power in the power map's line `line`; line 2 holds the triple
    (user 1, prb 1, bs 1), line 3 the second triple."""

    def edit(scn):
        path = scn / "power_map_000.csv"
        lines = path.read_text().splitlines()
        lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + "," + text
        path.write_text("\n".join(lines) + "\n")

    return edit


def _set_power_ids(user="1", prb="1", bs="1"):
    """Write the ids of the power map's line 2, the triple (user 1, prb 1, bs 1), as given."""

    def edit(scn):
        path = scn / "power_map_000.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join([user, prb, bs, lines[1].rsplit(",", 1)[1]])
        path.write_text("\n".join(lines) + "\n")

    return edit


def _zero_powers(scn):
    path = scn / "power_map_000.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ",0.0" for row in rows)]) + "\n")


def _drop_last_user(scn):
    path = scn / "power_map_000.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("10,")) + "\n")


def _set_scenario(**fields):
    def edit(scn):
        path = scn / "scenario.json"
        payload = json.loads(path.read_text())
        payload.update(fields)
        path.write_text(json.dumps(payload))

    return edit


def _replace_in_scenario(old, new):
    """Replace the text `old` of scenario.json by `new`: edits that json.dumps cannot make."""

    def edit(scn):
        path = scn / "scenario.json"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    return edit


def _append_bytes(name, data):
    def edit(scn):
        with open(scn / name, "ab") as fh:
            fh.write(data)

    return edit


def _write(name, text):
    def edit(scn):
        (scn / name).write_text(text)

    return edit


def _solution(*lines):
    """A solution giving users 1-9 one slot each (X_k_n_b), followed by `lines`."""
    slots = [f"X_{k}_{(k - 1) % 5 + 1}_{(k - 1) // 5 + 1} 1" for k in range(1, 10)]
    return _write("solution.txt", "\n".join(slots + list(lines)) + "\n")


def _zero_sinr_solution(scn):
    """A full solution that puts user 1 on (prb 1, bs 1), where it hears 0.0 W."""
    _set_power_cell("0.0", line=2)(scn)
    _solution("X_10_5_2 1")(scn)


STROKE_DAYS = [f"p{i},1,Normal,Normal,High,Heavy,1" for i in (1, 2, 3)]


def _risk_inputs(state, rows=STROKE_DAYS):
    """Records `rows`, by default one stroke day per patient for three patients;
    `state` for every outpatient."""

    def edit(scn):
        lines = [",".join(medrecords.RECORD_COLUMNS), *rows]
        _write("records.csv", "\n".join(lines) + "\n")(scn)
        _set_scenario(current_states={str(k): state for k in (8, 9, 10)})(scn)

    return edit


SOLVE = ["solve", "--scenario", "{scn}/scenario.json", "--power-map",
         "{scn}/power_map_000.csv", "--output", "{tmp}/out.csv"]
HEURISTIC = ["heuristic", "--scenario", "{scn}/scenario.json", "--power-map",
             "{scn}/power_map_000.csv", "--output", "{tmp}/out.csv"]
BEFORE_AFTER = ["before-after", "--scenario", "{scn}/scenario.json", "--output", "{tmp}/ba",
                "--realizations", "1", "--iterations", "1"]
VALIDATE = ["validate-solution", "--scenario", "{scn}/scenario.json", "--power-map",
            "{scn}/power_map_000.csv", "--solution", "{scn}/solution.txt"]
EXPORT = ["export-lp", "--scenario", "{scn}/scenario.json", "--power-map",
          "{scn}/power_map_000.csv", "--output", "{tmp}/model.lp"]
RISK = ["risk", "--records", "{scn}/records.csv", "--scenario", "{scn}/scenario.json",
        "--output", "{tmp}/scored.json"]

INF_DISTANCES = [["400.0", "400.0"]] * 9 + [["inf", "400.0"]]
FAR_300_DBM = dict(tx_power_per_prb_dbm=300.0, max_power_per_connection_dbm=300.0,
                   distance_min_m=2.3e90, distance_max_m=2.3e90)

# id, edit of the generated scenario directory, argv, exit code, text in stderr
MALFORMED = [
    ("heuristic-zero-iterations", None, HEURISTIC + ["--iterations", "0"], 2, "iterations"),
    ("before-after-zero-iterations", None, BEFORE_AFTER + ["--iterations", "0"], 2, "iterations"),
    ("generate-all-normal", None,
     ["generate", "--output", "{tmp}/g", "--users", "10", "--normal", "10"], 2, "num_normal"),
    ("power-non-numeric", _set_power_cell("abc"), SOLVE, 4, "line 3"),
    ("power-nan", _set_power_cell("nan"), SOLVE, 4, "line 3"),
    ("power-negative", _set_power_cell("-1e-13"), SOLVE, 4, "line 3"),
    ("power-extra-cell", _set_power_cell("1e-13,7"), HEURISTIC, 4, "line 3"),
    ("power-map-shape", _drop_last_user, HEURISTIC, 4, "do not match"),
    ("solve-power-map-shape", _drop_last_user, SOLVE, 4,
     "power_map_000.csv: (users, PRBs, BSs) (9, 5, 2) do not match the scenario's (10, 5, 2)"),
    ("scenario-op-ps-above-one", _set_scenario(op_ps={"8": 1.5}), SOLVE, 4, "op_ps"),
    ("scenario-op-ps-negative", _set_scenario(op_ps={"9": -0.1}), SOLVE, 4, "op_ps"),
    ("scenario-op-ps-normal-user", _set_scenario(op_ps={"3": "0.5"}), SOLVE, 4, "op_ps"),
    ("scenario-op-ps-unknown-user", _set_scenario(op_ps={"42": "0.9"}), SOLVE, 4, "op_ps"),
    ("scenario-state-normal-user", _set_scenario(current_states={"3": STATE}), SOLVE, 4,
     "current_states"),
    ("scenario-state-unknown-level", _set_scenario(current_states={"8": {**STATE, "f1": "Bogus"}}),
     SOLVE, 4, "outpatient 8: unknown level 'Bogus' for f1"),
    ("scenario-state-only-f1", _set_scenario(current_states={"9": {"f1": "Normal"}}), SOLVE, 4,
     "outpatient 9: want exactly the features"),
    ("heuristic-state-unknown-level",
     _set_scenario(current_states={"10": {**STATE, "f4": "None"}}), HEURISTIC, 4,
     "outpatient 10: unknown level 'None' for f4"),
    ("export-state-unknown-level", _set_scenario(current_states={"8": {**STATE, "f3": 1}}),
     EXPORT, 4, "outpatient 8: unknown level 1 for f3"),
    # a scenario file holds no distances, whatever their values
    ("scenario-distances-key", _set_scenario(distances=[[400.0, 400.0]] * 10), BEFORE_AFTER, 4,
     "unknown key 'distances'"),
    ("scenario-distance-zero",
     _set_scenario(distances=[[400.0, 400.0]] * 9 + [[0.0, 400.0]]), BEFORE_AFTER, 4,
     "unknown key 'distances'"),
    ("scenario-min-distance-negative", _set_scenario(distance_min_m=-1.0), BEFORE_AFTER, 4,
     "distance_min_m"),
    ("scenario-all-normal", _set_scenario(num_normal=10), SOLVE, 4, "num_normal"),
    ("scenario-float-count", _set_scenario(prbs_per_bs=5.0), SOLVE, 4, "prbs_per_bs"),
    ("scenario-bool-count", _set_scenario(num_bs=True), HEURISTIC, 4, "num_bs"),
    ("scenario-unknown-key", _set_scenario(num_user=10), SOLVE, 4, "'num_user'"),
    ("scenario-bool-float", _set_scenario(noise_density_dbm_hz=True), SOLVE, 4,
     "noise_density_dbm_hz"),
    ("scenario-text-float", _set_scenario(prb_bandwidth_hz="180000"), SOLVE, 4, "prb_bandwidth_hz"),
    ("scenario-nan-float", _set_scenario(prb_bandwidth_hz=float("nan")), SOLVE, 4,
     "prb_bandwidth_hz"),
    ("power-not-utf8", _append_bytes("power_map_000.csv", b"10,5,2,\xff\n"), SOLVE, 4,
     "cannot read"),
    ("scenario-not-utf8", _append_bytes("scenario.json", b"\xff"), SOLVE, 4, "cannot read"),
    ("power-field-too-large", _set_power_cell("9" * 200000), SOLVE, 4, "cannot read"),
    ("before-after-zero-realizations", None, BEFORE_AFTER + ["--realizations", "0"], 2,
     "realizations"),
    ("sweep-alpha-zero-realizations", None,
     ["sweep-alpha", "--output", "{tmp}/sw", "--realizations", "0"], 2, "realizations"),
    ("scalability-zero-runs", None, ["scalability", "--output", "{tmp}/sc", "--runs", "0"], 2,
     "runs"),
    ("ingest-zero-window",
     _write("raw.csv", ",".join(medrecords.CSV_COLUMNS) + "\np1,1,120,80,200,0,0\n"),
     ["ingest", "--input", "{scn}/raw.csv", "--output", "{tmp}/r.csv", "--window", "0"], 2,
     "window"),
    # file line 4 holds sysbp abc, after a row whose quoted note spans lines 2-3
    ("ingest-quoted-two-line-cell",
     _write("raw.csv", ",".join(medrecords.CSV_COLUMNS) + ',note\np1,1,120,80,200,0,0,"two\n'
            'lines"\np1,2,abc,80,200,0,0,x\n'),
     ["ingest", "--input", "{scn}/raw.csv", "--output", "{tmp}/r.csv"], 4, "line 4:"),
    # a header naming sysbp twice, whose second column the reader ignored
    ("ingest-repeated-column",
     _write("raw.csv", ",".join(medrecords.CSV_COLUMNS) + ",sysbp\np1,1,120,80,200,0,0,999\n"),
     ["ingest", "--input", "{scn}/raw.csv", "--output", "{tmp}/r.csv"], 4,
     "repeated column 'sysbp'"),
    ("solution-bad-objective", _solution("X_10_5_2 1", "# objective abc"), VALIDATE, 4, "'abc'"),
    ("solution-bad-name", _solution("X_10_a_2 1"), VALIDATE, 4, "X_10_a_2"),
    ("solution-user-outside", _solution("X_10_5_2 1", "X_99_5_2 1"), VALIDATE, 4, "X_99_5_2"),
    ("solution-prb-outside", _solution("X_10_9_9 1"), VALIDATE, 4, "X_10_9_9"),
    # a full solution plus zeros for variables the model does not have
    ("solution-zero-user-outside", _solution("X_10_5_2 1", "X_99_5_2 0"), VALIDATE, 4,
     "X_99_5_2 names a user or slot outside the scenario"),
    ("solution-zero-slot-outside", _solution("X_10_5_2 1", "X_1_9_9 0"), VALIDATE, 4,
     "X_1_9_9 names a user or slot outside the scenario"),
    ("solution-shared-slot", _solution("X_10_1_1 1"), VALIDATE, 4, "more than one user"),
    ("solution-nan-value", _solution("X_10_5_2 nan"), VALIDATE, 4, "non-integral"),
    ("solution-repeated-variable", _solution("X_10_5_2 1", "X_1_1_1 1"), VALIDATE, 4,
     "lines 1 and 11 both give X_1_1_1"),
    # user 3's variable X_3_3_1 given twice, under a second spelling of its ids
    ("solution-zero-padded-name", _solution("X_10_5_2 1", "X_03_3_1 0"), VALIDATE, 4,
     "malformed variable name 'X_03_3_1'"),
    ("solution-plus-signed-name", _solution("X_+3_3_1 0", "X_10_5_2 1"), VALIDATE, 4,
     "malformed variable name 'X_+3_3_1'"),
    ("solution-not-utf8", _append_bytes("solution.txt", b"\xff\n"), VALIDATE, 4, "cannot read"),
    ("solution-repeated-objective",
     _solution("X_10_5_2 1", "# objective 1.0", "# objective 2.0"), VALIDATE, 4,
     "lines 11 and 12 both give # objective"),
    ("solve-nan-alpha", None, SOLVE + ["--prioritize", "--alpha", "nan"], 2, "alpha"),
    ("solve-negative-alpha", None, SOLVE + ["--prioritize", "--alpha", "-1000"], 2, "alpha"),
    ("heuristic-zero-alpha", None, HEURISTIC + ["--prioritize", "--alpha", "0"], 2, "alpha"),
    ("before-after-nan-alpha", None, BEFORE_AFTER + ["--alpha", "nan"], 2, "alpha"),
    ("sweep-alpha-negative-alpha", None,
     ["sweep-alpha", "--output", "{tmp}/sw", "--realizations", "1", "--alphas", "500", "-1"], 2,
     "alpha"),
    ("power-repeated-row", _append_bytes("power_map_000.csv", b"1,1,1,1.0\r\n"), SOLVE, 4,
     "repeated"),
    ("scenario-distance-inf", _set_scenario(distances=INF_DISTANCES), SOLVE, 4,
     "unknown key 'distances'"),
    ("scenario-distance-huge-int", _set_scenario(distances=[[400, 400]] * 9 + [[10**400, 400]]),
     SOLVE, 4, "unknown key 'distances'"),
    # an integer past the largest float
    ("scenario-op-ps-huge-int", _set_scenario(op_ps={"8": 10**400}), SOLVE, 4, "too large"),
    ("before-after-distance-inf", _set_scenario(distances=INF_DISTANCES), BEFORE_AFTER, 4,
     "unknown key 'distances'"),
    ("scenario-op-ps-bool", _set_scenario(op_ps={"8": True}), SOLVE, 4,
     "op_ps of user 8 is True"),
    ("scenario-op-ps-not-object", _set_scenario(op_ps=["8"]), SOLVE, 4,
     "op_ps is not an object by user id"),
    ("scenario-states-not-object", _set_scenario(current_states=5), HEURISTIC, 4,
     "current_states is not an object of objects by user id"),
    ("scenario-state-not-object", _set_scenario(current_states={"8": 5}), EXPORT, 4,
     "current_states is not an object of objects by user id"),
    ("scenario-repeated-field", _replace_in_scenario("{", '{"seed": 4, '), SOLVE, 4,
     "key 'seed' given twice"),
    ("scenario-op-ps-repeated-user",
     _replace_in_scenario(op_ps_entry(8), '"8": "0.1", "8": "0.7"'), HEURISTIC, 4,
     "key '8' given twice"),
    ("scenario-op-ps-zero-padded-id", _replace_in_scenario(op_ps_entry(8), op_ps_entry(8, "08")),
     SOLVE, 4, "op_ps names user '08'"),
    ("scenario-op-ps-underscored-id",
     _replace_in_scenario(op_ps_entry(10), op_ps_entry(10, "1_0")),
     EXPORT, 4, "op_ps names user '1_0'"),
    ("risk-unknown-level", _risk_inputs({**STATE, "f1": "Bogus"}), RISK, 4, "outpatient 8"),
    ("risk-missing-feature", _risk_inputs({"f1": "Normal", "f2": "Normal", "f3": "High"}),
     RISK, 4, "outpatient 8"),
    ("risk-stroke-yes", _risk_inputs(STATE, [row[:-1] + "yes" for row in STROKE_DAYS]), RISK, 4,
     "'yes'"),
    ("risk-day-zero", _risk_inputs(STATE, ["p1,0,Normal,Normal,High,Heavy,1", *STROKE_DAYS[1:]]),
     RISK, 4, "'0'"),
    ("risk-repeated-day", _risk_inputs(STATE, [*STROKE_DAYS, "p1,1,Normal,Normal,High,Heavy,0"]),
     RISK, 4, "repeats day 1"),
    ("risk-empty-patient-id",
     _risk_inputs(STATE, [",1,Normal,Normal,Normal,Light,1", *STROKE_DAYS]), RISK, 4,
     "line 2: empty patient_id"),
    # an id or a record day is read only as the number's own decimal spelling
    ("power-plus-signed-user", _set_power_ids(user="+1"), SOLVE, 4,
     "line 2: want canonical user, prb, bs >= 1"),
    ("power-zero-padded-prb", _set_power_ids(prb="01"), HEURISTIC, 4, "['1', '01', '1',"),
    ("power-underscored-bs", _set_power_ids(bs="0_1"), EXPORT, 4, "['1', '1', '0_1',"),
    ("risk-zero-padded-day",
     _risk_inputs(STATE, ["p1,01,Normal,Normal,High,Heavy,1", *STROKE_DAYS[1:]]), RISK, 4,
     "line 2: '01' is not written as 1"),
    ("power-huge-ids", _write("power_map_000.csv", "user,prb,bs,power_watts\n"
                              "1000000,1000000,1000,1.0\n"), SOLVE, 4, "missing"),
    ("power-header-only", _write("power_map_000.csv", "user,prb,bs,power_watts\n"), SOLVE, 4,
     "empty power map"),
    ("scenario-json-array", _write("scenario.json", "[]"), SOLVE, 4, "want an object"),
    ("ingest-zero-byte-file", _write("raw.csv", ""),
     ["ingest", "--input", "{scn}/raw.csv", "--output", "{tmp}/r.csv"], 4, "empty file"),
    ("generate-negative-realizations", None,
     ["generate", "--output", "{tmp}/g", "--realizations", "-2"], 2, "realizations"),
    ("generate-negative-bs-and-prbs", None,
     ["generate", "--output", "{tmp}/g", "--bs", "-2", "--prbs", "-2", "--users", "3",
      "--normal", "1"], 2, "num_bs"),
    ("generate-negative-normal", None,
     ["generate", "--output", "{tmp}/g", "--users", "2", "--normal", "-3"], 2, "num_normal"),
    ("generate-no-users", None,
     ["generate", "--output", "{tmp}/g", "--users", "0", "--normal", "-1"], 2, "num_users"),
    ("scenario-zero-bandwidth", _set_scenario(prb_bandwidth_hz=0), SOLVE, 4, "prb_bandwidth_hz"),
    ("scenario-noise-overflow", _set_scenario(noise_density_dbm_hz=1e308), SOLVE, 4,
     "noise_density_dbm_hz"),
    ("before-after-received-power-overflow",
     _set_scenario(distance_min_m=1e-300, distance_max_m=1e-300), BEFORE_AFTER, 4,
     "mean received power"),
    ("before-after-received-power-underflow",
     _set_scenario(distance_min_m=1e200, distance_max_m=1e200), BEFORE_AFTER, 4,
     "mean received power"),
    # 300 dBm less the path loss at 2.3e90 m is 5.2e-315 W, but every map entry is 0.0 W
    ("before-after-received-power-zero-map", _set_scenario(**FAR_300_DBM), BEFORE_AFTER, 4,
     "mean received power"),
    ("solve-received-power-zero-map", _set_scenario(**FAR_300_DBM), SOLVE, 4,
     "mean received power"),
    ("scenario-negative-normal", _set_scenario(num_normal=-1), SOLVE, 4, "num_normal"),
    ("heuristic-power-above-cap", _set_scenario(tx_power_per_prb_dbm=24.0), HEURISTIC, 3,
     "per-connection cap"),
    ("export-lp-power-above-cap", _set_scenario(tx_power_per_prb_dbm=24.0), EXPORT, 3,
     "per-connection cap"),
    ("export-lp-lambda-overflow", _set_power_cell("1e300", line=2), EXPORT, 4, "lambda"),
    ("export-lp-lambda-zero", _zero_powers, EXPORT, 4, "lambda"),
    ("solution-pf-zero-sinr", _zero_sinr_solution, VALIDATE + ["--objective", "pf"], 4,
     "zero SINR"),
    # a bad option and a missing input: the options are checked before any input is read
    ("solve-negative-alpha-missing-map", None,
     [a.replace("power_map_000", "missing") for a in SOLVE] + ["--alpha", "-1"], 2,
     "alpha must be finite and > 0, got -1.0"),
    ("heuristic-zero-iterations-missing-map", None,
     [a.replace("power_map_000", "missing") for a in HEURISTIC] + ["--iterations", "0"], 2,
     "iterations must be >= 1"),
    ("export-lp-nan-alpha-missing-scenario", None,
     [a.replace("scenario.json", "missing.json") for a in EXPORT] + ["--alpha", "nan"], 2,
     "alpha must be a finite float, got nan"),
    ("validate-solution-zero-alpha-missing-map", None,
     [a.replace("power_map_000", "missing") for a in VALIDATE] + ["--alpha", "0"], 2,
     "alpha must be finite and > 0, got 0.0"),
]


def test_verbose_is_no_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--verbose", "generate", "--output", str(tmp_path / "g")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_import_adds_only_the_standard_library():
    """After numpy, `import prballoc.cli` loads only standard-library and prballoc modules:
    no scipy, which is not a runtime dependency, and no numpy.random, whose import adds
    10-15 ms and about 6 MB to every command's start."""
    code = ("import sys, numpy; before = set(sys.modules); import prballoc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                           capture_output=True, text=True, check=True).stdout.split()
    assert "prballoc.cli" in added
    allowed = sys.stdlib_module_names | {"prballoc"}
    assert [name for name in added if name.partition(".")[0] not in allowed] == []


class TestMalformedInput:
    @pytest.mark.parametrize(
        "edit, argv, code, message", [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_exit_code_without_traceback(
        self, scenario_dir, tmp_path, capsys, edit, argv, code, message
    ):
        if edit is not None:
            edit(scenario_dir)
        capsys.readouterr()
        assert run([a.format(scn=scenario_dir, tmp=tmp_path) for a in argv]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["scn"]  # a failing command writes nothing


BOM = b"\xef\xbb\xbf"
RAW_ROWS = [f"p{p},{d},{110 + 9 * d},{70 + p},{190 + 5 * d},{p + d},{(p + d) % 3 == 0:d}"
            for p in (1, 2, 3) for d in range(1, 8)]


def _raw(scn):
    _write("raw.csv", "\n".join([",".join(medrecords.CSV_COLUMNS), *RAW_ROWS]) + "\n")(scn)


class TestByteOrderMark:
    """Each input kind reads the same with a UTF-8 byte-order mark as without one, as a
    spreadsheet's "CSV UTF-8" export writes it: the same exit code, stdout and output bytes."""

    @pytest.mark.parametrize("edit, name, argv, output", [
        (_raw, "raw.csv", ["ingest", "--input", "{scn}/raw.csv", "--output", "{tmp}/r.csv"],
         "r.csv"),
        (_risk_inputs(STATE), "records.csv", RISK, "scored.json"),
        (None, "power_map_000.csv", SOLVE, "out.csv"),
        (None, "scenario.json", EXPORT, "model.lp"),
        (_solution("X_10_5_2 1", "# objective 1.0"), "solution.txt", VALIDATE, None),
    ], ids=["raw-records", "records", "power-map", "scenario", "solution"])
    def test_same_outcome(self, scenario_dir, tmp_path, capsys, edit, name, argv, output):
        if edit is not None:
            edit(scenario_dir)
        argv = [a.format(scn=scenario_dir, tmp=tmp_path) for a in argv]

        def outcome():
            capsys.readouterr()
            code = run(argv)
            written = None
            if output is not None and (tmp_path / output).exists():
                written = (tmp_path / output).read_bytes()
                (tmp_path / output).unlink()
            return code, capsys.readouterr().out, written

        plain = outcome()
        path = scenario_dir / name
        path.write_bytes(BOM + path.read_bytes())
        assert outcome() == plain
        assert plain[0] == 0 and plain[1]
        assert output is None or not plain[2].startswith(BOM)
