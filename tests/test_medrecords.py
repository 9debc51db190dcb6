import math

import numpy as np
import pytest

from prballoc import cli
from prballoc import medrecords as med
from prballoc.risk import CurrentState
from prballoc.errors import DataError
from helpers import synthesize_raw_records


def _row(pid="p1", day=1, sysbp=120.0, diabp=80.0, totchol=200.0, cigpday=5.0, stroke=0):
    return med.RawRecordRow(pid, day, sysbp, diabp, totchol, cigpday, stroke)


# The paper's printed severity ranges, low to high, as (level, lowest reading of the range):
# f1 <120, 120-139, 140+; f2 <80, 80-89, 90+; f3 <200, 200-239, 240+; f4 0-10, 11-19, 20+.
PRINTED_RANGES = {
    "f1": (("Normal", 0.0), ("Pre-hypertension", 120.0), ("High-Hypertension", 140.0)),
    "f2": (("Normal", 0.0), ("Pre-hypertension", 80.0), ("High-Hypertension", 90.0)),
    "f3": (("Optimal", 0.0), ("Normal", 200.0), ("High", 240.0)),
    "f4": (("Light", 0.0), ("Moderate", 11.0), ("Heavy", 20.0)),
}


def _scan_level(feature, value):
    """The highest range whose lowest reading `value` is not below; NaN takes the top one."""
    for level, lowest in reversed(PRINTED_RANGES[feature]):
        if not value < lowest:
            return level


class TestLevelOf:
    def test_cholesterol_boundaries(self):
        assert med.level_of("f3", 199.9) == "Optimal"
        assert med.level_of("f3", 200.0) == "Normal"
        assert med.level_of("f3", 239.0) == "Normal"
        assert med.level_of("f3", 240.0) == "High"

    def test_systolic_boundaries(self):
        assert med.level_of("f1", 119.0) == "Normal"
        assert med.level_of("f1", 120.0) == "Pre-hypertension"
        assert med.level_of("f1", 139.0) == "Pre-hypertension"
        assert med.level_of("f1", 140.0) == "High-Hypertension"

    def test_diastolic_boundaries(self):
        assert med.level_of("f2", 79.0) == "Normal"
        assert med.level_of("f2", 80.0) == "Pre-hypertension"
        assert med.level_of("f2", 89.0) == "Pre-hypertension"
        assert med.level_of("f2", 90.0) == "High-Hypertension"

    def test_smoking_boundaries(self):
        assert med.level_of("f4", 0.0) == "Light"
        assert med.level_of("f4", 10.0) == "Light"
        assert med.level_of("f4", 11.0) == "Moderate"
        assert med.level_of("f4", 15.0) == "Moderate"
        assert med.level_of("f4", 19.0) == "Moderate"
        assert med.level_of("f4", 20.0) == "Heavy"

    def test_total_over_integer_sweep(self):
        # mapping must be total and always land on a known level
        for feat in med.FEATURES:
            for v in range(0, 401):
                assert med.level_of(feat, float(v)) in med.LEVEL_NAMES[feat]

    @pytest.mark.parametrize("feature", sorted(PRINTED_RANGES))
    def test_matches_a_scan_of_the_printed_ranges(self, feature):
        bounds = [lowest for _, lowest in PRINTED_RANGES[feature][1:]]
        values = [0.0, -0.0, math.inf, math.nan]
        values += [v for b in bounds for v in (math.nextafter(b, -math.inf), b,
                                               math.nextafter(b, math.inf))]
        for value in values:
            assert med.level_of(feature, value) == _scan_level(feature, value), value
        assert med.level_of(feature, math.nan) == PRINTED_RANGES[feature][-1][0]

    def test_negative_reading_rejected(self):
        with pytest.raises(ValueError):
            med.level_of("f1", -1.0)

    def test_unknown_feature(self):
        with pytest.raises(ValueError):
            med.level_of("f9", 1.0)


class TestCleanse:
    def test_missing_field_dropped(self):
        rows = [_row(diabp=None), _row(pid=""), _row(day=2)]
        kept = med.cleanse(rows)
        assert len(kept) == 1 and kept[0].day == 2

    def test_duplicate_patient_day_second_dropped(self):
        first = _row(sysbp=100.0)
        dup = _row(sysbp=150.0)
        kept = med.cleanse([first, dup])
        assert kept == [first]

    def test_valid_row_unchanged(self):
        row = _row()
        assert med.cleanse([row]) == [row]

    def test_negative_values_dropped(self):
        assert med.cleanse([_row(totchol=-5.0)]) == []

    def test_bad_stroke_flag_dropped(self):
        assert med.cleanse([_row(stroke=2)]) == []

    def test_non_finite_readings_dropped(self):
        bad = [float("nan"), float("inf"), float("-inf")]
        rows = [_row(day=1, **{field: v}) for field in ("sysbp", "diabp", "totchol", "cigpday")
                for v in bad]
        assert med.cleanse(rows + [_row(day=2)]) == [_row(day=2)]

    def test_non_finite_cells_from_csv_dropped(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n"
            "p1,1,nan,85,210,3,0\n"
            "p1,2,130,inf,210,3,0\n"
            "p1,3,130,85,210,3,0\n"
        )
        kept = med.cleanse(med.load_raw_records(path))
        assert [r.day for r in kept] == [3]

    def test_non_finite_day_or_stroke_dropped(self, tmp_path):
        path = tmp_path / "raw.csv"
        bad = [f"p1,{v},130,85,210,3,0\np2,1,130,85,210,3,{v}\n"
               for v in ("inf", "-inf", "nan", "1e400")]
        path.write_text("patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n" + "".join(bad)
                        + "p1,1,130,85,210,3,1\np2,1,130,85,210,3,0\n")
        kept = med.cleanse(med.load_raw_records(path))
        assert [(r.patient_id, r.day, r.stroke) for r in kept] == [("p1", 1, 1), ("p2", 1, 0)]

    def test_fractional_day_or_stroke_dropped(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n"
            "p1,1,130,85,210,3,0.5\n"
            "p1,2.7,130,85,210,3,1\n"
            "p1,2,130,85,210,3,0\n"
        )
        kept = med.cleanse(med.load_raw_records(path))
        assert [(r.day, r.stroke) for r in kept] == [(2, 0)]

    def test_idempotent(self):
        rows = [_row(), _row(day=2), _row(day=2, sysbp=1.0), _row(diabp=None, day=3)]
        once = med.cleanse(rows)
        assert med.cleanse(once) == once


class TestGeneralize:
    def test_levels_and_stroke(self):
        entry = med.generalize(_row(sysbp=119.0, diabp=90.0, totchol=240.0, cigpday=15.0, stroke=1))
        assert entry.levels == {
            "f1": "Normal",
            "f2": "High-Hypertension",
            "f3": "High",
            "f4": "Moderate",
        }
        assert entry.stroke is True

    def test_levels_shared_and_read_only(self):
        a = med.generalize(_row(day=1))
        b = med.generalize(_row(day=2))
        assert a.levels is b.levels
        with pytest.raises(TypeError):
            a.levels["f1"] = "High-Hypertension"
        assert dict(a.levels) == a.levels
        assert CurrentState(**a.levels).level("f3") == a.levels["f3"]


class TestSegment:
    def test_groups_and_sorts(self):
        rows = [_row(day=2), _row(day=1), _row(pid="p2", day=1)]
        records = {r.patient_id: r for r in med.segment(rows)}
        assert sorted(records) == ["p1", "p2"]
        assert [e.day for e in records["p1"].days] == [1, 2]

    def test_window_truncates(self):
        rows = [_row(day=d) for d in range(1, 41)]
        (record,) = med.segment(rows, window=30)
        assert len(record.days) == 30
        assert record.days[-1].day == 30

    def test_empty_patient_warns(self, caplog):
        with caplog.at_level("WARNING"):
            records = med.segment([], all_patient_ids=["ghost"])
        assert records == []
        assert any("ghost" in r.message for r in caplog.records)


class TestCsvRoundTrip:
    def test_raw_load(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n"
            "p1,1,130,85,210,3,0\n"
            "p1,2,130,85,,3,1\n"
        )
        rows = med.load_raw_records(path)
        assert len(rows) == 2
        assert rows[1].totchol is None
        assert rows[1].stroke == 1

    def test_ingest_bytes(self, tmp_path, capsys):
        """Every droppable row kind, a repeated (patient, day), a 1.0 and a -0.0 stroke."""
        raw, out = tmp_path / "raw.csv", tmp_path / "records.csv"
        raw.write_text("\n".join([
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke",
            "p1,1,130,85,210,3,0", "p1,1.0,150,95,250,25,1", "p1,2,119.5,79.9,199.9,10.9,-0.0",
            "p1,2.7,130,85,210,3,1", "p1,0,130,85,210,3,0", "p1,-1,130,85,210,3,0",
            "p1,,130,85,210,3,0", "p1,3,130,85,210,3,0.5", "p1,4,130,85,210,3,2",
            "p1,5,140,90,240,20,1.0", "p1,6,nan,85,210,3,0", "p1,7,130,inf,210,3,0",
            "p1,8,130,85,-3,3,0", "p1,9,130,85,210,,0", "p1,10,130,85,210,3,",
            "p2,3,120,80,200,11,0", "p2,3,120,80,200,11,0", ",11,130,85,210,3,0",
            "p2,1,-0.0,0,0,0,1", "p2,2,130,-inf,210,3,0", "p2,4,1e400,85,210,3,0",
            "p2,5,139.9,89.9,239.9,19.9,1", "p3,1,130,85,210,3,0.5",
        ]) + "\n")
        assert cli.main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 records to {out}\n"
        assert out.read_bytes() == b"".join(line + b"\r\n" for line in [
            b"patient_id,day,f1,f2,f3,f4,stroke",
            b"p1,1,Pre-hypertension,Pre-hypertension,Normal,Light,0",
            b"p1,2,Normal,Normal,Optimal,Light,0",
            b"p1,5,High-Hypertension,High-Hypertension,High,Heavy,1",
            b"p2,1,Normal,Normal,Optimal,Light,1",
            b"p2,3,Pre-hypertension,Pre-hypertension,Normal,Moderate,0",
            b"p2,5,Pre-hypertension,Pre-hypertension,Normal,Moderate,1",
        ])

    def test_ingest_bytes_with_columns_in_any_order(self, tmp_path, capsys):
        """test_ingest_bytes's raw file, its columns permuted among two extra ones: same bytes."""
        self.test_ingest_bytes(tmp_path, capsys)
        raw, out = tmp_path / "raw.csv", tmp_path / "records.csv"
        expected = out.read_bytes()
        order = ["note", "stroke", "diabp", "patient_id", "cigpday", "site", "day", "totchol",
                 "sysbp"]
        header, *lines = (line.split(",") for line in raw.read_text().splitlines())
        rows = [[dict(zip(header, cells), note=f"n{i}", site="")[name] for name in order]
                for i, cells in enumerate(lines)]
        raw.write_text("".join(",".join(row) + "\n" for row in [order, *rows]))
        out.unlink()
        assert cli.main(["ingest", "--input", str(raw), "--output", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 records to {out}\n"
        assert out.read_bytes() == expected

    def test_missing_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("patient_id,day,sysbp,diabp,totchol,cigpday\np1,1,1,1,1,1\n")
        with pytest.raises(DataError, match="stroke"):
            med.load_raw_records(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n"
            "p1,1,120.5,80,200,3,0\n"
            "p1,2,abc,80,200,3,0\n"
        )
        with pytest.raises(DataError, match=r"line 3: non-numeric value 'abc' in column 'sysbp'$"):
            med.load_raw_records(path)

    def test_readings_share_one_float_per_text_within_a_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "patient_id,day,sysbp,diabp,totchol,cigpday,stroke\n"
            "p1,1,120.5,80,200,0.0,0\n"
            "p1,2,120.5,80,200,-0.0,0\n"
            "p1,3,120.50,80,200,0.0,1\n"
        )
        first, second, third = med.load_raw_records(path)
        assert first.sysbp is second.sysbp
        assert third.sysbp == first.sysbp == 120.5
        assert first.diabp is third.diabp
        assert [math.copysign(1.0, r.cigpday) for r in (first, second, third)] == [1.0, -1.0, 1.0]

        readings = ("sysbp", "diabp", "totchol", "cigpday")

        def reading_ids(rows):
            return {id(getattr(r, c)) for r in rows for c in readings}

        assert not reading_ids([first, second, third]) & reading_ids(med.load_raw_records(path))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            med.load_raw_records(tmp_path / "nope.csv")

    def test_records_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = med.cleanse(synthesize_raw_records(3, 10, rng))
        records = med.segment(rows)
        path = tmp_path / "records.csv"
        med.write_records_csv(records, path)
        back = {r.patient_id: r for r in med.read_records_csv(path)}
        for rec in records:
            assert back[rec.patient_id] == rec

    def test_read_levels_shared_and_read_only(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "patient_id,day,f1,f2,f3,f4,stroke\n"
            "p1,1,Normal,Normal,High,Heavy,1\n"
            "p1,2,Normal,Normal,High,Heavy,0\n"
        )
        (record,) = med.read_records_csv(path)
        first, second = record.days
        assert first.levels is second.levels
        assert first.levels == {"f1": "Normal", "f2": "Normal", "f3": "High", "f4": "Heavy"}
        with pytest.raises(TypeError):
            first.levels["f4"] = "Light"
        assert first.levels["f3"] is med.LEVEL_NAMES["f3"][2]

    @pytest.mark.parametrize(
        "row", ["p1,2,Normal,Normal,High,Heavy", "p1,2,Normal,Normal,High,Heavy,1,x"]
    )
    def test_records_wrong_row_width(self, tmp_path, row):
        path = tmp_path / "records.csv"
        path.write_text(
            "patient_id,day,f1,f2,f3,f4,stroke\np1,1,Normal,Normal,High,Heavy,1\n" + row + "\n"
        )
        with pytest.raises(DataError, match="line 3"):
            med.read_records_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("p1,1,Normal,Normal,Huge,Heavy,1", "line 2: unknown level 'Huge' for f3"),
        ("p1,x,Normal,Normal,High,Heavy,1", "line 2: invalid literal"),
        ("p1,1,Normal,Normal,High,Heavy,yes", "line 2: want a day >= 1 and a stroke of 0 or 1"),
        ("p1,0,Normal,Normal,High,Heavy,1", "line 2: want a day >= 1 and a stroke of 0 or 1"),
        (",1,Normal,Normal,Normal,Light,1", "line 2: empty patient_id"),
        ("p1,1,Normal,Normal,High,Heavy,1\np1,1,Normal,Normal,High,Heavy,0",
         "patient 'p1' repeats day 1"),
    ])
    def test_records_bad_cell_names_line(self, tmp_path, row, message):
        path = tmp_path / "records.csv"
        path.write_text("patient_id,day,f1,f2,f3,f4,stroke\n" + row + "\n")
        with pytest.raises(DataError, match=message):
            med.read_records_csv(path)
