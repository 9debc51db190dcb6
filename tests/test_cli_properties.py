"""Property test of the CLI's exit-code contract on mutated input files.

Hypothesis mutates one file of a small valid instance (scenario JSON keys and
values, power-map rows, records rows, raw-record rows, solution lines; byte-order
marks and re-spelled ids among them) and runs a command that reads it through
`cli.main`, in process.  Whatever the input, the command ends in exit 0, 2, 3 or
4 without an exception, leaves no temporary file, and on a non-zero exit leaves
its output path as it found it.  `derandomize=True` keeps every run on the same
examples.
"""

import json
import os
import re
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prballoc import allocator_exact as ex  # noqa: E402
from prballoc import channel, cli, medrecords  # noqa: E402

# No shrinking: a failure reports the example that found it at once.
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])

SCENARIO = ["--scenario", "{d}/scenario.json"]
INSTANCE = SCENARIO + ["--power-map", "{d}/power_map.csv"]
# each command's argv and the output it writes (None: only stdout)
COMMANDS = {
    "solve": (["solve", *INSTANCE, "--prioritize", "--output", "{d}/out/solve.csv"],
              "solve.csv"),
    "heuristic": (["heuristic", *INSTANCE, "--iterations", "2", "--output",
                   "{d}/out/heuristic.csv"], "heuristic.csv"),
    "export-lp": (["export-lp", *INSTANCE, "--objective", "pf", "--output",
                   "{d}/out/model.lp"], "model.lp"),
    "validate-solution": (["validate-solution", *INSTANCE, "--solution", "{d}/solution.txt"],
                          None),
    "risk": (["risk", "--records", "{d}/records.csv", *SCENARIO, "--output",
              "{d}/out/scored.json"], "scored.json"),
    "ingest": (["ingest", "--input", "{d}/raw.csv", "--output", "{d}/out/records.csv"],
               "records.csv"),
    "before-after": (["before-after", *SCENARIO, "--realizations", "1", "--iterations", "1",
                      "--output", "{d}/out/ba"], "ba"),
    "sweep-alpha": (["sweep-alpha", *SCENARIO, "--realizations", "1", "--output",
                     "{d}/out/sw"], "sw"),
}
# the experiment commands' output directories and a file each writes there
DIRECTORY_OUTPUTS = {"ba": "summary.csv", "sw": "alpha_sweep.csv"}
# the commands that read each input file
READERS = {
    "scenario.json": ["solve", "heuristic", "export-lp", "validate-solution", "risk",
                      "before-after", "sweep-alpha"],
    "power_map.csv": ["solve", "heuristic", "export-lp", "validate-solution"],
    "records.csv": ["risk"],
    "raw.csv": ["ingest"],
    "solution.txt": ["validate-solution"],
}


def _instance():
    """The files of a valid 4-user, 2 x 2-slot instance with two scored outpatients."""
    config = channel.ScenarioConfig(num_bs=2, prbs_per_bs=2, num_users=4, num_normal=2, seed=3)
    state = {"f1": "Normal", "f2": "Pre-hypertension", "f3": "High", "f4": "Heavy"}
    scenario = channel.Scenario(config, op_ps={3: 0.4, 4: 0.01},
                                current_states={3: state, 4: state})
    pm = channel.generate_power_map(scenario)
    with tempfile.TemporaryDirectory() as d:
        channel.write_power_map_csv(pm, os.path.join(d, "power_map.csv"))
        with open(os.path.join(d, "power_map.csv"), "rb") as fh:
            power_map = fh.read()
    assignment, report = ex.solve_exact(scenario, pm, ex.SolverConfig())
    solution = [f"# objective {report.objective_value!r}"]
    solution += [f"X_{k}_{n}_{b} 1" for k, (b, n) in assignment.slots.items()]
    records = [",".join(medrecords.RECORD_COLUMNS)]
    records += [f"p{p},{d},Normal,Pre-hypertension,High,Heavy,{int(d % p == 0)}"
                for p in (1, 2, 3) for d in range(1, 5)]
    raw = [",".join(medrecords.CSV_COLUMNS)]
    raw += [f"p{p},{d},{110 + 9 * d},{70 + p},{190 + 5 * d},{p + d},{int(d % p == 0)}"
            for p in (1, 2) for d in range(1, 5)]
    return {
        "scenario.json": channel.scenario_to_json(scenario).encode(),
        "power_map.csv": power_map,
        "solution.txt": ("\n".join(solution) + "\n").encode(),
        "records.csv": ("\r\n".join(records) + "\r\n").encode(),
        "raw.csv": ("\n".join(raw) + "\n").encode(),
    }


BASE = _instance()

# Cell and line texts: the spellings that readers have refused or misread, then any text
# (no lone surrogates, which no file can hold).
TEXTS = st.sampled_from([
    "", "0", "-1", "01", "+1", "1_0", " 1", "1.5", "nan", "inf", "1e400", "abc", "\ufeff",
    "é", '"', "Normal", "99999999999", "X_1_1_1 1", "# objective nan",
]) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
# JSON values for one scenario field.  Counts stay small or are past any address space, so
# that no drawn count sizes a solve or an array that could run for long or be allocated.
JSON_VALUES = (st.none() | st.booleans() | st.integers(-3, 4) | st.integers(10**15, 10**30)
               | st.just(10**400) | st.floats() | TEXTS | st.lists(st.integers(0, 9), max_size=2)
               | st.dictionaries(TEXTS, st.integers(0, 9), max_size=2))


def _respell(number, how):
    return [f"0{number}", f"+{number}", f" {number}", f"{number[0]}_{number[1:]}" if
            len(number) > 1 else f"{number}_0"][how]


@st.composite
def text_edits(draw, text):
    """One edit of the text of any input file."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["bom", "respell", "cell", "line", "drop", "repeat", "cut",
                                 "long"]))
    if kind == "bom":
        return "\ufeff" + text
    if kind == "respell":
        numbers = list(re.finditer(r"\d+", text))
        if not numbers:
            return text
        m = numbers[draw(st.integers(0, len(numbers) - 1))]
        return text[:m.start()] + _respell(m.group(), draw(st.integers(0, 3))) + text[m.end():]
    if kind == "cell":
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(TEXTS)
        lines[i] = ",".join(cells)
    elif kind == "line":
        lines[i] = draw(TEXTS)
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "long":  # a cell past the csv module's field limit, a number of 140000 digits
        lines[i] = lines[i].rstrip("\r") + "9" * 140_000
    else:
        return text[:draw(st.integers(0, len(text)))]
    return "\n".join(lines)


@st.composite
def json_edits(draw, text):
    """One edit of a scenario key or value: a field set, removed or renamed."""
    payload = json.loads(text)
    objects = [payload, payload.get("op_ps"), payload.get("current_states")]
    objects += list(objects[2].values()) if isinstance(objects[2], dict) else []
    places = [(obj, k) for obj in objects if isinstance(obj, dict) for k in obj]
    if not places:
        return text
    obj, key = draw(st.sampled_from(places))
    kind = draw(st.sampled_from(["value", "remove", "rename"]))
    if kind == "value":
        obj[key] = draw(JSON_VALUES)
    elif kind == "remove":
        del obj[key]
    else:
        new = _respell(key, draw(st.integers(0, 3))) if key.isdigit() else draw(TEXTS)
        obj[new] = obj.pop(key)
    return json.dumps(payload, indent=2)


@st.composite
def mutated_inputs(draw):
    """(files, command, whether the output exists beforehand): a command, and one file of BASE
    that it reads edited once or twice, as text or as JSON, or with bytes that are not UTF-8
    appended.  The command is drawn first, so that each is drawn about as often."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    name = draw(st.sampled_from([name for name in sorted(READERS) if command in READERS[name]]))
    text = BASE[name].decode()
    for _ in range(draw(st.integers(1, 2))):
        if name == "scenario.json" and draw(st.booleans()):
            text = draw(json_edits(text)) if _is_json_object(text) else draw(text_edits(text))
        else:
            text = draw(text_edits(text))
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:
        data += draw(st.sampled_from([b"\xff", b"\xef\xbb", b"\x00", b"\r"]))
    return {**BASE, name: data}, command, draw(st.booleans())


def _is_json_object(text):
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


def _snapshot(path):
    """The bytes of the file at `path`, {name: bytes} of a directory, or None if absent."""
    if os.path.isdir(path):
        return {name: _snapshot(os.path.join(path, name)) for name in sorted(os.listdir(path))}
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return fh.read()
    return None


@settings(PROPERTY, max_examples=160)
@given(mutated_inputs())
def test_any_input_ends_in_a_documented_exit_code(case):
    files, command, output_exists = case
    argv, output = COMMANDS[command]
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(data)
        os.mkdir(os.path.join(d, "out"))
        target = os.path.join(d, "out", output or "none")  # validate-solution writes none
        if output_exists and output in DIRECTORY_OUTPUTS:
            os.mkdir(target)
            with open(os.path.join(target, DIRECTORY_OUTPUTS[output]), "w") as fh:
                fh.write("old\n")
        elif output_exists:
            with open(target, "w") as fh:
                fh.write("old\n")
        before = _snapshot(target)
        code = cli.main([a.format(d=d) for a in argv])
        assert code in (0, 2, 3, 4)
        left = [name for _, _, names in os.walk(d) for name in names if name.endswith(".tmp")]
        assert left == []
        if code != 0:
            assert _snapshot(target) == before
