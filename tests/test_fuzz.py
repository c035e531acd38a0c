"""Malformed input: every mutation of a canned scenario document either runs
or fails with ConfigError/ProtocolError, and the CLI exits 0, 1, 2 or 3 on
it and on mutated copies of a run's CSV files."""

import copy
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fotsim import cli
from fotsim.errors import ConfigError, ProtocolError
from fotsim.scenario import canned_scenarios, run, validate_scenario

# short runs: the mutations, not the run length, are under test
SHORT = {"duration_s": 64, "calibration_rounds": 20}
WRONG_TYPES = ["text", "", 1, -3, 2.5, True, None, [], {}, [1.0], {"x": 1}]


def canned_doc(name):
    doc = json.loads((resources.files("fotsim") / "scenarios" / f"{name}.json").read_text())
    doc["duration_s"] = SHORT["duration_s"]
    if "protocol" in doc:
        doc["protocol"]["calibration_rounds"] = SHORT["calibration_rounds"]
    return doc


DOCS = {name: canned_doc(name) for name in canned_scenarios()}


def paths(node, prefix=()):
    """Every key path below node, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    kind = draw(st.sampled_from(["drop", "retype", "negate", "zero", "nest"]))
    candidates = sorted(paths(doc), key=repr)
    if kind in ("negate", "zero"):
        candidates = [p for p in candidates if is_number(get(doc, p))]
    path = draw(st.sampled_from(candidates))
    parent, key = get(doc, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "negate":
        parent[key] = -parent[key]
    elif kind == "zero":
        parent[key] = 0 * parent[key]
    else:
        value = parent[key]
        parent[key] = draw(st.sampled_from([[value], {"value": value}]))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(doc=mutated_docs())
def test_mutated_scenario_runs_or_fails_cleanly(doc, tmp_path):
    try:
        run(validate_scenario(doc))
    except (ConfigError, ProtocolError):
        pass
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_shortened_canned_documents_run(name, tmp_path):
    # the unmutated bases are valid, so a clean failure above comes from the
    # mutation and not from the shortening
    report = run(validate_scenario(copy.deepcopy(DOCS[name])), out_dir=tmp_path)
    assert report.manifest["outputs"]


# malformed CSV input to `fotsim tdev` and `fotsim compare`

JUNK_CELLS = ["zz", "", " ", "1_0", "0x1", "--1", "1e", "nan", "-inf", "1e999", "-0",
              "1.7976931348623157e+308", "5e-324", "\x00", "1,2", "é"]


@pytest.fixture(scope="module")
def canned_csvs(tmp_path_factory):
    """series.csv, rounds.csv and tdev.csv of a shortened canned run."""
    out = tmp_path_factory.mktemp("canned")
    run(validate_scenario(copy.deepcopy(DOCS["link_sync_230km"])), out_dir=out)
    return {name: (out / name).read_bytes() for name in ("series.csv", "rounds.csv", "tdev.csv")}


@st.composite
def mutated_csvs(draw, texts):
    name = draw(st.sampled_from(sorted(texts)))
    lines = texts[name].decode().split("\n")
    row = draw(st.integers(0, len(lines) - 2))
    kind = draw(st.sampled_from(["junk", "drop comma", "extra comma", "truncate", "empty"]))
    if kind == "junk":
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(JUNK_CELLS))
        lines[row] = ",".join(cells)
    elif kind == "drop comma":
        lines[row] = lines[row].replace(",", "", 1)
    elif kind == "extra comma":
        at = draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + "," + lines[row][at:]
    text = "\n".join(lines).encode()
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif kind == "empty":
        text = b""
    return name, text


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_csv_input_exits_cleanly(data, canned_csvs, tmp_path):
    name, text = data.draw(mutated_csvs(canned_csvs))
    path = tmp_path / name
    path.write_bytes(text)
    out = str(tmp_path / "curve.csv")
    if name == "tdev.csv":
        good = tmp_path / "good.csv"
        good.write_bytes(canned_csvs[name])
        argv = ["compare", str(good), str(path)]
    elif name == "series.csv":
        argv = ["tdev", "--input", str(path), "--tau0", "1", "--out", out]
    else:
        argv = ["tdev", "--input", str(path), "--out", out]
    assert cli.main(argv) in (0, 1, 2, 3)


def test_canned_csv_input_runs(canned_csvs, tmp_path):
    # the unmutated files pass, so a clean failure above comes from the mutation
    for name, text in canned_csvs.items():
        (tmp_path / name).write_bytes(text)
    assert cli.main(["tdev", "--input", str(tmp_path / "series.csv"), "--tau0", "1",
                     "--out", str(tmp_path / "a.csv")]) == 0
    assert cli.main(["tdev", "--input", str(tmp_path / "rounds.csv"),
                     "--out", str(tmp_path / "b.csv")]) == 0
    assert cli.main(["compare", str(tmp_path / "tdev.csv"), str(tmp_path / "tdev.csv")]) == 0
