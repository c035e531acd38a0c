"""Malformed scenarios: every mutation of a canned document either runs or
fails with ConfigError/ProtocolError, and the CLI exits 0, 1, 2 or 3."""

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
