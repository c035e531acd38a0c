"""Golden artifact digests: every file run() writes for each canned scenario
must hash to the sha256 pinned in perfbench/digests.json.

Rerun determinism (test_criterion_9) compares two runs of one build; this
test compares against the pinned bytes, so a change that alters any output
fails here.  The manifests record the numpy version, so the pinned digests
hold only under the numpy version the benchmark baseline recorded.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fotsim.scenario import canned_scenarios, load_scenario, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "digests.json").read_text())["canned"]
PINNED_NUMPY = json.loads((PERFBENCH / "baseline.json").read_text())["host"]["numpy"]


def test_every_canned_scenario_is_pinned():
    assert sorted(GOLDEN) == canned_scenarios()


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"digests pin numpy {PINNED_NUMPY} in every manifest, "
                           f"numpy {np.__version__} is installed")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_artifacts_match_golden_digests(name, tmp_path):
    run(load_scenario(name), out_dir=tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(tmp_path.iterdir())}
    assert got == GOLDEN[name]
