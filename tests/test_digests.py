"""Golden artifact digests: every file run() writes for each canned scenario
and for each benchmark workload at its pinned seed must hash to the sha256
pinned in perfbench/digests.json.

Rerun determinism (test_criterion_9) compares two runs of one build; this
test compares against the pinned bytes, so a change that alters any output
fails here.  The manifests record the numpy version, so the pinned digests
hold only under the numpy version the benchmark baseline recorded.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fotsim
from fotsim.scenario import canned_scenarios, load_scenario, run, validate_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
GOLDEN = DIGESTS["canned"]
WORKLOADS = DIGESTS["workloads"]
PINNED_NUMPY = json.loads((PERFBENCH / "baseline.json").read_text())["host"]["numpy"]

needs_pinned_numpy = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests pin numpy {PINNED_NUMPY} in every manifest, "
           f"numpy {np.__version__} is installed")


def hash_tree(path):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


# The benchmark runs fotsim with one BLAS thread (perfbench/run.py), and
# tdev's dot products over long series sum in another order on more threads,
# so the workloads are rebuilt in a child process pinned the same way.
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD = """
import sys
from pathlib import Path
from fotsim.scenario import run, validate_scenario, write_curve_csv
from fotsim.stability import tdev
from fotsim.timebase import TimeErrorSeries
import workloads
name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
if name == "analyze_tdev":
    values = workloads.series_values(seed)
    write_curve_csv(out / "tdev.csv",
                    tdev(TimeErrorSeries(tau0_s=workloads.SERIES_TAU0_S, values=values)))
else:
    run(validate_scenario(workloads.scenario_doc(name, seed)), out_dir=out)
"""


def run_workload(name, out):
    """Run one benchmark workload at its pinned seed into out: the scenario
    of perfbench/inputs for a simulation, the series of
    workloads.series_values through tdev for analyze_tdev."""
    src = Path(fotsim.__file__).resolve().parent.parent
    env = dict(os.environ, **PINNED_BLAS, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    subprocess.run([sys.executable, "-c", WORKLOAD, name, str(WORKLOADS[name]["seed"]),
                    str(out)], env=env, check=True)


def test_every_canned_scenario_is_pinned():
    assert sorted(GOLDEN) == canned_scenarios()


@needs_pinned_numpy
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_artifacts_match_golden_digests(name, tmp_path):
    run(load_scenario(name), out_dir=tmp_path)
    assert hash_tree(tmp_path) == GOLDEN[name]


@needs_pinned_numpy
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_artifacts_match_golden_digests(name, tmp_path):
    run_workload(name, tmp_path)
    assert hash_tree(tmp_path) == WORKLOADS[name]["files"]


# No canned scenario runs the emit-time fluctuation mode, so its bytes are
# pinned here: the two 230 km sync scenarios switched to
# link.evaluate_at_emit_time.  Only the round tables and the tracking-error
# series are pinned; tdev*.csv bytes depend on the BLAS thread count, and
# manifest.json records the numpy version.
EMIT_MODE = {
    "link_sync_230km": {
        "rounds.csv": "5de1767795e81211fcb675400e3a1ad5b96e57a4ebe025fc8238d0d9bc52773d",
        "series.csv": "e603cbfda11522ac17fea97864449cafbc710fa4f9b527105d03fa265c835c5f",
    },
    "midlink_access_230km": {
        "rounds.csv": "5de1767795e81211fcb675400e3a1ad5b96e57a4ebe025fc8238d0d9bc52773d",
        "rounds_node_50km.csv": "343e765c123b16605703360210417012d716ed6ace4dc7f37690390af76c9591",
        "series.csv": "e603cbfda11522ac17fea97864449cafbc710fa4f9b527105d03fa265c835c5f",
    },
}


@needs_pinned_numpy
@pytest.mark.parametrize("name", sorted(EMIT_MODE))
def test_emit_mode_artifacts_match_pinned_digests(name, tmp_path):
    doc = copy.deepcopy(load_scenario(name).raw)
    doc["link"]["evaluate_at_emit_time"] = True
    run(validate_scenario(doc), out_dir=tmp_path)
    pinned = {f: digest for f, digest in hash_tree(tmp_path).items()
              if f.startswith("rounds") or f == "series.csv"}
    assert pinned == EMIT_MODE[name]
