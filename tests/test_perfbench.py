"""The benchmark's use of fotsim, checked in every tier-1 run.

perfbench/ replays the engine's rounds through sync_round and observe_round,
and wraps fotsim's functions and model methods by name to time its layers.
A change that removes a name it uses, or that stops calling one it counts,
fails here on every Python, not only in the benchmark's own run.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from fotsim.scenario import load_scenario, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracing, verify and workloads modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield SimpleNamespace(**{name: importlib.import_module(name)
                                 for name in ("tracing", "verify", "workloads")})
    finally:
        sys.path.remove(str(PERFBENCH))


def test_sync_nodes_passes_the_benchmark_oracles(perfbench, tmp_path):
    seed = 3
    doc = perfbench.workloads.write_inputs("sync_nodes", seed, tmp_path)
    out = tmp_path / "out"
    run(load_scenario(doc), out_dir=out)
    assert perfbench.verify.check_oracles("sync_nodes", seed, doc, out) == []


def test_traced_run_writes_the_same_bytes_and_counts_its_rounds(perfbench, tmp_path):
    scenario = load_scenario("demo_short")
    run(scenario, out_dir=tmp_path / "plain")
    tracer = perfbench.tracing.Tracer()
    with tracer.installed():
        run(scenario, out_dir=tmp_path / "traced")
    hash_tree = perfbench.verify.hash_tree
    assert hash_tree(tmp_path / "traced") == hash_tree(tmp_path / "plain")
    assert tracer.models is not None
    rounds = int(scenario.duration_s // scenario.protocol.compensation_period_s)
    assert tracer.layer_metrics()["protocol.rounds"] == rounds > 0
