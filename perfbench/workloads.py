"""Workload definitions and input generation for the fotsim benchmark.

Every input is a pure function of (workload, seed): the two simulation
workloads fill the seed into a scenario template kept in ``inputs/``, and
``analyze_tdev`` draws its series with plain numpy.  fotsim itself never
sees the seed, only the generated document or CSV.

This module imports nothing from fotsim, so the launcher can build inputs
before any fotsim process starts.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# digests.json pins every workload's artifacts at this seed; any other seed
# is checked against the oracles in verify.py instead
DEFAULT_SEED = 1

SERIES_SAMPLES = 1 << 22
SERIES_TAU0_S = 1.0

# name: the input fotsim receives, a scenario document or a series CSV
WORKLOADS = {
    "sync_nodes": "scenario",
    "clocks_flicker": "scenario",
    "analyze_tdev": "series",
}


def scenario_doc(workload: str, seed: int) -> dict:
    """The scenario document of a simulation workload at `seed`."""
    doc = json.loads((HERE / "inputs" / f"{workload}.json").read_text())
    doc["master_seed"] = seed
    return doc


def work_units(workload: str) -> int:
    """Units of work one timed call performs: rounds for a sync scenario,
    clock-difference samples for a clocks_only one, input samples for the
    series."""
    if workload == "analyze_tdev":
        return SERIES_SAMPLES
    doc = scenario_doc(workload, DEFAULT_SEED)
    if doc["mode"] == "sync":
        return int(doc["duration_s"] // doc["protocol"]["compensation_period_s"])
    return int(doc["duration_s"] // doc["sample_period_s"])


def series_values(seed: int):
    """The analyze_tdev series at `seed`: white phase noise plus a random
    walk of the time error, in seconds."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = SERIES_SAMPLES
    return 2e-11 * rng.standard_normal(n) + 5e-13 * np.cumsum(rng.standard_normal(n))


def write_series(path: Path, seed: int) -> None:
    """Write the analyze_tdev input in fotsim's ``index,x_seconds`` format,
    17 significant digits per value like fotsim's own series.csv, so the
    file holds series_values(seed) exactly.
    """
    x = series_values(seed)
    n = x.size
    chunk = 1 << 16
    with open(path, "w") as fh:
        fh.write("index,x_seconds\n")
        for start in range(0, n, chunk):
            values = x[start:start + chunk].tolist()
            fh.write("".join(f"{i},{v:.16e}\n"
                             for i, v in enumerate(values, start)))


def write_inputs(workload: str, seed: int, work_dir: Path) -> Path:
    """Generate the workload's input file under work_dir and return its path."""
    if WORKLOADS[workload] == "series":
        path = work_dir / "series.csv"
        write_series(path, seed)
    else:
        path = work_dir / f"{workload}.json"
        path.write_text(json.dumps(scenario_doc(workload, seed), indent=2) + "\n")
    return path
