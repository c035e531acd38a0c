"""Workload process of the fotsim benchmark: the timed calls and their checks.

Started by run.py with the BLAS thread pools pinned to one thread and
``PYTHONPATH`` pointing at the checkout's ``src``.  One operation is one
timed call: ``run()`` up to the finished artifact tree for the simulation
workloads, the ``fotsim tdev`` command for ``analyze_tdev``.  Each untraced
call runs under the host-speed sampler of hostspeed.py, which gives its wall
time and its wall time normalized to a reference core speed.  After each call
the artifact digests are compared, outside the timing, with the reference:
``digests.json`` at the default seed, otherwise the first call's tree, which
is then checked against the oracles in verify.py.  A call that raises or
whose digests differ counts as a failed operation.  The canned scenarios'
digests are checked once per run, after the timed calls.

With ``--trace 1`` untraced and traced calls alternate; the traced ones feed
the per-layer metrics and the difference of the two medians of wall time is
the tracing overhead.  The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import fotsim.cli
import fotsim.scenario
from fotsim.errors import ConfigError, ProtocolError
from fotsim.timebase import synthesize_time_error_series

import workloads
from hostspeed import HostSpeed
from tracing import PER_LAYER, Tracer
from verify import check_canned, check_oracles, hash_tree, load_digests

MIN_CALLS = 3
MIN_TRACED_PAIRS = 2


def _tdev_argv(inp: Path, out: Path) -> list:
    return ["tdev", "--input", str(inp), "--tau0", repr(workloads.SERIES_TAU0_S),
            "--out", str(out / "tdev.csv")]


def _timed_call(scenario, inp: Path, out: Path) -> float:
    """Run one operation into out and return its wall time."""
    out.mkdir(parents=True)
    if scenario is None:
        argv = _tdev_argv(inp, out)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = fotsim.cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"fotsim tdev exited with {code}")
        return wall
    t0 = time.perf_counter()
    fotsim.scenario.run(scenario, out_dir=out)
    return time.perf_counter() - t0


def _load(workload: str, inp: Path):
    """The validated scenario of a simulation workload, None for the series."""
    if workloads.WORKLOADS[workload] == "scenario":
        return fotsim.scenario.load_scenario(inp)
    return None


def run_workload_once(workload: str, inp: Path, out: Path) -> float:
    """Load the workload's input and run one operation into out."""
    return _timed_call(_load(workload, inp), inp, out)


def _traced_call(tracer, workload: str, inp: Path, out: Path) -> tuple[float, dict]:
    """One traced operation: its wall time and its per-layer metrics."""
    tracer.reset()
    with tracer.installed():
        scenario = _load(workload, inp)
        wall = _timed_call(scenario, inp, out)
        if tracer.models is not None:
            synth = tracer.wrap("timebase.synth", synthesize_time_error_series)
            for clock in (tracer.models.server, tracer.models.user):
                if clock.noise is not None:
                    n = int(scenario.duration_s / clock.noise_grid_s)
                    synth(clock.noise, n, clock.noise_grid_s)
    for f in out.glob("*.csv"):
        data = f.read_bytes()
        tracer.counters["scenario.csv_bytes"] += len(data)
        tracer.counters["scenario.csv_rows"] += data.count(b"\n") - 1
    return wall, tracer.layer_metrics()


class Calls:
    """Outcome of the timed calls of one run."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload, self.work_dir = workload, work_dir
        self.reference = None
        if seed == workloads.DEFAULT_SEED:
            self.reference = load_digests()["workloads"][workload]["files"]
        self.attempted = self.failed = 0
        self.first_out = None

    def check(self, out: Path) -> bool:
        digests = hash_tree(out)
        if self.reference is None:
            self.reference = digests
        if self.first_out is None:
            self.first_out = out
        elif out != self.first_out:
            shutil.rmtree(out)
        if digests != self.reference:
            print(f"{self.workload}: artifacts of call {self.attempted} differ from "
                  "the reference digests", file=sys.stderr)
            return False
        return True

    def do(self, call):
        """Run call(out) as one operation and return its timing.

        None when the call raised.  A call whose output check fails keeps
        its timing but counts as failed.
        """
        out = self.work_dir / f"call_{self.attempted}"
        self.attempted += 1
        gc.collect()
        try:
            wall = call(out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            if out.exists() and out != self.first_out:
                shutil.rmtree(out)
            return None
        if not self.check(out):
            self.failed += 1
        return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(fotsim.cli.__file__).resolve().parents:
        raise SystemExit(f"fotsim was imported from {fotsim.cli.__file__}, not from {src}")

    workload, inp = args.workload, args.input
    scenario = _load(workload, inp)
    calls = Calls(workload, args.seed, args.work_dir)
    speed = HostSpeed()

    def untraced(out):
        with speed.sampling():
            wall = _timed_call(scenario, inp, out)
        return speed.normalize(wall)

    walls, norm_walls, slowdowns, traced_walls, layers = [], [], [], [], []
    tracer = Tracer() if args.trace else None

    def traced(out):
        wall, metrics = _traced_call(tracer, workload, inp, out)
        layers.append(metrics)
        return wall

    start = time.perf_counter()
    while True:
        timing = calls.do(untraced)
        if timing is not None:
            walls.append(timing[0])
            norm_walls.append(timing[1])
            slowdowns.append(timing[2])
        if tracer is not None:
            wall = calls.do(traced)
            if wall is not None:
                traced_walls.append(wall)
        done = len(traced_walls) >= MIN_TRACED_PAIRS if tracer else len(walls) >= MIN_CALLS
        if time.perf_counter() - start >= args.seconds and done:
            break
        if calls.failed >= MIN_CALLS:
            break

    # read before the checks below, which are not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    try:
        problems = check_canned(args.work_dir)
        if args.seed != workloads.DEFAULT_SEED:
            if calls.first_out is None:
                problems.append("no call produced artifacts to check")
            else:
                problems += check_oracles(workload, args.seed, inp, calls.first_out)
    except (ConfigError, ProtocolError, OSError, ValueError) as exc:
        traceback.print_exc()
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    result = {
        "attempted": calls.attempted,
        "failed": calls.failed,
        "problems": problems,
        "walls": walls,
        "norm_walls": norm_walls,
        "slowdowns": slowdowns,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None and layers and walls:
        # median_low keeps counts whole
        per_layer = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        per_layer["host.wall_s"] = statistics.median(walls)
        per_layer["host.slowdown"] = statistics.median(slowdowns)
        result["per_layer"] = {k: (v, PER_LAYER[k]) for k, v in per_layer.items()}
        if args.trace_file is not None:
            tracer.save(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
