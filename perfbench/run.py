"""fotsim benchmark launcher.

    python3 perfbench/run.py --workload sync_nodes --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; fotsim is imported from its ``src``.  The
launcher builds the workload's inputs from the seed, times fresh-process
set-up, then runs the timed calls and the output checks in one workload
process (bench.py) with the BLAS thread pools pinned to one thread.  It prints the metrics, then as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).  It exits
0 when every check passed, 1 when a check failed and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# one BLAS/OpenMP thread: on a two-core host extra pool threads make CPU
# time exceed wall time and widen the spread of the timings
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

SETUP_PROBES = 5
DEADLINE_S = 170.0
SCRATCH = ".perfbench_run"


class BenchError(Exception):
    pass


class Launcher:
    def __init__(self, root: Path):
        self.root = root
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def child(self, script: str, *args) -> dict:
        """Run a benchmark script to completion and parse its last stdout line."""
        cmd = [sys.executable, str(HERE / script), *map(str, args)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{script} did not finish in time")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{script} exited with {proc.returncode}")
        return json.loads(lines[-1])

    def setup_s(self, workload: str, inp: Path) -> float:
        """Median time from process start to ready over fresh probe processes."""
        cmd = [sys.executable, str(HERE / "probe.py"), workload, str(inp)]
        samples = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, text=True)
            try:
                # wait for output with a deadline: a bare readline could hang
                if not select.select([proc.stdout], [], [], self.remaining())[0]:
                    raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=self.remaining())
            except (subprocess.TimeoutExpired, BenchError):
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe did not finish in time")
            if line.strip() != "ready" or proc.returncode != 0:
                raise BenchError(f"set-up probe failed with {proc.returncode}")
            samples.append(elapsed)
        return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fotsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fotsim" / "__init__.py").is_file():
        print("error: run from the root of a fotsim checkout (no src/fotsim here)",
              file=sys.stderr)
        return 2

    launcher = Launcher(root)
    scratch = root / SCRATCH
    work_dir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        inp = workloads.write_inputs(args.workload, args.seed, work_dir)
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (launcher.setup_s(args.workload, inp), "s")
        bench_args = ["--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--trace", args.trace,
                      "--input", inp, "--work-dir", work_dir]
        if args.trace:
            (scratch / "traces").mkdir(exist_ok=True)
            bench_args += ["--trace-file",
                           scratch / "traces" / f"{args.workload}-seed{args.seed}.npz"]
        calls = launcher.child("bench.py", *bench_args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no trace file is kept there

    for problem in calls["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = calls["attempted"], calls["failed"]
    if calls["problems"]:
        failed = attempted
    if not calls["walls"] or (args.trace and "per_layer" not in calls):
        print("error: no timed call succeeded", file=sys.stderr)
        return 2

    if args.trace:
        metrics.update({k: tuple(v) for k, v in calls["per_layer"].items()})
    else:
        wall = statistics.median(calls["norm_walls"])
        metrics["norm_wall_s"] = (wall, "s")
        metrics["norm_samples_per_s"] = (workloads.work_units(args.workload) / wall, "1/s")
        metrics["peak_rss_mb"] = (calls["peak_rss_mb"], "MB")
    correct = not calls["problems"] and failed == 0
    print(f"{args.workload} seed {args.seed}: {attempted} calls, {failed} failed, "
          f"{len(calls['walls'])} untraced timings, checks "
          f"{'passed' if correct else 'FAILED'}")
    print("  wall time of the calls (s): " + " ".join(f"{w:.3f}" for w in calls["walls"]))
    print("  host slowdown during them: " + " ".join(f"{x:.3f}" for x in calls["slowdowns"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
