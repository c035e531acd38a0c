"""Output checks of the fotsim benchmark.

Golden digests (``digests.json``) pin the sha256 of every file ``run()``
writes for each canned scenario, and of every workload artifact at the
default seed.  At any other seed a workload's artifacts are checked against
independent oracles instead:

- ``sync_nodes``: the first rounds are replayed with ``build_models``,
  ``sync_round`` and ``observe_round``, steering accumulated by hand, and
  must equal the ``rounds*.csv`` rows bit for bit;
- ``clocks_flicker``: ``series.csv`` must match the clock difference rebuilt
  from ``synthesize_time_error_series`` of each clock's profile;
- every workload: each TDEV curve at its smallest taus must match
  ``tdev_bruteforce`` of the series it was computed from.

bench.py runs these checks.  To re-bless the digests after a change that
alters outputs on purpose (and say why in CHANGES.md), from the repository
root:

    PYTHONPATH=src python3 perfbench/verify.py --write-digests --work-dir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from fotsim.access import observe_round
from fotsim.protocol import sync_round
from fotsim.scenario import build_models, canned_scenarios, load_scenario, run
from fotsim.stability import tdev_bruteforce
from fotsim.timebase import TimeErrorSeries, synthesize_time_error_series

import workloads

DIGESTS = workloads.HERE / "digests.json"
REPLAY_ROUNDS = 200
BRUTEFORCE_TAUS = 2
TDEV_RTOL = 1e-9
# the oracle synthesizes each clock's noise in one pass, run() extends it by
# doubling; the FFT sizes differ, so the two agree to rounding only
SYNTH_RTOL = 1e-9


def hash_tree(path: Path) -> dict:
    """sha256 of every file directly under path, by file name."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir()) if f.is_file()}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_tdev(curve_csv: Path, values: np.ndarray, tau0: float, label: str) -> list:
    problems = []
    curve = _csv(curve_csv)
    series = TimeErrorSeries(tau0_s=tau0, values=values)
    for tau, got, n in curve[:BRUTEFORCE_TAUS]:
        got, want = float(got), tdev_bruteforce(series, float(tau))
        if not math.isclose(got, want, rel_tol=TDEV_RTOL):
            problems.append(f"{label}: tdev at tau {tau:g} s is {got!r}, "
                            f"brute force gives {want!r}")
        if int(n) != values.size - 3 * int(round(tau / tau0)) + 1:
            problems.append(f"{label}: n_samples {int(n)} wrong at tau {tau:g} s")
    return problems


def _replay_rounds(scenario, out: Path) -> list:
    models = build_models(scenario)
    cfg = models.protocol
    c = cfg.reversal_constant_s
    n = min(REPLAY_ROUNDS, int(scenario.duration_s // cfg.compensation_period_s))
    rows = {"rounds.csv": []}
    rows.update({f"rounds_{node.name}.csv": [] for node in models.nodes})
    last_t3: dict = {}
    steer = 0.0
    for k in range(n):
        r = sync_round(models.server, models.user, models.link, models.hw,
                       models.tic_server, models.tic_user, cfg,
                       k * cfg.compensation_period_s, user_steer_s=steer)
        rows["rounds.csv"].append((r.t_round_s, r.t1_s, r.t2_s, r.offset_estimate_s,
                                   r.true_offset_s, r.residual_s))
        for node in models.nodes:
            obs = observe_round(node, r.events, applied_t3_s=last_t3.get(node.name))
            last_t3[node.name] = obs.t3_s
            rows[f"rounds_{node.name}.csv"].append(
                (r.t_round_s, r.t1_s, obs.t3_s, 0.5 * (obs.t3_s - c),
                 r.true_offset_s, obs.residual_s, obs.position_km))
        steer += r.offset_estimate_s
    problems = []
    for name, expected in rows.items():
        got = _csv(out / name)[:n]
        if got.shape != (n, len(expected[0])) or not np.array_equal(got, np.array(expected)):
            problems.append(f"{name}: first {n} rows differ from the sync_round replay")
    return problems


def _check_sync(scenario, out: Path) -> list:
    problems = _replay_rounds(scenario, out)
    tau0 = scenario.protocol.compensation_period_s
    series = _csv(out / "series.csv")[:, 1]
    problems += _check_tdev(out / "tdev.csv", series, tau0, "tdev.csv")
    node_warmup = scenario.warmup_rounds + 1
    for node in scenario.access_nodes:
        residual = _csv(out / f"rounds_{node.name}.csv")[node_warmup:, 5]
        problems += _check_tdev(out / f"tdev_{node.name}.csv", residual, tau0,
                                f"tdev_{node.name}.csv")
    return problems


def _check_clocks(scenario, out: Path) -> list:
    models = build_models(scenario)
    period = scenario.sample_period_s
    n = int(math.floor(scenario.duration_s / period))
    t = np.arange(n) * period
    x = {}
    for role, clock in (("server", models.server), ("user", models.user)):
        det = clock.initial_offset_s + clock.frac_frequency * t \
            + 0.5 * clock.drift_per_s * t * t
        idx = np.rint(t / clock.noise_grid_s).astype(int)
        noise = synthesize_time_error_series(clock.noise, int(idx[-1]) + 1,
                                             clock.noise_grid_s).values
        x[role] = (det, noise[idx])
    want_det = x["user"][0] - x["server"][0]
    want_noise = x["user"][1] - x["server"][1]
    got = _csv(out / "series.csv")
    problems = []
    if got.shape[0] != n or not np.array_equal(got[:, 0], np.arange(n)):
        return [f"series.csv: expected indices 0..{n - 1}"]
    err = np.abs(got[:, 1] - want_det - want_noise)
    # plus a few ulps of the value: the drift terms dwarf the noise late on
    tol = SYNTH_RTOL * float(np.max(np.abs(want_noise))) + 4 * np.spacing(np.abs(got[:, 1]))
    if not np.all(err <= tol):
        worst = int(np.argmax(err - tol))
        problems.append(f"series.csv: differs from the synthesized clock difference "
                        f"by {err[worst]:.3e} s at index {worst} "
                        f"(tolerance {tol[worst]:.3e} s)")
    problems += _check_tdev(out / "tdev.csv", got[:, 1], period, "tdev.csv")
    return problems


def check_oracles(workload: str, seed: int, doc: Path, out: Path) -> list:
    """Problems found by the oracles in the artifacts of one timed call."""
    if workload == "analyze_tdev":
        # regenerated rather than parsed from doc: the file holds these
        # values exactly, and parsing 4M rows would cost seconds per run
        return _check_tdev(out / "tdev.csv", workloads.series_values(seed),
                           workloads.SERIES_TAU0_S, "tdev.csv")
    scenario = load_scenario(doc)
    if scenario.mode == "sync":
        return _check_sync(scenario, out)
    return _check_clocks(scenario, out)


def canned_digests(work_dir: Path) -> dict:
    """Digests of every file run() writes for each canned scenario."""
    result = {}
    for name in canned_scenarios():
        out = work_dir / f"canned_{name}"
        run(load_scenario(name), out_dir=out)
        result[name] = hash_tree(out)
        shutil.rmtree(out)
    return result


def check_canned(work_dir: Path) -> list:
    want = load_digests()["canned"]
    got = canned_digests(work_dir)
    problems = []
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"canned scenario {name}: artifact digests differ "
                            f"from digests.json")
    return problems


def write_digests(work_dir: Path) -> None:
    """Regenerate digests.json from the current program."""
    from bench import run_workload_once

    digests = {"canned": canned_digests(work_dir), "workloads": {}}
    for workload in workloads.WORKLOADS:
        inp = workloads.write_inputs(workload, workloads.DEFAULT_SEED, work_dir)
        out = work_dir / f"out_{workload}"
        run_workload_once(workload, inp, out)
        problems = check_oracles(workload, workloads.DEFAULT_SEED, inp, out)
        if problems:
            raise SystemExit("refusing to bless: " + "; ".join(problems))
        digests["workloads"][workload] = {"seed": workloads.DEFAULT_SEED,
                                          "files": hash_tree(out)}
        shutil.rmtree(out)
        inp.unlink()
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate digests.json.")
    parser.add_argument("--write-digests", action="store_true", required=True)
    parser.add_argument("--work-dir", type=Path, required=True,
                        help="scratch directory for the artifact trees")
    args = parser.parse_args(argv)
    write_digests(args.work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
