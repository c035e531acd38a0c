"""Command-line interface.

Exit codes: 0 ok, 1 config/validation problem or out of memory, 2 runtime
protocol failure (non-causal event or reversal overflow), 3 I/O problem.
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .cells import read_columns, read_header
from .errors import ConfigError, ProtocolError, ValidationError
from .scenario import (
    SERIES_HEADER,
    build_calibration_set,
    canned_scenarios,
    compare_curves,
    load_scenario,
    read_curve_csv,
    run,
    write_curve_csv,
)
from .stability import MIN_SAMPLES, tdev
from .timebase import TimeErrorSeries


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario, out_dir=args.out, master_seed=args.seed)
    summary = report.manifest["summary"]["main"]
    print(f"{scenario.name}: {summary['n_samples']} samples, "
          f"tdev {summary['tdev_first_s']:.3e} s -> {summary['tdev_last_s']:.3e} s, "
          f"outputs in {report.out_dir}")
    return 0


def _load_series(path: Path, column: str, tau0: float | None) -> TimeErrorSeries:
    header = read_header(path)
    if header == SERIES_HEADER:
        if tau0 is None:
            raise ConfigError("--tau0 is required for index,x_seconds series input")
        column = SERIES_HEADER[1]
    if tau0 is not None:
        (values,) = read_columns(path, [column])
        series = TimeErrorSeries(tau0_s=tau0, values=values)
    elif "t_s" not in header:
        raise ConfigError("cannot infer tau0; pass --tau0")
    else:
        values, t = read_columns(path, [column, "t_s"])
        if t.size < 2:
            raise ConfigError("cannot infer tau0 from fewer than 2 rows; pass --tau0")
        series = TimeErrorSeries(tau0_s=float(t[1] - t[0]), values=values)
    if len(series) < MIN_SAMPLES:
        raise ValidationError(f"{path} holds {len(series)} samples; a TDEV curve "
                              f"needs at least {MIN_SAMPLES}")
    return series


def _cmd_tdev(args) -> int:
    series = _load_series(Path(args.input), args.column, args.tau0)
    curve = tdev(series)
    write_curve_csv(Path(args.out), curve)
    print(f"{len(curve.taus)} tau points -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    labeled = []
    for item in args.inputs:
        path = Path(item)
        csv_path = path / "tdev.csv" if path.is_dir() else path
        if not csv_path.exists():
            raise ConfigError(f"no stability curve found at {csv_path}")
        labeled.append((path.name, read_curve_csv(csv_path)))
    table = compare_curves(labeled)
    print(table.to_text())
    return 0


def _cmd_calibrate(args) -> int:
    scenario = load_scenario(args.scenario)
    cal = build_calibration_set(scenario, master_seed=args.seed,
                                literal_sign=args.literal_sign)
    print(json.dumps(asdict(cal), indent=2, sort_keys=True))
    return 0


def _cmd_scenarios(_args) -> int:
    for name in canned_scenarios():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fotsim",
        description="Simulate and analyze time-reversal fiber-optic time synchronization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario and write its artifacts")
    p.add_argument("--scenario", required=True, help="scenario file or canned name")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("tdev", help="compute a stability curve from a CSV")
    p.add_argument("--input", required=True, help="series.csv or rounds.csv")
    p.add_argument("--out", required=True, help="output curve CSV")
    p.add_argument("--column", default="residual_s",
                   help="column to analyze for rounds-shaped input")
    p.add_argument("--tau0", type=float, default=None,
                   help="sample interval in seconds (required for series input)")
    p.set_defaults(func=_cmd_tdev)

    p = sub.add_parser("compare", help="tabulate stability curves of several runs")
    p.add_argument("inputs", nargs="+", help="run output dirs or curve CSVs, in "
                   "expected non-decreasing order")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("calibrate", help="run the direct-connection calibration "
                       "pipeline for a scenario and print the result")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--literal-sign", action="store_true",
                   help="use the flipped-offset-sign hardware-delay variant")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("scenarios", help="list canned scenarios")
    p.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        return _out_of_memory()
    except OSError as exc:
        # open and read can fail with ENOMEM too
        if exc.errno == errno.ENOMEM:
            return _out_of_memory()
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _out_of_memory() -> int:
    print("error: out of memory; try a shorter duration or fewer samples", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
