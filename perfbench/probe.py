"""Set-up probe: a fresh process that gets ready to run one workload.

Imports fotsim and loads and validates the workload's generated scenario
(for ``analyze_tdev``, parses the ``fotsim tdev`` command line), then prints
``ready``.  run.py times it from process start to that line; this is the
cost a CLI user pays on every call.

    python3 perfbench/probe.py <workload> <input>
"""

import sys

import fotsim  # noqa: F401  the package import is part of what is measured
from fotsim.cli import build_parser
from fotsim.scenario import load_scenario


def main(workload: str, inp: str) -> int:
    if workload == "analyze_tdev":
        build_parser().parse_args(["tdev", "--input", inp, "--tau0", "1",
                                   "--out", "tdev.csv"])
    else:
        load_scenario(inp)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
