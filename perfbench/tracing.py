"""In-memory span tracer for the traced benchmark run.

Spans are taken from the benchmark's side only: public fotsim functions are
swapped for timing wrappers in the namespaces that call them (for example
``fotsim.scenario.run_session``), and the live model objects built by
``build_models`` get their methods wrapped per instance.  Nothing under
``src/`` changes, the wrappers return what they wrap, and everything is put
back when ``Tracer.installed`` exits, so the traced run executes the same
program and writes the same bytes as an untraced run.

A span is (name, start, end, parent).  A layer's ``*_s`` metric is the time
covered by its outermost spans, wherever they occur; ``protocol.session_self_s``
is the self time of ``run_session``, i.e. its duration minus the time its
child spans (timebase, channel, counters, access) cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import fotsim.cli
import fotsim.protocol
import fotsim.scenario

PER_LAYER = {
    # name: unit
    "scenario.validate_s": "s",
    "scenario.build_models_s": "s",
    "scenario.csv_write_s": "s",
    "scenario.csv_rows": "count",
    "scenario.csv_bytes": "bytes",
    "scenario.csv_read_s": "s",
    "timebase.synth_s": "s",
    "timebase.time_error_calls": "count",
    "timebase.time_error_s": "s",
    "channel.delay_calls": "count",
    "channel.delay_s": "s",
    "protocol.rounds": "count",
    "protocol.session_self_s": "s",
    "protocol.us_per_round": "us",
    "protocol.tic_reads": "count",
    "protocol.tic_s": "s",
    "access.observations": "count",
    "access.observe_s": "s",
    "calibration.rounds": "count",
    "calibration.build_s": "s",
    "stability.samples_in": "count",
    "stability.tdev_taus": "count",
    "stability.tdev_s": "s",
    "trace.overhead_s": "s",
    # set by bench.py from the untraced calls of the traced run: their median
    # wall time, and the median slowdown of the core they ran on
    "host.wall_s": "s",
    "host.slowdown": "ratio",
}


def _count_rounds(counters, args, result):
    counters["protocol.rounds"] += len(result)


def _count_tdev(counters, args, result):
    counters["stability.samples_in"] += len(args[0])
    counters["stability.tdev_taus"] += len(result.taus)


# (namespace, attribute, span name, counter hook).  Each entry is patched
# only where the namespace still has the attribute, so a later refactor that
# stops calling one of them reads as zero on that layer instead of crashing.
MODULE_SPANS = [
    (fotsim.scenario, "validate_scenario", "scenario.validate", None),
    (fotsim.scenario, "build_calibration_set", "calibration.build", None),
    # in fotsim.scenario only the calibration pipeline calls sync_round
    (fotsim.scenario, "sync_round", "calibration.round", None),
    (fotsim.scenario, "run_session", "protocol.run_session", _count_rounds),
    (fotsim.scenario, "observe_round", "access.observe_round", None),
    (fotsim.protocol, "one_way_delay", "channel.one_way_delay", None),
    (fotsim.scenario, "tdev", "stability.tdev", _count_tdev),
    (fotsim.cli, "tdev", "stability.tdev", _count_tdev),
    (fotsim.scenario, "write_series_csv", "scenario.csv_write", None),
    (fotsim.scenario, "write_curve_csv", "scenario.csv_write", None),
    (fotsim.scenario, "write_rounds_csv", "scenario.csv_write", None),
    (fotsim.scenario, "write_node_csv", "scenario.csv_write", None),
    (fotsim.cli, "write_curve_csv", "scenario.csv_write", None),
    (fotsim.cli, "_load_series", "scenario.csv_read", None),
]


class Tracer:
    """Spans and call counts of one traced call, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self.models = None

    def reset(self) -> None:
        # clear in place: the wrappers hold references to these arrays
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()
        self._stack[:] = [-1]
        self.models = None

    def wrap(self, span: str, fn, hook=None):
        """A wrapper of fn that records one span per call."""
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def _instrument_models(self, models) -> None:
        for clock in (models.server, models.user):
            clock.time_error = self.wrap("timebase.time_error", clock.time_error)
        if models.link is not None:
            models.link.fiber_delay_s = self.wrap("channel.fiber_delay_s",
                                                  models.link.fiber_delay_s)
        for tic in (models.tic_server, models.tic_user):
            if tic is not None:
                tic.measure_interval = self.wrap("protocol.tic", tic.measure_interval)
        self.models = models

    @contextmanager
    def installed(self):
        """Patch the span wrappers into fotsim for the duration of the block."""
        build = fotsim.scenario.build_models
        traced_build = self.wrap("scenario.build_models", build)

        def build_models(*args, **kwargs):
            models = traced_build(*args, **kwargs)
            self._instrument_models(models)
            return models

        patches = [(fotsim.scenario, "build_models", build_models)]
        for namespace, attr, span, hook in MODULE_SPANS:
            if hasattr(namespace, attr):
                patches.append((namespace, attr,
                                self.wrap(span, getattr(namespace, attr), hook)))
        saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in patches]
        try:
            for ns, attr, wrapper in patches:
                setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, original in reversed(saved):
                setattr(ns, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def ids(*spans):
            return [self._ids[s] for s in spans if s in self._ids]

        def mask(*spans):
            return np.isin(name, ids(*spans))

        def outermost_s(*spans):
            # spans of the set with no ancestor in the same set
            inside = mask(*spans)
            covered = np.zeros_like(inside)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                covered[live] |= inside[anc[live]]
                anc[live] = parent[anc[live]]
            return float(dur[inside & ~covered].sum())

        def calls(*spans):
            return int(mask(*spans).sum())

        c = self.counters
        rounds = c["protocol.rounds"]
        session_s = outermost_s("protocol.run_session")
        return {
            "scenario.validate_s": outermost_s("scenario.validate"),
            "scenario.build_models_s": float(self_time[mask("scenario.build_models")].sum()),
            "scenario.csv_write_s": outermost_s("scenario.csv_write"),
            "scenario.csv_rows": c["scenario.csv_rows"],
            "scenario.csv_bytes": c["scenario.csv_bytes"],
            "scenario.csv_read_s": outermost_s("scenario.csv_read"),
            "timebase.synth_s": outermost_s("timebase.synth"),
            "timebase.time_error_calls": calls("timebase.time_error"),
            "timebase.time_error_s": outermost_s("timebase.time_error"),
            "channel.delay_calls": calls("channel.one_way_delay", "channel.fiber_delay_s"),
            "channel.delay_s": outermost_s("channel.one_way_delay", "channel.fiber_delay_s"),
            "protocol.rounds": rounds,
            "protocol.session_self_s": float(self_time[mask("protocol.run_session")].sum()),
            "protocol.us_per_round": 1e6 * session_s / rounds if rounds else 0.0,
            "protocol.tic_reads": calls("protocol.tic"),
            "protocol.tic_s": outermost_s("protocol.tic"),
            "access.observations": calls("access.observe_round"),
            "access.observe_s": outermost_s("access.observe_round"),
            "calibration.rounds": calls("calibration.round"),
            "calibration.build_s": outermost_s("calibration.build"),
            "stability.samples_in": c["stability.samples_in"],
            "stability.tdev_taus": c["stability.tdev_taus"],
            "stability.tdev_s": outermost_s("stability.tdev"),
        }

    def save(self, path) -> None:
        """Write the recorded spans and counters out as one .npz file."""
        counters = [f"{k}={v}" for k, v in sorted(self.counters.items())]
        np.savez_compressed(path, span_names=np.array(self.names),
                            counters=np.array(counters), **self.arrays())
