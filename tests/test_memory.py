"""Transient memory of the loops that run over a whole run, and what a noise
state keeps.

tracemalloc sees numpy's buffers as well as Python objects, so a traced
peak counts every float64 column a call holds.  Each bound below is the
count of columns the call must hold at its peak, besides its inputs and
what it returns, plus a stated slack; a call that keeps a Python float
per round (24 bytes, plus 8 for its list slot) or a second run-length
buffer goes past it.
"""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from fotsim import cells, timebase
from fotsim.access import AccessNode
from fotsim.channel import FluctuationSpec, HardwareDelays, LinkModel
from fotsim.protocol import ProtocolConfig, TicModel, run_rounds
from fotsim.stability import _BLOCK, adev, tdev
from fotsim.timebase import NOISE_TYPES, ClockModel, NoiseProfile, TimeErrorSeries, _NoiseState

COLUMN = 8  # bytes per round or sample of one float64 column


def traced(call):
    """call(), its result, and the traced peak above the memory before
    and after it: (result, peak - before, peak - after)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, peak - after


def test_round_engine_holds_a_fixed_number_of_columns_per_round():
    """Peak less the returned result, per round, stays within 2 columns.

    run_rounds returns 14 float64 columns, and each of the two nodes' taps 5
    more.  After the scan the engine builds three of its returned columns in
    place of inputs it has used for the last time: the user clock's time
    error becomes the user emissions, and the two path delays the two
    arrivals.  Its other inputs (the server clock's time error and both
    counters' jitter) and the steering column it frees before the nodes tap
    the rounds.  So at its peak, while the last node derives its recovered
    times, it holds the returned columns and one temporary (numpy elides
    temporaries only above 256 KiB, and 20k rounds are 160 KB a column): 1
    column.  Before that the scan holds ten input columns, the steering
    column and one block of _SCAN_ROWS rounds' inputs as Python floats,
    about 16 columns, under the 24 returned.  The bound leaves a column of
    slack above the peak for the call's Python objects and small arrays
    (measured: 1.01 columns in all, in either fluctuation mode).
    """
    n_rounds = 20_000
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-11, timescale_s=600.0,
                                                 rng_seed=4))
    nodes = [AccessNode(distance_from_server_km=d, tic=TicModel(jitter_rms_s=3e-11, rng_seed=i),
                        name=f"n{i}") for i, d in enumerate((60.0, 170.0))]
    models = (ClockModel(), ClockModel(initial_offset_s=1e-7, frac_frequency=1e-10), link,
              HardwareDelays(tx_server_s=3.5e-8), TicModel(jitter_rms_s=3e-11, rng_seed=7),
              TicModel(jitter_rms_s=3e-11, rng_seed=8), ProtocolConfig())
    result, _, transient = traced(lambda: run_rounds(*models, n_rounds, nodes=nodes))
    assert len(result) == n_rounds
    assert transient <= 2 * COLUMN * n_rounds


def drifting_series(seed, n=1 << 20):
    values = np.cumsum(np.random.default_rng(seed).standard_normal(n))
    return TimeErrorSeries(tau0_s=1.0, values=values)


def test_tdev_holds_one_cumsum_buffer_and_one_block(pin_workers):
    """Peak of tdev on one worker over a 2^20-sample series, above the
    series itself.

    One (N+1)-value buffer holds the running sum and then the window sums
    in place, and one _BLOCK-value buffer the second differences of a
    block; 64 KiB of slack covers the tau grid, the per-tau lists and the
    curve, which take under a kilobyte here.
    """
    pin_workers(1)
    series = drifting_series(1)
    n = series.values.size
    curve, peak, _ = traced(lambda: tdev(series))
    assert curve.taus.size > 10
    assert peak <= (n + 1) * COLUMN + _BLOCK * COLUMN + (64 << 10)


def test_tdev_on_two_workers_holds_two_buffers_and_two_blocks(pin_workers):
    """As above, on two workers: each has its own (N+1)-value buffer and
    _BLOCK-value buffer, and the same 64 KiB of slack also covers the helper
    thread's object and lock."""
    pin_workers(2)
    series = drifting_series(1)
    n = series.values.size
    curve, peak, _ = traced(lambda: tdev(series))
    assert curve.taus.size > 10
    assert peak <= 2 * ((n + 1) * COLUMN + _BLOCK * COLUMN) + (64 << 10)


def test_adev_holds_one_buffer(pin_workers):
    """Peak of adev on one worker over a 2^20-sample series: one N-value
    buffer for the second differences of every tau, plus the same 64 KiB of
    slack."""
    pin_workers(1)
    series = drifting_series(2)
    _, peak, _ = traced(lambda: adev(series))
    assert peak <= series.values.size * COLUMN + (64 << 10)


def test_adev_on_two_workers_holds_two_buffers(pin_workers):
    """As above, on two workers: one N-value buffer each."""
    pin_workers(2)
    series = drifting_series(2)
    _, peak, _ = traced(lambda: adev(series))
    assert peak <= 2 * series.values.size * COLUMN + (64 << 10)


@pytest.mark.parametrize("workers", [1, 2])
def test_read_columns_holds_its_output_and_one_workspace_per_worker(tmp_path, pin_workers,
                                                                    workers):
    """Peak of read_columns over a file of about four blocks, rows of even
    width, two columns read.

    Each output column is sized from the first block to finish: its rows,
    plus 1.125 times the rows the rest of the file holds at its density,
    plus 16, so (1.125 N + 16) values at most.  Each worker holds one
    _Workspace and, while it parses a block, the two arrays a block makes;
    _Workspace's docstring counts both from _BLOCK_BYTES.  64 KiB of slack
    covers the rest: the line readline ends a block with, the index lists,
    the helper thread.
    """
    pin_workers(workers)
    rows_per_block = cells._BLOCK_BYTES // 46
    n = 4 * rows_per_block
    x = 1.0 + np.random.default_rng(5).random(n)
    path = tmp_path / "even.csv"
    cells.write_columns(path, ["x", "y"], [x, 2.0 * x])
    assert path.stat().st_size == 4 + 46 * n
    (got, _), peak, _ = traced(lambda: cells.read_columns(path, ["x", "y"]))
    assert np.array_equal(got, x)
    output = 2 * (1.125 * n + 16) * COLUMN
    # the text and its zeros, then per row of a block at most: 16 words and
    # one per column read, 24 bytes of windows, and for each of the two
    # separators its offset (8 bytes), its kind and the kind's check
    rows = cells._BLOCK_BYTES // cells._MIN_ROW
    workspace = cells._BLOCK_BYTES + 33 + ((16 + 2) * 8 + 24 + 2 * 10) * rows
    assert peak <= output + workers * workspace + (64 << 10)


ALL_KINDS = NoiseProfile(components=[(kind, 1e-12) for kind in NOISE_TYPES], rng_seed=3)
NO_FLICKER = NoiseProfile(
    components=[("white_pm", 1e-11), ("white_fm", 1e-12), ("random_walk_fm", 1e-16)], rng_seed=3)


def grow(state, n):
    """prefix() through every doubling of the buffer up to n samples."""
    for k in range(10, n.bit_length()):
        x = state.prefix(1 << k)
    return x


class Maps:
    """timebase's anonymous maps, counted, as tracemalloc cannot see them:
    the bytes mapped now (`live`) and the most since `mark()` above what was
    mapped then (`peak`)."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.live = self.base = self.top = 0
        self.mapped = timebase._mapped
        monkeypatch.setattr(timebase, "_mapped", self)

    def __call__(self, n, dtype=float):
        a = self.mapped(n, dtype)
        with self.lock:
            self.live += a.nbytes
            self.top = max(self.top, self.live)
        weakref.finalize(a, self.unmapped, a.nbytes)
        return a

    def unmapped(self, nbytes):
        with self.lock:
            self.live -= nbytes

    def mark(self):
        self.base = self.top = self.live

    @property
    def peak(self):
        return self.top - self.base

    @property
    def kept(self):
        return self.live - self.base


def noise_peak(state, call, maps):
    """call() on state, and its peak and what it keeps above the memory
    before it, each as the traced part plus the mapped part: (result, peak,
    kept).  The two parts' peaks are added, which bounds their sum."""
    maps.mark()
    result, peak, transient = traced(call)
    return result, peak + maps.peak, peak - transient + maps.kept


@pytest.fixture
def maps(monkeypatch):
    return Maps(monkeypatch)


def test_noise_state_keeps_white_prefixes_of_flicker_classes_only(pin_workers, maps):
    """After prefix(n), a noise state holds its realized samples and one
    white prefix per flicker class, and nothing per other class.

    With the process-wide kernel and spectra already built, growing a state
    through its doublings to n samples leaves, besides the n-sample copy
    prefix() returns: the realized buffer, plus the white prefix of each
    flicker class (the filter is applied anew to it at each size).
    white_pm, white_fm and random_walk_fm carry at most two floats.  So the
    five-class mix holds 1 + 2 columns, and a mix without flicker 1 column;
    64 KiB of slack covers the generators and the lists.

    The last doubling of the five-class mix on one worker, from n/2 to n
    samples, holds at its peak, above the realized half and the old white
    prefixes it held before: the grown buffer and the two grown white
    prefixes, less the halves they replace (3 - 1.5), and the worker's
    workspace, the spectrum and the inverse transform of one filter (4).
    The other classes' whites go into the transform's unused half, and with
    one worker each flicker class's samples are added before the next class
    is filtered, so nothing else is held.  The copy prefix() returns comes
    after the workspace is gone (1).  That is 6.5 columns, and the bound of
    9.5 leaves three of slack.
    """
    pin_workers(1)
    n = 1 << 16
    grow(_NoiseState(ALL_KINDS, 1.0), n)  # the kernel, the spectra and the FFT plans
    for profile, columns in ((ALL_KINDS, 3), (NO_FLICKER, 1)):
        state = _NoiseState(profile, 1.0)
        x, _, kept = noise_peak(state, lambda: grow(state, n), maps)
        assert x.size == n
        assert kept <= (columns + 1) * COLUMN * n + (64 << 10)
    state = _NoiseState(ALL_KINDS, 1.0)
    state.prefix(n // 2)
    _, peak, _ = noise_peak(state, lambda: state.prefix(n), maps)
    assert peak <= 9.5 * COLUMN * n + (64 << 10)


def test_noise_doubling_on_two_workers_holds_a_workspace_each(pin_workers, maps):
    """The last doubling of the five-class mix, as above, on two workers.

    Each worker has a workspace (2 x 4), made before either filters.  Each
    flicker class's samples stay in its worker's workspace until the
    classes before it are added, and a worker copies them out (0.5) only
    if it takes another flicker class first, which two flicker classes on
    two workers never do.  With the grown buffers (1.5) and the copy
    prefix() returns (1), the peak is 10.5 columns; the 64 KiB of slack
    also covers the helper thread's queue and event.
    """
    pin_workers(2)
    n = 1 << 16
    grow(_NoiseState(ALL_KINDS, 1.0), n)
    state = _NoiseState(ALL_KINDS, 1.0)
    state.prefix(n // 2)
    x, peak, _ = noise_peak(state, lambda: state.prefix(n), maps)
    assert x.size == n
    assert peak <= 10.5 * COLUMN * n + (64 << 10)


def test_process_wide_kernel_and_spectra_hold_about_40_bytes_per_sample(cold_kernel_cache,
                                                                         maps):
    """What the first state to reach n samples leaves in the process-wide
    cache: the kernel's n taps (8 bytes each) and the spectrum of every
    buffer size from 1024 to n, n/2 + 1 complex values each (16 bytes), so
    about 32 bytes x n over all spectra: 5 columns above the 4 of the
    warm case.  A column of slack covers numpy's cached FFT plans.
    """
    n = 1 << 16
    state = _NoiseState(ALL_KINDS, 1.0)
    _, _, kept = noise_peak(state, lambda: grow(state, n), maps)
    assert kept <= (4 + 5 + 1) * COLUMN * n
    assert timebase._kernel.size == n
    assert timebase._kernel_spectrum.cache_info().currsize == n.bit_length() - 10
