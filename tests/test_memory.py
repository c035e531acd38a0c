"""Transient memory of the loops that run over a whole run, and what a noise
state keeps.

tracemalloc sees numpy's buffers as well as Python objects, so a traced
peak counts every float64 column a call holds.  Each bound below is the
count of columns the call must hold at its peak, besides its inputs and
what it returns, plus a stated slack; a call that keeps a Python float
per round (24 bytes, plus 8 for its list slot) or a second run-length
buffer goes past it.
"""

import tracemalloc

import numpy as np

from fotsim import timebase
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
    """Peak less the returned result, per round, stays within 11 columns.

    Besides the columns it returns, run_rounds holds at its peak nine
    float64 columns it built on the way: both clocks' time errors, both
    counters' jitter, the fluctuation path, the two path delays, the
    steering column and the steered user clock.  One more is the temporary
    of the last array expression (numpy elides it only above 256 KiB, and
    20k rounds are 160 KB a column): 10 columns.  The slack of one column
    covers the scan accumulators' spare capacity and the fixed-size blocks
    of converted inputs, which are freed before the peak.
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
    assert transient <= 11 * COLUMN * n_rounds


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


ALL_KINDS = NoiseProfile(components=[(kind, 1e-12) for kind in NOISE_TYPES], rng_seed=3)
NO_FLICKER = NoiseProfile(
    components=[("white_pm", 1e-11), ("white_fm", 1e-12), ("random_walk_fm", 1e-16)], rng_seed=3)


def grow(state, n):
    """prefix() through every doubling of the buffer up to n samples."""
    for k in range(10, n.bit_length()):
        x = state.prefix(1 << k)
    return x


def test_noise_state_keeps_white_prefixes_of_flicker_classes_only():
    """After prefix(n), a noise state holds its realized samples and one
    white prefix per flicker class, and nothing per other class.

    With the process-wide kernel and spectra already built, growing a state
    through its doublings to n samples leaves, besides the n-sample copy
    prefix() returns: the realized buffer, plus the white prefix of each
    flicker class (the filter is applied anew to it at each size).
    white_pm, white_fm and random_walk_fm carry at most two floats.  So the
    five-class mix holds 1 + 2 columns, and a mix without flicker 1 column;
    64 KiB of slack covers the generators and the lists.

    The last doubling of the five-class mix, from n/2 to n samples, holds at
    its peak, above the realized half and the old white prefixes it held
    before, while it filters flicker_fm: the half being summed and the last
    class's new samples (0.5 + 0.5), flicker_pm's new white prefix (1),
    flicker_fm's new whites and new white prefix (0.5 + 1), and the
    filter's three 2n-point arrays: the white spectrum, its product with the
    kernel's and the inverse transform (6 columns), 9.5 columns in all.
    """
    n = 1 << 16
    grow(_NoiseState(ALL_KINDS, 1.0), n)  # the kernel, the spectra and the FFT plans
    for profile, columns in ((ALL_KINDS, 3), (NO_FLICKER, 1)):
        state = _NoiseState(profile, 1.0)
        x, peak, transient = traced(lambda: grow(state, n))
        assert x.size == n
        assert peak - transient <= (columns + 1) * COLUMN * n + (64 << 10)
    state = _NoiseState(ALL_KINDS, 1.0)
    state.prefix(n // 2)
    _, peak, _ = traced(lambda: state.prefix(n))
    assert peak <= 9.5 * COLUMN * n + (64 << 10)


def test_process_wide_kernel_and_spectra_hold_about_40_bytes_per_sample(cold_kernel_cache):
    """What the first state to reach n samples leaves in the process-wide
    cache: the kernel's n taps (8 bytes each) and the spectrum of every
    buffer size from 1024 to n, n/2 + 1 complex values each (16 bytes), so
    about 32 bytes x n over all spectra: 5 columns above the 4 of the
    warm case.  A column of slack covers numpy's cached FFT plans.
    """
    n = 1 << 16
    state = _NoiseState(ALL_KINDS, 1.0)
    _, peak, transient = traced(lambda: grow(state, n))
    assert peak - transient <= (4 + 5 + 1) * COLUMN * n
    assert timebase._kernel.size == n
    assert timebase._kernel_spectrum.cache_info().currsize == n.bit_length() - 10
