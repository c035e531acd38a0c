"""Transient memory of the loops that run over a whole run.

tracemalloc sees numpy's buffers as well as Python objects, so a traced
peak counts every float64 column a call holds.  Each bound below is the
count of columns the call must hold at its peak, besides its inputs and
what it returns, plus a stated slack; a call that keeps a Python float
per round (24 bytes, plus 8 for its list slot) or a second run-length
buffer goes past it.
"""

import tracemalloc

import numpy as np

from fotsim.access import AccessNode
from fotsim.channel import FluctuationSpec, HardwareDelays, LinkModel
from fotsim.protocol import ProtocolConfig, TicModel, run_rounds
from fotsim.stability import _BLOCK, adev, tdev
from fotsim.timebase import ClockModel, TimeErrorSeries

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


def test_tdev_holds_one_cumsum_buffer_and_one_block():
    """Peak of tdev over a 2^20-sample series, above the series itself.

    One (N+1)-value buffer holds the running sum and then the window sums
    in place, and one _BLOCK-value buffer the second differences of a
    block; 64 KiB of slack covers the tau grid, the per-tau lists and the
    curve, which take under a kilobyte here.
    """
    n = 1 << 20
    values = np.cumsum(np.random.default_rng(1).standard_normal(n))
    series = TimeErrorSeries(tau0_s=1.0, values=values)
    curve, peak, _ = traced(lambda: tdev(series))
    assert curve.taus.size > 10
    assert peak <= (n + 1) * COLUMN + _BLOCK * COLUMN + (64 << 10)


def test_adev_holds_one_buffer():
    """Peak of adev over a 2^20-sample series: one N-value buffer for the
    second differences of every tau, plus the same 64 KiB of slack."""
    n = 1 << 20
    values = np.cumsum(np.random.default_rng(2).standard_normal(n))
    series = TimeErrorSeries(tau0_s=1.0, values=values)
    _, peak, _ = traced(lambda: adev(series))
    assert peak <= n * COLUMN + (64 << 10)
