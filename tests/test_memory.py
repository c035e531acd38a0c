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
import pytest

from fotsim import cells, timebase
from fotsim.access import AccessNode
from fotsim.channel import FluctuationSpec, HardwareDelays, LinkModel
from fotsim.protocol import ProtocolConfig, TicModel, run_rounds
from fotsim.scenario import load_scenario, run, validate_scenario
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


def traced_engine_run(emit, node_count, n_rounds):
    """traced() of run_rounds over n_rounds rounds of a 230 km link with
    node_count access nodes, its fluctuation taken at each crossing's
    emission when emit, else at the round epoch."""
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-11, timescale_s=600.0,
                                                 rng_seed=4),
                     evaluate_at_emit_time=emit)
    nodes = [AccessNode(distance_from_server_km=d,
                        tic=TicModel(jitter_rms_s=3e-11, rng_seed=i), name=f"n{i}")
             for i, d in enumerate((60.0, 170.0)[:node_count])]
    models = (ClockModel(), ClockModel(initial_offset_s=1e-7, frac_frequency=1e-10),
              link, HardwareDelays(tx_server_s=3.5e-8),
              TicModel(jitter_rms_s=3e-11, rng_seed=7),
              TicModel(jitter_rms_s=3e-11, rng_seed=8), ProtocolConfig())
    return traced(lambda: run_rounds(*models, n_rounds, nodes=nodes))


def test_round_engine_holds_a_fixed_number_of_columns_per_round():
    """Peak less the returned result, per round, stays within 2 columns
    with two access nodes and within 1 without, in either fluctuation mode.

    run_rounds returns 13 float64 columns, and each of the two nodes' taps 3
    more.  The scan holds the input columns, at most ten, and the steering
    column, and per round only the Python floats of the round it is on,
    which memoryviews of the inputs hand out one at a time: about 11
    columns, under the 13 returned.  After the scan the engine builds three
    of its returned columns in place of inputs it has used for the last
    time: the user clock's time error becomes the user emissions, and the
    two path delays the two arrivals.  Its other inputs (the server clock's
    time error and both counters' jitter) and the steering column it frees
    before the checks.  Without nodes its peak is at the checks: the
    returned columns, the four check masks and the two partial unions of
    them, bool arrays of an eighth of a column each: 0.75 columns.  With
    nodes it is while the last node derives its recovered times: the
    returned columns and one temporary (numpy elides temporaries only above
    256 KiB, and 20k rounds are 160 KB a column): 1 column.  Each bound
    leaves a quarter of a column or more of slack for the call's Python
    objects and small arrays (measured: 0.75 and 1.00 columns, in either
    mode); a block of the scan's inputs held as Python floats would go past
    the bound without nodes.
    """
    n_rounds = 20_000
    for emit in (False, True):
        for node_count, columns in ((2, 2), (0, 1)):
            result, _, transient = traced_engine_run(emit, node_count, n_rounds)
            assert len(result) == n_rounds
            assert transient <= columns * COLUMN * n_rounds, (emit, node_count)


def test_round_engine_returns_each_value_once():
    """What run_rounds leaves allocated for two access nodes over 20k
    rounds, in either fluctuation mode: 13 + 2 x 3 columns and a stated
    slack.

    The result holds 13 columns: the epochs, T1, T2, the estimates, the
    true offsets, the residuals and the events' seven time and fiber
    columns.  Each node's observation holds 3: T3, the recovered times and
    their residuals.  In emit mode the two fiber-delay columns are views of
    the scan's array('d') buffers, which CPython over-allocates by at most
    a sixteenth plus 7 items each: an eighth of a column more.  32 KiB of
    slack covers the link's fluctuation path grown by the call (334 cells
    here) and the result's Python objects (measured: 19.06 columns at the
    round epoch, 19.15 in emit mode).  One more column per node, such as a
    tap time, would go past the bound.
    """
    n_rounds = 20_000
    for emit in (False, True):
        result, peak, transient = traced_engine_run(emit, 2, n_rounds)
        assert len(result) == n_rounds
        assert peak - transient <= (13 + 2 * 3 + 1 / 8) * COLUMN * n_rounds + (32 << 10), emit


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


def test_series_checks_its_values_without_a_temporary():
    """TimeErrorSeries checks its values by a minimum and a maximum, so a
    series built on a 2^20-value float64 array holds nothing more
    (np.asarray keeps the array).  A bool temporary of the values' length,
    1/8 of a column (1 MiB here), would go past the 64 KiB of slack.
    """
    values = np.arange(1 << 20, dtype=float)
    series, peak, _ = traced(lambda: TimeErrorSeries(tau0_s=1.0, values=values))
    assert series.values is values
    assert peak <= 64 << 10


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
    cells.write_tables([(path, ["x", "y"], [x, 2.0 * x])])
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


def test_write_tables_holds_a_workspace_and_one_chunk_of_text(tmp_path, pin_workers):
    """Peak of write_tables over a run's three round tables with two access
    nodes, five whole chunks of rows, on one worker and on two.

    rounds.csv has 6 float columns and each node table 7: the 3 columns of
    rounds.csv that the node tables share, 3 of its own and a constant.  So
    a chunk of R rows formats 12 distinct columns, 12R cells, in one
    _float_words call on one _Scratch, 91 bytes a cell (11 uint64 rows and
    3 bool rows), into a word matrix of 28 bytes a cell.  Each buffer set
    holds a word matrix per table, 28 bytes for each of the 20 cells of a
    row; a write makes one set per worker.  The writer drops the NUL bytes
    of one table's chunk at a time: the mask takes one byte per byte of
    words, 28 a cell of the widest table, and the text it keeps at most as
    many; both are released before the next table's are made.  On two
    workers the caller formats the next chunk meanwhile, and a numpy call
    of _float_words that casts holds a buffer of np.getbufsize() (8192)
    values of 8 bytes, 64 KiB, while it runs.  The constant's words and the
    arrays of the few cells the kernel leaves open are bytes.  64 KiB more
    of slack covers the three files' write buffers (8 KiB each) and the
    Python objects of the pass.  A set more, 672 KiB, or a chunk's text
    kept past its write, 170 to 200 KiB, goes past the bound.
    """
    rng = np.random.default_rng(6)
    n = 5 * cells._chunk_rows([[None] * 20])
    rows = n // 5

    def floats(count):
        return [1e-9 * rng.standard_normal(n) for _ in range(count)]

    t, t1, true_offset = np.arange(n) + 0.01 * rng.random(n), *floats(2)
    tables = [[t, t1, *floats(2), true_offset, *floats(1)]]
    for position in (60.0, 170.0):
        tables.append([t, t1, *floats(2), true_offset, *floats(1),
                       np.broadcast_to(np.float64(position), n)])
    spec = [(tmp_path / f"{i}.csv", [f"c{j}" for j in range(len(columns))], columns)
            for i, columns in enumerate(tables)]
    words = 28
    for sets in (1, 2):
        pin_workers(sets)
        _, peak, _ = traced(lambda: cells.write_tables(spec))
        assert (tmp_path / "2.csv").stat().st_size > 23 * 7 * n
        assert peak <= rows * (91 * 12 + words * 12 + sets * words * 20 + 2 * words * 7) \
            + 8192 * 8 + (64 << 10), sets


ALL_KINDS = NoiseProfile(components=[(kind, 1e-12) for kind in NOISE_TYPES], rng_seed=3)
NO_FLICKER = NoiseProfile(
    components=[("white_pm", 1e-11), ("white_fm", 1e-12), ("random_walk_fm", 1e-16)], rng_seed=3)


def grow(state, n):
    """prefix() through every doubling of the buffer up to n samples."""
    for k in range(10, n.bit_length()):
        x = state.prefix(1 << k)
    return x


def test_noise_state_keeps_only_its_realized_samples():
    """After prefix(n), a noise state holds its realized samples and nothing
    per class, whatever its classes.

    With the process-wide spectra already taken, growing a state
    through its doublings to n samples leaves, besides the n-sample copy
    prefix() returns, the realized buffer alone: every class keeps only its
    seed and redraws its whites at each grow.  So the five-class mix and a
    mix without flicker each hold 1 + 1 columns (measured: 2.01); 64 KiB
    of slack covers the seeds.

    The last doubling of the five-class mix, from n/2 to n samples, holds
    at its peak, above what it held before: the grown buffer (1) and one
    workspace, the spectrum and the inverse transform of a filter (4).  The
    realized half it replaces was allocated before tracing began, so its
    release does not lower the traced count.  Every class's whites are
    drawn into the transform's first half, and each class's samples are
    added before the next class is drawn, so nothing else is held.  The
    copy prefix() returns comes after the workspace is gone (1 + 1).  That
    is 5 columns (measured: 5.01), and the bound of 5.5 leaves half a
    column of slack: one white prefix kept by a flicker class would go past
    it.  The mix without flicker holds the grown buffer (1) and its
    workspace, one n-sample whites buffer, which it frees before the copy
    (1).  That is 2 columns (measured: 2.00), under a bound of 2.5.
    """
    n = 1 << 16
    grow(_NoiseState(ALL_KINDS, 1.0), n)  # the spectra and the FFT plans
    for profile in (ALL_KINDS, NO_FLICKER):
        state = _NoiseState(profile, 1.0)
        x, peak, transient = traced(lambda: grow(state, n))
        kept = peak - transient
        assert x.size == n
        assert kept <= 2 * COLUMN * n + (64 << 10)
    for profile, columns in ((ALL_KINDS, 5.5), (NO_FLICKER, 2.5)):
        state = _NoiseState(profile, 1.0)
        state.prefix(n // 2)
        _, peak, _ = traced(lambda: state.prefix(n))
        assert peak <= columns * COLUMN * n + (64 << 10)


def test_fluctuation_path_holds_a_packed_double_per_grid_cell():
    """Growing a link's fluctuation path to n grid cells holds 8 bytes a cell.

    The path is an array('d'), whose buffer grows, as CPython's array
    module resizes it, to the new length plus a sixteenth of it and 7 more
    items, so at any length it holds at most 8 * 17/16 = 8.5 bytes a cell
    and 56 bytes of whole items (measured: 8.45).  Each step's normal
    and its Python floats are freed before the next, and 64 KiB of slack
    covers the generator's state and the call's other objects.  A list of
    Python floats, 24 bytes each plus an 8-byte slot, would go past it.
    """
    n = 1 << 15
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-11, grid_s=1.0, rng_seed=3))
    _, peak, _ = traced(lambda: link.fluctuation_value(n - 1.0))
    assert len(link._fluct._path) == n
    assert peak <= 8.5 * n + (64 << 10)


def test_two_clocks_on_two_workers_hold_at_most_two_one_worker_peaks(pin_workers):
    """The last doubling of two five-class clocks, from n/2 to n samples,
    through clock_time_errors on two workers: one clock per worker, each
    filtering its flicker classes on its own worker.

    Each clock holds what one clock holds on one worker.  It peaks as in
    the 5 columns derived above, less the copy prefix() returns: the grown
    buffer (1) and one workspace (4), while time_errors holds neither the
    grid index nor the deterministic part.  After the workspace is gone it
    holds the grown buffer and at most the grid index, the deterministic
    part and one temporary of it, then the returned column and the
    gathered noise (1 + 3).  So 5 columns a clock (measured: 5.01).  Two
    clocks at once hold at most both clocks' peaks, 10 columns (measured:
    10.02), and never a second workspace per clock: the bound of 2 x 5.5
    leaves half a column of slack a clock.  The 64 KiB of slack covers the
    helper thread's queue and event.
    """
    n = 1 << 16
    t = np.arange(n, dtype=float)
    grow(_NoiseState(ALL_KINDS, 1.0), n)

    def clocks():
        pair = [ClockModel(noise=NoiseProfile(ALL_KINDS.components, rng_seed=seed),
                           noise_grid_s=1.0) for seed in (3, 4)]
        for clock in pair:
            clock.time_errors(t[:n // 2])
        return pair

    pin_workers(1)
    alone = [traced(lambda: clock.time_errors(t)) for clock in clocks()]
    pin_workers(2)
    pair = clocks()
    both, peak, _ = traced(lambda: timebase.clock_time_errors(pair, t))
    assert [x.tobytes() for x in both] == [x.tobytes() for x, _, _ in alone]
    assert peak <= sum(one for _, one, _ in alone) + (64 << 10)
    assert peak <= 2 * 5.5 * COLUMN * n + (64 << 10)


@pytest.mark.parametrize("mode", ["clocks_only", "sync"])
@pytest.mark.parametrize("flicker, server_grid", [
    (("server", "user"), 1.0),
    # one clock per worker, though one of them is cheap: its noise grows to
    # an eighth of the other's buffer
    (("server", "user"), 8.0),
    # one flicker clock: both clocks on the calling thread
    (("user",), 1.0),
], ids=["both", "both_coarse_server", "user_only"])
def test_runs_with_flicker_give_equal_bytes_on_one_and_two_workers(
        tmp_path, pin_workers, mode, flicker, server_grid):
    doc = load_scenario("link_sync_230km").raw | {"mode": mode, "duration_s": 3000.0}
    if mode == "clocks_only":
        for key in ("link", "protocol", "hardware", "tics", "warmup_rounds"):
            del doc[key]
    doc["clocks"]["server"]["noise_grid_s"] = server_grid
    for name in flicker:
        doc["clocks"][name]["noise"] += [{"type": "flicker_pm", "amplitude": 1e-11},
                                         {"type": "flicker_fm", "amplitude": 1e-13}]
    trees = []
    for count in (1, 2):
        pin_workers(count)
        run(validate_scenario(doc), tmp_path / str(count))
        trees.append({p.name: p.read_bytes() for p in sorted((tmp_path / str(count)).iterdir())})
    assert "series.csv" in trees[0] and trees[0] == trees[1]


def test_process_wide_spectra_hold_about_32_bytes_per_sample(cold_kernel_cache):
    """What the first state to reach n samples leaves in the process-wide
    cache: the spectrum of every buffer size s from 1024 to n, s + 1
    complex values of 16 bytes each, so about 32 bytes x n over all spectra:
    4 columns above the 2 of the warm case.  The kernel they were taken
    from is not kept.  A column of slack covers numpy's cached FFT plans
    (measured: 6.22 in all).
    """
    n = 1 << 16
    state = _NoiseState(ALL_KINDS, 1.0)
    _, peak, transient = traced(lambda: grow(state, n))
    kept = peak - transient
    assert kept <= (2 + 4 + 1) * COLUMN * n
    assert sorted(timebase._spectra) == [1 << k for k in range(10, n.bit_length())]
