"""Stability statistics: brute-force oracle agreement, known responses, properties."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fotsim import stability, workers
from fotsim.cli import main as cli_main
from fotsim.errors import ValidationError
from fotsim.scenario import write_series_csv
from fotsim.stability import (
    StabilityCurve,
    adev,
    default_taus,
    mdev,
    slope,
    tdev,
    tdev_bruteforce,
)
from fotsim.timebase import NoiseProfile, TimeErrorSeries, synthesize_time_error_series


def series(values, tau0=1.0):
    return TimeErrorSeries(tau0_s=tau0, values=np.asarray(values, dtype=float))


class TestTdevKnownResponses:
    def test_constant_series_is_zero_at_all_taus(self):
        s = series(np.full(64, 3.7e-9))
        curve = tdev(s)
        assert np.all(curve.values == 0.0)

    def test_linear_ramp_is_annihilated(self):
        # second differences remove constant offset and linear drift exactly
        s = series(2.5e-12 * np.arange(256) + 4.2e-9)
        curve = tdev(s)
        assert np.all(curve.values == pytest.approx(0.0, abs=1e-24))

    def test_white_pm_tdev_at_tau0_equals_sigma(self):
        # E[(x_{i+2} - 2 x_{i+1} + x_i)^2] = 6 sigma^2, so the 1/6 normalizer
        # makes TDEV(tau0) estimate sigma directly; 200-seed ensemble
        sigma = 25e-12
        tvars = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = series(sigma * rng.standard_normal(512))
            tvars.append(tdev(s, taus=[1.0]).values[0] ** 2)
        assert math.sqrt(np.mean(tvars)) == pytest.approx(sigma, rel=0.05)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(128) * 1e-11
        base = tdev(series(x)).values
        scaled = tdev(series(-3.0 * x)).values
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_offset_and_drift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(128) * 1e-11
        t = np.arange(128) * 1.0
        shifted = x + 5e-6 + 3e-9 * t
        assert tdev(series(shifted)).values == pytest.approx(
            tdev(series(x)).values, rel=1e-9)


class TestBruteForceOracle:
    def test_trivial_cases(self):
        assert tdev_bruteforce(series(np.zeros(16)), 2.0) == 0.0
        ramp = series(1e-12 * np.arange(32))
        assert tdev_bruteforce(ramp, 4.0) == pytest.approx(0.0, abs=1e-24)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=7, max_size=64),
        n=st.integers(1, 20),
    )
    def test_matches_fast_path_on_random_series(self, data, n):
        s = series(data)
        if len(data) < 3 * n + 1:
            with pytest.raises(ValidationError):
                tdev_bruteforce(s, float(n))
            return
        expected = tdev_bruteforce(s, float(n))
        got = tdev(s, taus=[float(n)]).values[0]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_matches_fast_path_on_seeded_n64_series(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = series(rng.standard_normal(64) * 1e-10, tau0=0.5)
            for tau in (0.5, 1.0, 2.5, 10.0):
                assert tdev(s, taus=[tau]).values[0] == pytest.approx(
                    tdev_bruteforce(s, tau), rel=1e-12)


class TestValidation:
    def test_rejects_tau_not_a_multiple(self):
        with pytest.raises(ValidationError):
            tdev(series(np.zeros(32)), taus=[1.5])

    def test_rejects_tau_too_long(self):
        with pytest.raises(ValidationError):
            tdev(series(np.zeros(32)), taus=[11.0])  # needs 34 points

    def test_boundary_tau_is_accepted(self):
        tdev(series(np.zeros(31)), taus=[10.0])  # N = 3n+1 exactly

    def test_default_grid_is_125_up_to_quarter_span(self):
        assert default_taus(1.0, 100) == [1.0, 2.0, 5.0, 10.0, 20.0]
        assert default_taus(0.5, 8) == [0.5, 1.0]

    def test_default_grid_ends_where_tau_overflows(self):
        # n * tau0 overflows to inf, so only the overflow of tau ends the grid
        assert default_taus(1e307, 100) == [1e307, 2e307, 5e307, 1e308]

    def test_series_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            series([0.0, np.inf, 0.0])

    @pytest.mark.parametrize("tau0", [0.0, -1.0, np.inf, np.nan])
    def test_series_rejects_tau0_not_finite_and_positive(self, tau0):
        with pytest.raises(ValidationError, match="tau0_s"):
            series(np.zeros(8), tau0=tau0)


class TestSlope:
    def test_white_pm_slope_minus_half(self):
        taus = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        tvars = np.zeros(len(taus))
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            c = tdev(series(rng.standard_normal(1024) * 1e-11), taus=taus)
            tvars += c.values ** 2
        mean_curve = StabilityCurve(np.asarray(taus), np.sqrt(tvars / 200),
                                    np.ones(len(taus), dtype=int))
        assert slope(mean_curve, 1.0, 50.0) == pytest.approx(-0.5, abs=0.05)

    def test_white_fm_slope_plus_half(self):
        # the discrete estimator reaches the +1/2 asymptote for n >~ 5,
        # so the fit window starts there
        taus = [5.0, 10.0, 20.0, 50.0, 100.0, 200.0]
        tvars = np.zeros(len(taus))
        profile_amp = 1e-12
        for seed in range(200):
            profile = NoiseProfile(components=[("white_fm", profile_amp)], rng_seed=seed)
            s = synthesize_time_error_series(profile, 2048, 1.0)
            tvars += tdev(s, taus=taus).values ** 2
        mean_curve = StabilityCurve(np.asarray(taus), np.sqrt(tvars / 200),
                                    np.ones(len(taus), dtype=int))
        assert slope(mean_curve, 5.0, 200.0) == pytest.approx(0.5, abs=0.05)

    def test_constant_curve_has_zero_slope(self):
        curve = StabilityCurve(np.array([1.0, 2.0, 5.0]), np.full(3, 2e-12),
                               np.ones(3, dtype=int))
        assert slope(curve, 1.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_insufficient_points(self):
        curve = StabilityCurve(np.array([1.0, 2.0, 5.0]), np.full(3, 2e-12),
                               np.ones(3, dtype=int))
        with pytest.raises(ValidationError):
            slope(curve, 1.0, 2.0)


class TestEstimatorFamily:
    def test_mdev_is_scaled_tdev(self):
        rng = np.random.default_rng(3)
        s = series(rng.standard_normal(256) * 1e-11)
        t_curve = tdev(s, taus=[1.0, 2.0, 4.0])
        m_curve = mdev(s, taus=[1.0, 2.0, 4.0])
        assert m_curve.values == pytest.approx(
            math.sqrt(3.0) * t_curve.values / t_curve.taus, rel=1e-12)

    def test_adev_white_fm_level(self):
        # overlapping ADEV of white FM: sigma_y(tau) = amp / sqrt(tau)
        amp = 2e-12
        avars = []
        for seed in range(100):
            profile = NoiseProfile(components=[("white_fm", amp)], rng_seed=seed)
            s = synthesize_time_error_series(profile, 2048, 1.0)
            avars.append(adev(s, taus=[4.0]).values[0] ** 2)
        assert math.sqrt(np.mean(avars)) == pytest.approx(amp / 2.0, rel=0.05)

    def test_adev_rejects_tau_off_the_grid(self):
        s = series(np.random.default_rng(5).standard_normal(64))
        with pytest.raises(ValidationError, match="not a positive multiple"):
            adev(s, taus=[1.5])

    def test_adev_needs_two_windows_plus_one_sample(self):
        # tau = n * tau0 needs 2n + 1 samples, one fewer window than TDEV
        s = series(np.random.default_rng(5).standard_normal(9))
        assert adev(s, taus=[4.0]).n_samples.tolist() == [1]
        with pytest.raises(ValidationError, match=r"too short for tau 5\.0 \(need >= 11\)"):
            adev(s, taus=[5.0])

    def test_adev_default_grid_is_tdev_grid(self):
        s = series(np.random.default_rng(5).standard_normal(1000))
        assert adev(s).taus.tolist() == default_taus(1.0, 1000)

    def test_estimator_variance_shrinks_with_length(self):
        # Monte-Carlo check that the point estimate tightens as N grows
        def spread(n):
            vals = [
                tdev(series(np.random.default_rng(s).standard_normal(n)), taus=[2.0]).values[0]
                for s in range(150)
            ]
            return np.std(vals) / np.mean(vals)

        assert spread(1024) < spread(64)


def unfused_window_sums(x, n):
    # the one-pass reference: every second difference, then one cumsum
    k = x.size - 2 * n
    dk = x[2 * n:] - 2.0 * x[n:-n] + x[:-2 * n]
    c = np.concatenate(([0.0], np.cumsum(dk)))
    return c[n:k + 1] - c[:k - n + 1]


class TestBlockedWindowSums:
    B = stability._BLOCK

    @pytest.mark.parametrize("kind", ["drift", "wide"])
    @pytest.mark.parametrize("size,n", [
        (1000, 5),                 # k shorter than one block
        (3 * B + 1234, 7),         # n below the block size, k not a multiple of it
        (2 * 10 + 2 * B, 10),      # k exactly two blocks
        (3 * (B + 100) + 50, B + 100),  # n above the block size
        (3 * B + 1, B),            # n at the block size, one window
    ])
    def test_equal_to_one_cumsum_bit_for_bit(self, size, n, kind):
        rng = np.random.default_rng(size)
        if kind == "drift":
            # a clock's time error: offset, drift, random walk and white noise
            x = (3e-7 + 2e-9 * np.arange(size) + 1e-10 * np.cumsum(rng.standard_normal(size))
                 + 1e-11 * rng.standard_normal(size))
        else:
            # magnitudes over 20 decades: nearly every running sum rounds, so
            # a sum in any other order than one cumsum's shows
            x = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 0, size)
        c, b = np.empty(size + 1), np.empty(self.B)
        got = stability._window_sums(x, n, c, b)
        want = unfused_window_sums(x, n)
        assert got.size == size - 3 * n + 1
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def drifting_clock(size):
    # a clock's time error: offset, drift, random walk and white noise
    rng = np.random.default_rng(size)
    return (3e-7 + 2e-9 * np.arange(size) + 1e-10 * np.cumsum(rng.standard_normal(size))
            + 1e-11 * rng.standard_normal(size))


@pytest.mark.parametrize("size,taus", [
    (5, [1.0, 2.0]),               # two windows plus one sample at n = 2
    (1000, [1.0, 7.0, 250.0]),
    (3 * stability._BLOCK + 17, [1.0, 3.0, 40.0, 1000.0]),
])
def test_adev_equals_the_second_difference_formula_bit_for_bit(size, taus):
    # a drifting clock: adev's values through its reused buffer are those of
    # one fresh array per tau, x[2n:] - 2.0*x[n:-n] + x[:-2n]
    x = drifting_clock(size)
    want = []
    for tau in taus:
        n = int(tau)
        d = x[2 * n:] - 2.0 * x[n:-n] + x[:-2 * n]
        want.append(math.sqrt(float(np.dot(d, d)) / (2.0 * d.size)) / (n * 1.0))
    got = adev(series(x), taus=taus).values
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def bits(curve):
    return curve.taus.tobytes() + curve.values.tobytes() + curve.n_samples.tobytes()


@pytest.fixture
def helper_takes_a_tau(monkeypatch):
    """With two workers and more than one tau, the calling thread waits to
    start its first tau until the helper thread has started one, so both
    compute some taus.  Yields the set of threads that computed a tau."""
    curve = stability._curve
    threads = set()

    def gated_curve(s, taus, windows, stat, buffers):
        caller, helper_started = threading.current_thread(), threading.Event()
        n_taus = len(default_taus(s.tau0_s, s.values.size) if taus is None else taus)
        split = workers._worker_count() > 1 and n_taus > 1

        def gated(n, *bufs):
            threads.add(threading.current_thread())
            if threading.current_thread() is caller and split:
                helper_started.wait(5.0)
            else:
                helper_started.set()
            return stat(n, *bufs)

        return curve(s, taus, windows, gated, buffers)

    monkeypatch.setattr(stability, "_curve", gated_curve)
    yield threads


class TestWorkerSplit:
    B = stability._BLOCK

    @pytest.mark.parametrize("statistic", [tdev, adev])
    @pytest.mark.parametrize("size,taus", [
        (7, [2.0]),                         # a single tau: no helper thread
        (1000, None),                       # the default grid
        (1000, [1.0, 3.0, 7.0, 250.0, 333.0]),
        (3 * B + 17, [1.0, 5.0, 2048.0, float(B)]),    # n >= _BLOCK
        (6 * B + 5, [float(B), float(2 * B)]),         # taus at multiples of _BLOCK
    ])
    def test_one_and_two_workers_give_equal_bits(self, pin_workers, helper_takes_a_tau,
                                                 statistic, size, taus):
        s = series(drifting_clock(size))
        pin_workers(1)
        one = statistic(s, taus)
        pin_workers(2)
        two = statistic(s, taus)
        assert bits(two) == bits(one)
        assert len(helper_takes_a_tau) == min(2, one.taus.size)

    def test_bad_tau_at_the_end_is_rejected_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(stability, "_window_sums", lambda *a: calls.append(a))
        s = series(drifting_clock(64))
        with pytest.raises(ValidationError, match=r"tau 3\.5 is not a positive multiple"):
            tdev(s, [1.0, 2.0, 3.5])
        with pytest.raises(ValidationError, match=r"too short for tau 30\.0"):
            tdev(s, [1.0, 2.0, 30.0])
        for tau in (math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"tau {tau} is not a positive multiple"):
                tdev(s, [1.0, 2.0, tau])
        with pytest.raises(ValidationError, match="taus must be strictly increasing"):
            tdev(s, [2.0, 1.0])
        assert calls == []

    def test_adev_rejects_a_bad_tau_list_before_any_work(self, monkeypatch):
        calls = []
        curve = stability._curve
        monkeypatch.setattr(stability, "_curve", lambda s, taus, windows, stat, buffers: curve(
            s, taus, windows, lambda *a: calls.append(a), lambda: calls.append("buffers")))
        s = series(drifting_clock(64))
        with pytest.raises(ValidationError, match="not a positive multiple"):
            adev(s, [1.0, 2.0, 3.5])
        with pytest.raises(ValidationError, match="taus must be strictly increasing"):
            adev(s, [2.0, 1.0])
        assert calls == []

    def test_helper_exception_reaches_the_caller_and_stops_it(self, monkeypatch, pin_workers):
        # a caller that starts a tau waits in it until the helper has failed
        # on its own first tau and ended, then finishes that tau and takes
        # no other (the helper may also take the first tau, and the caller
        # none)
        pin_workers(2)
        window_sums = stability._window_sums
        caller, helper = threading.current_thread(), []
        helper_failed = threading.Event()
        caller_taus = []

        def failing(x, n, c, b):
            if threading.current_thread() is not caller:
                helper.append(threading.current_thread())
                helper_failed.set()
                raise RuntimeError("helper failed")
            assert helper_failed.wait(5.0)
            helper[0].join(5.0)
            assert not helper[0].is_alive()
            caller_taus.append(n)
            return window_sums(x, n, c, b)

        monkeypatch.setattr(stability, "_window_sums", failing)
        with pytest.raises(RuntimeError, match="helper failed"):
            tdev(series(drifting_clock(1000)), [1.0, 2.0, 5.0, 10.0, 20.0])
        assert len(caller_taus) <= 1

    @staticmethod
    def curves_from_callers(s, taus, n_callers, calls_each):
        """For each of n_callers threads started at once, the set of
        bits(tdev(s, taus)) over its calls_each calls."""
        got = [None] * n_callers
        start = threading.Barrier(n_callers, timeout=60.0)

        def call(i):
            start.wait()
            got[i] = {bits(tdev(s, taus)) for _ in range(calls_each)}

        callers = [threading.Thread(target=call, args=(i,)) for i in range(n_callers)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
            assert not t.is_alive()
        return got

    def test_two_callers_at_once_get_equal_bytes(self, pin_workers):
        pin_workers(2)
        s = series(drifting_clock(3 * self.B + 17))
        want = bits(tdev(s))
        assert self.curves_from_callers(s, None, 2, 1) == [{want}, {want}]

    def test_many_taus_on_more_threads_than_cores(self, pin_workers):
        # 4 callers with 2 workers each share out 300 short taus, switching
        # threads every microsecond: a tau lost or taken twice would leave a
        # hole or a wrong value in some curve
        pin_workers(2)
        s = series(drifting_clock(1000))
        taus = [float(n) for n in range(1, 301)]
        want = bits(tdev(s, taus))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.curves_from_callers(s, taus, 4, 10)
        finally:
            sys.setswitchinterval(interval)
        assert got == [{want}] * 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteValues:
    # finite samples whose squared window sums overflow to inf; the curve is
    # rejected with a ValidationError alone, no numpy RuntimeWarning first
    huge = series(1e300 * (-1.0) ** np.arange(64))

    @pytest.mark.parametrize("statistic", [tdev, adev, mdev])
    def test_overflow_is_rejected(self, statistic):
        with pytest.raises(ValidationError, match="finite"):
            statistic(self.huge)

    def test_curve_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            StabilityCurve([1.0], [np.nan], [1])
        for tau in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValidationError, match="taus must be finite, > 0"):
                StabilityCurve([tau], [1.0], [1])
        with pytest.raises(ValidationError, match="taus must be finite, > 0"):
            StabilityCurve([1.0, np.nan], [1.0, 1.0], [1, 1])

    def test_cli_fails_without_writing(self, tmp_path, capsys):
        write_series_csv(tmp_path / "series.csv", self.huge)
        out = tmp_path / "curve.csv"
        code = cli_main(["tdev", "--input", str(tmp_path / "series.csv"),
                         "--tau0", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_cli_rejects_non_finite_sample_counts(self, tmp_path, capsys):
        curve = tmp_path / "tdev.csv"
        curve.write_text("tau_s,tdev_s,n_samples\n"
                         "1.0000000000000000e+00,1.0000000000000000e-11,inf\n")
        assert cli_main(["compare", str(curve), str(curve)]) == 1
        assert "n_samples must be whole numbers" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteValuesTwoWorkers(TestNonFiniteValues):
    # np.errstate is per thread: the helper thread must silence its own
    # overflow warnings, which would otherwise reach the warnings filter
    @pytest.fixture(autouse=True)
    def two_workers(self, pin_workers):
        pin_workers(2)
