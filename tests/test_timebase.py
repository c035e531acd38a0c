"""Clock model: deterministic evolution, noise statistics, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from fotsim import timebase
from fotsim.errors import ValidationError
from fotsim.scenario import build_models, validate_scenario
from fotsim.stability import tdev
from fotsim.timebase import (
    ClockModel,
    NoiseProfile,
    TimeErrorSeries,
    synthesize_time_error_series,
)


def half_integration_kernel(n):
    # reference: the impulse response of (1 - z^-1)^(-1/2) built in one pass
    # on float64 scalars, h[0] = 1, h[i] = h[i-1] * (i - 1/2) / i
    h = np.empty(n)
    h[0] = 1.0
    for i in range(1, n):
        h[i] = h[i - 1] * (i - 0.5) / i
    return h


def component_reference(kind, amp, w, h):
    # reference at dt = 1: the flicker filters as fftconvolve with the
    # one-pass kernel, the other classes as timebase computes them
    if kind == "flicker_pm":
        return amp * fftconvolve(h, w)[:w.size]
    if kind == "flicker_fm":
        return amp * np.cumsum(fftconvolve(h, w)[:w.size])
    return timebase._component_series(kind, amp, w, 1.0, None)


class TestTimeError:
    def test_ideal_clock_is_zero(self):
        clock = ClockModel()
        assert clock.time_error(123.0) == 0.0

    def test_linear_model(self):
        clock = ClockModel(initial_offset_s=100e-9, frac_frequency=1e-12)
        assert clock.time_error(1000.0) == pytest.approx(101e-9, rel=1e-12)

    def test_drift_term(self):
        clock = ClockModel(drift_per_s=2e-15)
        assert clock.time_error(100.0) == pytest.approx(1e-11, rel=1e-12)

    def test_white_pm_ensemble_std(self):
        # ensemble over 10^4 seeds at a fixed instant
        sigma = 25e-12
        values = []
        for seed in range(10_000):
            clock = ClockModel(
                noise=NoiseProfile(components=[("white_pm", sigma)], rng_seed=seed),
                noise_grid_s=1.0,
            )
            values.append(clock.time_error(17.0))
        assert np.std(values) == pytest.approx(sigma, rel=0.05)

    def test_repeated_queries_return_same_value(self):
        clock = ClockModel(
            noise=NoiseProfile(components=[("white_fm", 1e-12)], rng_seed=3),
            noise_grid_s=0.5,
        )
        first = clock.time_error(42.0)
        clock.time_error(9999.0)  # force extension
        assert clock.time_error(42.0) == first

    def test_extension_never_changes_realized_values(self):
        clock = ClockModel(
            noise=NoiseProfile(
                components=[("white_pm", 1e-11), ("flicker_fm", 1e-13)], rng_seed=11),
            noise_grid_s=1.0,
        )
        ts = [3.0, 42.0, 800.0]
        before = [clock.time_error(t) for t in ts]
        clock.time_error(50_000.0)  # forces several capacity doublings
        assert [clock.time_error(t) for t in ts] == before

    def test_same_query_sequence_reproduces_bitwise(self):
        def run_sequence():
            clock = ClockModel(
                noise=NoiseProfile(
                    components=[("white_pm", 1e-11), ("flicker_fm", 1e-13)], rng_seed=11),
                noise_grid_s=1.0,
            )
            return [clock.time_error(t) for t in (5000.0, 3.0, 800.0, 42.0)]

        assert run_sequence() == run_sequence()

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            ClockModel().time_error(-1.0)


class TestSynthesis:
    def test_empty_profile_is_all_zero(self):
        s = synthesize_time_error_series(NoiseProfile(), 100, 1.0)
        assert len(s) == 100
        assert np.all(s.values == 0.0)

    def test_bit_identical_per_seed(self):
        profile = NoiseProfile(
            components=[("white_pm", 1e-11), ("flicker_pm", 1e-12)], rng_seed=99)
        a = synthesize_time_error_series(profile, 512, 0.01)
        b = synthesize_time_error_series(profile, 512, 0.01)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        mk = lambda seed: synthesize_time_error_series(
            NoiseProfile(components=[("white_pm", 1e-11)], rng_seed=seed), 64, 1.0)
        assert not np.array_equal(mk(1).values, mk(2).values)

    def test_white_pm_tdev_at_tau0_matches_amplitude(self):
        # free-running target level at 1 s: the white phase component alone
        sigma = 106e-12
        profile = NoiseProfile(components=[("white_pm", sigma)], rng_seed=5)
        s = synthesize_time_error_series(profile, 10_000, 1.0)
        assert tdev(s, taus=[1.0]).values[0] == pytest.approx(sigma, rel=0.05)

    def test_rejects_short_series_and_bad_tau0(self):
        with pytest.raises(ValidationError):
            synthesize_time_error_series(NoiseProfile(), 3, 1.0)
        with pytest.raises(ValidationError):
            synthesize_time_error_series(NoiseProfile(), 10, 0.0)

    def test_rejects_unknown_noise_type(self):
        with pytest.raises(ValidationError):
            NoiseProfile(components=[("mauve", 1e-12)])

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValidationError):
            NoiseProfile(components=[("white_pm", -1e-12)])

    def test_flicker_pm_is_stationary_scale(self):
        # flicker PM should not wander like integrated noise: compare the
        # spread of the first and last quarters of a long realization
        profile = NoiseProfile(components=[("flicker_pm", 1e-12)], rng_seed=8)
        s = synthesize_time_error_series(profile, 8192, 1.0).values
        assert np.std(s[-2048:]) < 10 * np.std(s[:2048])


class TestHalfIntegrationKernel:
    @pytest.mark.parametrize("m", [1, 1000, 1024, 1 << 16])
    def test_extension_matches_one_pass_bit_for_bit(self, m):
        n = 1 << 16
        want = half_integration_kernel(n)
        got = timebase._extend_half_integration_kernel(want[:m].copy(), n)
        assert got.tobytes() == want.tobytes()

    def test_state_grows_one_kernel_per_doubling(self, monkeypatch):
        calls = []
        extend = timebase._extend_half_integration_kernel

        def counting(h, n):
            calls.append((h.size, n))
            return extend(h, n)

        monkeypatch.setattr(timebase, "_extend_half_integration_kernel", counting)
        profile = NoiseProfile(
            components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
            rng_seed=4)
        state = timebase._NoiseState(profile, 1.0)
        for n in (1, 2000, 3000, 4000, 5000):
            state.prefix(n)
        assert calls == [(1, 1024), (1024, 2048), (2048, 4096), (4096, 8192)]

    def test_no_kernel_without_flicker(self, monkeypatch):
        def fail(h, n):
            raise AssertionError("kernel built for a clock without flicker noise")

        monkeypatch.setattr(timebase, "_extend_half_integration_kernel", fail)
        profile = NoiseProfile(components=[("white_pm", 1e-11), ("white_fm", 1e-12)])
        timebase._NoiseState(profile, 1.0).prefix(5000)

    @pytest.mark.parametrize("n", [1024, 3000, 1 << 16, 1 << 18])
    def test_shared_spectrum_matches_fftconvolve_bit_for_bit(self, n):
        h = half_integration_kernel(n)
        w = np.random.default_rng(n).standard_normal(n)
        got = timebase._half_integrate(w, timebase._kernel_spectrum(h))
        assert got.tobytes() == fftconvolve(h, w)[:n].tobytes()

    @pytest.mark.parametrize("log2_n", range(10, 25))
    def test_fftconvolve_pads_buffer_sizes_to_twice_their_length(self, log2_n):
        # a noise buffer holds a power of two >= 1024 samples; for those
        # sizes fftconvolve's FFT length is exactly 2n, the length
        # _half_integrate transforms at
        n = 1 << log2_n
        assert next_fast_len(2 * n - 1, True) == 2 * n

    def test_state_takes_one_kernel_spectrum_per_doubling(self, monkeypatch):
        sizes = []
        spectrum = timebase._kernel_spectrum

        def counting(h):
            sizes.append(h.size)
            return spectrum(h)

        monkeypatch.setattr(timebase, "_kernel_spectrum", counting)
        profile = NoiseProfile(
            components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
            rng_seed=4)
        state = timebase._NoiseState(profile, 1.0)
        for n in (1, 2000, 3000, 4000, 5000):
            state.prefix(n)
        assert sizes == [1024, 2048, 4096, 8192]

    def test_values_match_one_pass_kernels(self):
        # the realization as it was built with a fresh one-pass kernel and
        # fftconvolve at every doubling: each extension keeps its samples
        # past the old end
        profile = NoiseProfile(
            components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
            rng_seed=21)
        children = np.random.SeedSequence(profile.rng_seed).spawn(len(profile.components))
        whites = [np.random.default_rng(c).standard_normal(8192) for c in children]
        want = np.empty(0)
        for size in (1024, 2048, 4096, 8192):
            h = half_integration_kernel(size)
            total = np.zeros(size)
            for (kind, amp), w in zip(profile.components, whites):
                total += component_reference(kind, amp, w[:size], h)
            want = np.concatenate([want, total[want.size:]])
        state = timebase._NoiseState(profile, 1.0)
        for n in (1, 2000, 3000, 8000):
            state.prefix(n)
        assert state.prefix(8192).tobytes() == want.tobytes()
        one_pass = synthesize_time_error_series(profile, 5000, 1.0).values
        assert one_pass.tobytes() == total[:5000].tobytes()


class TestSharedFrequencyReference:
    def test_shared_clocks_lose_their_own_frequency_terms(self):
        doc = {
            "name": "ref", "mode": "clocks_only", "duration_s": 32.0,
            "sample_period_s": 1.0, "master_seed": 7,
            "freq_reference": {"frac_frequency": 1e-10},
            "clocks": {
                "server": {"frac_frequency": 3e-9, "drift_per_s": 1e-13,
                           "freq_ref_shared": True},
                "user": {"frac_frequency": -4e-9, "drift_per_s": -2e-13,
                         "freq_ref_shared": True},
            },
        }
        models = build_models(validate_scenario(doc))
        t = 5000.0
        assert models.server.time_error(t) - models.user.time_error(t) == 0.0

    def test_unshared_clock_is_untouched(self):
        # build_models gives the reference to shared clocks only
        doc = {
            "name": "ref", "mode": "clocks_only", "duration_s": 32.0,
            "sample_period_s": 1.0, "master_seed": 7,
            "freq_reference": {"frac_frequency": 1e-10, "drift_per_s": 2e-15},
            "clocks": {
                "server": {"frac_frequency": -4e-9, "freq_ref_shared": True},
                "user": {"frac_frequency": 3e-9, "freq_ref_shared": False},
            },
        }
        models = build_models(validate_scenario(doc))
        assert (models.server.frac_frequency, models.server.drift_per_s) == (1e-10, 2e-15)
        assert (models.user.frac_frequency, models.user.drift_per_s) == (3e-9, 0.0)

    def test_difference_of_shared_clocks_has_flat_tdev_floor(self):
        # with only white PM left, the pair difference TDEV keeps averaging
        # down instead of growing with tau
        mk = lambda seed: ClockModel(
            noise=NoiseProfile(components=[("white_pm", 1e-11)], rng_seed=seed),
            noise_grid_s=1.0)
        a, b = mk(1), mk(2)
        diff = TimeErrorSeries(
            tau0_s=1.0,
            values=np.array([a.time_error(float(k)) - b.time_error(float(k))
                             for k in range(4096)]),
        )
        curve = tdev(diff, taus=[1.0, 100.0])
        assert curve.values[1] < curve.values[0]


def test_package_imports_no_scipy():
    # fotsim runs on numpy alone; scipy is a reference for the tests only
    src = Path(timebase.__file__).resolve().parent.parent
    code = ("import sys, fotsim, fotsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout == "[]\n"
