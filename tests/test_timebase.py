"""Clock model: deterministic evolution, noise statistics, determinism."""

import collections
import functools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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


@functools.lru_cache(maxsize=None)
def half_integration_kernel(n):
    # reference: the impulse response of (1 - z^-1)^(-1/2) built in one pass
    # on float64 scalars, h[0] = 1, h[i] = h[i-1] * (i - 1/2) / i
    h = np.empty(n)
    h[0] = 1.0
    for i in range(1, n):
        h[i] = h[i - 1] * (i - 0.5) / i
    h.flags.writeable = False
    return h


def component_reference(kind, amp, w, dt, h):
    # reference: one noise class over its whole white prefix w, the flicker
    # filters as fftconvolve with the one-pass kernel h
    if kind == "white_pm":
        return amp * w
    if kind == "flicker_pm":
        return amp * fftconvolve(h, w)[:w.size]
    if kind == "white_fm":
        return amp * math.sqrt(dt) * np.cumsum(w)
    if kind == "flicker_fm":
        return amp * dt * np.cumsum(fftconvolve(h, w)[:w.size])
    if kind == "random_walk_fm":
        return amp * dt ** 1.5 * np.cumsum(np.cumsum(w))
    raise AssertionError(kind)


def on_kernel_transform(monkeypatch, call):
    """Make np.fft.rfft call call(n) before each transform of a kernel, n
    the complex values of the spectrum it makes: the rfft whose input
    starts with the kernel's first two taps, 1 and 1/2, which white noise
    does not."""
    rfft = np.fft.rfft

    def recorded(a, n=None, *args, **kwargs):
        if a[:2].tolist() == [1.0, 0.5]:
            call(n // 2 + 1)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recorded)


class ReferenceState:
    """A noise realization built from scratch at every doubling: the whole
    white prefix of each class, a fresh one-pass kernel and fftconvolve;
    each extension keeps only its samples past the old end."""

    def __init__(self, profile, dt):
        self.profile, self.dt = profile, dt
        children = np.random.SeedSequence(profile.rng_seed).spawn(len(profile.components))
        self.rngs = [np.random.default_rng(c) for c in children]
        self.whites = [np.empty(0) for _ in profile.components]
        self.x = np.empty(0)

    def extend(self, n):
        size = max(1024, 1 << (n - 1).bit_length())
        h = half_integration_kernel(size)
        total = np.zeros(size)
        for i, (kind, amp) in enumerate(self.profile.components):
            extra = self.rngs[i].standard_normal(size - self.whites[i].size)
            self.whites[i] = np.concatenate([self.whites[i], extra])
            total += component_reference(kind, amp, self.whites[i], self.dt, h)
        self.x = np.concatenate([self.x, total[self.x.size:]])

    def values_at(self, indices):
        for k in indices:
            if k >= self.x.size:
                self.extend(int(k) + 1)
        return self.x[indices]

    def prefix(self, n):
        if n > self.x.size:
            self.extend(n)
        return self.x[:n].copy()


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

    @pytest.mark.parametrize("grid", [1.0, 8.0])
    def test_a_query_between_grid_points_reads_the_nearest_sample(self, grid):
        """A query at t reads the noise sample nearest t, index
        rint(t / noise_grid_s): at (k + 0.3) grid steps sample k, at
        (k + 0.7) sample k + 1.  A tie at k + 0.5 rounds half to even: sample
        k for an even k, k + 1 for an odd one."""
        profile = NoiseProfile(components=[("white_pm", 1e-11), ("white_fm", 1e-12)],
                               rng_seed=13)
        k = np.arange(0, 3000, 7)
        x = timebase._NoiseState(profile, grid).prefix(3001)
        for offset, want in [(0.3, k), (0.7, k + 1), (0.5, k + k % 2)]:
            clock = ClockModel(noise=profile, noise_grid_s=grid)
            assert clock.time_errors((k + offset) * grid).tobytes() == x[want].tobytes()

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            ClockModel().time_error(-1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [[], [0.0], [-0.0, 5.0], [3.0, -1e-300], [2.0, np.nan],
                                   [np.nan, -1.0], [np.inf], [1.0, -np.inf], [1e308, 0.0]])
    @pytest.mark.parametrize("noise", [None, NoiseProfile(components=[("white_pm", 1e-11)])])
    def test_query_times_are_checked_as_by_isfinite(self, t, noise):
        # the check takes the minimum and maximum; it accepts exactly what
        # np.all(np.isfinite(t) & (t >= 0)) accepts, an empty query included
        t = np.array(t, dtype=float)
        clock = ClockModel(noise=noise, noise_grid_s=1e308)
        if np.all(np.isfinite(t) & (t >= 0)):
            assert clock.time_errors(t).size == t.size
        else:
            with pytest.raises(ValidationError, match="query times must be finite and >= 0"):
                clock.time_errors(t)

    @pytest.mark.parametrize("values", [[0.0], [1.0, -1e308], [np.nan, 1.0], [1.0, np.nan],
                                        [np.inf, 0.0], [0.0, -np.inf], [np.nan, np.inf]])
    def test_series_values_are_checked_as_by_isfinite(self, values):
        values = np.array(values)
        if np.all(np.isfinite(values)):
            assert len(TimeErrorSeries(tau0_s=1.0, values=values)) == values.size
        else:
            with pytest.raises(ValidationError, match="series values must all be finite"):
                TimeErrorSeries(tau0_s=1.0, values=values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, grid", [(1e20, 1.0), (1e308, 1e-3), (2.0 ** 63, 1.0)])
    def test_rejects_time_past_the_int64_grid_without_a_warning(self, t, grid):
        clock = ClockModel(noise=NoiseProfile(components=[("white_pm", 1e-11)]),
                           drift_per_s=1e-15, noise_grid_s=grid)
        with pytest.raises(ValidationError, match="int64"):
            clock.time_error(t)
        with pytest.raises(ValidationError, match="int64"):
            clock.time_errors(np.array([1.0, t]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("clock, t", [
        (ClockModel(drift_per_s=1e-15), 1e200),
        (ClockModel(frac_frequency=1e300), 1e10),
        (ClockModel(frac_frequency=1e300, drift_per_s=-1e300), 1e10),
    ])
    def test_rejects_an_overflowing_polynomial_without_a_warning(self, clock, t):
        with pytest.raises(ValidationError, match="overflows"):
            clock.time_error(t)
        with pytest.raises(ValidationError, match="overflows"):
            clock.time_errors(np.array([1.0, t]))


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
    @pytest.mark.parametrize("sizes", [[1024], [1024, 2048, 4096], [2048, 1 << 16],
                                       [1 << 16]])
    def test_spectra_of_one_batch_come_from_one_one_pass_kernel(self, cold_kernel_cache,
                                                                 monkeypatch, sizes):
        # each size's spectrum is the rfft of the first taps of one kernel,
        # built at the largest size, into one block for the batch; each of
        # those prefixes is the kernel of its size as the float64 reference
        # builds it, bit for bit
        n = sizes[-1]
        taps = np.fromiter(timebase._half_integration_taps(n), dtype=float, count=n)
        assert taps.tobytes() == half_integration_kernel(n).tobytes()
        transformed, rfft = [], np.fft.rfft

        def recorded(a, *args, **kwargs):
            transformed.append(a)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        spectra = timebase._kernel_spectra(sizes)
        assert [a.size for a in transformed] == sizes
        assert all(a.base is transformed[-1].base for a in transformed)
        assert all(spectrum.base is spectra[0].base for spectrum in spectra)
        for a, s, spectrum in zip(transformed, sizes, spectra):
            h = half_integration_kernel(s)
            assert a.tobytes() == h.tobytes()
            assert spectrum.tobytes() == rfft(h, 2 * s).tobytes()

    def test_no_kernel_without_flicker(self, cold_kernel_cache, monkeypatch):
        def fail(sizes):
            raise AssertionError("kernel built for a clock without flicker noise")

        monkeypatch.setattr(timebase, "_kernel_spectra", fail)
        profile = NoiseProfile(components=[("white_pm", 1e-11), ("white_fm", 1e-12)])
        timebase._NoiseState(profile, 1.0).prefix(5000)
        assert timebase._spectra == {}

    @pytest.mark.parametrize("n", [1024, 3000, 1 << 16, 1 << 18])
    def test_shared_spectrum_matches_fftconvolve_bit_for_bit(self, n):
        h = half_integration_kernel(n)
        w = np.random.default_rng(n).standard_normal(n)
        got = timebase._half_integrate(w, *timebase._kernel_spectra([n]))
        assert got.tobytes() == fftconvolve(h, w)[:n].tobytes()

    @pytest.mark.parametrize("log2_n", range(10, 25))
    def test_fftconvolve_pads_buffer_sizes_to_twice_their_length(self, log2_n):
        # a noise buffer holds a power of two >= 1024 samples; for those
        # sizes fftconvolve's FFT length is exactly 2n, the length
        # _half_integrate transforms at
        n = 1 << log2_n
        assert next_fast_len(2 * n - 1, True) == 2 * n

    def test_each_spectrum_is_taken_once_across_states(self, cold_kernel_cache, monkeypatch):
        # the spectra are process-wide: a second state, and a second flicker
        # component, reuse what the first one took; each transform makes one
        # spectrum of size + 1 complex values
        maps = []
        on_kernel_transform(monkeypatch, maps.append)
        first = timebase._NoiseState(NoiseProfile(
            components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
            rng_seed=4), 1.0)
        for n in (1, 2000, 3000, 4000, 5000):
            first.prefix(n)
        taken = dict(timebase._spectra)
        second = timebase._NoiseState(NoiseProfile(
            components=[("flicker_fm", 1e-13)], rng_seed=5), 0.5)
        for n in (3000, 9000):
            second.prefix(n)
        assert maps == [1025, 2049, 4097, 8193, 16385]
        assert sorted(timebase._spectra) == [1024, 2048, 4096, 8192, 16384]
        assert all(timebase._spectra[s] is spectrum for s, spectrum in taken.items())

    def test_spectra_are_read_only(self):
        timebase._NoiseState(NoiseProfile(components=[("flicker_pm", 1e-12)]), 1.0).prefix(2000)
        assert not timebase._kernel_spectra([2048])[0].flags.writeable
        assert not any(spectrum.flags.writeable for spectrum in timebase._spectra.values())

    @pytest.mark.parametrize("failing", [1, 3])
    def test_a_failed_transform_leaves_only_whole_spectra(self, cold_kernel_cache,
                                                          monkeypatch, failing):
        # the transform of the first or third spectrum of a batch of four
        # sizes fails once: the cache keeps the spectra taken before it,
        # each whole, and the retried query takes the rest and gives the
        # bits of a state that never failed
        maps, rfft = [], np.fft.rfft

        def flaky(n):
            maps.append(n)
            if len(maps) == failing:
                raise MemoryError

        profile = NoiseProfile(components=ALL_KINDS, rng_seed=3)
        state, reference = timebase._NoiseState(profile, 1.0), ReferenceState(profile, 1.0)
        indices = np.array([5, 1500, 3000, 9000, 12_000])
        sizes = [1024, 2048, 4096, 16384]
        on_kernel_transform(monkeypatch, flaky)
        with pytest.raises(MemoryError):
            state.values_at(indices)
        assert state._x.size == 0
        assert sorted(timebase._spectra) == sizes[:failing - 1]
        for s, spectrum in timebase._spectra.items():
            h = half_integration_kernel(s)
            assert spectrum.tobytes() == rfft(h, 2 * s).tobytes()
        assert state.values_at(indices).tobytes() == reference.values_at(indices).tobytes()
        assert maps[failing:] == [s + 1 for s in sizes[failing - 1:]]

    def test_warm_cache_gives_the_bits_of_a_cold_one(self, monkeypatch):
        # a small state built after a large one has warmed the cache equals
        # the same state built in a fresh process, also when its spectra
        # are taken from prefixes of a longer kernel
        build = (
            "from fotsim.timebase import NoiseProfile, _NoiseState\n"
            "def build():\n"
            "    state = _NoiseState(NoiseProfile(components=[('flicker_pm', 1e-12), "
            "('random_walk_fm', 1e-16), ('flicker_fm', 1e-13)], rng_seed=9), 0.3)\n"
            "    state.prefix(1500)\n"
            "    return state.prefix(3000).tobytes()\n"
        )
        src = Path(timebase.__file__).resolve().parent.parent
        cold = subprocess.run(
            [sys.executable, "-c", build + "import sys; sys.stdout.buffer.write(build())"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
        assert len(cold) == 3000 * 8
        namespace = {}
        exec(build, namespace)
        timebase._NoiseState(NoiseProfile(
            components=[("flicker_fm", 1e-13), ("flicker_pm", 1e-12)], rng_seed=1),
            1.0).prefix(1 << 16)
        assert namespace["build"]() == cold
        monkeypatch.setattr(timebase, "_spectra", {})
        assert namespace["build"]() == cold

    def test_threads_growing_a_cold_cache_get_the_bits_of_one_thread(self, cold_kernel_cache):
        # more threads than cores take the shared spectra at different sizes
        # at once; a lost update, or a spectrum stored before it is whole,
        # would give some state a spectrum of the wrong filter
        profiles = [NoiseProfile(components=[("flicker_pm", 1e-12), ("flicker_fm", 1e-13)],
                                 rng_seed=seed) for seed in range(6)]
        stages = [(1 << (11 + seed % 3), 1 << (13 + seed % 3)) for seed in range(6)]

        def realize(state, stage):
            for n in stage:
                state.prefix(n)
            return state.prefix(stage[-1]).tobytes()

        want = [realize(ReferenceState(p, 1.0), s) for p, s in zip(profiles, stages)]
        got = [None] * len(profiles)

        def work(i):
            got[i] = realize(timebase._NoiseState(profiles[i], 1.0), stages[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(profiles))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_one_pass_synthesis_matches_one_extension(self):
        profile = NoiseProfile(
            components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
            rng_seed=21)
        one_pass = synthesize_time_error_series(profile, 5000, 1.0).values
        assert one_pass.tobytes() == ReferenceState(profile, 1.0).prefix(5000).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        components=st.lists(
            st.tuples(st.sampled_from(timebase.NOISE_TYPES),
                      st.sampled_from([1e-16, 3e-13, 1e-11, 1.0])),
            min_size=1, max_size=5),
        dt=st.sampled_from([1.0, 0.3, 0.01]),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(
            st.one_of(
                st.integers(1, 10_000).map(lambda n: ("prefix", n)),
                st.lists(st.integers(0, 10_000), min_size=1, max_size=20).map(
                    lambda ks: ("values_at", np.array(ks, dtype=np.int64)))),
            min_size=1, max_size=4),
    )
    # the staged flicker_fm case: a sum carried over from the last size
    # would differ from the whole prefix's cumsum in about half the samples
    @example(components=[("flicker_fm", 1e-13)], dt=1.0, seed=3,
             queries=[("prefix", 1), ("prefix", 5000), ("prefix", 8192)])
    @example(components=[("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)],
             dt=1.0, seed=21,
             queries=[("prefix", 1), ("prefix", 2000), ("prefix", 3000), ("prefix", 8192)])
    def test_staged_queries_match_the_whole_prefix_construction(
            self, components, dt, seed, queries):
        profile = NoiseProfile(components=components, rng_seed=seed)
        reference = ReferenceState(profile, dt)
        state = timebase._NoiseState(profile, dt)
        for method, arg in queries:
            got = getattr(state, method)(arg)
            want = getattr(reference, method)(arg)
            assert got.tobytes() == want.tobytes()
        assert state._x.tobytes() == reference.x.tobytes()


ALL_KINDS = [("white_pm", 1e-11), ("flicker_pm", 1e-12), ("white_fm", 1e-12),
             ("flicker_fm", 1e-13), ("random_walk_fm", 1e-16)]
QUERIES = [("values_at", np.array([5000, 3, 1500, 9000, 2])), ("prefix", 20_000),
           ("values_at", np.array([40_000, 1, 39_999, 70_000])), ("prefix", 70_000)]


class TestExtension:
    @pytest.mark.parametrize("failing", [1e-12, 1e-13, 1e-16])
    def test_retry_after_a_failed_extension_realizes_the_same_samples(
            self, monkeypatch, failing):
        """One class of the five-class grow from 4096 to 8192 samples runs
        out of memory once: the filter of the first flicker class (1e-12) or
        the second (1e-13), or the cumsums of random_walk_fm (1e-16), the
        last class, after the other four have added their samples to the
        grown buffer.  A failed grow only leaves the old size: the state
        keeps no generator or running sum that the failure could have moved.
        So the retried query and the later ones match a run without the
        failure."""
        armed = [True]

        def flaky(series):
            def call(kind, amplitude, dt, w, realized, *out):
                if realized == 4096 and amplitude == failing and armed:
                    armed.clear()
                    raise MemoryError
                return series(kind, amplitude, dt, w, realized, *out)
            return call

        profile = NoiseProfile(components=ALL_KINDS, rng_seed=5)
        state, reference = timebase._NoiseState(profile, 1.0), ReferenceState(profile, 1.0)
        assert state.prefix(3000).tobytes() == reference.prefix(3000).tobytes()
        for name in ("_flicker_series", "_white_series"):
            monkeypatch.setattr(timebase, name, flaky(getattr(timebase, name)))
        with pytest.raises(MemoryError):
            state.prefix(8000)
        assert not armed and state._x.size == 4096
        for n in (8000, 20_000):
            assert state.prefix(n).tobytes() == reference.prefix(n).tobytes()
        assert state._x.tobytes() == reference.x.tobytes()

    @pytest.mark.parametrize("components", [
        [("white_pm", 1e-11), ("white_fm", 1e-12), ("random_walk_fm", 1e-16)],
        [("white_pm", 1e-11), ("flicker_fm", 1e-13)],
        ALL_KINDS,
    ])
    def test_no_extension_starts_a_thread(self, monkeypatch, pin_workers, idle_helpers,
                                          components):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        pin_workers(2)
        state = timebase._NoiseState(NoiseProfile(components=components), 1.0)
        for n in (1, 3000, 5000, 20_000):
            state.prefix(n)
        assert not started


FLICKER_A = [("flicker_pm", 1e-12), ("white_pm", 1e-11), ("flicker_fm", 1e-13)]
FLICKER_B = [("flicker_pm", 2e-12), ("flicker_fm", 2e-13)]
WHITE = [("white_pm", 1e-11), ("white_fm", 1e-12)]


class TestClocksOnWorkers:
    @pytest.mark.parametrize("mixes, grids, threads", [
        ([WHITE, WHITE], (0.5, 0.5), 0),
        # one flicker clock: both clocks on the calling thread
        ([FLICKER_A, WHITE], (0.5, 0.5), 0),
        ([WHITE, FLICKER_B], (0.5, 0.5), 0),
        # one clock per worker where both have flicker, whatever size
        # their noise grows to: 32768 samples each, or 32768 and 16384
        ([FLICKER_A, FLICKER_B], (0.5, 0.5), 1),
        ([FLICKER_A, FLICKER_B], (0.5, 1.0), 1),
        # three flicker classes in one clock
        ([ALL_KINDS + [("flicker_pm", 3e-12)], FLICKER_B], (0.5, 0.5), 1),
        # three clocks, two of them with flicker: two workers
        ([FLICKER_A, FLICKER_B, WHITE], (0.5, 0.5, 0.5), 1),
    ])
    def test_one_clock_per_worker_where_both_have_flicker(
            self, monkeypatch, pin_workers, idle_helpers, mixes, grids, threads):
        started, filtered = [], collections.defaultdict(set)
        series = timebase._flicker_series

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def recorded(kind, amplitude, *args):
            filtered[amplitude in dict(FLICKER_B).values()].add(threading.current_thread())
            return series(kind, amplitude, *args)

        def clocks():
            return [ClockModel(frac_frequency=1e-10 * k, noise_grid_s=grid,
                               noise=NoiseProfile(components=mix, rng_seed=k))
                    for k, (mix, grid) in enumerate(zip(mixes, grids))]

        t = np.arange(0.0, 12_000.0, 0.7)
        pin_workers(1)
        want = [c.time_errors(t).tobytes() for c in clocks()]
        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(timebase, "_flicker_series", recorded)
        pin_workers(2)
        got = timebase.clock_time_errors(clocks(), t)
        assert [x.tobytes() for x in got] == want
        assert len(started) == threads
        # each clock filters on one thread, and two flicker clocks on two
        assert [len(ran) for ran in filtered.values()] == [1] * len(filtered)
        assert len(set().union(*filtered.values())) == min(len(filtered), 1 + threads)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_retry_after_a_clock_failed_on_two_workers(self, monkeypatch, pin_workers,
                                                       idle_helpers, failing):
        # a flicker filter of the first clock or the second, in its doubling
        # from 8192 to 16384 samples, runs out of memory once; the failure
        # reaches the caller, and the retried run gives the bits of a run
        # on one worker without it
        series, armed = timebase._flicker_series, [True]
        mixes = (FLICKER_A, FLICKER_B)

        def flaky(kind, amplitude, dt, prefix, realized, *out):
            if realized == 8192 and amplitude == mixes[failing][0][1] and armed:
                armed.clear()
                raise MemoryError
            return series(kind, amplitude, dt, prefix, realized, *out)

        def clocks():
            return [ClockModel(frac_frequency=1e-10 * k, noise_grid_s=0.5,
                               noise=NoiseProfile(components=mix, rng_seed=k))
                    for k, mix in enumerate(mixes)]

        t = np.arange(0.0, 12_000.0, 0.7)
        pin_workers(1)
        want = [c.time_errors(t).tobytes() for c in clocks()]
        pin_workers(2)
        run = clocks()
        monkeypatch.setattr(timebase, "_flicker_series", flaky)
        with pytest.raises(MemoryError):
            timebase.clock_time_errors(run, t)
        assert not armed
        assert [x.tobytes() for x in timebase.clock_time_errors(run, t)] == want

    def test_two_clocks_take_each_spectrum_once(self, cold_kernel_cache, monkeypatch,
                                                pin_workers, idle_helpers):
        # the first clock to take a spectrum waits a little, in its
        # transform, for the other to take it too, which only a lock around
        # the cache prevents
        arrived, cond = collections.Counter(), threading.Condition()

        def gated(n):
            with cond:
                arrived[n] += 1
                cond.notify_all()
                cond.wait_for(lambda: arrived[n] > 1, timeout=0.05)

        on_kernel_transform(monkeypatch, gated)
        t = np.arange(8192.0)
        runs = []
        for count in (1, 2):
            pin_workers(count)
            arrived.clear()
            monkeypatch.setattr(timebase, "_spectra", {})
            clocks = [ClockModel(noise=NoiseProfile(components=ALL_KINDS, rng_seed=seed))
                      for seed in (1, 2)]
            runs.append([x.tobytes() for x in timebase.clock_time_errors(clocks, t / 100)])
            # 1024 to 8192 samples, each taken once
            assert arrived == {1025: 1, 2049: 1, 4097: 1, 8193: 1}
            assert sorted(timebase._spectra) == [1024, 2048, 4096, 8192]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_a_failing_clock_raises_what_the_loop_raises(self, pin_workers, order):
        pin_workers(2)
        noise = NoiseProfile(components=FLICKER_B)
        clocks = [ClockModel(drift_per_s=1e308, noise=noise),
                  ClockModel(noise=noise, noise_grid_s=1e-300)]
        errors = ["overflows", "within int64"]
        with pytest.raises(ValidationError, match=errors[order[0]]):
            timebase.clock_time_errors([clocks[i] for i in order], np.arange(2000.0))


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
