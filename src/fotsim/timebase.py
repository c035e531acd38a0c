"""Site clock models: deterministic time-error evolution plus power-law noise.

A site clock is described by its time error x(t), the amount in seconds by
which the local reading leads true time at true time t.  The deterministic
part is x0 + y0*t + 0.5*d*t**2; on top of that a configurable mix of the
five standard power-law noise classes is sampled on a fixed internal grid.
A clock with x > 0 is fast and emits its pulses early in true time.

Noise amplitude conventions, with dt the sampling interval and w unit white
Gaussian noise:

    white_pm        x_i = amp * w_i                       amp: s (per-sample jitter)
    flicker_pm      x_i = amp * I12(w)_i                  amp: s (per-sample scale)
    white_fm        x_i = amp * sqrt(dt) * cumsum(w)_i    amp: s/sqrt(s) (diffusion)
    flicker_fm      x_i = amp * dt * cumsum(I12(w))_i     amp: 1/sqrt(sample) frequency scale
    random_walk_fm  x_i = amp * dt**1.5 * cumsum2(w)_i    amp: 1/(s*sqrt(s)) frequency diffusion

I12 is the half-order fractional integration filter (1 - z**-1)**(-1/2),
realized by convolution with its binomial impulse response.  The white_pm,
white_fm and random_walk_fm scalings are invariant under resampling; the two
flicker scalings are tied to the grid they are generated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from .errors import ValidationError

NOISE_TYPES = ("white_pm", "flicker_pm", "white_fm", "flicker_fm", "random_walk_fm")
_FLICKER_TYPES = ("flicker_pm", "flicker_fm")

_MIN_CHUNK = 1024


def _extend_half_integration_kernel(h: np.ndarray, n: int) -> np.ndarray:
    """The impulse response of (1 - z^-1)^(-1/2) to n taps, grown from its
    first taps h (at least h[0] = 1) by h[i] = h[i-1] * (i - 1/2) / i.

    The recurrence runs on Python floats: per tap the same two IEEE double
    operations, in the same order, as on float64 scalars, so a kernel grown
    in steps equals one built in one pass bit for bit.
    """
    m = h.size

    def tail(v):
        for i in range(m, n):
            v = v * (i - 0.5) / i
            yield v

    return np.concatenate([h, np.fromiter(tail(float(h[-1])), dtype=float, count=n - m)])


def _fft_length(n: int) -> int:
    """The FFT length fftconvolve pads a full convolution of two n-sample
    real series to."""
    return sp_fft.next_fast_len(2 * n - 1, True)


def _kernel_spectrum(kernel: np.ndarray) -> np.ndarray:
    """The real FFT of a kernel, as fftconvolve takes it for a series of
    the kernel's length."""
    return sp_fft.rfftn(kernel, [_fft_length(kernel.size)], axes=[0])


def _half_integrate(w: np.ndarray, kernel_spectrum: np.ndarray) -> np.ndarray:
    """fftconvolve(kernel, w)[:n] for an n-tap kernel given by its spectrum:
    the same rfftn/irfftn calls at the same length, so the same bits."""
    n = w.size
    shape = [_fft_length(n)]
    white = sp_fft.rfftn(w, shape, axes=[0])
    # kernel first, as fftconvolve multiplies: numpy's complex product
    # rounds by operand order, and `a * <temporary>` may run as
    # `<temporary> * a` in the temporary's buffer
    return sp_fft.irfftn(np.multiply(kernel_spectrum, white), shape, axes=[0])[:n]


def _component_series(
    kind: str, amplitude: float, w: np.ndarray, dt: float,
    kernel_spectrum: np.ndarray | None,
) -> np.ndarray:
    if kind == "white_pm":
        return amplitude * w
    if kind == "flicker_pm":
        return amplitude * _half_integrate(w, kernel_spectrum)
    if kind == "white_fm":
        return amplitude * math.sqrt(dt) * np.cumsum(w)
    if kind == "flicker_fm":
        return amplitude * dt * np.cumsum(_half_integrate(w, kernel_spectrum))
    if kind == "random_walk_fm":
        return amplitude * dt ** 1.5 * np.cumsum(np.cumsum(w))
    raise ValidationError(f"unknown noise type {kind!r}; expected one of {NOISE_TYPES}")


@dataclass(frozen=True)
class NoiseProfile:
    """Power-law noise mix for one clock.

    components: sequence of (noise_type, amplitude) pairs; amplitudes >= 0.
    An empty component list describes a noiseless ideal clock.
    """

    components: tuple = ()
    rng_seed: int = 0

    def __post_init__(self):
        comps = tuple((str(kind), float(amp)) for kind, amp in self.components)
        for kind, amp in comps:
            if kind not in NOISE_TYPES:
                raise ValidationError(
                    f"unknown noise type {kind!r}; expected one of {NOISE_TYPES}"
                )
            if amp < 0 or not math.isfinite(amp):
                raise ValidationError(f"noise amplitude for {kind} must be finite and >= 0")
        object.__setattr__(self, "components", comps)


@dataclass
class TimeErrorSeries:
    """Uniformly sampled time-error values x_i at interval tau0."""

    tau0_s: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValidationError("series values must be a non-empty 1-d array")
        if not 0 < self.tau0_s < math.inf:
            raise ValidationError("tau0_s must be finite and > 0")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("series values must all be finite")

    def __len__(self):
        return self.values.size


class _NoiseState:
    """Lazily extended noise realization on a fixed grid.

    Each component draws white noise from its own child stream (split off
    the profile seed).  The colored filters are causal, so an extension is
    computed over the full white prefix; samples already handed out are
    kept verbatim rather than recomputed, which pins every realized value
    for the lifetime of the instance.  A state with flicker components
    owns one half-integration kernel, grown with the buffer; its spectrum
    is taken once per extension and shared by those components.
    """

    def __init__(self, profile: NoiseProfile, dt: float):
        self.profile = profile
        self.dt = float(dt)
        children = np.random.SeedSequence(profile.rng_seed).spawn(len(profile.components))
        self._rngs = [np.random.default_rng(s) for s in children]
        self._whites = [np.empty(0) for _ in profile.components]
        self._x = np.empty(0)
        flicker = any(kind in _FLICKER_TYPES for kind, _ in profile.components)
        self._kernel = np.ones(1) if flicker else None

    def _extend(self, n: int) -> None:
        size = max(_MIN_CHUNK, 1 << (n - 1).bit_length())
        total = np.zeros(size)
        spectrum = None
        if self._kernel is not None:
            self._kernel = _extend_half_integration_kernel(self._kernel, size)
            spectrum = _kernel_spectrum(self._kernel)
        for i, (kind, amp) in enumerate(self.profile.components):
            w = self._whites[i]
            if w.size < size:
                extra = self._rngs[i].standard_normal(size - w.size)
                w = np.concatenate([w, extra])
                self._whites[i] = w
            total += _component_series(kind, amp, w[:size], self.dt, spectrum)
        realized = self._x.size
        self._x = np.concatenate([self._x, total[realized:]])

    def value_at(self, index: int) -> float:
        if index >= self._x.size:
            self._extend(index + 1)
        return float(self._x[index])

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Samples at each index, bit for bit what value_at returns when
        queried in this order: the buffer grows through the same sequence of
        extensions, so the flicker filters see the same FFT sizes."""
        if indices.size:
            reach = np.maximum.accumulate(indices)
            while reach[-1] >= self._x.size:
                # the first query past the realized part triggers the next extension
                first = int(np.searchsorted(reach, self._x.size))
                self._extend(int(reach[first]) + 1)
        return self._x[indices]

    def prefix(self, n: int) -> np.ndarray:
        if n > self._x.size:
            self._extend(n)
        return self._x[:n].copy()


class ClockModel:
    """A site clock: deterministic offset/frequency/drift plus noise.

    The noise realization is pinned by the profile seed at construction, so
    repeated queries at the same instant return the same value.  Instances
    are single-threaded; parallel Monte-Carlo runs should use independent
    instances (one per seed).
    """

    def __init__(
        self,
        initial_offset_s: float = 0.0,
        frac_frequency: float = 0.0,
        drift_per_s: float = 0.0,
        noise: NoiseProfile | None = None,
        freq_ref_shared: bool = False,
        pulse_period_s: float = 0.010,
        noise_grid_s: float | None = None,
    ):
        if not pulse_period_s > 0:
            raise ValidationError("pulse_period_s must be > 0")
        grid = pulse_period_s if noise_grid_s is None else noise_grid_s
        if not grid > 0:
            raise ValidationError("noise_grid_s must be > 0")
        self.initial_offset_s = float(initial_offset_s)
        self.frac_frequency = float(frac_frequency)
        self.drift_per_s = float(drift_per_s)
        self.noise = noise
        self.freq_ref_shared = bool(freq_ref_shared)
        self.pulse_period_s = float(pulse_period_s)
        self.noise_grid_s = float(grid)
        self._state = (
            _NoiseState(noise, self.noise_grid_s) if noise and noise.components else None
        )

    def time_error(self, t: float) -> float:
        """Time error x(t) in seconds at true time t >= 0."""
        if not (math.isfinite(t) and t >= 0):
            raise ValidationError(f"query time must be finite and >= 0, got {t}")
        x = self.initial_offset_s + self.frac_frequency * t + 0.5 * self.drift_per_s * t * t
        if self._state is not None:
            x += self._state.value_at(int(round(t / self.noise_grid_s)))
        return x

    def time_errors(self, t: np.ndarray) -> np.ndarray:
        """Time errors at each true time of t, bit for bit what time_error
        returns element by element when queried in this order."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValidationError("query times must be finite and >= 0")
        x = self.initial_offset_s + self.frac_frequency * t + 0.5 * self.drift_per_s * t * t
        if self._state is not None:
            x = x + self._state.values_at(np.rint(t / self.noise_grid_s).astype(np.int64))
        return x


def synthesize_time_error_series(
    profile: NoiseProfile, n: int, tau0_s: float
) -> TimeErrorSeries:
    """Generate a length-n time-error series sampled at tau0_s.

    Bit-reproducible for identical (profile, n, tau0_s).  An empty profile
    yields the all-zero series.
    """
    if n < 4:
        raise ValidationError("n must be >= 4 (minimum for one stability point)")
    if not tau0_s > 0:
        raise ValidationError("tau0_s must be > 0")
    if profile.components:
        values = _NoiseState(profile, tau0_s).prefix(n)
    else:
        values = np.zeros(n)
    meta = {
        "rng_seed": profile.rng_seed,
        "components": list(profile.components),
        "n": n,
        "tau0_s": tau0_s,
    }
    return TimeErrorSeries(tau0_s=tau0_s, values=values, meta=meta)
