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

A clock's noise is realized lazily, by doublings of its buffer, and its
flicker filters (two FFTs over the whole white prefix at each size) are most
of the cost.  With two or more flicker classes, an extension filters them on
two workers (``workers.share``); the samples equal one worker's bit for bit.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .workers import share

NOISE_TYPES = ("white_pm", "flicker_pm", "white_fm", "flicker_fm", "random_walk_fm")
_FLICKER_TYPES = ("flicker_pm", "flicker_fm")

_MIN_CHUNK = 1024


def _buffer_size(n: int) -> int:
    """The samples a noise buffer holds to reach n: a power of two, at least
    _MIN_CHUNK."""
    return max(_MIN_CHUNK, 1 << (n - 1).bit_length())


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


def _mapped(n: int, dtype=float) -> np.ndarray:
    """n zeros of dtype in an anonymous memory map, unmapped once no array
    uses it.  glibc serves arrays below its mmap threshold, which it raises
    up to 32 MB as large blocks are freed, from the heap, where a freed
    buffer stays resident; the noise buffers grow by doublings and would
    leave each last size there."""
    return np.frombuffer(mmap.mmap(-1, n * np.dtype(dtype).itemsize), dtype)


# The process-wide half-integration kernel, shared by every clock.  It only
# grows, and read-only: the first n taps of a longer kernel are the n-tap one,
# so which clock grew it first changes no bit.  The lock keeps a clock in one
# thread from replacing it with a shorter one grown in parallel.
_kernel = np.ones(1)
_kernel.flags.writeable = False
_kernel_lock = threading.Lock()


def _half_integration_kernel(n: int) -> np.ndarray:
    """The first n taps of the process-wide kernel (a read-only view)."""
    global _kernel
    with _kernel_lock:
        if _kernel.size < n:
            _kernel = _extend_half_integration_kernel(_kernel, n)
            _kernel.flags.writeable = False
        return _kernel[:n]


@functools.lru_cache(maxsize=None)
def _kernel_spectrum(n: int) -> np.ndarray:
    """The real FFT of the n-tap kernel, as fftconvolve takes it for an
    n-sample series; taken once per size in the process, and read-only."""
    spectrum = np.fft.rfft(_half_integration_kernel(n), 2 * n, out=_mapped(n + 1, complex))
    spectrum.flags.writeable = False
    return spectrum


def _half_integrate(w: np.ndarray, spectrum=None, out=None) -> np.ndarray:
    """fftconvolve(kernel, w)[:n] bit for bit, for the n-tap kernel: n is a
    power of two >= _MIN_CHUNK, which fftconvolve also pads to 2n, and
    numpy's rfft/irfft are the same pocketfft transforms.  spectrum (n + 1
    complex values) and out (2n floats) take the two transforms when given;
    the returned samples are then the first n of out."""
    n = w.size
    spectrum = np.fft.rfft(w, 2 * n, out=spectrum)
    # kernel first, as fftconvolve multiplies: numpy's complex product
    # rounds by operand order
    np.multiply(_kernel_spectrum(n), spectrum, out=spectrum)
    return np.fft.irfft(spectrum, 2 * n, out=out)[:n]


def _cumsum_from(start: tuple, v: np.ndarray) -> np.ndarray:
    """np.cumsum of v in place, continued from the running sum in start
    (empty at the start of the series).  np.cumsum adds in sequence, so this
    is the tail of the whole series' cumsum bit for bit."""
    if start:
        v[0] += start[0]
    return np.cumsum(v, out=v)


def _white_series(kind: str, amplitude: float, dt: float, w: np.ndarray, carry: tuple) -> tuple:
    """The next samples of a class without flicker, in place of its next
    whites w, and the last values of the cumsums it takes, which it carries
    into its following extension (() at the start)."""
    if kind == "white_fm":
        carry = (_cumsum_from(carry, w)[-1],)
        amplitude *= math.sqrt(dt)
    elif kind == "random_walk_fm":
        last = _cumsum_from(carry[:1], w)[-1]
        carry = (last, _cumsum_from(carry[1:], w)[-1])
        amplitude *= dt ** 1.5
    w *= amplitude
    return carry


def _flicker_series(kind: str, amplitude: float, dt: float, prefix: np.ndarray,
                    realized: int, ws: "_Workspace") -> np.ndarray:
    """The samples of a flicker class past `realized`, from its whole white
    prefix, as a view of ws.filtered.  The filter is applied anew to the
    whole prefix at each buffer size."""
    y = _half_integrate(prefix, ws.spectrum, ws.filtered)
    if kind == "flicker_fm":
        # flicker_fm sums the whole filtered prefix: the filter at this size
        # rounds the early samples differently from the last size, so a
        # carried sum would not give the same bits
        np.cumsum(y, out=y)
        amplitude *= dt
    new = y[realized:]
    new *= amplitude
    return new


class _Workspace:
    """One worker's memory for an extension to `size` samples, `new` of them
    past the realized end, made in the calling thread and freed when the
    extension ends.

    With flicker in the profile: the spectrum (size + 1 complex values) and
    the inverse transform (2 * size floats) of a flicker filter, 4 * size + 2
    floats in all.  The filtered samples are the first `size` of
    ``filtered``; the rest, free once the transform is read, holds the
    whites of a class without flicker (``whites``).  These are an anonymous
    map: a helper thread that took them from the heap kept them resident in
    its own malloc arena, out of the calling thread's reach.  Without
    flicker no helper runs, and the workspace is only the `new` whites,
    from the heap: a map would only add system calls and page faults.
    """

    def __init__(self, size: int, new: int, filters: bool):
        words = _mapped(4 * size + 2) if filters else np.empty(new)
        if filters:
            self.spectrum = words[:2 * size + 2].view(complex)
            self.filtered = words[2 * size + 2:]
            words = self.filtered[size:]
        self.whites = words[:new]
        self.held = None  # the component whose samples filtered holds


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


# the shortest series with a default tau: tau0 needs n * tau0 / 4 >= tau0
MIN_SAMPLES = 4


@dataclass
class TimeErrorSeries:
    """Uniformly sampled time-error values x_i at interval tau0."""

    tau0_s: float
    values: np.ndarray

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
    the profile seed), in pieces as the buffer grows.  An extension computes
    only the samples past the realized end: the filters are causal, and
    samples already handed out are kept verbatim, which pins every realized
    value for the lifetime of the instance.  The flicker components keep
    their white prefix and filter it anew with the process-wide kernel at
    each size; the others keep only their running sums.

    An extension hands its flicker classes out through ``workers.share``,
    so two of them are filtered at once, on the calling thread and a helper
    thread.  A worker draws a class's new whites into its prefix and
    filters them in its own _Workspace.  The classes' new samples are added
    into the tail in component order, the order that fixes their bits: a
    flicker class's once filtered, and each other class's drawn and summed,
    under share's lock, by the worker that finds the classes before it in.
    So the bits do not depend on the worker count, and a profile with fewer
    than two flicker classes never starts a thread.  The realized samples,
    the white prefixes and the workspaces are anonymous maps (_mapped).
    """

    def __init__(self, profile: NoiseProfile, dt: float):
        self.profile = profile
        self.dt = float(dt)
        children = np.random.SeedSequence(profile.rng_seed).spawn(len(profile.components))
        self._rngs = [np.random.default_rng(s) for s in children]
        self._carries = [
            np.empty(0) if kind in _FLICKER_TYPES else () for kind, _ in profile.components
        ]
        self._x = np.empty(0)

    def _extend(self, n: int) -> None:
        size = _buffer_size(n)
        realized = self._x.size
        components = self.profile.components
        flicker = [i for i, (kind, _) in enumerate(components) if kind in _FLICKER_TYPES]
        # the grown buffers, holding what is realized; until they are filled
        # the state keeps views of the realized part only, so an extension
        # that raises leaves a state of the old size.  The tail, which sums
        # the new samples, starts as the map's zeros
        x = _mapped(size)
        x[:realized] = self._x
        self._x = x[:realized]
        tail = x[realized:]
        prefixes = {}
        for i in flicker:
            prefixes[i] = _mapped(size)
            prefixes[i][:realized] = self._carries[i]
            self._carries[i] = prefixes[i][:realized]
        if flicker:
            _kernel_spectrum(size)  # here, so that no two workers take it at once
        todo = iter(flicker)
        parts = [None] * len(components)
        added = 0
        spaces = []

        def space():
            spaces.append(_Workspace(size, size - realized, bool(flicker)))
            return spaces[-1]

        def take(ws):
            i = next(todo, None)
            if i is not None and ws.held is not None and parts[ws.held] is not None:
                # ws is about to filter again before its samples are added
                parts[ws.held] = parts[ws.held].copy()
            return i

        def work(i, ws):
            kind, amp = components[i]
            self._rngs[i].standard_normal(out=prefixes[i][realized:])
            return _flicker_series(kind, amp, self.dt, prefixes[i], realized, ws), ws

        def add(ws):
            # each component's samples into the tail in component order, the
            # order that fixes the bits of the sum: a flicker class's once a
            # worker has filtered them, any other's drawn here into ws
            nonlocal added
            for i in range(added, len(components)):
                kind, amp = components[i]
                if kind in _FLICKER_TYPES:
                    if parts[i] is None:
                        return
                    part, parts[i] = parts[i], None
                else:
                    part = self._rngs[i].standard_normal(out=ws.whites)
                    self._carries[i] = _white_series(kind, amp, self.dt, part, self._carries[i])
                np.add(tail, part, out=tail)
                added = i + 1

        def done(i, result):
            parts[i], ws = result
            ws.held = i
            add(ws)

        share(take, work, done, space, max(1, len(flicker)))
        add(spaces[0])
        self._x = x
        for i, prefix in prefixes.items():
            self._carries[i] = prefix

    def extensions(self, indices: np.ndarray) -> list:
        """The lengths values_at(indices) extends the buffer to, in order:
        at each, the first query past the realized part, which is also the
        largest query up to it."""
        lengths, size = [], self._x.size
        while indices.size:
            first = int(np.argmax(indices >= size))
            if indices[first] < size:
                break
            lengths.append(int(indices[first]) + 1)
            size = _buffer_size(lengths[-1])
        return lengths

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Samples at each index, bit for bit what one call per index returns
        in this order: the buffer grows through the same sequence of
        extensions, so the flicker filters see the same FFT sizes."""
        for n in self.extensions(indices):
            self._extend(n)
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
        self.pulse_period_s = float(pulse_period_s)
        self.noise_grid_s = float(grid)
        self._state = (
            _NoiseState(noise, self.noise_grid_s) if noise and noise.components else None
        )

    def time_error(self, t: float) -> float:
        """Time error x(t) in seconds at true time t >= 0."""
        return float(self.time_errors(np.array([t], dtype=float))[0])

    def time_errors(self, t: np.ndarray) -> np.ndarray:
        """Time errors at each true time of t, bit for bit what time_error
        returns element by element when queried in this order."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0)):
            raise ValidationError("query times must be finite and >= 0")
        if self._state is not None:
            k = self._grid_index(t)
            lengths = self._state.extensions(k)
        x = self._deterministic(t)
        if not np.all(np.isfinite(x)):
            raise ValidationError("clock time error overflows at these query times")
        if self._state is None:
            return x
        if lengths:
            # the noise grows with neither x nor the grid index held, two
            # columns less at the peak; both are taken again after it
            del x, k
            for n in lengths:
                self._state._extend(n)
            k, x = self._grid_index(t), self._deterministic(t)
        x += self._state.values_at(k)
        return x

    def _grid_index(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            k = t / self.noise_grid_s
        np.rint(k, out=k)
        if not np.all(k < 2.0 ** 63):
            raise ValidationError("query times must index the noise grid within int64")
        return k.astype(np.int64)

    def _deterministic(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.initial_offset_s + self.frac_frequency * t + 0.5 * self.drift_per_s * t * t


def synthesize_time_error_series(
    profile: NoiseProfile, n: int, tau0_s: float
) -> TimeErrorSeries:
    """Generate a length-n time-error series sampled at tau0_s.

    Bit-reproducible for identical (profile, n, tau0_s).  An empty profile
    yields the all-zero series.
    """
    if n < MIN_SAMPLES:
        raise ValidationError(f"n must be >= {MIN_SAMPLES} (minimum for one stability point)")
    if not tau0_s > 0:
        raise ValidationError("tau0_s must be > 0")
    if profile.components:
        values = _NoiseState(profile, tau0_s).prefix(n)
    else:
        values = np.zeros(n)
    return TimeErrorSeries(tau0_s=tau0_s, values=values)
