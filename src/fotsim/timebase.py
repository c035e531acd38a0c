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

Each class redraws its whites for the whole buffer from its own seed, so a
class without flicker is a pure function of its seed and its buffer size.
A flicker sample keeps the rounding of the filter size it was first
realized at, and so depends on the sizes the queries grew the buffer
through; a run queries its clocks the same way every time, so its tree is
still a pure function of (scenario, seed).  A query
grows the buffer once, through the doublings it reaches, and filters each
flicker class at each of those sizes (two FFTs); these filters are most of
the cost.  The filters of every clock take the kernel's spectrum at each
size from one process-wide cache, behind one lock (_kernel_spectra); the
kernel itself is built only to take spectra, and not kept.
clock_time_errors puts a run's clocks on workers (``workers.share``), one
clock per worker, where two or more have a flicker class.  The samples do
not depend on the worker count.
"""

from __future__ import annotations

import math
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


# The real FFT of the half-integration kernel at each buffer size taken so
# far in the process, read-only and shared by every clock.  The lock keeps
# two clocks from taking one size at once; a spectrum is stored whole.
_spectra = {}
_spectra_lock = threading.Lock()


def _half_integration_taps(n: int):
    """The n taps h[0] = 1, h[i] = h[i-1] * (i - 1/2) / i, in one pass on
    Python floats: per tap the same two IEEE double operations, in the same
    order, as on float64 scalars."""
    v = 1.0
    yield v
    for i in range(1, n):
        v = v * (i - 0.5) / i
        yield v


def _kernel_spectra(sizes: list) -> list:
    """The kernel spectrum of each of sizes: the real FFT, as fftconvolve
    takes it for an s-sample series, of the s-tap impulse response of
    (1 - z^-1)^(-1/2) (_half_integration_taps).

    The sizes not cached yet are transformed from prefixes of one kernel,
    built at the largest of them and dropped after: the first s taps of a
    longer kernel are the s-tap one, so which clock took a size first, and
    in which batch, changes no bit.
    """
    with _spectra_lock:
        missing = sorted(set(sizes) - _spectra.keys())
        if missing:
            h = np.fromiter(_half_integration_taps(missing[-1]), dtype=float,
                            count=missing[-1])
            # the batch's spectra, size + 1 values each, in one heap block:
            # one allocation per size read more peak RSS on clocks_flicker
            block, start = np.empty(sum(s + 1 for s in missing), complex), 0
            for s in missing:
                spectrum = np.fft.rfft(h[:s], 2 * s, out=block[start:start + s + 1])
                spectrum.flags.writeable = False
                _spectra[s] = spectrum
                start += s + 1
        return [_spectra[s] for s in sizes]


def _half_integrate(w: np.ndarray, kernel: np.ndarray, spectrum=None, out=None) -> np.ndarray:
    """fftconvolve(h, w)[:n] bit for bit, for the n-tap kernel h whose
    spectrum is kernel (_kernel_spectra): n is a power of two >= _MIN_CHUNK,
    which fftconvolve also pads to 2n, and numpy's rfft/irfft are the same
    pocketfft transforms.  spectrum (n + 1 complex values) and out (2n
    floats) take the two transforms when given; the returned samples are
    then the first n of out."""
    n = w.size
    spectrum = np.fft.rfft(w, 2 * n, out=spectrum)
    # kernel first, as fftconvolve multiplies: numpy's complex product
    # rounds by operand order
    np.multiply(kernel, spectrum, out=spectrum)
    return np.fft.irfft(spectrum, 2 * n, out=out)[:n]


def _white_series(kind: str, amplitude: float, dt: float, w: np.ndarray,
                  realized: int) -> np.ndarray:
    """The samples of a class without flicker past `realized`, from its
    whites w for the whole buffer, as a view of w."""
    if kind == "white_fm":
        np.cumsum(w, out=w)
        amplitude *= math.sqrt(dt)
    elif kind == "random_walk_fm":
        np.cumsum(np.cumsum(w, out=w), out=w)
        amplitude *= dt ** 1.5
    new = w[realized:]
    new *= amplitude
    return new


def _flicker_series(kind: str, amplitude: float, dt: float, w: np.ndarray, realized: int,
                    kernel: np.ndarray, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The samples of a flicker class past `realized`, from its whites w for
    the whole buffer, as a view of out; kernel is the kernel spectrum of w's
    size, spectrum and out take the filter's transforms (see
    _half_integrate), and w may be out's first half."""
    y = _half_integrate(w, kernel, spectrum, out)
    if kind == "flicker_fm":
        np.cumsum(y, out=y)
        amplitude *= dt
    new = y[realized:]
    new *= amplitude
    return new


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


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)) without a temporary of a's length: a NaN makes
    the minimum NaN, and an infinity makes the minimum or the maximum
    infinite."""
    return a.size == 0 or bool(np.isfinite(a.min()) & np.isfinite(a.max()))


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
        if not _all_finite(self.values):
            raise ValidationError("series values must all be finite")

    def __len__(self):
        return self.values.size


class _NoiseState:
    """Lazily grown noise realization on a fixed grid, a pure function of the
    profile seed and the sizes the buffer grew through.

    Each component keeps only its child seed (split off the profile seed).
    A grow redraws each class's whites for the whole buffer from its seed:
    a generator gives the same normals in one call as in pieces, and
    np.cumsum adds in sequence, so a whole-buffer cumsum continues the last
    one bit for bit.  A flicker class is filtered at each buffer size the
    grow passes.  Only samples past the realized end are added: samples
    handed out are kept verbatim for the lifetime of the instance.
    """

    def __init__(self, profile: NoiseProfile, dt: float):
        self.profile = profile
        self.dt = float(dt)
        self._seeds = np.random.SeedSequence(profile.rng_seed).spawn(len(profile.components))
        self._x = np.empty(0)

    def _grow(self, lengths: list) -> None:
        """Grow the buffer through each of lengths (extensions()) in one
        buffer and one workspace, as one query per length would."""
        if not lengths:
            return
        sizes = [_buffer_size(n) for n in lengths]
        size, realized = sizes[-1], self._x.size
        # until the grown buffer is filled the state keeps a view of its
        # realized part, so a grow that raises leaves the old size
        x = np.zeros(size)
        x[:realized] = self._x
        self._x = x[:realized]
        # with flicker, the spectrum (size + 1 complex values) and inverse
        # transform (2 * size floats) of a filter, whites in the transform's
        # first half; without, the whites alone
        if any(kind in _FLICKER_TYPES for kind, _ in self.profile.components):
            kernels = _kernel_spectra(sizes)
            words = np.empty(4 * size + 2)
            spectrum, work = words[:2 * size + 2].view(complex), words[2 * size + 2:]
        else:
            work = np.empty(size)
        # each component's new samples in component order, which fixes the
        # bits of each sample's sum
        for seed, (kind, amp) in zip(self._seeds, self.profile.components):
            flicker = kind in _FLICKER_TYPES
            steps = (zip([realized] + sizes, sizes, kernels) if flicker
                     else [(realized, size, None)])
            for start, end, kernel in steps:
                w = np.random.default_rng(seed).standard_normal(out=work[:end])
                if flicker:
                    part = _flicker_series(kind, amp, self.dt, w, start, kernel,
                                           spectrum[:end + 1], work[:2 * end])
                else:
                    part = _white_series(kind, amp, self.dt, w, start)
                np.add(x[start:end], part, out=x[start:end])
        self._x = x

    def extensions(self, indices: np.ndarray) -> list:
        """The lengths values_at(indices) grows the buffer to, in order: at
        each, the first query past the realized part, which is also the
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
        in this order: the buffer passes the same sizes."""
        self._grow(self.extensions(indices))
        return self._x[indices]

    def prefix(self, n: int) -> np.ndarray:
        if n > self._x.size:
            self._grow([n])
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
        if t.size and not (t.min() >= 0 and t.max() < math.inf):
            raise ValidationError("query times must be finite and >= 0")
        if self._state is not None:
            k = self._grid_index(t)
            lengths = self._state.extensions(k)
        x = self._deterministic(t)
        if not _all_finite(x):
            raise ValidationError("clock time error overflows at these query times")
        if self._state is None:
            return x
        if lengths:
            # the noise grows with neither x nor the grid index held, two
            # columns less at the peak; both are taken again after it
            del x, k
            self._state._grow(lengths)
            k, x = self._grid_index(t), self._deterministic(t)
        x += self._state.values_at(k)
        return x

    def _grid_index(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            k = t / self.noise_grid_s
        np.rint(k, out=k)
        if k.size and not k.max() < 2.0 ** 63:
            raise ValidationError("query times must index the noise grid within int64")
        return k.astype(np.int64)

    def _deterministic(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.initial_offset_s + self.frac_frequency * t + 0.5 * self.drift_per_s * t * t


def clock_time_errors(clocks, t: np.ndarray) -> list:
    """[c.time_errors(t) for c in clocks], one clock per worker
    (``workers.share``) on at most as many workers as clocks with a flicker
    class: white classes alone are cheap to synthesize, so a run without
    flicker starts no thread.  A failing clock raises what the loop would
    raise first."""
    todo, out = iter(enumerate(clocks)), [None] * len(clocks)

    def done(item, x):
        out[item[0]] = x

    flicker = sum(any(kind in _FLICKER_TYPES for kind, _ in c.noise.components)
                  for c in clocks if c.noise)
    share(lambda ws: next(todo, None), lambda item, ws: item[1].time_errors(t), done,
          lambda: None, max(1, flicker))
    return out


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
