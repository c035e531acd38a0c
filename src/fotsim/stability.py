"""Time-deviation statistics for uniformly sampled time-error series.

The workhorse is the overlapping time deviation (TDEV).  For x_1..x_N sampled
at tau0 and tau = n*tau0:

    TDEV^2(tau) = 1 / (6 n^2 (N - 3n + 1)) *
                  sum_{j=1}^{N-3n+1} [ sum_{i=j}^{j+n-1} (x_{i+2n} - 2 x_{i+n} + x_i) ]^2

Second differences annihilate constant offsets and linear drift, so TDEV
responds only to the stochastic content of the series.  A brute-force
evaluator of the same defining sum is provided as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .timebase import MIN_SAMPLES, TimeErrorSeries  # noqa: F401 (MIN_SAMPLES re-exported)
from .workers import share


@dataclass
class StabilityCurve:
    """Stability statistic values over increasing averaging times."""

    taus: np.ndarray
    values: np.ndarray
    n_samples: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.n_samples = np.asarray(self.n_samples, dtype=int)
        if not (self.taus.size == self.values.size == self.n_samples.size):
            raise ValidationError("curve arrays must have equal length")
        if not np.all(np.isfinite(self.taus) & (self.taus > 0)) or np.any(np.diff(self.taus) <= 0):
            raise ValidationError("taus must be finite, > 0 and strictly increasing")
        if not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise ValidationError("stability values must be finite and >= 0")
        if np.any(self.n_samples < 1):
            raise ValidationError("n_samples must be >= 1")

    def value_at(self, tau: float) -> float:
        idx = np.argmin(np.abs(self.taus - tau))
        if not math.isclose(self.taus[idx], tau, rel_tol=1e-9):
            raise ValidationError(f"tau {tau} not on this curve's grid")
        return float(self.values[idx])


def default_taus(tau0_s: float, n: int) -> list[float]:
    """1-2-5 grid of averaging times from tau0 up to n*tau0/4."""
    taus = []
    limit = n * tau0_s / 4.0
    decade = 1
    while True:
        for m in (1, 2, 5):
            tau = m * decade * tau0_s
            # limit overflows to inf when n * tau0 does; tau then ends the grid
            if tau > limit or tau == math.inf:
                return taus
            taus.append(tau)
        decade *= 10


def _tau_to_n(tau: float, tau0: float, n_points: int, windows: int = 3) -> int:
    # a statistic over `windows` windows of n samples (TDEV 3, ADEV 2)
    ratio = tau / tau0
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n < 1 or not math.isclose(n * tau0, tau, rel_tol=1e-9, abs_tol=1e-12 * tau0):
        raise ValidationError(f"tau {tau} is not a positive multiple of tau0 {tau0}")
    if n_points < windows * n + 1:
        raise ValidationError(
            f"series of length {n_points} is too short for tau {tau} (need >= {windows * n + 1})"
        )
    return n


# values per block of _window_sums: a block's second differences stay in L2
_BLOCK = 1 << 15


def _window_sums(x: np.ndarray, n: int, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sums of n consecutive second differences, all N-3n+1 overlapping windows;
    # c (N+1 values) and b (_BLOCK values) are work buffers, the result is
    # c[:m].  The second differences are taken one block at a time in b and
    # summed on into c: a cumsum is a sequential sum, so adding the running
    # sum to a block's first cell gives the bits of one global cumsum (not to
    # the first block's: 0.0 + -0.0 is 0.0, and the cumsum keeps -0.0).  Once
    # a block is summed, every window whose end it reaches is taken as
    # c[i+n] - c[i] through b into c[i]; later windows read c only at or
    # above their own i, and every i written lies below the block's end,
    # where the next block adds on, so no value is read after it is overwritten
    k = x.size - 2 * n
    m = k - n + 1
    c[0] = 0.0
    done = 0
    for start in range(0, k, _BLOCK):
        stop = min(start + _BLOCK, k)
        bk = b[:stop - start]
        np.multiply(x[n + start:n + stop], 2.0, out=bk)
        np.subtract(x[2 * n + start:2 * n + stop], bk, out=bk)
        np.add(bk, x[start:stop], out=bk)
        if start:
            bk[0] += c[start]
        np.cumsum(bk, out=c[start + 1:stop + 1])
        end = min(stop - n + 1, m)
        if end > done:
            bw = b[:end - done]
            np.subtract(c[done + n:end + n], c[done:end], out=bw)
            c[done:end] = bw
            done = end
    return c[:m]


def _curve(series: TimeErrorSeries, taus, windows: int, stat, buffers) -> StabilityCurve:
    """The curve of stat(n, *buffers()) -> (value, m) over `taus` (the
    default grid when None), for a statistic over `windows` windows of n
    samples.

    Every tau is checked before any is computed.  The taus are independent
    and carry equal work, so workers.share hands them out to the calling
    thread and, where the host allows, one helper thread.  Each worker has
    its own work buffers.  A tau's value takes the same operations whichever
    thread computes it, so the curve does not depend on the worker count.
    """
    x, tau0 = series.values, series.tau0_s
    if taus is None:
        taus = default_taus(tau0, x.size)
    ns = [_tau_to_n(tau, tau0, x.size, windows) for tau in taus]
    if np.any(np.diff(np.asarray(taus, dtype=float)) <= 0):
        raise ValidationError("taus must be strictly increasing")
    results: list = [None] * len(ns)
    todo = iter(range(len(ns)))

    def one(i, bufs):
        # np.errstate is per thread.  A finite series whose sums overflow
        # gives inf or nan values, which StabilityCurve rejects; numpy's
        # warnings would only repeat that
        with np.errstate(over="ignore", invalid="ignore"):
            return stat(ns[i], *bufs)

    share(lambda bufs: next(todo, None), one, results.__setitem__, buffers, len(ns))
    return StabilityCurve(np.asarray(taus), np.asarray([v for v, _ in results]),
                          np.asarray([m for _, m in results]))


def tdev(series: TimeErrorSeries, taus: list[float] | None = None) -> StabilityCurve:
    """Overlapping TDEV of `series` at the requested averaging times.

    With taus=None a 1-2-5 grid from tau0 to N*tau0/4 is used.  Explicitly
    requested taus must be multiples of tau0 and satisfy N >= 3n + 1.
    """
    x = series.values

    def one_tau(n, c, b):
        s = _window_sums(x, n, c, b)
        m = s.size
        return math.sqrt(float(np.dot(s, s)) / (6.0 * n * n * m)), m

    return _curve(series, taus, 3, one_tau,
                  lambda: (np.empty(x.size + 1), np.empty(min(x.size, _BLOCK))))


def tdev_bruteforce(series: TimeErrorSeries, tau: float) -> float:
    """Direct evaluation of the TDEV defining sum with plain Python loops.

    Independent check for tdev(); O(N*n), intended for short series.
    """
    x = series.values.tolist()
    big_n = len(x)
    n = _tau_to_n(tau, series.tau0_s, big_n)
    total = 0.0
    for j in range(big_n - 3 * n + 1):
        inner = 0.0
        for i in range(j, j + n):
            inner += x[i + 2 * n] - 2.0 * x[i + n] + x[i]
        total += inner * inner
    m = big_n - 3 * n + 1
    return math.sqrt(total / (6.0 * n * n * m))


def mdev(series: TimeErrorSeries, taus: list[float] | None = None) -> StabilityCurve:
    """Modified Allan deviation; MDEV(tau) = sqrt(3) * TDEV(tau) / tau."""
    curve = tdev(series, taus)
    vals = math.sqrt(3.0) * curve.values / curve.taus
    return StabilityCurve(curve.taus, vals, curve.n_samples)


def adev(series: TimeErrorSeries, taus: list[float] | None = None) -> StabilityCurve:
    """Overlapping Allan deviation of the series."""
    x = series.values

    def one_tau(n, buf):
        # the second differences (x[2n:] - 2.0*x[n:-n]) + x[:-2n], in buf
        m = x.size - 2 * n
        d = np.multiply(x[n:-n], 2.0, out=buf[:m])
        np.subtract(x[2 * n:], d, out=d)
        np.add(d, x[:-2 * n], out=d)
        return math.sqrt(float(np.dot(d, d)) / (2.0 * m)) / (n * series.tau0_s), m

    return _curve(series, taus, 2, one_tau, lambda: (np.empty(x.size),))


def slope(curve: StabilityCurve, tau_lo: float, tau_hi: float) -> float:
    """Least-squares log-log slope of the curve between tau_lo and tau_hi.

    Needs at least 3 points in range with strictly positive values.
    White PM tends to -1/2, white FM to +1/2.
    """
    mask = (curve.taus >= tau_lo) & (curve.taus <= tau_hi)
    taus = curve.taus[mask]
    vals = curve.values[mask]
    if taus.size < 3:
        raise ValidationError(
            f"need >= 3 curve points in [{tau_lo}, {tau_hi}], found {taus.size}"
        )
    if np.any(vals <= 0):
        raise ValidationError("log-log slope undefined for non-positive curve values")
    coeffs = np.polyfit(np.log10(taus), np.log10(vals), 1)
    return float(coeffs[0])
