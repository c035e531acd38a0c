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
from .timebase import TimeErrorSeries


@dataclass
class StabilityCurve:
    """Stability statistic values over increasing averaging times."""

    taus: np.ndarray
    values: np.ndarray
    n_samples: np.ndarray
    estimator: str = "overlapping-TDEV"

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.n_samples = np.asarray(self.n_samples, dtype=int)
        if not (self.taus.size == self.values.size == self.n_samples.size):
            raise ValidationError("curve arrays must have equal length")
        if np.any(np.diff(self.taus) <= 0):
            raise ValidationError("taus must be strictly increasing")
        if not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise ValidationError("stability values must be finite and >= 0")
        if np.any(self.n_samples < 1):
            raise ValidationError("n_samples must be >= 1")

    @property
    def points(self) -> list[tuple[float, float, int]]:
        return list(zip(self.taus.tolist(), self.values.tolist(), self.n_samples.tolist()))

    def value_at(self, tau: float) -> float:
        idx = np.argmin(np.abs(self.taus - tau))
        if not math.isclose(self.taus[idx], tau, rel_tol=1e-9):
            raise ValidationError(f"tau {tau} not on this curve's grid")
        return float(self.values[idx])


# the shortest series with a default tau: tau0 needs n * tau0 / 4 >= tau0
MIN_SAMPLES = 4


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


def _tau_to_n(tau: float, tau0: float, n_points: int) -> int:
    n = int(round(tau / tau0))
    if n < 1 or not math.isclose(n * tau0, tau, rel_tol=1e-9, abs_tol=1e-12 * tau0):
        raise ValidationError(f"tau {tau} is not a positive multiple of tau0 {tau0}")
    if n_points < 3 * n + 1:
        raise ValidationError(
            f"series of length {n_points} is too short for tau {tau} (need >= {3 * n + 1})"
        )
    return n


def _window_sums(x: np.ndarray, n: int, d: np.ndarray, c: np.ndarray) -> np.ndarray:
    # sums of n consecutive second differences, all N-3n+1 overlapping windows;
    # d (N values) and c (N+1 values) are work buffers, the result is d[:m]
    k = x.size - 2 * n
    m = k - n + 1
    dk = d[:k]
    np.multiply(x[n:-n], 2.0, out=dk)
    np.subtract(x[2 * n:], dk, out=dk)
    np.add(dk, x[:-2 * n], out=dk)
    c[0] = 0.0
    np.cumsum(dk, out=c[1:k + 1])
    np.subtract(c[n:k + 1], c[:m], out=d[:m])
    return d[:m]


# a finite series whose sums overflow gives inf or nan values, which
# StabilityCurve rejects; numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def tdev(series: TimeErrorSeries, taus: list[float] | None = None) -> StabilityCurve:
    """Overlapping TDEV of `series` at the requested averaging times.

    With taus=None a 1-2-5 grid from tau0 to N*tau0/4 is used.  Explicitly
    requested taus must be multiples of tau0 and satisfy N >= 3n + 1.
    """
    x = series.values
    tau0 = series.tau0_s
    if taus is None:
        taus = default_taus(tau0, x.size)
    d, c = np.empty(x.size), np.empty(x.size + 1)
    vals, counts = [], []
    for tau in taus:
        n = _tau_to_n(tau, tau0, x.size)
        s = _window_sums(x, n, d, c)
        m = s.size
        vals.append(math.sqrt(float(np.dot(s, s)) / (6.0 * n * n * m)))
        counts.append(m)
    return StabilityCurve(np.asarray(taus), np.asarray(vals), np.asarray(counts),
                          estimator="overlapping-TDEV")


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
    return StabilityCurve(curve.taus, vals, curve.n_samples, estimator="MDEV")


@np.errstate(over="ignore", invalid="ignore")  # as tdev
def adev(series: TimeErrorSeries, taus: list[float] | None = None) -> StabilityCurve:
    """Overlapping Allan deviation of the series."""
    x = series.values
    tau0 = series.tau0_s
    if taus is None:
        taus = [t for t in default_taus(tau0, x.size) if x.size >= 2 * int(round(t / tau0)) + 1]
    vals, counts = [], []
    for tau in taus:
        n = int(round(tau / tau0))
        if n < 1 or not math.isclose(n * tau0, tau, rel_tol=1e-9):
            raise ValidationError(f"tau {tau} is not a positive multiple of tau0 {tau0}")
        if x.size < 2 * n + 1:
            raise ValidationError(f"series too short for tau {tau}")
        d = x[2 * n:] - 2.0 * x[n:-n] + x[:-2 * n]
        m = d.size
        vals.append(math.sqrt(float(np.dot(d, d)) / (2.0 * m)) / (n * tau0))
        counts.append(m)
    return StabilityCurve(np.asarray(taus), np.asarray(vals), np.asarray(counts),
                          estimator="overlapping-ADEV")


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
