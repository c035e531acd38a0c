"""Bidirectional fiber link and per-site hardware delay chains.

One LinkModel owns a single slow fluctuation realization that both
propagation directions sample at equal query times, so reciprocity of the
fluctuating part is exact by construction.  Non-reciprocal contributions are
modeled as constants: a chromatic-dispersion term set by the two laser
wavelengths and the accumulated dispersion, a signed Sagnac term, and
per-wavelength amplifier delays.  Sign convention throughout:

    delay(server->user) - delay(user->server)
        = (lambda_user - lambda_server) * D_A  +  sagnac  +  (oa_l1 - oa_l2)

where the server laser (lambda_server) lights the server->user direction and
the user laser (lambda_user) the reverse one.  Dispersion and Sagnac are
split half-and-half between the directions so the mean one-way delay stays
at the reciprocal value.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


class Direction(enum.Enum):
    USER_TO_SERVER = "u->s"
    SERVER_TO_USER = "s->u"


@dataclass(frozen=True)
class HardwareDelays:
    """Constant per-site hardware delays, all in seconds."""

    tx_server_s: float = 0.0
    rx_server_s: float = 0.0
    tx_user_s: float = 0.0
    rx_user_s: float = 0.0
    delay_unit_dev_server_s: float = 0.0
    delay_unit_dev_user_s: float = 0.0
    biedfa_lambda1_s: float = 0.0
    biedfa_lambda2_s: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValidationError(f"hardware delay {name} must be finite")


@dataclass(frozen=True)
class FluctuationSpec:
    """Slow reciprocal delay wander: stationary std and correlation time."""

    amplitude_s: float = 0.0
    timescale_s: float = 600.0
    grid_s: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.amplitude_s < 0:
            raise ValidationError("fluctuation amplitude_s must be >= 0")
        if self.amplitude_s > 0 and not self.timescale_s > 0:
            raise ValidationError("fluctuation timescale_s must be > 0")
        if self.grid_s is not None and not self.grid_s > 0:
            raise ValidationError("fluctuation grid_s must be > 0")


# The most grid cells a fluctuation path may hold: at about 8 bytes (a packed
# double) and 1 us (one normal drawn in Python) a cell, 80 MB and 10 s.  No
# canned scenario or benchmark input's path has more than 278 cells.
_MAX_PATH_CELLS = 10_000_000


class _OuProcess:
    """Ornstein-Uhlenbeck path on a lazy grid, one realization per link.

    Samples are generated strictly in grid order from a seeded stream, so
    values do not depend on the order in which times are queried.
    """

    def __init__(self, spec: FluctuationSpec):
        self.spec = spec
        self.grid = spec.grid_s if spec.grid_s is not None else spec.timescale_s / 10.0
        self._rho = math.exp(-self.grid / spec.timescale_s)
        self._sigma_step = spec.amplitude_s * math.sqrt(1.0 - self._rho ** 2)
        self._rng = np.random.default_rng(spec.rng_seed)
        self._path = array("d", [spec.amplitude_s * float(self._rng.standard_normal())])

    def value(self, t: float) -> float:
        if not 0.0 <= t < math.inf:
            raise ValidationError(f"fluctuation query time {t!r} must be finite and >= 0")
        cells = t / self.grid
        if not cells < _MAX_PATH_CELLS:
            raise ValidationError(f"link.fluctuation: t = {t:.6g} s needs {cells:.3g} grid "
                                  f"cells of {self.grid:g} s, over the cap of {_MAX_PATH_CELLS}")
        idx = int(cells)
        while len(self._path) <= idx:
            prev = self._path[-1]
            self._path.append(self._rho * prev + self._sigma_step * float(self._rng.standard_normal()))
        return self._path[idx]

    def values(self, t: np.ndarray) -> np.ndarray:
        """value() at each time of t."""
        if t.size:
            self.value(float(t.min()))  # checks the times: the min is nan if any is
            self.value(float(t.max()))  # and grows the path for all of them
        return np.frombuffer(self._path)[(t / self.grid).astype(np.int64)]


class LinkModel:
    """Fiber span between server (position 0) and user (position length_km).

    Exactly one dispersion source must be set: the per-km coefficient or the
    measured accumulated dispersion.  The fluctuation path is stateful and
    single-writer; independent simulation runs need independent instances.
    """

    def __init__(
        self,
        length_km: float,
        group_delay_s_per_km: float = 4.9e-6,
        dispersion_coeff_ps_per_nm_km: float | None = None,
        accumulated_dispersion_ps_per_nm: float | None = None,
        sagnac_s: float = 0.0,
        lambda_server_nm: float = 1546.12,
        lambda_user_nm: float = 1546.92,
        fluctuation: FluctuationSpec | None = None,
        evaluate_at_emit_time: bool = False,
        biedfa_position_km: float | None = None,
    ):
        if length_km < 0:
            raise ValidationError("length_km must be >= 0")
        if (dispersion_coeff_ps_per_nm_km is None) == (accumulated_dispersion_ps_per_nm is None):
            raise ValidationError(
                "exactly one of dispersion_coeff_ps_per_nm_km / "
                "accumulated_dispersion_ps_per_nm must be set"
            )
        self.length_km = float(length_km)
        self.group_delay_s_per_km = float(group_delay_s_per_km)
        self.dispersion_coeff_ps_per_nm_km = dispersion_coeff_ps_per_nm_km
        self.accumulated_dispersion_ps_per_nm = accumulated_dispersion_ps_per_nm
        self.sagnac_s = float(sagnac_s)
        self.lambda_server_nm = float(lambda_server_nm)
        self.lambda_user_nm = float(lambda_user_nm)
        self.fluctuation = fluctuation or FluctuationSpec(amplitude_s=0.0)
        self.evaluate_at_emit_time = bool(evaluate_at_emit_time)
        if biedfa_position_km is None:
            biedfa_position_km = self.length_km / 2.0
        if not 0.0 <= biedfa_position_km <= max(self.length_km, 0.0):
            raise ValidationError("biedfa_position_km must lie on the link")
        self.biedfa_position_km = float(biedfa_position_km)
        self._fluct = _OuProcess(self.fluctuation) if self.fluctuation.amplitude_s > 0 else None

    def fluctuation_value(self, t: float) -> float:
        return self._fluct.value(t) if self._fluct is not None else 0.0

    def fluctuation_values(self, t: np.ndarray) -> np.ndarray:
        """fluctuation_value at each time of t."""
        return self._fluct.values(t) if self._fluct is not None else np.zeros(t.size)

    def query_time(self, epoch_s: float, emit_rel_s: float) -> float:
        """When a crossing emitted emit_rel_s after the round epoch samples
        the fluctuation: the epoch in quasi-static mode, else the emission
        instant.  The path is held at its first sample before t = 0, which a
        user clock that leads the server reaches in round 0."""
        if not self.evaluate_at_emit_time:
            return epoch_s
        return max(epoch_s + emit_rel_s, 0.0)

    def dispersion_asymmetry_s(self) -> float:
        """Server->user minus user->server delay due to chromatic dispersion:
        the wavelength difference times the accumulated dispersion D * L, or
        the measured one when that is set instead of the coefficient D."""
        coeff = self.dispersion_coeff_ps_per_nm_km
        d_a = (float(self.accumulated_dispersion_ps_per_nm) if coeff is None
               else float(coeff) * self.length_km)
        return (self.lambda_user_nm - self.lambda_server_nm) * d_a * 1e-12

    def fiber_delay_s(self, direction: Direction, t):
        """One-way fiber delay at query time t, a float or an array of them:
        the base delay plus the fluctuation, plus the direction's half of the
        dispersion and Sagnac asymmetry; no site hardware, no amplifier."""
        fluct = (self.fluctuation_values(t) if isinstance(t, np.ndarray)
                 else self.fluctuation_value(t))
        half = 0.5 * (self.dispersion_asymmetry_s() + self.sagnac_s)
        share = half if direction is Direction.SERVER_TO_USER else -half
        return (self.length_km * self.group_delay_s_per_km + fluct) + share


def path_delay(hw: HardwareDelays, direction: Direction, fiber_s):
    """One-way delay around a fiber delay (a float or an array of them):
    transmitter, fiber, amplifier at the direction's wavelength, receiver.
    A crossing's full delay is path_delay(hw, d, link.fiber_delay_s(d, t))."""
    if direction is Direction.USER_TO_SERVER:
        return hw.tx_user_s + fiber_s + hw.biedfa_lambda2_s + hw.rx_server_s
    if direction is Direction.SERVER_TO_USER:
        return hw.tx_server_s + fiber_s + hw.biedfa_lambda1_s + hw.rx_user_s
    raise ValidationError(f"invalid direction {direction!r}")
