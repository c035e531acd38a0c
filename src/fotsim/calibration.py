"""Correction constants for the non-reciprocal parts of the link.

The lumped corrections are:

    tau_hd    hardware delay asymmetry of the two TX/RX chains plus the
              server delay-unit deviation, obtained from a direct-connection
              measurement
    tau_fpda  fiber propagation delay asymmetry (dispersion and Sagnac)
    tau_oaa   per-wavelength delay difference of the bidirectional amplifier
    tau_delay_u  user delay-unit deviation, applied to the steering output
              rather than to the offset estimate

and the corrected clock-offset estimate is

    offset = 0.5 * (T2 - C - tau_hd - tau_fpda - tau_oaa)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CalibrationSet:
    """Calibrated correction constants, all in seconds, with provenance notes."""

    tau_hd_s: float = 0.0
    tau_delay_u_s: float = 0.0
    tau_fpda_s: float = 0.0
    tau_oaa_s: float = 0.0
    reversal_constant_s: float = 0.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tau_hd_s", "tau_delay_u_s", "tau_fpda_s", "tau_oaa_s",
                     "reversal_constant_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"calibration field {name} must be finite")
            if value != 0.0 and name != "reversal_constant_s" and name not in self.provenance:
                raise ValidationError(
                    f"non-zero calibration field {name} needs a provenance note"
                )

    def as_dict(self) -> dict:
        return asdict(self)


def calibrate_hardware_delay(
    t2_init_s: float, t_offset_init_s: float, reversal_constant_s: float,
    literal_sign: bool = False,
) -> float:
    """Hardware delay asymmetry from a direct-connection measurement.

    With the two sites connected through an attenuator (no fiber), the
    response interval reduces to C + tau_hd + 2*T_offset, so

        tau_hd = T2_init - 2*T_offset_init - C.

    literal_sign=True flips the sign of the offset term (the variant with
    T_offset defined user-minus-server), kept for comparison experiments.
    """
    if literal_sign:
        return t2_init_s + 2.0 * t_offset_init_s - reversal_constant_s
    return t2_init_s - 2.0 * t_offset_init_s - reversal_constant_s


def dispersion_asymmetry(
    lambda_server_nm: float, lambda_user_nm: float, accumulated_dispersion_ps_per_nm: float
) -> float:
    """Chromatic-dispersion delay asymmetry in seconds.

    (lambda_user - lambda_server) * D_A, i.e. server->user minus
    user->server; antisymmetric under swapping the two wavelengths.
    """
    return (lambda_user_nm - lambda_server_nm) * accumulated_dispersion_ps_per_nm * 1e-12


@dataclass(frozen=True)
class DelayUnitCalibration:
    deviation_s: float
    std_s: float
    n: int


def calibrate_delay_unit(
    input_times_s, output_times_s, programmed_delay_s: float = 0.0
) -> DelayUnitCalibration:
    """Delay-unit deviation from paired input/output edge timestamps.

    Estimate is the sample mean of (output - input - programmed delay); the
    sample std is reported alongside so callers can judge the averaging.
    """
    inp = np.asarray(input_times_s, dtype=float)
    out = np.asarray(output_times_s, dtype=float)
    if inp.size == 0:
        raise ValidationError("delay-unit calibration needs at least one sample")
    if inp.shape != out.shape:
        raise ValidationError("input and output series must have equal length")
    dev = out - inp - programmed_delay_s
    std = float(np.std(dev, ddof=1)) if dev.size > 1 else 0.0
    return DelayUnitCalibration(deviation_s=float(np.mean(dev)), std_s=std, n=int(dev.size))


def biedfa_asymmetry(tau_lambda1_s: float, tau_lambda2_s: float) -> float:
    """Per-wavelength delay difference of the bidirectional amplifier."""
    return tau_lambda1_s - tau_lambda2_s


def corrected_offset(t2_s: float, cal: CalibrationSet) -> float:
    """Clock offset estimate from the response interval and the corrections.

    offset = 0.5 * (T2 - C - tau_hd - tau_fpda - tau_oaa).  The user
    delay-unit deviation is not part of the estimate; it is subtracted from
    the applied steering where it physically occurs.
    """
    return 0.5 * (
        t2_s
        - cal.reversal_constant_s
        - cal.tau_hd_s
        - cal.tau_fpda_s
        - cal.tau_oaa_s
    )
