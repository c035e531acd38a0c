"""Calibration pipeline: per-term procedures and the corrected estimate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fotsim.calibration import (
    CalibrationSet,
    biedfa_asymmetry,
    calibrate_delay_unit,
    calibrate_hardware_delay,
    corrected_offset,
    dispersion_asymmetry,
)
from fotsim.errors import ValidationError


class TestHardwareDelay:
    def test_ideal_hardware_is_zero(self):
        assert calibrate_hardware_delay(5e-3, 0.0, 5e-3) == 0.0

    def test_direct_connection_example(self):
        # response interval 123 ps above C with a 40 ps known offset
        got = calibrate_hardware_delay(5e-3 + 123e-12, 40e-12, 5e-3)
        assert got == pytest.approx(43e-12, abs=1e-18)

    def test_literal_sign_variant(self):
        got = calibrate_hardware_delay(5e-3 + 123e-12, 40e-12, 5e-3, literal_sign=True)
        assert got == pytest.approx(203e-12, abs=1e-18)


class TestDispersionAsymmetry:
    def test_equal_wavelengths_give_zero(self):
        assert dispersion_asymmetry(1546.12, 1546.12, 3910.0) == 0.0

    def test_reference_case(self):
        got = dispersion_asymmetry(1546.12, 1546.92, 3910.0)
        assert got == pytest.approx(3128e-12, abs=1e-15)

    def test_sign_flips_under_swap(self):
        a = dispersion_asymmetry(1546.12, 1546.92, 3910.0)
        b = dispersion_asymmetry(1546.92, 1546.12, 3910.0)
        assert a == -b


class TestDelayUnit:
    def test_identical_series_zero(self):
        cal = calibrate_delay_unit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert cal.deviation_s == 0.0
        assert cal.std_s == 0.0

    def test_constant_deviation_recovered(self):
        inp = np.arange(10) * 1e-3
        out = inp + 7e-12
        assert calibrate_delay_unit(inp, out).deviation_s == pytest.approx(7e-12, abs=1e-18)

    def test_programmed_delay_subtracted(self):
        inp = np.zeros(5)
        out = inp + 1e-3 + 7e-12
        cal = calibrate_delay_unit(inp, out, programmed_delay_s=1e-3)
        assert cal.deviation_s == pytest.approx(7e-12, abs=1e-18)

    def test_jitter_averages_to_standard_error(self):
        rng = np.random.default_rng(0)
        n = 10_000
        out = 7e-12 + 2e-12 * rng.standard_normal(n)
        cal = calibrate_delay_unit(np.zeros(n), out)
        assert cal.deviation_s == pytest.approx(7e-12, abs=3 * 2e-12 / np.sqrt(n))
        assert cal.std_s == pytest.approx(2e-12, rel=0.05)
        assert cal.n == n

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValidationError):
            calibrate_delay_unit([], [])
        with pytest.raises(ValidationError):
            calibrate_delay_unit([0.0], [0.0, 1.0])


class TestBiedfa:
    def test_equal_paths_zero(self):
        assert biedfa_asymmetry(5e-12, 5e-12) == 0.0

    def test_difference(self):
        assert biedfa_asymmetry(8e-12, 5e-12) == pytest.approx(3e-12, abs=1e-24)


def full_set(**overrides):
    fields = dict(tau_hd_s=43e-12, tau_delay_u_s=12e-12, tau_fpda_s=3128e-12,
                  tau_oaa_s=3e-12, reversal_constant_s=5e-3)
    fields.update(overrides)
    provenance = {k: "injected for test" for k, v in fields.items()
                  if v != 0.0 and k != "reversal_constant_s"}
    return CalibrationSet(provenance=provenance, **fields)


class TestCorrectedOffset:
    def test_all_zero_corrections_reduce_to_half_t2_minus_c(self):
        cal = CalibrationSet(reversal_constant_s=5e-3)
        assert corrected_offset(5e-3 + 200e-9, cal) == pytest.approx(100e-9, abs=1e-18)

    def test_every_term_enters_with_minus_half(self):
        base = corrected_offset(5e-3, full_set())
        for name in ("tau_hd_s", "tau_fpda_s", "tau_oaa_s"):
            bumped = corrected_offset(5e-3, full_set(**{name: full_set().__getattribute__(name) + 2e-12}))
            assert bumped - base == pytest.approx(-1e-12, abs=1e-21)

    def test_delay_unit_term_is_not_in_the_estimate(self):
        assert corrected_offset(5e-3, full_set(tau_delay_u_s=0.0)) == \
            corrected_offset(5e-3, full_set(tau_delay_u_s=50e-12))

    @settings(max_examples=50, deadline=None)
    @given(t2a=st.floats(-1e-2, 1e-2), t2b=st.floats(-1e-2, 1e-2))
    def test_affine_in_t2_with_slope_half(self, t2a, t2b):
        cal = full_set()
        lhs = corrected_offset(t2a, cal) - corrected_offset(t2b, cal)
        assert lhs == pytest.approx(0.5 * (t2a - t2b), rel=1e-9, abs=1e-18)


class TestCalibrationSetValidation:
    def test_nonzero_field_requires_provenance(self):
        with pytest.raises(ValidationError):
            CalibrationSet(tau_hd_s=1e-12)

    def test_round_trips_through_dict(self):
        cal = full_set()
        again = CalibrationSet(**cal.as_dict())
        assert again == cal
