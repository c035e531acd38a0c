"""Fiber link model: delays, dispersion, asymmetry, reciprocity."""

import numpy as np
import pytest

from fotsim.channel import (
    Direction,
    FluctuationSpec,
    HardwareDelays,
    LinkModel,
    accumulated_dispersion,
    asymmetry,
    one_way_delay,
)
from fotsim.errors import ValidationError

HW0 = HardwareDelays()


def reciprocal_link(**kwargs):
    defaults = dict(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0)
    defaults.update(kwargs)
    return LinkModel(**defaults)


class TestOneWayDelay:
    def test_230km_base_delay_both_directions(self):
        link = reciprocal_link()
        expect = 230.0 * 4.9e-6  # 1.127 ms
        assert one_way_delay(link, HW0, Direction.USER_TO_SERVER, 0.0) == pytest.approx(
            expect, rel=1e-12)
        assert one_way_delay(link, HW0, Direction.SERVER_TO_USER, 0.0) == pytest.approx(
            expect, rel=1e-12)
        assert expect == pytest.approx(1.127e-3, rel=1e-9)

    def test_dispersion_splits_directions_by_3128_ps(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                         lambda_server_nm=1546.12, lambda_user_nm=1546.92)
        su = one_way_delay(link, HW0, Direction.SERVER_TO_USER, 0.0)
        us = one_way_delay(link, HW0, Direction.USER_TO_SERVER, 0.0)
        assert su - us == pytest.approx(3128e-12, abs=1e-15)

    def test_zero_length_zero_hw_is_zero(self):
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0)
        assert one_way_delay(link, HW0, Direction.USER_TO_SERVER, 0.0) == 0.0

    def test_hardware_terms_compose_per_direction(self):
        hw = HardwareDelays(tx_server_s=10e-9, rx_server_s=20e-9, tx_user_s=30e-9,
                            rx_user_s=40e-9, biedfa_lambda1_s=5e-12,
                            biedfa_lambda2_s=7e-12)
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0)
        us = one_way_delay(link, hw, Direction.USER_TO_SERVER, 0.0)
        su = one_way_delay(link, hw, Direction.SERVER_TO_USER, 0.0)
        assert us == pytest.approx(30e-9 + 7e-12 + 20e-9, abs=1e-21)
        assert su == pytest.approx(10e-9 + 5e-12 + 40e-9, abs=1e-21)

    def test_rejects_negative_emit_time(self):
        with pytest.raises(ValidationError):
            one_way_delay(reciprocal_link(), HW0, Direction.USER_TO_SERVER, -1.0)


class TestAccumulatedDispersion:
    def test_product_of_coefficient_and_length(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0)
        assert accumulated_dispersion(link) == pytest.approx(3910.0, rel=1e-12)

    def test_measured_value_passes_through(self):
        link = LinkModel(length_km=230.0, accumulated_dispersion_ps_per_nm=3800.0)
        assert accumulated_dispersion(link) == 3800.0

    def test_zero_length_gives_zero(self):
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=17.0)
        assert accumulated_dispersion(link) == 0.0

    def test_rejects_both_or_neither_source(self):
        with pytest.raises(ValidationError):
            LinkModel(length_km=1.0)
        with pytest.raises(ValidationError):
            LinkModel(length_km=1.0, dispersion_coeff_ps_per_nm_km=17.0,
                      accumulated_dispersion_ps_per_nm=17.0)


class TestDispersionAsymmetry:
    @staticmethod
    def link(lambda_server_nm, lambda_user_nm):
        return LinkModel(length_km=230.0, accumulated_dispersion_ps_per_nm=3910.0,
                         lambda_server_nm=lambda_server_nm, lambda_user_nm=lambda_user_nm)

    def test_equal_wavelengths_give_zero(self):
        assert self.link(1546.12, 1546.12).dispersion_asymmetry_s() == 0.0

    def test_reference_case(self):
        got = self.link(1546.12, 1546.92).dispersion_asymmetry_s()
        assert got == pytest.approx(3128e-12, abs=1e-15)

    def test_sign_flips_under_swap(self):
        a = self.link(1546.12, 1546.92).dispersion_asymmetry_s()
        b = self.link(1546.92, 1546.12).dispersion_asymmetry_s()
        assert a == -b


class TestAsymmetry:
    def test_fully_reciprocal_link_is_zero(self):
        assert asymmetry(reciprocal_link(), HW0) == 0.0

    def test_dispersion_only_case(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0)
        assert asymmetry(link, HW0) == pytest.approx(3128e-12, abs=1e-15)

    def test_sagnac_constant(self):
        link = reciprocal_link(sagnac_s=30e-12)
        assert asymmetry(link, HW0) == pytest.approx(30e-12, abs=1e-24)

    def test_amplifier_split_enters(self):
        hw = HardwareDelays(biedfa_lambda1_s=8e-12, biedfa_lambda2_s=5e-12)
        assert asymmetry(reciprocal_link(), hw) == pytest.approx(3e-12, abs=1e-24)

    def test_antisymmetric_under_wavelength_swap(self):
        a = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                      lambda_server_nm=1546.12, lambda_user_nm=1546.92)
        b = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                      lambda_server_nm=1546.92, lambda_user_nm=1546.12)
        assert asymmetry(a, HW0) == pytest.approx(-asymmetry(b, HW0), rel=1e-12)

    def test_invariant_under_fluctuation_amplitude(self):
        values = [
            asymmetry(reciprocal_link(
                sagnac_s=30e-12,
                fluctuation=FluctuationSpec(amplitude_s=amp, timescale_s=60.0, rng_seed=1),
            ), HW0)
            for amp in (0.0, 1e-12, 1e-9)
        ]
        assert values[0] == values[1] == values[2]


class TestFluctuation:
    def test_both_directions_share_one_realization(self):
        link = reciprocal_link(
            fluctuation=FluctuationSpec(amplitude_s=1e-9, timescale_s=60.0, rng_seed=4))
        for t in (0.0, 17.0, 1234.0):
            us = one_way_delay(link, HW0, Direction.USER_TO_SERVER, t)
            su = one_way_delay(link, HW0, Direction.SERVER_TO_USER, t)
            assert us == su

    def test_deterministic_per_seed(self):
        mk = lambda: reciprocal_link(
            fluctuation=FluctuationSpec(amplitude_s=50e-12, timescale_s=60.0, rng_seed=9))
        a, b = mk(), mk()
        ts = np.linspace(0.0, 3000.0, 50)
        assert [a.fluctuation_value(t) for t in ts] == [b.fluctuation_value(t) for t in ts]

    def test_stationary_scale_matches_amplitude(self):
        link = reciprocal_link(
            fluctuation=FluctuationSpec(amplitude_s=50e-12, timescale_s=10.0, rng_seed=2))
        # samples several correlation times apart are nearly independent
        vals = [link.fluctuation_value(200.0 * k) for k in range(400)]
        assert np.std(vals) == pytest.approx(50e-12, rel=0.2)

    def test_increments_are_continuous_at_process_scale(self):
        spec = FluctuationSpec(amplitude_s=50e-12, timescale_s=600.0, grid_s=1.0,
                               rng_seed=5)
        link = reciprocal_link(fluctuation=spec)
        vals = np.array([link.fluctuation_value(float(t)) for t in range(2000)])
        steps = np.abs(np.diff(vals))
        # one-grid-step OU increment std, generous factor for the max of 2000
        step_std = 50e-12 * np.sqrt(1 - np.exp(-2 * 1.0 / 600.0))
        assert steps.max() < 6 * step_std

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            FluctuationSpec(amplitude_s=-1e-12)


class TestValidationErrors:
    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            LinkModel(length_km=-1.0, dispersion_coeff_ps_per_nm_km=0.0)

    def test_amp_position_must_lie_on_link(self):
        with pytest.raises(ValidationError):
            LinkModel(length_km=100.0, dispersion_coeff_ps_per_nm_km=0.0,
                      biedfa_position_km=150.0)

    def test_nonfinite_hardware_rejected(self):
        with pytest.raises(ValidationError):
            HardwareDelays(tx_server_s=float("nan"))
