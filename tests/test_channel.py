"""Fiber link model: delays, dispersion, asymmetry, reciprocity."""

import math

import numpy as np
import pytest

from fotsim.channel import (
    Direction,
    FluctuationSpec,
    HardwareDelays,
    LinkModel,
    path_delay,
)
from fotsim.errors import ValidationError
from fotsim.protocol import ProtocolConfig, TicModel, run_rounds
from fotsim.scenario import build_calibration_set, build_models, canned_scenarios, load_scenario
from fotsim.timebase import ClockModel

HW0 = HardwareDelays()
US, SU = Direction.USER_TO_SERVER, Direction.SERVER_TO_USER

# A path delay is a sum of about 1.1 ms, and each of its five additions (two
# in the fiber delay, three around it) rounds by at most half an ulp at that
# size, so the difference of two path delays is exact to within five ulps.
ULPS_1MS = 5 * np.spacing(1.2e-3)


def reciprocal_link(**kwargs):
    defaults = dict(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0)
    defaults.update(kwargs)
    return LinkModel(**defaults)


def crossing(link, hw, direction, t):
    """The one-way delay of a crossing that samples the link at time t."""
    return path_delay(hw, direction, link.fiber_delay_s(direction, t))


def fluctuating_link(**kwargs):
    return reciprocal_link(
        fluctuation=FluctuationSpec(amplitude_s=1e-9, timescale_s=60.0, rng_seed=4), **kwargs)


class TestOneWayDelay:
    def test_230km_base_delay_both_directions(self):
        link = reciprocal_link()
        expect = 230.0 * 4.9e-6  # 1.127 ms
        assert crossing(link, HW0, US, 0.0) == pytest.approx(expect, rel=1e-12)
        assert crossing(link, HW0, SU, 0.0) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.127e-3, rel=1e-9)

    def test_dispersion_splits_directions_by_3128_ps(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                         lambda_server_nm=1546.12, lambda_user_nm=1546.92)
        su = crossing(link, HW0, SU, 0.0)
        us = crossing(link, HW0, US, 0.0)
        assert su - us == pytest.approx(3128e-12, abs=1e-15)

    def test_zero_length_zero_hw_is_zero(self):
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0)
        assert crossing(link, HW0, US, 0.0) == 0.0

    def test_hardware_terms_compose_per_direction(self):
        hw = HardwareDelays(tx_server_s=10e-9, rx_server_s=20e-9, tx_user_s=30e-9,
                            rx_user_s=40e-9, biedfa_lambda1_s=5e-12,
                            biedfa_lambda2_s=7e-12)
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0)
        us = crossing(link, hw, US, 0.0)
        su = crossing(link, hw, SU, 0.0)
        assert us == pytest.approx(30e-9 + 7e-12 + 20e-9, abs=1e-21)
        assert su == pytest.approx(10e-9 + 5e-12 + 40e-9, abs=1e-21)

    @pytest.mark.parametrize("t", [-1.0, -5000.0])
    def test_rejects_negative_emit_time(self, t):
        link = fluctuating_link()
        # grown past 5000 s, the path would hand back a sample from its end
        # for a negative index
        link.fiber_delay_s(US, 10_000.0)
        with pytest.raises(ValidationError):
            link.fiber_delay_s(US, t)
        with pytest.raises(ValidationError):
            link.fiber_delay_s(US, np.array([0.0, t, 20.0]))
        with pytest.raises(ValidationError):
            link.fluctuation_value(t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_query_time(self, t):
        link = fluctuating_link()
        with pytest.raises(ValidationError):
            link.fiber_delay_s(SU, t)
        with pytest.raises(ValidationError):
            link.fiber_delay_s(SU, np.array([0.0, t, 20.0]))
        with pytest.raises(ValidationError):
            link.fluctuation_values(np.array([t]))

    def test_array_of_times_equals_scalar_calls_bit_for_bit(self):
        link = fluctuating_link(sagnac_s=30e-12, dispersion_coeff_ps_per_nm_km=17.0)
        ts = np.concatenate([np.linspace(0.0, 3000.0, 101), [17.0, 0.0, 2999.5]])
        for d in (US, SU):
            scalar = np.array([link.fiber_delay_s(d, float(t)) for t in ts])
            assert link.fiber_delay_s(d, ts).tobytes() == scalar.tobytes()
            assert all(type(link.fiber_delay_s(d, float(t))) is float for t in ts[:3])


class TestAccumulatedDispersion:
    # the accumulated dispersion D_A enters as dispersion_asymmetry_s =
    # (lambda_user - lambda_server) * D_A, here over the default 0.8 nm
    DELTA_NM = 1546.92 - 1546.12

    def test_product_of_coefficient_and_length(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0)
        assert link.dispersion_asymmetry_s() == pytest.approx(
            self.DELTA_NM * 3910.0e-12, rel=1e-12)

    def test_measured_value_passes_through(self):
        link = LinkModel(length_km=230.0, accumulated_dispersion_ps_per_nm=3800.0)
        assert link.dispersion_asymmetry_s() == self.DELTA_NM * 3800.0 * 1e-12

    def test_zero_length_gives_zero(self):
        link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=17.0)
        assert link.dispersion_asymmetry_s() == 0.0

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


def engine_asymmetry(link, hw, n_rounds=20):
    """Server->user minus user->server path delay of each round the engine
    runs over link and hw, built from the fiber delays it records."""
    events = run_rounds(ClockModel(), ClockModel(initial_offset_s=1e-7), link, hw,
                        TicModel(), TicModel(), ProtocolConfig(), n_rounds).events
    return path_delay(hw, SU, events.fiber_su_s) - path_delay(hw, US, events.fiber_us_s)


SYNC_SCENARIOS = [name for name in canned_scenarios() if load_scenario(name).mode == "sync"]


class TestAsymmetry:
    def test_fully_reciprocal_link_is_zero(self):
        assert np.all(engine_asymmetry(reciprocal_link(), HW0) == 0.0)

    def test_dispersion_only_case(self):
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0)
        np.testing.assert_allclose(engine_asymmetry(link, HW0), 3128e-12, rtol=0, atol=1e-15)

    def test_sagnac_constant(self):
        link = reciprocal_link(sagnac_s=30e-12)
        np.testing.assert_allclose(engine_asymmetry(link, HW0), 30e-12, rtol=0, atol=ULPS_1MS)

    def test_amplifier_split_enters(self):
        hw = HardwareDelays(biedfa_lambda1_s=8e-12, biedfa_lambda2_s=5e-12)
        np.testing.assert_allclose(engine_asymmetry(reciprocal_link(), hw), 3e-12,
                                   rtol=0, atol=ULPS_1MS)

    def test_antisymmetric_under_wavelength_swap(self):
        a = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                      lambda_server_nm=1546.12, lambda_user_nm=1546.92)
        b = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                      lambda_server_nm=1546.92, lambda_user_nm=1546.12)
        np.testing.assert_allclose(engine_asymmetry(a, HW0), -engine_asymmetry(b, HW0),
                                   rtol=0, atol=2 * ULPS_1MS)

    def test_invariant_under_fluctuation_amplitude(self):
        values = [
            engine_asymmetry(reciprocal_link(
                sagnac_s=30e-12,
                fluctuation=FluctuationSpec(amplitude_s=amp, timescale_s=60.0, rng_seed=1),
            ), HW0, n_rounds=200)
            for amp in (0.0, 1e-12, 1e-9)
        ]
        for v in values[1:]:
            np.testing.assert_allclose(v, values[0], rtol=0, atol=2 * ULPS_1MS)

    @pytest.mark.parametrize("name", SYNC_SCENARIOS)
    def test_calibration_removes_the_engine_asymmetry(self, name):
        """tau_fpda_s + tau_oaa_s of the calibration pipeline is the engine's
        server->user minus user->server delay less the TX/RX chain
        difference, on the scenario's own link, within a few ulps of the
        about 1.1 ms one-way delay: ULPS_1MS for the delay difference, and
        as much again for taking off the chains and for the sum of the
        calibration terms."""
        scenario = load_scenario(name)
        models = build_models(scenario)
        hw = models.hw
        events = run_rounds(models.server, models.user, models.link, hw, models.tic_server,
                            models.tic_user, models.protocol, 200).events
        delay_diff = path_delay(hw, SU, events.fiber_su_s) - path_delay(hw, US, events.fiber_us_s)
        chains = (hw.tx_server_s + hw.rx_user_s) - (hw.tx_user_s + hw.rx_server_s)
        cal = build_calibration_set(scenario)
        np.testing.assert_allclose(delay_diff - chains, cal.tau_fpda_s + cal.tau_oaa_s,
                                   rtol=0, atol=2 * ULPS_1MS)


class TestFluctuation:
    def test_both_directions_share_one_realization(self):
        link = fluctuating_link()
        for t in (0.0, 17.0, 1234.0):
            assert crossing(link, HW0, US, t) == crossing(link, HW0, SU, t)

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
