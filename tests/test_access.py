"""Mid-link access node: tap split, recovery, position invariance."""

from dataclasses import replace

import numpy as np
import pytest

from fotsim.access import AccessNode, observe_round, tap_times
from fotsim.channel import FluctuationSpec, HardwareDelays, LinkModel
from fotsim.errors import NegativeT3Error, ValidationError
from fotsim.protocol import ProtocolConfig, TicModel, sync_round
from fotsim.timebase import ClockModel

HW0 = HardwareDelays()


def reciprocal_link(**kwargs):
    defaults = dict(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0)
    defaults.update(kwargs)
    return LinkModel(**defaults)


def ideal_round(link=None, hw=HW0, offset=100e-9, c=5e-3, t=0.0):
    link = link or reciprocal_link()
    cfg = ProtocolConfig(reversal_constant_s=c)
    return sync_round(ClockModel(), ClockModel(initial_offset_s=offset), link, hw,
                      TicModel(), TicModel(), cfg, t)


def node_at(km, jitter=0.0, seed=0):
    return AccessNode(distance_from_server_km=km, tic=TicModel(jitter, rng_seed=seed))


class TestTapTimes:
    def test_node_at_server_end_sees_reversal_emission(self):
        r = ideal_round()
        t_u_an, t_s_an = tap_times(node_at(0.0), r.events)
        assert t_s_an == r.events.reversal_emit_rel_s
        assert t_u_an == pytest.approx(
            r.events.user_emit_rel_s + r.events.fiber_us_s, abs=1e-18)

    def test_node_at_user_end_sees_user_emission(self):
        r = ideal_round()
        t_u_an, t_s_an = tap_times(node_at(230.0), r.events)
        assert t_u_an == r.events.user_emit_rel_s
        assert t_s_an == pytest.approx(
            r.events.reversal_emit_rel_s + r.events.fiber_su_s, abs=1e-18)

    def test_uniform_split_at_50_km(self):
        r = ideal_round()
        t_u_an, _ = tap_times(node_at(50.0), r.events)
        tau_u_an = t_u_an - r.events.user_emit_rel_s
        assert tau_u_an == pytest.approx(180.0 * 4.9e-6, rel=1e-12)

    def test_split_fractions_sum_to_full_delay(self):
        r = ideal_round()
        t_u_an, _ = tap_times(node_at(77.0), r.events)
        _, t_s_an = tap_times(node_at(77.0), r.events)
        tau_u_an = t_u_an - r.events.user_emit_rel_s
        tau_s_an = t_s_an - r.events.reversal_emit_rel_s
        assert tau_u_an + tau_s_an == pytest.approx(r.events.fiber_us_s, rel=1e-12)

    def test_coupler_delay_shifts_both_taps(self):
        r = ideal_round()
        node = AccessNode(distance_from_server_km=50.0, tic=TicModel(),
                          coupler_delay_s=2e-9)
        plain = tap_times(node_at(50.0), r.events)
        shifted = tap_times(node, r.events)
        assert shifted[0] - plain[0] == pytest.approx(2e-9, abs=1e-18)
        assert shifted[1] - plain[1] == pytest.approx(2e-9, abs=1e-18)

    def test_amplifier_delay_follows_tap_position(self):
        hw = HardwareDelays(biedfa_lambda1_s=2.140e-9, biedfa_lambda2_s=2.137e-9)
        link = reciprocal_link(biedfa_position_km=115.0)
        r = ideal_round(link=link, hw=hw)
        # upstream of the amplifier: no amplifier delay in the request tap
        up_u, up_s = tap_times(node_at(200.0), r.events)
        # downstream: the request has passed the amplifier
        dn_u, dn_s = tap_times(node_at(30.0), r.events)
        base_u = r.events.user_emit_rel_s + hw.tx_user_s
        assert up_u - base_u == pytest.approx((30.0 / 230.0) * r.events.fiber_us_s,
                                              abs=1e-18)
        assert dn_u - base_u == pytest.approx(
            (200.0 / 230.0) * r.events.fiber_us_s + 2.137e-9, abs=1e-18)
        # mirrored for the reversed signal
        base_s = r.events.reversal_emit_rel_s + hw.tx_server_s
        assert up_s - base_s == pytest.approx(
            (200.0 / 230.0) * r.events.fiber_su_s + 2.140e-9, abs=1e-18)
        assert dn_s - base_s == pytest.approx((30.0 / 230.0) * r.events.fiber_su_s,
                                              abs=1e-18)
        # at the amplifier: on its server side, so only the request holds it
        at_u, at_s = tap_times(node_at(115.0), r.events)
        assert at_u - base_u == pytest.approx(0.5 * r.events.fiber_us_s + 2.137e-9, abs=1e-18)
        assert at_s - base_s == pytest.approx(0.5 * r.events.fiber_su_s, abs=1e-18)

    def test_rejects_node_beyond_link(self):
        r = ideal_round()
        with pytest.raises(ValidationError):
            tap_times(node_at(231.0), r.events)


class TestRecoverTime:
    def test_recovered_is_tap_plus_half_interval(self):
        # at the server end the taps are the request's arrival and the
        # reversal emission: place them at 1 ms and 4 ms
        events = ideal_round().events
        events = replace(events, user_emit_rel_s=1e-3 - events.fiber_us_s,
                         reversal_emit_rel_s=4e-3)
        obs = observe_round(node_at(0.0), events)
        assert tap_times(node_at(0.0), events)[0] == pytest.approx(1e-3, abs=1e-18)
        assert obs.recovered_rel_s == pytest.approx(2.5e-3, abs=1e-18)

    def test_negative_interval_raises(self):
        # the reversal pulse leaves before the request reaches the tap
        events = ideal_round().events
        events = replace(events, reversal_emit_rel_s=events.user_emit_rel_s)
        with pytest.raises(NegativeT3Error):
            observe_round(node_at(0.0), events)

    def test_position_invariance_ideal_scenario(self):
        r = ideal_round()
        for km in range(0, 231, 10):
            obs = observe_round(node_at(float(km)), r.events)
            assert abs(obs.residual_s) <= 1e-15

    def test_fluctuation_immunity_at_the_node(self):
        for amp in (1e-12, 1e-10, 1e-9):
            link = reciprocal_link(
                fluctuation=FluctuationSpec(amplitude_s=amp, timescale_s=60.0,
                                            rng_seed=11))
            r = ideal_round(link=link, t=500.0)
            obs = observe_round(node_at(115.0), r.events)
            assert abs(obs.residual_s) <= 1e-15

    def test_node_at_user_end_matches_end_to_end(self):
        # constant asymmetry: both the node at the user end and the user
        # itself see the same uncalibrated bias
        link = reciprocal_link(sagnac_s=30e-12)
        r = ideal_round(link=link)
        obs = observe_round(node_at(230.0), r.events)
        end_to_end = r.offset_estimate_s - r.true_offset_s
        assert obs.residual_s == pytest.approx(end_to_end, abs=1e-15)
        assert obs.residual_s == pytest.approx(15e-12, abs=1e-15)

    def test_dispersion_bias_scales_with_position(self):
        # model prediction: recovered bias is (d/L) * dispersion_asymmetry/2,
        # zero at the server end, the full end-to-end bias at the user end
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0)
        asym = link.dispersion_asymmetry_s()
        r = ideal_round(link=link)
        for km in (0.0, 50.0, 115.0, 230.0):
            obs = observe_round(node_at(km), r.events)
            assert obs.residual_s == pytest.approx(
                (km / 230.0) * asym / 2.0, abs=1e-15)

    def test_stale_application_is_exact_for_constant_offset(self):
        link = reciprocal_link()
        r0 = ideal_round(link=link, t=0.0)
        r1 = ideal_round(link=link, t=1.0)
        node = node_at(50.0)
        first = observe_round(node, r0.events)
        second = observe_round(node, r1.events, applied_t3_s=first.t3_s)
        assert abs(second.residual_s) <= 1e-15

    def test_node_tic_noise_enters_recovery(self):
        link = reciprocal_link()
        node = AccessNode(distance_from_server_km=50.0,
                          tic=TicModel(jitter_rms_s=30e-12, rng_seed=3))
        errs = []
        for k in range(4000):
            r = ideal_round(link=link, t=float(k))
            errs.append(observe_round(node, r.events).residual_s)
        # fresh application: residual is half the node counter jitter
        assert np.std(errs) == pytest.approx(15e-12, rel=0.1)
