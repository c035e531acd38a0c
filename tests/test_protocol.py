"""Protocol engine: counter model, reversal algebra, rounds, sessions, TDM.

The sync_round checks compare the event-driven simulation against a direct
symbolic evaluation of the protocol equations, written here independently:

    T1 = tau_us - T_offset
    T2 = 2*T_offset + C + (tau_su - tau_us) + tau_delay_s
    offset = (T2 - C)/2                       (uncalibrated)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fotsim.calibration import CalibrationSet
from fotsim.channel import Direction, FluctuationSpec, HardwareDelays, LinkModel, path_delay
from fotsim.errors import NonCausalError, ReversalOverflowError, ValidationError
from fotsim.protocol import (
    ProtocolConfig,
    TicModel,
    compute_reversal_delay,
    run_session,
    sync_round,
    tdm_admission,
    tracking_error_series,
    two_way_offset,
)
from fotsim.timebase import ClockModel, NoiseProfile

HW0 = HardwareDelays()
IDEAL_TIC = lambda: TicModel()


def reciprocal_link(**kwargs):
    defaults = dict(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0)
    defaults.update(kwargs)
    return LinkModel(**defaults)


def oracle_round(t_offset, tau_us, tau_su, c, tau_delay_s=0.0):
    """Symbolic evaluation of the protocol equations for one noiseless round."""
    t1 = tau_us - t_offset
    t2 = t_offset + (c - t1) + tau_su + tau_delay_s
    estimate = 0.5 * (t2 - c)
    return t1, t2, estimate


class TestMeasureInterval:
    def test_ideal_counter_returns_difference(self):
        assert TicModel().measure_interval(5e-6, 8e-6) == pytest.approx(3e-6, abs=1e-21)

    def test_quantization_rounds_to_nearest(self):
        tic = TicModel(resolution_s=1e-12)
        assert tic.measure_interval(0.0, 3.0004e-12) == pytest.approx(3e-12, abs=1e-24)

    def test_jitter_std(self):
        tic = TicModel(jitter_rms_s=10e-12, rng_seed=1)
        vals = [tic.measure_interval(0.0, 1e-6) for _ in range(10_000)]
        assert np.std(vals) == pytest.approx(10e-12, rel=0.05)
        assert np.mean(vals) == pytest.approx(1e-6, abs=1e-12)

    def test_deterministic_per_seed_and_call_index(self):
        a = TicModel(jitter_rms_s=5e-12, rng_seed=7)
        b = TicModel(jitter_rms_s=5e-12, rng_seed=7)
        assert [a.measure_interval(0, 0) for _ in range(5)] == \
            [b.measure_interval(0, 0) for _ in range(5)]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            TicModel().measure_interval(0.0, math.inf)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("side", ["start", "stop"])
    @pytest.mark.parametrize("t", [[], [0.0], [1.0, -1e308], [np.nan, 1.0], [1.0, np.nan],
                                   [np.inf, 0.0], [0.0, -np.inf], [np.nan, np.inf]])
    def test_timestamps_are_checked_as_by_isfinite(self, t, side):
        # the check takes the minimum and maximum of each side; it accepts
        # exactly what np.all(np.isfinite(t)) accepts, no readings included
        t = np.array(t, dtype=float)
        pair = (t, np.zeros_like(t)) if side == "start" else (np.zeros_like(t), t)
        tic = TicModel(jitter_rms_s=1e-12)
        if np.all(np.isfinite(t)):
            assert tic.measure_intervals(*pair).size == t.size
        else:
            with pytest.raises(ValidationError, match="timestamps must be finite"):
                tic.measure_intervals(*pair)


class TestReversalDelay:
    def test_subtraction(self):
        assert compute_reversal_delay(5e-3, 1.153e-3) == pytest.approx(3.847e-3, rel=1e-12)

    def test_boundary_overflows(self):
        with pytest.raises(ReversalOverflowError):
            compute_reversal_delay(5e-3, 5e-3)

    def test_composed_request_interval(self):
        # T1 from the one-way composition: tau_us = 1.127 ms, offset 100 ns
        t1 = 1.127e-3 - 100e-9
        assert compute_reversal_delay(5e-3, t1) == pytest.approx(
            5e-3 - 1.127e-3 + 100e-9, rel=1e-12)


class TestSyncRound:
    def cfg(self, **kwargs):
        return ProtocolConfig(reversal_constant_s=5e-3, **kwargs)

    def test_plain_offset_round_matches_oracle(self):
        server = ClockModel()
        user = ClockModel(initial_offset_s=100e-9)
        link = reciprocal_link()
        r = sync_round(server, user, link, HW0, IDEAL_TIC(), IDEAL_TIC(), self.cfg(), 0.0)
        tau = 230.0 * 4.9e-6
        t1, t2, est = oracle_round(100e-9, tau, tau, 5e-3)
        assert r.t1_s == pytest.approx(t1, abs=1e-18)
        assert r.t2_s == pytest.approx(t2, abs=1e-18)
        assert r.t2_s == pytest.approx(5e-3 + 200e-9, abs=1e-18)
        assert r.offset_estimate_s == pytest.approx(100e-9, abs=1e-15)
        assert r.residual_s == pytest.approx(0.0, abs=1e-15)

    def test_pure_asymmetry_biases_estimate_by_half(self):
        server = ClockModel()
        user = ClockModel(initial_offset_s=100e-9)
        link = reciprocal_link(sagnac_s=100e-12)  # tau_su - tau_us = 100 ps
        r = sync_round(server, user, link, HW0, IDEAL_TIC(), IDEAL_TIC(), self.cfg(), 0.0)
        assert r.offset_estimate_s == pytest.approx(100e-9 + 50e-12, abs=1e-15)

    def test_calibration_cancels_the_bias(self):
        server = ClockModel()
        user = ClockModel(initial_offset_s=100e-9)
        link = reciprocal_link(sagnac_s=100e-12)
        cal = CalibrationSet(tau_fpda_s=100e-12, reversal_constant_s=5e-3,
                             provenance={"tau_fpda_s": "injected"})
        cfg = self.cfg(calibration=cal)
        r = sync_round(server, user, link, HW0, IDEAL_TIC(), IDEAL_TIC(), cfg, 0.0)
        assert r.offset_estimate_s == pytest.approx(100e-9, abs=1e-15)
        assert r.residual_s == pytest.approx(0.0, abs=1e-15)

    def test_full_hardware_round_matches_oracle(self):
        hw = HardwareDelays(tx_server_s=35e-9, rx_server_s=28e-9, tx_user_s=35.02e-9,
                            rx_user_s=27.99e-9, delay_unit_dev_server_s=15e-12,
                            biedfa_lambda1_s=2.140e-9, biedfa_lambda2_s=2.137e-9)
        link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                         sagnac_s=30e-12)
        server = ClockModel(initial_offset_s=-20e-9)
        user = ClockModel(initial_offset_s=80e-9)
        r = sync_round(server, user, link, hw, IDEAL_TIC(), IDEAL_TIC(), self.cfg(), 0.0)
        us, su = Direction.USER_TO_SERVER, Direction.SERVER_TO_USER
        tau_us = path_delay(hw, us, link.fiber_delay_s(us, 0.0))
        tau_su = path_delay(hw, su, link.fiber_delay_s(su, 0.0))
        t1, t2, est = oracle_round(100e-9, tau_us, tau_su, 5e-3, tau_delay_s=15e-12)
        assert r.t1_s == pytest.approx(t1, abs=1e-18)
        assert r.t2_s == pytest.approx(t2, abs=1e-18)
        assert r.offset_estimate_s == pytest.approx(est, abs=1e-18)

    def test_calibration_must_share_the_reversal_constant(self):
        cal = CalibrationSet(reversal_constant_s=4e-3)
        with pytest.raises(ValidationError, match="calibration reversal constant differs"):
            self.cfg(calibration=cal)

    @settings(max_examples=60, deadline=None)
    @given(
        amp_exp=st.floats(-12, -8),  # fluctuation amplitude 1 ps .. 10 ns
        offset=st.floats(-1e-6, 1e-6),
        seed=st.integers(0, 2**31),
        t=st.floats(0.0, 1e4),
    )
    def test_exact_cancellation_for_reciprocal_links(self, amp_exp, offset, seed, t):
        # the core claim: any reciprocal fluctuation cancels exactly
        link = reciprocal_link(
            fluctuation=FluctuationSpec(amplitude_s=10 ** amp_exp, timescale_s=120.0,
                                        rng_seed=seed))
        server = ClockModel()
        user = ClockModel(initial_offset_s=offset)
        r = sync_round(server, user, link, HW0, IDEAL_TIC(), IDEAL_TIC(), self.cfg(), t)
        assert abs(r.residual_s) <= 1e-15

    def test_fluctuation_immunity_across_three_decades(self):
        # rounding on the ms-scale sums leaves ~1e-18 s; anything beyond
        # that would mean the fluctuation actually leaks into the estimate
        ests = []
        for amp in (1e-12, 1e-10, 1e-9):
            link = reciprocal_link(
                fluctuation=FluctuationSpec(amplitude_s=amp, timescale_s=60.0, rng_seed=3))
            r = sync_round(ClockModel(), ClockModel(initial_offset_s=50e-9), link, HW0,
                           IDEAL_TIC(), IDEAL_TIC(), self.cfg(), 100.0)
            ests.append(r.offset_estimate_s)
        assert max(ests) - min(ests) < 1e-16

    def test_tic_noise_on_response_propagates_with_half_weight(self):
        server = ClockModel()
        user = ClockModel(initial_offset_s=100e-9)
        link = reciprocal_link()
        sigma = 10e-12
        tic_user = TicModel(jitter_rms_s=sigma, rng_seed=5)
        errs = []
        for k in range(10_000):
            r = sync_round(server, user, link, HW0, IDEAL_TIC(), tic_user, self.cfg(),
                           float(k))
            errs.append(r.offset_estimate_s - r.true_offset_s)
        assert np.std(errs) == pytest.approx(sigma / 2, rel=0.05)

    def test_non_causal_when_reversal_precedes_measurement(self):
        # C > T1 but C < 2*T1: the delayed emission would predate the arrival
        link = reciprocal_link()
        cfg = ProtocolConfig(reversal_constant_s=1.2e-3)
        with pytest.raises(NonCausalError):
            sync_round(ClockModel(), ClockModel(), link, HW0, IDEAL_TIC(), IDEAL_TIC(),
                       cfg, 0.0)

    def test_reversal_overflow_propagates(self):
        link = reciprocal_link()
        cfg = ProtocolConfig(reversal_constant_s=1e-3)  # < tau_us
        with pytest.raises(ReversalOverflowError):
            sync_round(ClockModel(), ClockModel(), link, HW0, IDEAL_TIC(), IDEAL_TIC(),
                       cfg, 0.0)

    def test_causal_event_ordering_recorded(self):
        r = sync_round(ClockModel(), ClockModel(initial_offset_s=1e-7),
                       reciprocal_link(), HW0, IDEAL_TIC(), IDEAL_TIC(), self.cfg(), 0.0)
        e = r.events
        assert e.user_emit_rel_s < e.rxs_rel_s < e.reversal_emit_rel_s < e.rxu_rel_s


class TestTwoWayBaseline:
    def test_symmetric_link(self):
        tau, t_off = 1.127e-3, 100e-9
        assert two_way_offset(tau - t_off, tau + t_off) == pytest.approx(t_off, abs=1e-18)

    def test_asymmetry_enters_with_half_weight(self):
        tau, t_off, delta = 1e-3, 50e-9, 200e-12
        est = two_way_offset(tau - t_off, tau + delta + t_off)
        assert est == pytest.approx(t_off + delta / 2, abs=1e-18)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        offset=st.floats(-1e-6, 1e-6),
        length=st.floats(1.0, 500.0),
        sagnac_ps=st.floats(-100.0, 100.0),
        disp=st.floats(0.0, 20.0),
        tx_s=st.floats(0.0, 1e-7), rx_s=st.floats(0.0, 1e-7),
        tx_u=st.floats(0.0, 1e-7), rx_u=st.floats(0.0, 1e-7),
    )
    def test_equals_reversal_estimate_on_identical_realizations(
            self, seed, offset, length, sagnac_ps, disp, tx_s, rx_s, tx_u, rx_u):
        # classic two-way exchange over the same channel realization; the
        # reversal path's delay unit is not part of a classic setup, so its
        # deviation is zero here
        link = LinkModel(length_km=length, dispersion_coeff_ps_per_nm_km=disp,
                         sagnac_s=sagnac_ps * 1e-12,
                         fluctuation=FluctuationSpec(amplitude_s=1e-10,
                                                     timescale_s=300.0, rng_seed=seed))
        hw = HardwareDelays(tx_server_s=tx_s, rx_server_s=rx_s, tx_user_s=tx_u,
                            rx_user_s=rx_u)
        server = ClockModel()
        user = ClockModel(initial_offset_s=offset)
        cfg = ProtocolConfig(reversal_constant_s=10e-3)
        r = sync_round(server, user, link, hw, IDEAL_TIC(), IDEAL_TIC(), cfg, 0.0)
        t_fwd = r.t1_s
        su = Direction.SERVER_TO_USER
        t_rev = path_delay(hw, su, link.fiber_delay_s(su, 0.0)) + r.true_offset_s
        assert two_way_offset(t_fwd, t_rev) == pytest.approx(
            r.offset_estimate_s, abs=1e-15)


class TestSession:
    def test_all_ideal_session_has_zero_residuals(self):
        cfg = ProtocolConfig(reversal_constant_s=5e-3, compensation_period_s=1.0)
        rounds = run_session(ClockModel(), ClockModel(), reciprocal_link(), HW0,
                             IDEAL_TIC(), IDEAL_TIC(), cfg, 100.0)
        assert len(rounds) == 100
        assert np.all(rounds.residual_s == 0.0)

    def test_step_steering_acquires_in_one_round(self):
        cfg = ProtocolConfig(reversal_constant_s=5e-3)
        rounds = run_session(ClockModel(), ClockModel(initial_offset_s=100e-9),
                             reciprocal_link(), HW0, IDEAL_TIC(), IDEAL_TIC(), cfg, 10.0)
        assert rounds.true_offset_s[0] == pytest.approx(100e-9, abs=1e-18)
        assert np.all(np.abs(rounds.true_offset_s[1:]) <= 1e-15)

    def test_steering_disabled_reverts_to_raw_clock_difference(self):
        mk = lambda seed: ClockModel(
            noise=NoiseProfile(components=[("white_pm", 20e-12)], rng_seed=seed),
            noise_grid_s=1.0)
        server, user = mk(1), mk(2)
        cfg = ProtocolConfig(reversal_constant_s=5e-3)
        rounds = run_session(server, user, reciprocal_link(), HW0, IDEAL_TIC(),
                             IDEAL_TIC(), cfg, 50.0, steering_enabled=False)
        expected = [user.time_error(float(k)) - server.time_error(float(k))
                    for k in range(50)]
        assert rounds.true_offset_s == pytest.approx(expected, abs=1e-18)

    def test_tracking_series_drops_warmup_and_applies_output_shift(self):
        hw = HardwareDelays(delay_unit_dev_user_s=12e-12)
        cfg = ProtocolConfig(reversal_constant_s=5e-3)
        rounds = run_session(ClockModel(), ClockModel(initial_offset_s=100e-9),
                             reciprocal_link(), hw, IDEAL_TIC(), IDEAL_TIC(), cfg, 20.0)
        series = tracking_error_series(rounds, cfg, warmup_rounds=1)
        assert len(series) == 19
        # uncalibrated: the constant delay-unit deviation shifts the output
        assert series.values == pytest.approx(np.full(19, 12e-12), abs=1e-15)

    def test_session_has_every_round_epoch(self):
        cfg = ProtocolConfig(reversal_constant_s=5e-3)
        rounds = run_session(ClockModel(), ClockModel(), reciprocal_link(), HW0,
                             IDEAL_TIC(), IDEAL_TIC(), cfg, 5.0)
        assert rounds.t_round_s.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert rounds.events.epoch_s.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_rejects_too_short_duration(self):
        cfg = ProtocolConfig(reversal_constant_s=5e-3)
        with pytest.raises(ValidationError):
            run_session(ClockModel(), ClockModel(), reciprocal_link(), HW0,
                        IDEAL_TIC(), IDEAL_TIC(), cfg, 0.5)


class TestTdmAdmission:
    def test_sixty_users_fit_in_a_minute(self):
        admitted, schedule = tdm_admission(60, 60.0, 1.0)
        assert admitted
        assert len(schedule) == 60
        assert schedule[0] == 0.0 and schedule[-1] == 59.0

    def test_sixty_one_users_rejected(self):
        admitted, schedule = tdm_admission(61, 60.0, 1.0)
        assert not admitted
        assert schedule == []

    def test_single_user_degenerate(self):
        admitted, schedule = tdm_admission(1, 1.0, 1.0)
        assert admitted
        assert schedule == [0.0]

    def test_holdover_limit_rejects_long_periods(self):
        admitted, _ = tdm_admission(10, 120.0, 1.0, holdover_limit_s=60.0)
        assert not admitted

    def test_rejects_nonpositive_slot(self):
        with pytest.raises(ValidationError):
            tdm_admission(1, 1.0, 0.0)
