"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import filecmp
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fotsim.access import AccessNode, observe_round
from fotsim.channel import Direction, FluctuationSpec, HardwareDelays, LinkModel, path_delay
from fotsim.protocol import (ProtocolConfig, TicModel, run_rounds, run_session, sync_round,
                             tdm_admission, two_way_offset)
from fotsim.scenario import build_calibration_set, load_scenario, run, validate_scenario
from fotsim.stability import StabilityCurve, slope, tdev, tdev_bruteforce
from fotsim.timebase import ClockModel, TimeErrorSeries

FS = 1e-15  # one femtosecond
HW0 = HardwareDelays()


def ok(line: str) -> None:
    print(f"[PASS] {line}")


def ideal_tic() -> TicModel:
    return TicModel()


def test_criterion_1_exact_cancellation_under_fluctuation():
    """Reciprocal link, fluctuation 1 ps..10 ns, zero hardware, ideal counters:
    every round's residual within 1 fs, 100 seeded scenarios, under 10 s."""
    t_start = time.monotonic()
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for case in range(100):
        amp = 10 ** rng.uniform(-12, -8)
        link = LinkModel(
            length_km=float(rng.uniform(1.0, 300.0)),
            dispersion_coeff_ps_per_nm_km=0.0,
            fluctuation=FluctuationSpec(amplitude_s=amp, timescale_s=120.0,
                                        rng_seed=case),
        )
        server = ClockModel(initial_offset_s=float(rng.uniform(-1e-6, 1e-6)))
        user = ClockModel(initial_offset_s=float(rng.uniform(-1e-6, 1e-6)))
        cfg = ProtocolConfig(reversal_constant_s=5e-3, compensation_period_s=1.0)
        rounds = run_session(server, user, link, HW0, ideal_tic(), ideal_tic(),
                             cfg, 10.0)
        worst = max(worst, float(np.max(np.abs(rounds.residual_s))))
    elapsed = time.monotonic() - t_start
    assert worst <= FS
    assert elapsed < 10.0
    ok(f"criterion 1: exact cancellation, worst residual {worst:.2e} s over "
       f"100 scenarios x 10 rounds in {elapsed:.2f} s")


def test_criterion_2_asymmetry_and_calibration_theorem():
    """Injected constant asymmetries bias the raw estimate by exactly half
    their sum; the calibration pipeline removes the bias to 1 fs."""
    doc = {
        "name": "asymmetry_case", "mode": "sync", "duration_s": 10.0,
        "master_seed": 5, "clocks": {
            "server": {"initial_offset_s": 0.0},
            "user": {"initial_offset_s": 100e-9},
        },
        "link": {"length_km": 230.0, "dispersion_coeff_ps_per_nm_km": 17.0,
                 "sagnac_s": 30e-12, "lambda_server_nm": 1546.12,
                 "lambda_user_nm": 1546.92},
        "hardware": {"tx_server_s": 30e-12, "rx_user_s": 20e-12,
                     "tx_user_s": 15e-12, "rx_server_s": 12e-12,
                     "delay_unit_dev_server_s": 20e-12,
                     "delay_unit_dev_user_s": 12e-12,
                     "biedfa_lambda1_s": 8e-12, "biedfa_lambda2_s": 5e-12},
        "tics": {"server": {"jitter_rms_s": 0.0}, "user": {"jitter_rms_s": 0.0}},
        "protocol": {"reversal_constant_s": 5e-3},
    }
    scenario = validate_scenario(doc)
    from fotsim.scenario import build_models
    models = build_models(scenario)

    # uncalibrated: bias is half of tau_hd + tau_fpda + sagnac + tau_oaa
    r = sync_round(models.server, models.user, models.link, models.hw,
                   ideal_tic(), ideal_tic(), models.protocol, 0.0)
    bias = r.offset_estimate_s - r.true_offset_s
    # tau_hd 43 ps, dispersion 3128 ps, sagnac 30 ps, amplifier 3 ps
    assert abs(bias - 1.602e-9) <= FS

    cal = build_calibration_set(scenario)
    assert abs(cal.tau_hd_s - 43e-12) <= FS
    assert abs(cal.tau_fpda_s - 3158e-12) <= FS
    assert abs(cal.tau_oaa_s - 3e-12) <= FS
    cfg = ProtocolConfig(reversal_constant_s=5e-3, calibration=cal)
    r2 = sync_round(models.server, models.user, models.link, models.hw,
                    ideal_tic(), ideal_tic(), cfg, 1.0)
    assert abs(r2.offset_estimate_s - r2.true_offset_s) <= FS
    assert abs(r2.residual_s) <= FS
    ok(f"criterion 2: uncalibrated bias {bias*1e12:.3f} ps == half of 3204 ps; "
       f"calibrated bias {abs(r2.residual_s):.2e} s")


def test_criterion_3_multiple_access_position_invariance():
    """Ideal scenario: recovered residual within 1 fs at every 10 km tap
    position and at the amplifier (115 km), with and without 50 ns of
    amplifier delay; the node at the user end equals the end-to-end
    result."""
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-10,
                                                 timescale_s=300.0, rng_seed=9))
    cfg = ProtocolConfig(reversal_constant_s=5e-3)
    server = ClockModel()
    user = ClockModel(initial_offset_s=100e-9)
    worst = 0.0
    for hw in (HW0, HardwareDelays(biedfa_lambda1_s=50e-9, biedfa_lambda2_s=50e-9)):
        r = sync_round(server, user, link, hw, ideal_tic(), ideal_tic(), cfg, 0.0)
        for km in [*range(0, 231, 10), link.biedfa_position_km]:
            node = AccessNode(distance_from_server_km=float(km), tic=ideal_tic())
            obs = observe_round(node, r.events)
            worst = max(worst, abs(obs.residual_s))
    assert worst <= FS

    # user-end node vs end-to-end, with a constant asymmetry so both are biased
    link_a = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0,
                       sagnac_s=30e-12)
    r_a = sync_round(server, user, link_a, HW0, ideal_tic(), ideal_tic(), cfg, 0.0)
    node_end = AccessNode(distance_from_server_km=230.0, tic=ideal_tic())
    obs_end = observe_round(node_end, r_a.events)
    end_to_end = r_a.offset_estimate_s - r_a.true_offset_s
    assert abs(obs_end.residual_s - end_to_end) <= FS
    ok(f"criterion 3: position sweep worst residual {worst:.2e} s; user-end node "
       f"matches end-to-end to {abs(obs_end.residual_s - end_to_end):.2e} s")


@settings(max_examples=200, deadline=None)
@given(
    length_km=st.floats(1.0, 300.0),
    amplifier=st.floats(0.0, 1.0),
    amplifier_delay_s=st.floats(0.0, 1e-6),
    amplitude_exp=st.floats(-12.0, -8.0),
    timescale_s=st.floats(1.0, 1000.0),
    seed=st.integers(0, 2**32 - 1),
    offset_s=st.floats(-1e-6, 1e-6),
    taps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
@example(length_km=230.0, amplifier=0.5, amplifier_delay_s=5e-8, amplitude_exp=-10.0,
         timescale_s=300.0, seed=9, offset_s=1e-7, taps=[0.0, 0.5, 1.0])
def test_criterion_3_position_invariance_on_any_reciprocal_link(
        length_km, amplifier, amplifier_delay_s, amplitude_exp, timescale_s, seed, offset_s,
        taps):
    """Tap-position invariance through the round engine, on drawn links.

    The link is reciprocal: no dispersion or Sagnac asymmetry, one
    amplifier delay a at both wavelengths, and the OU fluctuation taken at
    the round epoch, so both crossings of a round see one fiber delay F.
    With ideal counters a node at d km taps t_u = e_u + f_u F + [a if the
    amplifier is between the node and the user, or at the node] and t_s =
    e_r + f_s F + [a if it is between the server and the node], where f_u
    + f_s = 1, e_u is the user emission and e_r = p + C - (e_u + F + a - p)
    the reversed emission after the server pulse p.  Its fresh recovery
    t_u + (t_s - t_u) / 2 is then p + C/2 exactly, wherever the node sits:
    the two taps hold F once and a once between them.  A tap at the
    amplifier itself sits on its server side, so t_u holds a and t_s does
    not; the example puts one there.

    In floating point, the operations from e_u, p and F to the residual
    are fewer than 32 (the amplifier's two additions, the request's
    arrival and T1, C - T1, the tap fractions and their products with F,
    the taps' sums, the interval, the recovery and the residual), each
    rounding by at most half an ulp of its result.  Every result lies
    below 2^-7 s (C = 5 ms, F at most 1.5 ms at 300 km, a at most 1 us),
    so half an ulp is at most 2^-61 s, and each error reaches the
    residual with a weight of at most 1 (the tap fractions' own errors,
    relative 2^-52, enter times F < 2^-9 s).  So every round's fresh
    residual, and the recorded residual of round 0, which applies its own
    interval, lie within 32 x 2^-61 s = 2^-56 s (1.4e-17 s).  Later
    rounds apply the previous round's interval, so their recorded residual
    follows the link's change from round to round, and is not checked.
    """
    amp_km = amplifier * length_km
    positions = [tap * length_km for tap in taps]
    link = LinkModel(length_km=length_km, dispersion_coeff_ps_per_nm_km=0.0,
                     biedfa_position_km=amp_km,
                     fluctuation=FluctuationSpec(amplitude_s=10.0 ** amplitude_exp,
                                                 timescale_s=timescale_s, rng_seed=seed))
    hw = HardwareDelays(biedfa_lambda1_s=amplifier_delay_s, biedfa_lambda2_s=amplifier_delay_s)
    cfg = ProtocolConfig(reversal_constant_s=5e-3)
    nodes = [AccessNode(distance_from_server_km=d, tic=ideal_tic(), name=f"n{i}")
             for i, d in enumerate(positions)]
    result = run_rounds(ClockModel(), ClockModel(initial_offset_s=offset_s), link, hw,
                        ideal_tic(), ideal_tic(), cfg, 16, nodes=nodes)
    target = result.events.server_pulse_rel_s + 0.5 * cfg.reversal_constant_s
    bound = 2.0 ** -56
    for obs in result.nodes.values():
        fresh = obs.t_u_an_rel_s + 0.5 * obs.t3_s - target
        assert np.max(np.abs(fresh)) <= bound
        assert abs(obs.residual_s[0]) <= bound


def test_criterion_4_baseline_equivalence():
    """Reversal estimate equals the classic two-way estimate on identical
    channel realizations, 100 random scenarios, within 1 fs."""
    rng = np.random.default_rng(20240404)
    worst = 0.0
    for case in range(100):
        link = LinkModel(
            length_km=float(rng.uniform(1.0, 400.0)),
            dispersion_coeff_ps_per_nm_km=float(rng.uniform(0.0, 20.0)),
            sagnac_s=float(rng.uniform(-100e-12, 100e-12)),
            fluctuation=FluctuationSpec(amplitude_s=100e-12, timescale_s=300.0,
                                        rng_seed=1000 + case),
        )
        hw = HardwareDelays(
            tx_server_s=float(rng.uniform(0, 100e-9)),
            rx_server_s=float(rng.uniform(0, 100e-9)),
            tx_user_s=float(rng.uniform(0, 100e-9)),
            rx_user_s=float(rng.uniform(0, 100e-9)),
        )
        server = ClockModel(initial_offset_s=float(rng.uniform(-1e-6, 1e-6)))
        user = ClockModel(initial_offset_s=float(rng.uniform(-1e-6, 1e-6)))
        cfg = ProtocolConfig(reversal_constant_s=10e-3)
        t = float(rng.uniform(0.0, 1000.0))
        r = sync_round(server, user, link, hw, ideal_tic(), ideal_tic(), cfg, t)
        t_fwd = r.t1_s
        su = Direction.SERVER_TO_USER
        t_rev = path_delay(hw, su, link.fiber_delay_s(su, t)) + r.true_offset_s
        worst = max(worst, abs(two_way_offset(t_fwd, t_rev) - r.offset_estimate_s))
    assert worst <= FS
    ok(f"criterion 4: reversal vs two-way, worst disagreement {worst:.2e} s "
       f"over 100 scenarios")


def test_criterion_5_tdev_estimator_correctness():
    """Fast TDEV equals the brute-force oracle to 1e-12 relative; white-PM
    slope -0.5 +- 0.05 and TDEV(tau0) = sigma +- 5% over 200 seeds; an exact
    linear drift is annihilated exactly."""
    # oracle agreement on random N=64 series
    worst_rel = 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = TimeErrorSeries(tau0_s=1.0, values=rng.standard_normal(64) * 1e-10)
        for tau in (1.0, 2.0, 5.0, 13.0, 21.0):
            a = tdev(s, taus=[tau]).values[0]
            b = tdev_bruteforce(s, tau)
            worst_rel = max(worst_rel, abs(a - b) / b)
    assert worst_rel <= 1e-12

    # white-PM ensemble: level at tau0 and log-log slope
    sigma = 25e-12
    taus = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
    tvars = np.zeros(len(taus))
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        s = TimeErrorSeries(tau0_s=1.0, values=sigma * rng.standard_normal(1024))
        tvars += tdev(s, taus=taus).values ** 2
    mean_curve = StabilityCurve(np.asarray(taus), np.sqrt(tvars / 200),
                                np.ones(len(taus), dtype=int))
    level = mean_curve.values[0]
    fitted = slope(mean_curve, 1.0, 50.0)
    assert level == pytest.approx(sigma, rel=0.05)
    assert fitted == pytest.approx(-0.5, abs=0.05)

    # drift invariance: a binary-exact ramp gives identically zero
    step = 2.0 ** -40
    ramp = TimeErrorSeries(tau0_s=1.0, values=step * np.arange(256))
    curve = tdev(ramp)
    assert np.all(curve.values == 0.0)
    ok(f"criterion 5: oracle agreement {worst_rel:.2e} rel; white-PM level "
       f"{level*1e12:.2f} ps, slope {fitted:+.3f}; exact ramp -> all zeros")


def test_criterion_6_link_sync_qualitative_reproduction():
    """230 km full-sync run vs the two clock-pair regimes: 1 s TDEV within 2x
    of 25 ps, long-term below the frequency-sync-only curve, crossing between
    10 s and 300 s; 1e4 s durations in under 2 minutes."""
    t_start = time.monotonic()
    fr = run(load_scenario("free_running_clocks")).curves["main"]
    fs = run(load_scenario("freq_synced_clocks")).curves["main"]
    ls = run(load_scenario("link_sync_230km")).curves["main"]
    elapsed = time.monotonic() - t_start
    assert elapsed < 120.0

    # tuned endpoints (2x windows around the configured targets)
    assert 53e-12 <= fr.value_at(1.0) <= 212e-12
    assert 1.5e-6 <= fr.value_at(1000.0) <= 6e-6
    assert 9.5e-12 <= fs.value_at(1.0) <= 38e-12
    assert 5.5e-12 <= fs.value_at(1000.0) <= 22e-12

    # (a) sync performance at 1 s within 2x of 25 ps
    at1 = ls.value_at(1.0)
    assert 12.5e-12 <= at1 <= 50e-12
    # (b) long-term: compensation beats frequency sync alone
    assert ls.value_at(1000.0) < fs.value_at(1000.0)
    # (c) the curves cross after 10 s and by 300 s
    assert ls.value_at(10.0) > fs.value_at(10.0)
    crossing = None
    for tau in ls.taus:
        if tau > 10.0 and tau <= 300.0 and ls.value_at(tau) < fs.value_at(tau):
            crossing = tau
            break
    assert crossing is not None
    ok(f"criterion 6: sync @1s {at1*1e12:.1f} ps; @1000s "
       f"{ls.value_at(1000.0)*1e12:.2f} ps < freq-sync "
       f"{fs.value_at(1000.0)*1e12:.2f} ps; crossing at tau={crossing:.0f} s; "
       f"runtime {elapsed:.1f} s")


def test_criterion_7_access_node_qualitative_reproduction():
    """Access node at 50 km with a noisier counter: node TDEV at 1 s above the
    end-to-end curve, both at or below 10 ps by 1000 s."""
    report = run(load_scenario("midlink_access_230km"))
    main = report.curves["main"]
    node = report.curves["node_50km"]
    assert node.value_at(1.0) > main.value_at(1.0)
    assert node.value_at(1000.0) <= 10e-12
    assert main.value_at(1000.0) <= 10e-12
    ok(f"criterion 7: node @1s {node.value_at(1.0)*1e12:.1f} ps > end-to-end "
       f"{main.value_at(1.0)*1e12:.1f} ps; @1000s "
       f"{node.value_at(1000.0)*1e12:.2f} / {main.value_at(1000.0)*1e12:.2f} ps")


def test_criterion_8_tdm_capacity():
    """Sixty one-second slots fit a sixty-second period; sixty-one do not."""
    admitted, schedule = tdm_admission(60, 60.0, 1.0)
    rejected, empty = tdm_admission(61, 60.0, 1.0)
    assert admitted and len(schedule) == 60
    assert not rejected and empty == []
    ok("criterion 8: 60 users admitted at 60 s / 1 s, 61 rejected")


def test_criterion_9_deterministic_artifact_trees(tmp_path):
    """Equal (scenario, seed) runs produce byte-identical output trees."""
    for name in ("demo_short", "freq_synced_clocks"):
        scenario = load_scenario(name)
        run(scenario, out_dir=tmp_path / name / "a")
        run(scenario, out_dir=tmp_path / name / "b")
        files = sorted(p.name for p in (tmp_path / name / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / name / "b").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / name / "a", tmp_path / name / "b", files, shallow=False)
        assert mismatch == [] and errors == [], f"{name}: {mismatch} {errors}"
    ok("criterion 9: byte-identical reruns for demo_short and freq_synced_clocks")
