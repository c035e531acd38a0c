"""Round engine against the per-round reference, bit for bit.

run_rounds builds the rounds' inputs as arrays, scans only the steering
recursion and derives everything else with array arithmetic.  sync_round and
observe_round state one round plainly; replaying them with hand-accumulated
steering must give the engine's columns exactly, and a failing round must
raise the same ProtocolError subclass the replay raises first.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fotsim
from fotsim.access import AccessNode, observe_round
from fotsim.calibration import CalibrationSet, corrected_offset
from fotsim.channel import FluctuationSpec, HardwareDelays, LinkModel
from fotsim.errors import (
    NegativeT3Error,
    NonCausalError,
    ProtocolError,
    ReversalOverflowError,
)
from fotsim import protocol
from fotsim.protocol import ProtocolConfig, RoundEvents, TicModel, run_rounds, sync_round
from fotsim.scenario import build_models, load_scenario, run, validate_scenario
from fotsim.timebase import ClockModel, NoiseProfile, NOISE_TYPES

ROUND_FIELDS = ("t_round_s", "t1_s", "t2_s", "offset_estimate_s", "true_offset_s",
                "residual_s")
EVENT_FIELDS = ("user_emit_rel_s", "server_pulse_rel_s", "rxs_rel_s",
                "reversal_emit_rel_s", "rxu_rel_s", "fiber_us_s", "fiber_su_s")
NODE_FIELDS = ("t3_s", "recovered_rel_s", "residual_s")


def replay(server, user, link, hw, tic_server, tic_user, cfg, n_rounds,
           steering_enabled=True, nodes=()):
    """Columns of n_rounds sync_round/observe_round calls, as run_rounds defines them."""
    cols = {name: [] for name in ROUND_FIELDS + EVENT_FIELDS}
    node_cols = {node.name: {name: [] for name in NODE_FIELDS} for node in nodes}
    last_t3 = {}
    steer = 0.0
    for k in range(n_rounds):
        r = sync_round(server, user, link, hw, tic_server, tic_user, cfg,
                       k * cfg.compensation_period_s, user_steer_s=steer)
        for name in ROUND_FIELDS:
            cols[name].append(getattr(r, name))
        for name in EVENT_FIELDS:
            cols[name].append(getattr(r.events, name))
        for node in nodes:
            obs = observe_round(node, r.events, applied_t3_s=last_t3.get(node.name))
            last_t3[node.name] = obs.t3_s
            for name in NODE_FIELDS:
                node_cols[node.name][name].append(getattr(obs, name))
        if steering_enabled:
            steer += r.offset_estimate_s
    return cols, node_cols


def same_bits(got, want) -> bool:
    # tobytes also tells -0.0 from 0.0
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def assert_engine_matches(result, cols, node_cols):
    assert len(result) == len(cols["t_round_s"])
    for name in ROUND_FIELDS:
        assert same_bits(getattr(result, name), cols[name]), name
    for name in EVENT_FIELDS:
        assert same_bits(getattr(result.events, name), cols[name]), name
    assert list(result.nodes) == list(node_cols)
    for node_name, want in node_cols.items():
        for name in NODE_FIELDS:
            assert same_bits(getattr(result.nodes[node_name], name), want[name]), \
                (node_name, name)


def run_both(parts, n_rounds, steering_enabled):
    """The engine and the replay on two identically seeded copies of parts."""
    engine_parts, replay_parts = copy.deepcopy(parts), copy.deepcopy(parts)
    *models, nodes = engine_parts
    try:
        result = run_rounds(*models, n_rounds, steering_enabled=steering_enabled,
                            nodes=nodes)
        engine_error = None
    except ProtocolError as exc:
        result, engine_error = None, exc
    *models, nodes = replay_parts
    try:
        replayed = replay(*models, n_rounds, steering_enabled, nodes)
        replay_error = None
    except ProtocolError as exc:
        replayed, replay_error = None, exc
    return result, engine_error, replayed, replay_error


# --- random small scenarios ------------------------------------------------

delay = st.one_of(st.just(0.0), st.floats(-5e-8, 5e-8),
                  st.floats(-3e-3, 3e-3))  # large values make rounds fail


@st.composite
def clocks(draw):
    def clock():
        comps = draw(st.lists(st.tuples(st.sampled_from(NOISE_TYPES),
                                        st.floats(1e-13, 1e-10)), max_size=3))
        noise = NoiseProfile(components=comps, rng_seed=draw(st.integers(0, 2**32))) \
            if comps else None
        return ClockModel(
            initial_offset_s=draw(st.floats(-1e-6, 1e-6)),
            # fast drifts move a session into failing rounds part way through
            frac_frequency=draw(st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1e-4, 1e-4))),
            drift_per_s=draw(st.floats(-1e-9, 1e-9)),
            noise=noise,
            # a fine grid makes round epochs reach past the first noise buffers
            noise_grid_s=draw(st.sampled_from([None, 0.01, 0.3, 1.0])),
        )
    return clock(), clock()


@st.composite
def sessions(draw):
    server, user = draw(clocks())
    length = draw(st.sampled_from([0.0, 1.0, 50.0, 230.0]))
    amp_pos = draw(st.sampled_from([None, 0.0, length, 0.3 * length]))
    link = LinkModel(
        length_km=length,
        dispersion_coeff_ps_per_nm_km=draw(st.floats(-20.0, 20.0)),
        sagnac_s=draw(st.floats(-1e-10, 1e-10)),
        fluctuation=FluctuationSpec(
            amplitude_s=draw(st.sampled_from([0.0, 1e-11, 1e-9])),
            timescale_s=draw(st.sampled_from([5.0, 600.0])),
            grid_s=draw(st.sampled_from([None, 0.5, 2.0])),
            rng_seed=draw(st.integers(0, 2**32)),
        ),
        evaluate_at_emit_time=draw(st.booleans()),
        biedfa_position_km=amp_pos,
    )
    delays = {name: draw(delay) for name in (
        "tx_server_s", "rx_server_s", "tx_user_s", "rx_user_s",
        "delay_unit_dev_server_s", "delay_unit_dev_user_s",
        "biedfa_lambda1_s", "biedfa_lambda2_s")}
    # moving server->user delay from the server's TX to the user's RX keeps
    # the round's algebra but shortens a node's tap interval, down to < 0
    skew = draw(st.sampled_from([0.0, 0.0, -1.5e-3, -2.5e-3]))
    delays["tx_server_s"] += skew
    delays["rx_user_s"] -= skew
    # zeroed hardware runs the bare protocol algebra
    hw = HardwareDelays() if draw(st.booleans()) else HardwareDelays(**delays)

    def tic():
        return TicModel(jitter_rms_s=draw(st.sampled_from([0.0, 3e-11, 1e-9])),
                        resolution_s=draw(st.sampled_from([0.0, 1e-11, 2.5e-10])),
                        rng_seed=draw(st.integers(0, 2**32)))

    c = draw(st.sampled_from([5e-3, 2e-3, 1.3e-3]))
    calibration = None
    if draw(st.booleans()):
        taus = {name: draw(st.floats(-1e-8, 1e-8))
                for name in ("tau_hd_s", "tau_delay_u_s", "tau_fpda_s", "tau_oaa_s")}
        calibration = CalibrationSet(reversal_constant_s=c,
                                     provenance={name: "drawn" for name in taus}, **taus)
    cfg = ProtocolConfig(
        reversal_constant_s=c,
        compensation_period_s=draw(st.sampled_from([1.0, 0.37, 10.0])),
        calibration=calibration,
    )
    positions = draw(st.lists(
        st.sampled_from([0.0, length, amp_pos if amp_pos is not None else length / 2,
                         0.77 * length]), max_size=3))
    nodes = [AccessNode(distance_from_server_km=d, tic=tic(), name=f"n{i}",
                        coupler_delay_s=draw(st.sampled_from([0.0, 1e-9, -2e-9])))
             for i, d in enumerate(positions)]
    parts = (server, user, link, hw, tic(), tic(), cfg, nodes)
    return parts, draw(st.integers(1, 40)), draw(st.booleans())


def check_engine_equals_replay(case):
    parts, n_rounds, steering_enabled = case
    result, engine_error, replayed, replay_error = run_both(parts, n_rounds,
                                                           steering_enabled)
    if replay_error is not None:
        assert type(engine_error) is type(replay_error)
        return
    assert engine_error is None
    assert_engine_matches(result, *replayed)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sessions())
def test_engine_equals_per_round_replay(case):
    check_engine_equals_replay(case)


# --- failing rounds ----------------------------------------------------------

def drifting_parts(frac_frequency, tx_server_s=0.0, nodes=True):
    # nothing steers the user clock, so its offset from the server moves by
    # frac_frequency every round and the round measurements move with it
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=0.0)
    hw = HardwareDelays(tx_server_s=tx_server_s, rx_user_s=-tx_server_s)
    node_list = [AccessNode(distance_from_server_km=100.0, tic=TicModel(), name="mid")] \
        if nodes else []
    return (ClockModel(), ClockModel(frac_frequency=frac_frequency), link, hw,
            TicModel(), TicModel(), ProtocolConfig(reversal_constant_s=5e-3), node_list)


@pytest.mark.parametrize("nodes", [False, True])
def test_reversal_overflow_matches_replay(nodes):
    # T1 jumps from about 1.1 ms to 5.1 ms >= C in round 1; the node's tap in
    # that round does not count, because the round itself fails first
    parts = drifting_parts(-4e-3, nodes=nodes)
    _, engine_error, _, replay_error = run_both(parts, 5, False)
    assert isinstance(replay_error, ReversalOverflowError)
    assert type(engine_error) is ReversalOverflowError
    assert str(engine_error) == str(replay_error)


def test_node_failure_in_an_earlier_round_wins():
    # a negative server TX delay shortens the node's tap interval, which
    # turns negative rounds before the reversal emission precedes the request
    _, engine_error, _, replay_error = run_both(
        drifting_parts(-1e-4, tx_server_s=-2e-3, nodes=False), 100, False)
    assert isinstance(replay_error, NonCausalError)
    assert type(engine_error) is NonCausalError
    _, engine_error, _, replay_error = run_both(
        drifting_parts(-1e-4, tx_server_s=-2e-3), 100, False)
    assert isinstance(replay_error, NegativeT3Error)
    assert type(engine_error) is NegativeT3Error
    assert str(engine_error) == str(replay_error)


@pytest.mark.parametrize("nodes", [False, True])
def test_failure_in_a_later_round_matches_replay(monkeypatch, nodes):
    # round 14 is the first whose reversal emission precedes the request,
    # and round 9 holds the node's first negative tap interval
    parts = drifting_parts(-1e-4, tx_server_s=-2e-3, nodes=nodes)
    completed = []

    def recording_events(**fields):
        completed.append(RoundEvents(**fields))
        return completed[-1]

    *models, node_list = copy.deepcopy(parts)
    monkeypatch.setattr(protocol, "RoundEvents", recording_events)
    with pytest.raises(ProtocolError) as engine_error:
        run_rounds(*models, 100, steering_enabled=False, nodes=node_list)
    monkeypatch.undo()
    _, _, _, replay_error = run_both(parts, 100, False)
    assert type(engine_error.value) is type(replay_error)
    assert str(engine_error.value) == str(replay_error)
    assert isinstance(replay_error, NegativeT3Error if nodes else NonCausalError)

    # the engine completed exactly the rounds before round 14, as the replay
    # without nodes computes them
    (events,) = completed
    assert events.user_emit_rel_s.size == 14
    *models, _ = copy.deepcopy(parts)
    cols, _ = replay(*models, 14, False)
    for name in EVENT_FIELDS:
        assert same_bits(getattr(events, name), cols[name]), name
    *models, _ = copy.deepcopy(parts)
    with pytest.raises(NonCausalError):
        replay(*models, 15, False)


@pytest.mark.parametrize("steering_enabled,frac_frequency,drift_per_s,failing_round",
                         [(False, -1e-4, 0.0, 14), (True, 0.0, -1e-4, 15)])
def test_failure_under_emit_mode_and_quantization_matches_replay(
        monkeypatch, steering_enabled, frac_frequency, drift_per_s, failing_round):
    # the scan queries the link at each crossing's emission and quantizes
    # both readings, and ends at the failing round; unsteered, the
    # user clock drifts away from the server, steered, the steer lags a
    # drift that grows each round.  Either way the reversal emission first
    # precedes the request in round 14 or 15
    link = LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-9, timescale_s=5.0,
                                                 grid_s=0.5, rng_seed=3),
                     evaluate_at_emit_time=True)
    hw = HardwareDelays(tx_server_s=-2e-3, rx_user_s=2e-3)
    parts = (ClockModel(), ClockModel(frac_frequency=frac_frequency, drift_per_s=drift_per_s),
             link, hw, TicModel(jitter_rms_s=3e-11, resolution_s=1e-11, rng_seed=1),
             TicModel(jitter_rms_s=3e-11, resolution_s=1e-11, rng_seed=2),
             ProtocolConfig(reversal_constant_s=5e-3))
    completed = []

    def recording_events(**fields):
        completed.append(RoundEvents(**fields))
        return completed[-1]

    monkeypatch.setattr(protocol, "RoundEvents", recording_events)
    # pytest.raises lets any other exception through, which fails the test
    with pytest.raises(ProtocolError) as engine_error:
        run_rounds(*copy.deepcopy(parts), 100, steering_enabled=steering_enabled)
    monkeypatch.undo()
    with pytest.raises(ProtocolError) as replay_error:
        replay(*copy.deepcopy(parts), 100, steering_enabled)
    assert type(engine_error.value) is type(replay_error.value) is NonCausalError
    assert str(engine_error.value) == str(replay_error.value)

    (events,) = completed
    assert events.user_emit_rel_s.size == failing_round
    cols, _ = replay(*copy.deepcopy(parts), failing_round, steering_enabled)
    for name in EVENT_FIELDS:
        assert same_bits(getattr(events, name), cols[name]), name
    with pytest.raises(NonCausalError):
        replay(*copy.deepcopy(parts), failing_round + 1, steering_enabled)


def failing_parts(check, emit):
    """Steered models whose rounds first fail check in a round after round 0.

    A zero-length link carries only the fluctuation path, one cell a round,
    so a crossing's delay is the path plus its TX delay.  The two delay
    checks get a TX delay that keeps round 0's delay above 0 and takes the
    path's lowest value below it.  For the other two the user clock drifts
    quadratically and the steer lags it, so T1 grows by 1e-4 s a round: past
    C/2 the reversal emission precedes the request.  A server delay unit
    that adds C moves that limit past C, so T1 >= C fails first."""
    link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0,
                     fluctuation=FluctuationSpec(amplitude_s=1e-9, timescale_s=5.0,
                                                 grid_s=1.0, rng_seed=4),
                     evaluate_at_emit_time=emit)
    path = copy.deepcopy(link).fluctuation_values(np.arange(100.0))
    crossing = -0.5 * (path[0] + path.min())
    hw = {"tx_user_s": 1e-6, "tx_server_s": 1e-6}
    user = ClockModel()
    if check == "u->s delay":
        hw["tx_user_s"] = crossing
    elif check == "s->u delay":
        hw["tx_server_s"] = crossing
    else:
        user = ClockModel(drift_per_s=-1e-4)
        if check == "T1 >= C":
            hw["delay_unit_dev_server_s"] = 5e-3
    return (ClockModel(), user, link, HardwareDelays(**hw), TicModel(), TicModel(),
            ProtocolConfig(reversal_constant_s=5e-3))


@pytest.mark.parametrize("emit", [False, True], ids=["quasi-static", "emit"])
@pytest.mark.parametrize("check,error,message", [
    ("u->s delay", NonCausalError, "user->server path delay is negative"),
    ("T1 >= C", ReversalOverflowError, "reaches the reversal constant"),
    ("causality", NonCausalError, "reversal emission precedes the request"),
    ("s->u delay", NonCausalError, "server->user path delay is negative"),
])
def test_each_check_fails_as_the_replay_after_the_same_rounds(monkeypatch, check, error,
                                                              message, emit):
    # the engine finds the failing round in its one failure mask and the
    # check it failed from the columns it keeps: it raises what the replay
    # raises, after completing the rounds the replay completes
    parts = failing_parts(check, emit)
    completed = []

    def recording_events(**fields):
        completed.append(RoundEvents(**fields))
        return completed[-1]

    monkeypatch.setattr(protocol, "RoundEvents", recording_events)
    with pytest.raises(ProtocolError) as engine_error:
        run_rounds(*copy.deepcopy(parts), 100)
    monkeypatch.undo()
    with pytest.raises(ProtocolError) as replay_error:
        replay(*copy.deepcopy(parts), 100)
    assert type(engine_error.value) is type(replay_error.value) is error
    assert str(engine_error.value) == str(replay_error.value)
    assert message in str(replay_error.value)

    (events,) = completed
    failing_round = events.user_emit_rel_s.size
    assert 0 < failing_round < 100
    cols, _ = replay(*copy.deepcopy(parts), failing_round)
    for name in EVENT_FIELDS:
        assert same_bits(getattr(events, name), cols[name]), name
    with pytest.raises(error, match=message):
        replay(*copy.deepcopy(parts), failing_round + 1)


def test_emit_mode_failure_is_not_hidden_by_a_later_round_past_the_path_cap(tmp_path):
    """A user clock 4 ms behind the server makes round 0's T1 exceed C.  In
    emit mode on a 0.1 ms path grid, a later round of a scan that ran on
    would query the link past the OU path's cap of 1e7 cells, a
    ValidationError (exit 1).  The scan ends at round 0 instead, so the
    CLI, in a child process, reports what the replay raises: exit 2 with
    round 0's ReversalOverflowError."""
    doc = copy.deepcopy(load_scenario("link_sync_230km").raw)
    doc["link"]["evaluate_at_emit_time"] = True
    doc["link"]["fluctuation"]["grid_s"] = 1e-4
    doc["clocks"]["user"]["initial_offset_s"] = -0.004
    doc["duration_s"] = 2000.0
    doc["protocol"].update(apply_calibration=False, auto_calibrate=False)
    models = build_models(validate_scenario(doc))
    with pytest.raises(ReversalOverflowError) as replay_error:
        sync_round(models.server, models.user, models.link, models.hw,
                   models.tic_server, models.tic_user, models.protocol, 0.0)

    (tmp_path / "s.json").write_text(json.dumps(doc))
    code = "import sys\nfrom fotsim.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = Path(fotsim.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code, "run", "--scenario", str(tmp_path / "s.json"),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60.0,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 2
    assert out.stderr == f"runtime error: {replay_error.value}\n"
    assert not (tmp_path / "o").exists()


# --- the emit-time fluctuation mode on the canned sync scenarios ---------------

@pytest.mark.parametrize("name", ["demo_short", "link_sync_230km", "midlink_access_230km"])
def test_emit_time_mode_runs_and_matches_replay(name):
    """Flight-time-accurate fluctuation sampling on every canned sync scenario.

    Both link crossings sample the same fluctuation path; in emit mode they
    sample it at their own emission instants instead of at the round epoch.
    The path is piecewise constant on its grid, so the two crossings of a
    round see different samples only when a grid boundary falls between
    them, and then the estimate is off by half of that one path step.  Step
    steering carries each round's estimate error into the next round's
    tracking error and no further, so the tracking error of the two modes
    differs by at most half the largest step of the path, plus float
    rounding: the absolute tolerance of 1e-18 s is five orders above the
    rounding of 1e-7 s clock offsets and six below a picosecond step.
    """
    doc = copy.deepcopy(load_scenario(name).raw)
    static = run(validate_scenario(doc))
    doc["link"]["evaluate_at_emit_time"] = True
    scenario = validate_scenario(doc)
    emitted = run(scenario)

    models = build_models(scenario)
    cols, node_cols = replay(models.server, models.user, models.link, models.hw,
                             models.tic_server, models.tic_user, models.protocol,
                             len(emitted.rounds), nodes=models.nodes)
    assert_engine_matches(emitted.rounds, cols, node_cols)

    fresh = build_models(scenario).link
    path = fresh.fluctuation_values(np.arange(0.0, scenario.duration_s + 1.0))
    bound = 0.5 * float(np.max(np.abs(np.diff(path)))) + 1e-18
    diff = emitted.series["main"].values - static.series["main"].values
    assert float(np.max(np.abs(diff))) <= bound
    if scenario.duration_s > 20 * fresh.fluctuation.timescale_s / 10:
        # over dozens of grid boundaries some round's request leaves before
        # one (user clock behind after steering) and its reply after it
        assert float(np.max(np.abs(diff))) > 1e-18


# --- the uncalibrated estimate ---------------------------------------------

def test_uncalibrated_estimate_is_half_of_t2_less_c():
    # without a calibration set the corrections are zeros, which subtract
    # nothing: the estimate is 0.5 * (T2 - C) bit for bit, in the engine and
    # the oracle
    c = 5e-3
    cfg = ProtocolConfig(reversal_constant_s=c)
    noise = NoiseProfile(components=[("white_pm", 2e-11), ("white_fm", 1e-12)], rng_seed=5)
    parts = (ClockModel(noise=noise), ClockModel(initial_offset_s=1e-7, frac_frequency=1e-10),
             LinkModel(length_km=230.0, dispersion_coeff_ps_per_nm_km=17.0, sagnac_s=3e-11),
             HardwareDelays(tx_server_s=3.5e-8, rx_user_s=2.8e-8, delay_unit_dev_user_s=1.2e-11),
             TicModel(jitter_rms_s=3e-11, rng_seed=1), TicModel(jitter_rms_s=3e-11, rng_seed=2),
             cfg, [])
    result, _, (cols, _), _ = run_both(parts, 50, True)
    assert same_bits(result.offset_estimate_s, 0.5 * (result.t2_s - c))
    assert same_bits(cols["offset_estimate_s"], [0.5 * (t2 - c) for t2 in cols["t2_s"]])
    assert same_bits(result.t2_s, cols["t2_s"])


finite = st.floats(-1e300, 1e300)  # no sum of five overflows
correction = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, max_size=40), st.tuples(finite, *[correction] * 4))
def test_corrected_offset_of_an_array_equals_its_float_calls(t2, constants):
    # the engine's estimates and sync_round's come from the one function
    c, hd, fpda, oaa, delay_u = constants
    names = ("tau_hd_s", "tau_fpda_s", "tau_oaa_s", "tau_delay_u_s")
    cal = CalibrationSet(reversal_constant_s=c, tau_hd_s=hd, tau_fpda_s=fpda,
                         tau_oaa_s=oaa, tau_delay_u_s=delay_u,
                         provenance={name: "drawn" for name in names})
    t2_array = np.array(t2, dtype=float)
    got = corrected_offset(t2_array, cal)
    assert got is not t2_array and same_bits(t2_array, t2)
    assert same_bits(got, [corrected_offset(x, cal) for x in t2])


# --- batched reads that feed the engine -----------------------------------

def test_clock_array_read_equals_scalar_queries():
    profile = NoiseProfile(components=[(kind, 1e-11) for kind in NOISE_TYPES],
                           rng_seed=3)
    t = np.arange(3000) * 0.7
    scalar = ClockModel(frac_frequency=1e-9, drift_per_s=1e-12, noise=profile,
                        noise_grid_s=0.5)
    batched = copy.deepcopy(scalar)
    want = [scalar.time_error(float(x)) for x in t]
    assert same_bits(batched.time_errors(t), want)


def test_batched_counter_equals_successive_readings():
    a = TicModel(jitter_rms_s=3e-11, resolution_s=1e-11, rng_seed=9)
    b = copy.deepcopy(a)
    start, stop = np.zeros(500), np.linspace(1e-3, 2e-3, 500)
    want = [a.measure_interval(0.0, float(s)) for s in stop]
    assert same_bits(b.measure_intervals(start, stop), want)
