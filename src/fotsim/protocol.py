"""The two-step reversal synchronization protocol and session loop.

One round, all in true time relative to the round's pulse mark:

    1. the user emits its pulse, which crosses the link to the server;
    2. the server counter measures T1 between its own pulse and the arrival;
    3. the server re-emits its pulse delayed by C - T1 (plus its delay-unit
       deviation) and the reversed signal crosses back;
    4. the user counter measures T2 between its own pulse and the arrival;
    5. half of T2 - C, less the calibration's correction terms, is the
       clock-offset estimate.

Event times within a round are kept relative to the round's nominal epoch so
that double precision holds femtosecond-level cancellations even late in a
long session.  In the default quasi-static mode both link crossings sample
the fluctuation at the round epoch; the flight-time-accurate mode is
available on the link model for sensitivity checks.

sync_round states one round plainly and is the reference.  run_rounds is the
engine that sessions, calibration and access nodes run on: it builds every
steering-independent input of all rounds as arrays, runs only the steering
recursion as a scalar scan that keeps nothing but the steer, and then takes
the counter readings, the rest of the columns and sync_round's checks as
arrays.  The first round that fails a check cuts the columns and raises the
error sync_round raises for it.  Every floating-point operation keeps
sync_round's order, so the engine's columns equal a sync_round replay bit
for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .calibration import CalibrationSet, corrected_offset
from .channel import Direction, HardwareDelays, LinkModel, path_delay
from .errors import NonCausalError, ReversalOverflowError, ValidationError
from .timebase import MIN_SAMPLES, ClockModel, TimeErrorSeries, _all_finite, clock_time_errors


class TicModel:
    """Time interval counter: Gaussian single-shot jitter plus quantization.

    Each reading draws the next jitter sample from the counter's own seeded
    stream, so a session is reproducible reading-by-reading.  resolution_s
    is the quantization LSB; 0 disables quantization.
    """

    def __init__(self, jitter_rms_s: float = 0.0, resolution_s: float = 0.0, rng_seed: int = 0):
        if jitter_rms_s < 0:
            raise ValidationError("jitter_rms_s must be >= 0")
        if resolution_s < 0:
            raise ValidationError("resolution_s must be >= 0")
        self.jitter_rms_s = float(jitter_rms_s)
        self.resolution_s = float(resolution_s)
        self._rng = np.random.default_rng(rng_seed)

    def measure_interval(self, t_start_s: float, t_stop_s: float) -> float:
        """Measured interval t_stop - t_start with jitter and quantization."""
        return float(self.measure_intervals(np.array([t_start_s], dtype=float),
                                            np.array([t_stop_s], dtype=float))[0])

    def jitter(self, n: int) -> np.ndarray:
        """Jitter of the next n readings, drawn as n readings would draw it."""
        return self.jitter_rms_s * self._rng.standard_normal(n)

    def measure_intervals(self, t_start_s: np.ndarray, t_stop_s: np.ndarray) -> np.ndarray:
        """measure_interval for each pair, as that many successive readings."""
        if not (_all_finite(t_start_s) and _all_finite(t_stop_s)):
            raise ValidationError("timestamps must be finite")
        # jitter drawn before the intervals are taken: the other order read
        # about 0.2 MB more sync_nodes peak RSS
        jitter = self.jitter(t_start_s.size)
        return _measured(t_stop_s - t_start_s, jitter, self.resolution_s)


def _quantize(value: float, resolution_s: float) -> float:
    return float(np.rint(value / resolution_s)) * resolution_s


@dataclass
class ProtocolConfig:
    """Protocol constants for a run.

    reversal_constant_s (C) must stay above any measured request interval.
    calibration is what the estimate and the steering subtract, and must
    share C; absent, it is the all-zero set, whose subtraction leaves every
    value as it is.
    """

    reversal_constant_s: float = 5e-3
    compensation_period_s: float = 1.0
    calibration: CalibrationSet | None = None

    def __post_init__(self):
        if not self.reversal_constant_s > 0:
            raise ValidationError("reversal_constant_s must be > 0")
        if not self.compensation_period_s > 0:
            raise ValidationError("compensation_period_s must be > 0")
        if self.calibration is None:
            self.calibration = CalibrationSet(reversal_constant_s=self.reversal_constant_s)
        elif self.calibration.reversal_constant_s != self.reversal_constant_s:
            raise ValidationError("calibration reversal constant differs from protocol config")


@dataclass
class RoundEvents:
    """Event times of one round (relative to the round epoch) plus the
    channel realization, enough to derive any mid-link tap.

    The engine fills the time fields with arrays, one entry per round."""

    epoch_s: float
    user_emit_rel_s: float
    server_pulse_rel_s: float
    rxs_rel_s: float
    reversal_emit_rel_s: float
    rxu_rel_s: float
    fiber_us_s: float
    fiber_su_s: float
    reversal_constant_s: float
    link: LinkModel
    hw: HardwareDelays


@dataclass
class SyncRoundResult:
    """Measurements and ground truth of protocol rounds.

    sync_round fills the fields with floats; run_rounds fills them, and the
    time fields of events, with arrays, one entry per round.  nodes maps
    each access node's name to its NodeObservation, whose fields are arrays
    too (run_rounds only).
    """

    t_round_s: float
    t1_s: float
    t2_s: float
    reversal_delay_applied_s: float
    offset_estimate_s: float
    true_offset_s: float
    residual_s: float
    events: RoundEvents = field(repr=False)
    nodes: dict = field(repr=False, default_factory=dict)

    def __len__(self):
        return np.size(self.t_round_s)


def steering_shift(cfg: ProtocolConfig, hw: HardwareDelays) -> float:
    """Offset of the steered user output from the user clock: its delay-unit
    deviation, less the calibration's value of it."""
    return hw.delay_unit_dev_user_s - cfg.calibration.tau_delay_u_s


def compute_reversal_delay(reversal_constant_s: float, t1_s: float) -> float:
    """Reversal delay C - T1; raises ReversalOverflowError when T1 >= C."""
    if t1_s >= reversal_constant_s:
        raise ReversalOverflowError(
            f"T1 = {t1_s:.9e} s reaches the reversal constant C = "
            f"{reversal_constant_s:.9e} s; increase C"
        )
    return reversal_constant_s - t1_s


def sync_round(
    server: ClockModel,
    user: ClockModel,
    link: LinkModel,
    hw: HardwareDelays,
    tic_server: TicModel,
    tic_user: TicModel,
    cfg: ProtocolConfig,
    t: float,
    user_steer_s: float = 0.0,
) -> SyncRoundResult:
    """Execute one synchronization round at epoch t (a pulse mark of both sites).

    user_steer_s is subtracted from the user clock's time error, which is how
    the session loop applies accumulated step corrections.
    """
    x_server = server.time_error(t)
    x_user = user.time_error(t) - user_steer_s
    true_offset = x_user - x_server  # server pulse minus user pulse, in true time

    user_emit = -x_user
    server_pulse = -x_server

    fiber_us = link.fiber_delay_s(Direction.USER_TO_SERVER, link.query_time(t, user_emit))
    tau_us = path_delay(hw, Direction.USER_TO_SERVER, fiber_us)
    if tau_us < 0:
        raise NonCausalError("user->server path delay is negative")
    rxs = user_emit + tau_us

    t1 = tic_server.measure_interval(server_pulse, rxs)
    reversal_delay = compute_reversal_delay(cfg.reversal_constant_s, t1)
    applied_delay = reversal_delay + hw.delay_unit_dev_server_s
    reversal_emit = server_pulse + applied_delay
    if reversal_emit < rxs:
        raise NonCausalError(
            "reversal emission precedes the request measurement; C is too small"
        )

    fiber_su = link.fiber_delay_s(Direction.SERVER_TO_USER, link.query_time(t, reversal_emit))
    tau_su = path_delay(hw, Direction.SERVER_TO_USER, fiber_su)
    if tau_su < 0:
        raise NonCausalError("server->user path delay is negative")
    rxu = reversal_emit + tau_su

    t2 = tic_user.measure_interval(user_emit, rxu)
    estimate = corrected_offset(t2, cfg.calibration)

    events = RoundEvents(
        epoch_s=t,
        user_emit_rel_s=user_emit,
        server_pulse_rel_s=server_pulse,
        rxs_rel_s=rxs,
        reversal_emit_rel_s=reversal_emit,
        rxu_rel_s=rxu,
        fiber_us_s=fiber_us,
        fiber_su_s=fiber_su,
        reversal_constant_s=cfg.reversal_constant_s,
        link=link,
        hw=hw,
    )
    return SyncRoundResult(
        t_round_s=t,
        t1_s=t1,
        t2_s=t2,
        reversal_delay_applied_s=applied_delay,
        offset_estimate_s=estimate,
        true_offset_s=true_offset,
        residual_s=estimate - true_offset + steering_shift(cfg, hw),
        events=events,
    )


# rounds per block of scan inputs converted to Python floats
_SCAN_ROWS = 4096


def run_rounds(
    server: ClockModel,
    user: ClockModel,
    link: LinkModel,
    hw: HardwareDelays,
    tic_server: TicModel,
    tic_user: TicModel,
    cfg: ProtocolConfig,
    n_rounds: int,
    steering_enabled: bool = True,
    nodes=(),
) -> SyncRoundResult:
    """Run n_rounds rounds at epochs k * compensation_period_s.

    The columns equal, bit for bit, a loop of sync_round that adds each
    offset estimate to user_steer_s when steering_enabled, with each access
    node in nodes applying observe_round to every round and the previous
    round's tap interval (its own in round 0).  A failing round raises what
    that loop would raise first: a node's NegativeT3Error in an earlier
    round, else the round's own ProtocolError.

    The scan carries only the steer: per round it computes the counter
    readings and the estimate the next round's steer needs, and keeps the
    steer (and in emit mode the two fiber delays).  The readings, the other
    columns and sync_round's four checks are then taken as arrays over all
    rounds, and the first round that fails a check cuts every column.  In
    emit mode the scan ends at that round, before any crossing sync_round
    would not query the link for: a later round could query it past the
    OU path's cap.  In quasi-static mode the scan runs on past that round
    without harm.  Unsteered, the steer stays 0.  Steered, whatever the
    steer before round k, the steer after it is round k's free-running
    clock offset plus half of its delay asymmetry, jitter and quantization,
    less the calibration.  So later rounds hold finite values of the size
    of any other round's.
    """
    c = cfg.reversal_constant_s
    du_server = hw.delay_unit_dev_server_s
    cal = cfg.calibration
    c_cal, hd, fpda, oaa = cal.reversal_constant_s, cal.tau_hd_s, cal.tau_fpda_s, cal.tau_oaa_s
    us, su = Direction.USER_TO_SERVER, Direction.SERVER_TO_USER
    emit = link.evaluate_at_emit_time

    # the inputs of every round that do not depend on the steering
    epochs = np.arange(n_rounds) * cfg.compensation_period_s
    # the user's free running until the steers are subtracted
    x_server, x_user = clock_time_errors([server, user], epochs)
    jitter_server = tic_server.jitter(n_rounds)
    jitter_user = tic_user.jitter(n_rounds)
    tau_us = tau_su = None
    if not emit:
        fiber_us, fiber_su = link.fiber_delay_s(us, epochs), link.fiber_delay_s(su, epochs)
        tau_us, tau_su = path_delay(hw, us, fiber_us), path_delay(hw, su, fiber_su)
    res_server, res_user = tic_server.resolution_s, tic_user.resolution_s
    server_pulse = -x_server

    # the scan: the steering recurrence alone, in sync_round's operations
    steers, fibers_us, fibers_su = array("d"), array("d"), array("d")
    steer = 0.0
    scanned = (epochs if emit else None, server_pulse, x_user, jitter_server, jitter_user,
               tau_us, tau_su)
    for start in range(0, n_rounds, _SCAN_ROWS):
        block = (repeat(None) if col is None else col[start:start + _SCAN_ROWS].tolist()
                 for col in scanned)
        for t, pulse, xu_free, j1, j2, tu, ts in zip(*block):
            steers.append(steer)
            user_emit = -(xu_free - steer)
            if emit:
                f_us = link.fiber_delay_s(us, link.query_time(t, user_emit))
                tu = path_delay(hw, us, f_us)
                fibers_us.append(f_us)
            t1 = ((user_emit + tu) - pulse) + j1
            if res_server > 0:
                t1 = _quantize(t1, res_server)
            reversal_emit = pulse + ((c - t1) + du_server)
            if emit:
                # a round failing one of sync_round's checks ends the scan:
                # its server->user crossing, where sync_round has raised,
                # is not queried (NaN)
                if tu < 0 or t1 >= c or reversal_emit < user_emit + tu:
                    fibers_su.append(math.nan)
                    break
                f_su = link.fiber_delay_s(su, link.query_time(t, reversal_emit))
                ts = path_delay(hw, su, f_su)
                fibers_su.append(f_su)
                if ts < 0:
                    break
            t2 = ((reversal_emit + ts) - user_emit) + j2
            if res_user > 0:
                t2 = _quantize(t2, res_user)
            if steering_enabled:
                steer += 0.5 * (t2 - c_cal - hd - fpda - oaa)
        else:
            continue
        # the rounds up to the failing one, which the checks below find
        n_rounds = len(steers)
        epochs, x_server, x_user, server_pulse, jitter_server, jitter_user = (
            col[:n_rounds] for col in (epochs, x_server, x_user, server_pulse,
                                       jitter_server, jitter_user))
        break
    del scanned

    # the rest as arrays, each built in place of an input used for the last
    # time where it can be
    if emit:
        fiber_us, fiber_su = np.frombuffer(fibers_us), np.frombuffer(fibers_su)
        tau_us, tau_su = path_delay(hw, us, fiber_us), path_delay(hw, su, fiber_su)
    x_user -= np.frombuffer(steers)
    del steers
    true_offset = x_user - x_server
    del x_server
    user_emit = np.negative(x_user, out=x_user)
    negative_us = tau_us < 0
    rxs = np.add(user_emit, tau_us, out=tau_us)
    t1 = _measured(rxs - server_pulse, jitter_server, res_server)
    del jitter_server
    overflow = t1 >= c
    applied = np.subtract(c, t1)
    applied += du_server
    reversal_emit = server_pulse + applied
    early = reversal_emit < rxs
    negative_su = tau_su < 0
    rxu = np.add(reversal_emit, tau_su, out=tau_su)
    t2 = _measured(rxu - user_emit, jitter_user, res_user)
    del jitter_user
    estimate = t2 - c_cal
    estimate -= hd
    estimate -= fpda
    estimate -= oaa
    estimate *= 0.5
    residual = estimate - true_offset
    residual += steering_shift(cfg, hw)

    # the first round that fails one of sync_round's checks ends the run
    failed = negative_us | overflow | early | negative_su
    m = int(failed.argmax()) if failed.any() else n_rounds
    failing = (bool(negative_us[m]), bool(early[m])) if m < n_rounds else None
    del failed, negative_us, overflow, early, negative_su
    events = RoundEvents(
        epoch_s=epochs[:m],
        user_emit_rel_s=user_emit[:m],
        server_pulse_rel_s=server_pulse[:m],
        rxs_rel_s=rxs[:m],
        reversal_emit_rel_s=reversal_emit[:m],
        rxu_rel_s=rxu[:m],
        fiber_us_s=fiber_us[:m],
        fiber_su_s=fiber_su[:m],
        reversal_constant_s=c,
        link=link,
        hw=hw,
    )
    observations = {node.name: node.observe_rounds(events) for node in nodes} if m else {}
    if failing is not None:
        _raise_round_failure(c, float(t1[m]), *failing)
    return SyncRoundResult(
        t_round_s=events.epoch_s,
        t1_s=t1,
        t2_s=t2,
        reversal_delay_applied_s=applied,
        offset_estimate_s=estimate,
        true_offset_s=true_offset,
        residual_s=residual,
        events=events,
        nodes=observations,
    )


def _measured(interval, jitter, resolution_s):
    # a counter's readings of the intervals, computed in place of interval:
    # jitter added, then quantized
    interval += jitter
    if resolution_s > 0:
        interval /= resolution_s
        np.rint(interval, out=interval)
        interval *= resolution_s
    return interval


def _raise_round_failure(c, t1, negative_us, early):
    # what sync_round raises for a round that fails one of its checks, in
    # its order: the user->server delay, T1 against C, causality, and else
    # the server->user delay
    if negative_us:
        raise NonCausalError("user->server path delay is negative")
    compute_reversal_delay(c, t1)
    if early:
        raise NonCausalError(
            "reversal emission precedes the request measurement; C is too small"
        )
    raise NonCausalError("server->user path delay is negative")


def run_session(
    server: ClockModel,
    user: ClockModel,
    link: LinkModel,
    hw: HardwareDelays,
    tic_server: TicModel,
    tic_user: TicModel,
    cfg: ProtocolConfig,
    duration_s: float,
    steering_enabled: bool = True,
    nodes=(),
) -> SyncRoundResult:
    """Repeat sync rounds every compensation period over duration_s.

    Between rounds the user clock is steered by the latest offset estimate
    (step correction), so each round's true_offset_s is the tracking error
    just before that round's correction.  Access nodes in nodes tap every
    round; see run_rounds.
    """
    n_rounds = int(math.floor(duration_s / cfg.compensation_period_s))
    if n_rounds < 1:
        raise ValidationError("duration_s must cover at least one compensation period")
    return run_rounds(server, user, link, hw, tic_server, tic_user, cfg, n_rounds,
                      steering_enabled=steering_enabled, nodes=nodes)


def tracking_error_series(
    rounds: SyncRoundResult,
    cfg: ProtocolConfig,
    warmup_rounds: int = 1,
) -> TimeErrorSeries:
    """Per-round error of the steered user output against the server.

    The value at round k is the effective clock offset before round k's
    correction, shifted as the rounds' residuals are by the (un)calibrated
    user delay-unit deviation of the hardware they ran on.
    The first warmup_rounds samples cover initial acquisition and are
    dropped; with step steering one round suffices.
    """
    if warmup_rounds < 0 or warmup_rounds > len(rounds) - MIN_SAMPLES:
        raise ValidationError("warmup_rounds leaves too few rounds for analysis")
    return TimeErrorSeries(
        tau0_s=cfg.compensation_period_s,
        values=rounds.true_offset_s[warmup_rounds:] + steering_shift(cfg, rounds.events.hw),
    )


def two_way_offset(t_forward_s: float, t_reverse_s: float) -> float:
    """Classic two-way estimate from the two one-way counter readings.

    t_forward is the user->server reading (path delay minus offset),
    t_reverse the server->user reading (path delay plus offset); the offset
    estimate is half their difference.  On a symmetric link this equals the
    true offset; a constant path asymmetry enters with weight one half.
    """
    return 0.5 * (t_reverse_s - t_forward_s)


def tdm_admission(
    n_users: int, period_s: float, slot_s: float, holdover_limit_s: float | None = None
) -> tuple[bool, list[float]]:
    """Feasibility of time-division multiplexing n_users onto one server.

    Admitted when n_users slots fit in the service period (and, if a
    holdover limit is given, the period does not exceed it).  Returns the
    admission flag and the slot start times (empty when rejected).
    """
    if n_users < 1:
        raise ValidationError("n_users must be >= 1")
    if not slot_s > 0 or not period_s > 0:
        raise ValidationError("slot_s and period_s must be > 0")
    fits = n_users * slot_s <= period_s or math.isclose(
        n_users * slot_s, period_s, rel_tol=1e-12
    )
    if holdover_limit_s is not None and period_s > holdover_limit_s:
        fits = False
    if not fits:
        return False, []
    return True, [k * slot_s for k in range(n_users)]
