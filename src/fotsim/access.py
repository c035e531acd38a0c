"""Passive mid-link access node: tap both directions, recover server time.

The node sits distance_from_server_km from the server on a uniform fiber,
so each tapped signal has covered the corresponding fraction of its
direction's full fiber delay (fluctuation and asymmetry shares included).
The amplifier delay is included in a tap only when the amplifier lies
upstream of the node for that direction; a node at the amplifier counts as
on its server side, so that its taps hold the delay once.  The node never
transmits; its recovery quality includes its own counter noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import HardwareDelays, LinkModel
from .errors import NegativeT3Error, ValidationError
from .protocol import RoundEvents, TicModel


@dataclass
class AccessNode:
    """A coupler tap at a fixed position plus its own interval counter."""

    distance_from_server_km: float
    tic: TicModel
    coupler_delay_s: float = 0.0
    name: str = "access_node"

    def __post_init__(self):
        if self.distance_from_server_km < 0:
            raise ValidationError("distance_from_server_km must be >= 0")

    def observe_rounds(self, events: RoundEvents) -> "NodeObservation":
        """observe_round over every round of a session at once.

        events holds one array entry per round.  Each round applies the
        previous round's tap interval, the first round its own, and the
        fields of the result are arrays over the rounds.  Raises
        NegativeT3Error at the first round with a negative interval.
        """
        t_u_an, t_s_an = tap_times(self, events)
        t3 = self.tic.measure_intervals(t_u_an, t_s_an)
        negative = np.flatnonzero(t3 < 0)
        if negative.size:
            raise _negative_t3_error(float(t3[negative[0]]))
        recovered = t_u_an + 0.5 * np.concatenate([t3[:1], t3[:-1]])
        target = events.server_pulse_rel_s + 0.5 * events.reversal_constant_s
        return NodeObservation(
            position_km=self.distance_from_server_km,
            t_u_an_rel_s=t_u_an,
            t_s_an_rel_s=t_s_an,
            t3_s=t3,
            recovered_rel_s=recovered,
            residual_s=recovered - target,
        )


def _negative_t3_error(t3: float) -> NegativeT3Error:
    return NegativeT3Error(
        f"tap interval {t3:.3e} s is negative; reversal constant too small "
        "or taps swapped"
    )


def tap_times(node: AccessNode, events: RoundEvents) -> tuple[float, float]:
    """Arrival times (relative to the round epoch) of the two tapped signals.

    Returns (t_user_to_node, t_server_to_node): the user's request pulse and
    the server's reversed pulse as seen at the node's coupler.  Array-valued
    events give arrays, one entry per round.
    """
    link: LinkModel = events.link
    hw: HardwareDelays = events.hw
    d = node.distance_from_server_km
    if d > link.length_km:
        raise ValidationError(
            f"node at {d} km lies beyond the {link.length_km} km link"
        )
    if link.length_km > 0:
        frac_from_user = (link.length_km - d) / link.length_km
        frac_from_server = d / link.length_km
    else:
        frac_from_user = frac_from_server = 0.0

    amp_pos = link.biedfa_position_km
    t_u_an = (
        events.user_emit_rel_s
        + hw.tx_user_s
        + frac_from_user * events.fiber_us_s
        + (hw.biedfa_lambda2_s if amp_pos >= d else 0.0)
        + node.coupler_delay_s
    )
    t_s_an = (
        events.reversal_emit_rel_s
        + hw.tx_server_s
        + frac_from_server * events.fiber_su_s
        + (hw.biedfa_lambda1_s if amp_pos < d else 0.0)
        + node.coupler_delay_s
    )
    return t_u_an, t_s_an


@dataclass
class NodeObservation:
    """One round as seen by an access node."""

    position_km: float
    t_u_an_rel_s: float
    t_s_an_rel_s: float
    t3_s: float
    recovered_rel_s: float
    residual_s: float


def observe_round(
    node: AccessNode, events: RoundEvents, applied_t3_s: float | None = None
) -> NodeObservation:
    """Tap one round and recover server time at the node.

    The node measures this round's tap interval, but its delay unit applies
    applied_t3_s (normally the previous round's measurement, since the
    current one cannot retime the pulse that produced it).  With
    applied_t3_s=None the fresh measurement is applied, which is exact for
    standalone rounds.  The residual compares the recovered time against the
    server pulse plus half the reversal constant.
    """
    t_u_an, t_s_an = tap_times(node, events)
    t3 = node.tic.measure_interval(t_u_an, t_s_an)
    if t3 < 0:
        raise _negative_t3_error(t3)
    applied = t3 if applied_t3_s is None else applied_t3_s
    recovered = t_u_an + 0.5 * applied
    target = events.server_pulse_rel_s + 0.5 * events.reversal_constant_s
    return NodeObservation(
        position_km=node.distance_from_server_km,
        t_u_an_rel_s=t_u_an,
        t_s_an_rel_s=t_s_an,
        t3_s=t3,
        recovered_rel_s=recovered,
        residual_s=recovered - target,
    )
