"""Scenario configuration, deterministic seeding, run orchestration, output.

A scenario is a single JSON document; every key carries its unit as a
suffix (_s, _km, _nm, _ps_per_nm_km).  Unknown keys are hard errors so that
typos cannot silently change a run.  All sub-component random streams are
derived from one master seed by hashing the component path, which makes a
whole run's artifact tree a pure function of (scenario file, master_seed).

Two modes:
    clocks_only  sample the difference of the two site clocks, no link
    sync         run the reversal protocol session, optionally with
                 mid-link access nodes

Outputs per run: a manifest (config echo, seeds, versions), the per-round
CSV, the analysis-ready time-error series and its stability curve, plus one
CSV pair per access node.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .access import AccessNode, NodeObservation
from .calibration import (
    CalibrationSet,
    biedfa_asymmetry,
    calibrate_delay_unit,
    calibrate_hardware_delay,
    dispersion_asymmetry,
)
from .cells import read_columns, write_columns
from .channel import FluctuationSpec, HardwareDelays, LinkModel, accumulated_dispersion
from .errors import ScenarioParseError, ValidationError
from .protocol import (
    ProtocolConfig,
    SessionResult,
    TicModel,
    run_rounds,
    run_session,
    tracking_error_series,
)
from .stability import MIN_SAMPLES, StabilityCurve, _tau_to_n, tdev
from .timebase import ClockModel, NoiseProfile, TimeErrorSeries

ROUNDS_HEADER = ["t_s", "T1_s", "T2_s", "offset_est_s", "true_offset_s", "residual_s"]
NODE_HEADER = ROUNDS_HEADER + ["position_km"]
SERIES_HEADER = ["index", "x_seconds"]
TDEV_HEADER = ["tau_s", "tdev_s", "n_samples"]


def derive_seed(master_seed: int, path: str) -> int:
    """Stable 64-bit seed for one component, derived from the master seed.

    Hashing the component path keeps independently seeded streams from
    colliding however many components a scenario has.
    """
    digest = hashlib.sha256(f"{master_seed}:{path}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# schema


def _check_keys(d: dict, allowed: dict, context: str) -> None:
    if not isinstance(d, dict):
        raise ValidationError(f"{context} must be an object")
    for key in d:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r} in {context}; allowed keys: {sorted(allowed)}"
            )
    for key, required in allowed.items():
        if required and key not in d:
            raise ValidationError(f"missing required key {key!r} in {context}")


def _number(d: dict, key: str, context: str, default=None, minimum=None,
            strict_min=False) -> float:
    if key not in d:
        return default
    value = d[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{context}.{key} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{context}.{key} must be finite")
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ValidationError(f"{context}.{key} must be > {minimum}")
        if not strict_min and value < minimum:
            raise ValidationError(f"{context}.{key} must be >= {minimum}")
    return value


def _list(d: dict, key: str, context: str) -> list:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{context}.{key} must be a list")
    return value


def _boolean(d: dict, key: str, context: str, default=False) -> bool:
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{context}.{key} must be a boolean")
    return value


@dataclass(frozen=True)
class ClockSpec:
    initial_offset_s: float = 0.0
    frac_frequency: float = 0.0
    drift_per_s: float = 0.0
    freq_ref_shared: bool = False
    pulse_period_s: float = 0.010
    noise_grid_s: float | None = None
    noise: tuple = ()


@dataclass(frozen=True)
class TicSpec:
    jitter_rms_s: float = 0.0
    resolution_s: float = 0.0


@dataclass(frozen=True)
class LinkSpec:
    length_km: float
    group_delay_s_per_km: float = 4.9e-6
    dispersion_coeff_ps_per_nm_km: float | None = None
    accumulated_dispersion_ps_per_nm: float | None = None
    sagnac_s: float = 0.0
    lambda_server_nm: float = 1546.12
    lambda_user_nm: float = 1546.92
    fluctuation_amplitude_s: float = 0.0
    fluctuation_timescale_s: float = 600.0
    fluctuation_grid_s: float | None = None
    evaluate_at_emit_time: bool = False
    biedfa_position_km: float | None = None


@dataclass(frozen=True)
class NodeSpec:
    name: str
    distance_from_server_km: float
    coupler_delay_s: float = 0.0
    tic: TicSpec = TicSpec()


@dataclass(frozen=True)
class ProtocolSpec:
    reversal_constant_s: float = 5e-3
    compensation_period_s: float = 1.0
    apply_calibration: bool = False
    auto_calibrate: bool = False
    calibration_rounds: int = 100
    calibration: dict | None = None
    textbook_mode: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    mode: str
    duration_s: float
    master_seed: int
    clocks: dict
    warmup_rounds: int = 1
    sample_period_s: float = 1.0
    freq_reference: tuple = (0.0, 0.0)
    link: LinkSpec | None = None
    hardware: HardwareDelays = HardwareDelays()
    tics: dict = field(default_factory=dict)
    protocol: ProtocolSpec | None = None
    access_nodes: tuple = ()
    tdev_taus: tuple | None = None
    raw: dict = field(default_factory=dict, repr=False)


_CLOCK_KEYS = {
    "initial_offset_s": False, "frac_frequency": False, "drift_per_s": False,
    "freq_ref_shared": False, "pulse_period_s": False, "noise_grid_s": False,
    "noise": False,
}
_NOISE_KEYS = {"type": True, "amplitude": True}
_TIC_KEYS = {"jitter_rms_s": False, "resolution_s": False}
_FLUCT_KEYS = {"amplitude_s": False, "timescale_s": False, "grid_s": False}
_LINK_KEYS = {
    "length_km": True, "group_delay_s_per_km": False,
    "dispersion_coeff_ps_per_nm_km": False, "accumulated_dispersion_ps_per_nm": False,
    "sagnac_s": False, "lambda_server_nm": False, "lambda_user_nm": False,
    "fluctuation": False, "evaluate_at_emit_time": False, "biedfa_position_km": False,
}
_HW_KEYS = {
    "tx_server_s": False, "rx_server_s": False, "tx_user_s": False, "rx_user_s": False,
    "delay_unit_dev_server_s": False, "delay_unit_dev_user_s": False,
    "biedfa_lambda1_s": False, "biedfa_lambda2_s": False,
}
_PROTOCOL_KEYS = {
    "reversal_constant_s": False, "compensation_period_s": False,
    "apply_calibration": False, "auto_calibrate": False, "calibration_rounds": False,
    "calibration": False, "textbook_mode": False,
}
_CAL_KEYS = {
    "tau_hd_s": False, "tau_delay_u_s": False, "tau_fpda_s": False, "tau_oaa_s": False,
    "reversal_constant_s": False, "provenance": False,
}
_NODE_KEYS = {
    "name": True, "distance_from_server_km": True, "coupler_delay_s": False, "tic": False,
}
_FREQ_REF_KEYS = {"frac_frequency": False, "drift_per_s": False}
_TOP_KEYS = {
    "name": True, "mode": True, "duration_s": True, "master_seed": True,
    "warmup_rounds": False, "sample_period_s": False, "freq_reference": False,
    "clocks": True, "link": False, "hardware": False, "tics": False,
    "protocol": False, "access_nodes": False, "tdev_taus": False,
}


def _parse_clock(d: dict, context: str) -> ClockSpec:
    _check_keys(d, _CLOCK_KEYS, context)
    noise = []
    for i, comp in enumerate(_list(d, "noise", context)):
        _check_keys(comp, _NOISE_KEYS, f"{context}.noise[{i}]")
        noise.append((comp["type"],
                      _number(comp, "amplitude", f"{context}.noise[{i}]", minimum=0.0)))
    return ClockSpec(
        initial_offset_s=_number(d, "initial_offset_s", context, 0.0),
        frac_frequency=_number(d, "frac_frequency", context, 0.0),
        drift_per_s=_number(d, "drift_per_s", context, 0.0),
        freq_ref_shared=_boolean(d, "freq_ref_shared", context),
        pulse_period_s=_number(d, "pulse_period_s", context, 0.010, minimum=0.0,
                               strict_min=True),
        noise_grid_s=_number(d, "noise_grid_s", context, None, minimum=0.0,
                             strict_min=True),
        noise=tuple(noise),
    )


def _parse_tic(d: dict, context: str) -> TicSpec:
    _check_keys(d, _TIC_KEYS, context)
    return TicSpec(
        jitter_rms_s=_number(d, "jitter_rms_s", context, 0.0, minimum=0.0),
        resolution_s=_number(d, "resolution_s", context, 0.0, minimum=0.0),
    )


def _parse_link(d: dict, context: str) -> LinkSpec:
    _check_keys(d, _LINK_KEYS, context)
    fluct = d.get("fluctuation", {})
    _check_keys(fluct, _FLUCT_KEYS, f"{context}.fluctuation")
    return LinkSpec(
        length_km=_number(d, "length_km", context, minimum=0.0),
        group_delay_s_per_km=_number(d, "group_delay_s_per_km", context, 4.9e-6,
                                     minimum=0.0),
        dispersion_coeff_ps_per_nm_km=_number(d, "dispersion_coeff_ps_per_nm_km",
                                              context, None),
        accumulated_dispersion_ps_per_nm=_number(d, "accumulated_dispersion_ps_per_nm",
                                                 context, None),
        sagnac_s=_number(d, "sagnac_s", context, 0.0),
        lambda_server_nm=_number(d, "lambda_server_nm", context, 1546.12, minimum=0.0,
                                 strict_min=True),
        lambda_user_nm=_number(d, "lambda_user_nm", context, 1546.92, minimum=0.0,
                               strict_min=True),
        fluctuation_amplitude_s=_number(fluct, "amplitude_s", f"{context}.fluctuation",
                                        0.0, minimum=0.0),
        fluctuation_timescale_s=_number(fluct, "timescale_s", f"{context}.fluctuation",
                                        600.0, minimum=0.0, strict_min=True),
        fluctuation_grid_s=_number(fluct, "grid_s", f"{context}.fluctuation", None,
                                   minimum=0.0, strict_min=True),
        evaluate_at_emit_time=_boolean(d, "evaluate_at_emit_time", context),
        biedfa_position_km=_number(d, "biedfa_position_km", context, None, minimum=0.0),
    )


def _parse_protocol(d: dict, context: str) -> ProtocolSpec:
    _check_keys(d, _PROTOCOL_KEYS, context)
    cal = d.get("calibration")
    if cal is not None:
        if not isinstance(cal, dict):
            raise ValidationError(f"{context}.calibration must be an object or null")
        _check_keys(cal, _CAL_KEYS, f"{context}.calibration")
        for key in _CAL_KEYS:
            if key != "provenance":
                _number(cal, key, f"{context}.calibration")
        if not isinstance(cal.get("provenance", {}), dict):
            raise ValidationError(f"{context}.calibration.provenance must be an object")
    rounds = d.get("calibration_rounds", 100)
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
        raise ValidationError(f"{context}.calibration_rounds must be a positive integer")
    return ProtocolSpec(
        reversal_constant_s=_number(d, "reversal_constant_s", context, 5e-3,
                                    minimum=0.0, strict_min=True),
        compensation_period_s=_number(d, "compensation_period_s", context, 1.0,
                                      minimum=0.0, strict_min=True),
        apply_calibration=_boolean(d, "apply_calibration", context),
        auto_calibrate=_boolean(d, "auto_calibrate", context),
        calibration_rounds=rounds,
        calibration=cal,
        textbook_mode=_boolean(d, "textbook_mode", context),
    )


def validate_scenario(doc: dict) -> Scenario:
    """Validate a parsed scenario document into a Scenario.

    Raises ValidationError naming the offending key on any problem.
    """
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ValidationError("scenario.name must be a non-empty string")
    mode = doc["mode"]
    if mode not in ("sync", "clocks_only"):
        raise ValidationError("scenario.mode must be 'sync' or 'clocks_only'")
    duration = _number(doc, "duration_s", "scenario", minimum=0.0, strict_min=True)
    master_seed = doc["master_seed"]
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        raise ValidationError("scenario.master_seed must be an integer")
    warmup = doc.get("warmup_rounds", 1)
    if not isinstance(warmup, int) or isinstance(warmup, bool) or warmup < 0:
        raise ValidationError("scenario.warmup_rounds must be a non-negative integer")

    clocks_doc = doc["clocks"]
    _check_keys(clocks_doc, {"server": True, "user": True}, "scenario.clocks")
    clocks = {
        role: _parse_clock(clocks_doc[role], f"scenario.clocks.{role}")
        for role in ("server", "user")
    }

    freq_ref_doc = doc.get("freq_reference", {})
    _check_keys(freq_ref_doc, _FREQ_REF_KEYS, "scenario.freq_reference")
    freq_reference = (
        _number(freq_ref_doc, "frac_frequency", "scenario.freq_reference", 0.0),
        _number(freq_ref_doc, "drift_per_s", "scenario.freq_reference", 0.0),
    )

    link = None
    if "link" in doc:
        link = _parse_link(doc["link"], "scenario.link")

    hardware = HardwareDelays()
    if "hardware" in doc:
        hw_doc = doc["hardware"]
        _check_keys(hw_doc, _HW_KEYS, "scenario.hardware")
        hardware = HardwareDelays(**{
            key: _number(hw_doc, key, "scenario.hardware", 0.0) for key in _HW_KEYS
        })

    tics = {}
    if "tics" in doc:
        tics_doc = doc["tics"]
        _check_keys(tics_doc, {"server": False, "user": False}, "scenario.tics")
        for role in ("server", "user"):
            if role in tics_doc:
                tics[role] = _parse_tic(tics_doc[role], f"scenario.tics.{role}")

    protocol = None
    if "protocol" in doc:
        protocol = _parse_protocol(doc["protocol"], "scenario.protocol")

    nodes = []
    for i, node_doc in enumerate(_list(doc, "access_nodes", "scenario")):
        context = f"scenario.access_nodes[{i}]"
        _check_keys(node_doc, _NODE_KEYS, context)
        node_name = node_doc["name"]
        if not isinstance(node_name, str) or not node_name:
            raise ValidationError(f"{context}.name must be a non-empty string")
        nodes.append(NodeSpec(
            name=node_name,
            distance_from_server_km=_number(node_doc, "distance_from_server_km",
                                            context, minimum=0.0),
            coupler_delay_s=_number(node_doc, "coupler_delay_s", context, 0.0),
            tic=_parse_tic(node_doc.get("tic", {}), f"{context}.tic"),
        ))

    taus = doc.get("tdev_taus")
    if taus is not None:
        if not isinstance(taus, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in taus
        ):
            raise ValidationError("scenario.tdev_taus must be a list of numbers")
        taus = tuple(float(t) for t in taus)

    if mode == "sync":
        if link is None:
            raise ValidationError("scenario.link is required in sync mode")
        if protocol is None:
            raise ValidationError("scenario.protocol is required in sync mode")
        for node in nodes:
            if node.distance_from_server_km > link.length_km:
                raise ValidationError(
                    f"scenario.access_nodes: node {node.name!r} lies beyond the link"
                )

    scenario = Scenario(
        name=name,
        mode=mode,
        duration_s=duration,
        master_seed=master_seed,
        warmup_rounds=warmup,
        sample_period_s=_number(doc, "sample_period_s", "scenario", 1.0, minimum=0.0,
                                strict_min=True),
        freq_reference=freq_reference,
        clocks=clocks,
        link=link,
        hardware=hardware,
        tics=tics,
        protocol=protocol,
        access_nodes=tuple(nodes),
        tdev_taus=taus,
        raw=doc,
    )
    _check_series(scenario)
    return scenario


def _series_tau0(scenario: Scenario) -> float:
    if scenario.mode == "sync":
        return scenario.protocol.compensation_period_s
    return scenario.sample_period_s


def _sample_count(scenario: Scenario) -> int:
    """Rounds of a sync run, clock-difference samples of a clocks_only run."""
    return int(math.floor(scenario.duration_s / _series_tau0(scenario)))


def _node_warmup(scenario: Scenario) -> int:
    # node recovery applies the previous round's tap interval, so its
    # acquisition transient lasts one round longer than the user's
    return scenario.warmup_rounds + 1


def _check_series(scenario: Scenario) -> None:
    # every analyzed series needs MIN_SAMPLES (one default tau) and 3n + 1
    # samples for each requested tau = n * tau0
    n = _sample_count(scenario)
    lengths = {"series": n}
    if scenario.mode == "sync":
        lengths["series"] = n - scenario.warmup_rounds
        for node in scenario.access_nodes:
            lengths[f"node {node.name!r} series"] = n - _node_warmup(scenario)
    for label, length in lengths.items():
        if length < MIN_SAMPLES:
            raise ValidationError(
                f"scenario.duration_s leaves {length} samples for the {label}; "
                f"at least {MIN_SAMPLES} are needed"
            )
    taus = scenario.tdev_taus
    if taus is None:
        return
    if not taus:
        raise ValidationError("scenario.tdev_taus must not be empty")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValidationError("scenario.tdev_taus must be strictly increasing")
    shortest = min(lengths.values())
    for tau in taus:
        try:
            _tau_to_n(tau, _series_tau0(scenario), shortest)
        except ValidationError as exc:
            raise ValidationError(f"scenario.tdev_taus: {exc}") from None


def canned_scenarios() -> list[str]:
    """Names of the scenario documents shipped with the package."""
    pkg = resources.files("fotsim") / "scenarios"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_name: str | Path) -> Scenario:
    """Load and validate a scenario from a file path or a canned name."""
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text()
    else:
        candidate = resources.files("fotsim") / "scenarios" / f"{path_or_name}.json"
        if not candidate.is_file():
            raise ScenarioParseError(
                f"no scenario file {path_or_name!r} and no canned scenario of that "
                f"name; canned: {canned_scenarios()}"
            )
        text = candidate.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario {path_or_name!r} is not valid JSON: {exc}")
    return validate_scenario(doc)


# ---------------------------------------------------------------------------
# model construction


@dataclass
class ModelSet:
    """Live model objects for one run, seeded from the scenario."""

    server: ClockModel
    user: ClockModel
    link: LinkModel | None = None
    hw: HardwareDelays = HardwareDelays()
    tic_server: TicModel | None = None
    tic_user: TicModel | None = None
    protocol: ProtocolConfig | None = None
    nodes: list[AccessNode] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)


def _build_clock(spec: ClockSpec, seed: int) -> ClockModel:
    return ClockModel(
        initial_offset_s=spec.initial_offset_s,
        frac_frequency=spec.frac_frequency,
        drift_per_s=spec.drift_per_s,
        noise=NoiseProfile(components=spec.noise, rng_seed=seed) if spec.noise else None,
        freq_ref_shared=spec.freq_ref_shared,
        pulse_period_s=spec.pulse_period_s,
        noise_grid_s=spec.noise_grid_s,
    )


def _build_link(spec: LinkSpec, seed: int) -> LinkModel:
    return LinkModel(
        length_km=spec.length_km,
        group_delay_s_per_km=spec.group_delay_s_per_km,
        dispersion_coeff_ps_per_nm_km=(
            spec.dispersion_coeff_ps_per_nm_km
            if spec.accumulated_dispersion_ps_per_nm is None
            else None
        ),
        accumulated_dispersion_ps_per_nm=spec.accumulated_dispersion_ps_per_nm,
        sagnac_s=spec.sagnac_s,
        lambda_server_nm=spec.lambda_server_nm,
        lambda_user_nm=spec.lambda_user_nm,
        fluctuation=FluctuationSpec(
            amplitude_s=spec.fluctuation_amplitude_s,
            timescale_s=spec.fluctuation_timescale_s,
            grid_s=spec.fluctuation_grid_s,
            rng_seed=seed,
        ),
        evaluate_at_emit_time=spec.evaluate_at_emit_time,
        biedfa_position_km=spec.biedfa_position_km,
    )


def _build_link_spec_default_dispersion(spec: LinkSpec) -> LinkSpec:
    # a link with neither source configured defaults to a zero coefficient
    if spec.dispersion_coeff_ps_per_nm_km is None and \
            spec.accumulated_dispersion_ps_per_nm is None:
        return replace(spec, dispersion_coeff_ps_per_nm_km=0.0)
    return spec


def build_calibration_set(
    scenario: Scenario, master_seed: int | None = None, literal_sign: bool = False
) -> CalibrationSet:
    """Run the full calibration pipeline for a scenario's equipment.

    Hardware delay: the two sites are directly connected (zero-length link,
    amplifier out of the path) and the response interval is compared against
    the known clock offset over calibration_rounds rounds.  Dispersion and
    Sagnac terms come from the link constants; the amplifier term from its
    per-wavelength delays; the user delay-unit deviation from paired
    input/output measurements with the user's counter.
    """
    if scenario.protocol is None or scenario.link is None:
        raise ValidationError("calibration needs scenario.protocol and scenario.link")
    seed = scenario.master_seed if master_seed is None else master_seed
    pspec = scenario.protocol
    c = pspec.reversal_constant_s

    server = _build_clock(scenario.clocks["server"], derive_seed(seed, "calibration.clock_server"))
    user = _build_clock(scenario.clocks["user"], derive_seed(seed, "calibration.clock_user"))
    server, user = _shared_reference(scenario, server, user)
    tic_server = _build_tic(scenario.tics.get("server"), derive_seed(seed, "calibration.tic_server"))
    tic_user = _build_tic(scenario.tics.get("user"), derive_seed(seed, "calibration.tic_user"))

    direct_link = LinkModel(length_km=0.0, dispersion_coeff_ps_per_nm_km=0.0)
    direct_hw = replace(scenario.hardware, biedfa_lambda1_s=0.0, biedfa_lambda2_s=0.0)
    cfg = ProtocolConfig(
        reversal_constant_s=c,
        compensation_period_s=pspec.compensation_period_s,
        apply_calibration=False,
    )
    direct = run_rounds(server, user, direct_link, direct_hw, tic_server, tic_user, cfg,
                        pspec.calibration_rounds, steering_enabled=False)
    samples = calibrate_hardware_delay(direct.t2_s, direct.true_offset_s, c,
                                       literal_sign=literal_sign)
    tau_hd = float(np.mean(samples))

    # user delay-unit deviation, measured as paired input/output edges
    link_spec = _build_link_spec_default_dispersion(scenario.link)
    full_link = _build_link(link_spec, derive_seed(seed, "calibration.link"))
    du_tic = TicModel(
        jitter_rms_s=scenario.tics.get("user", TicSpec()).jitter_rms_s,
        resolution_s=0.0,
        rng_seed=derive_seed(seed, "calibration.delay_unit_tic"),
    )
    programmed = 1e-3
    outputs = [
        du_tic.measure_interval(0.0, programmed + scenario.hardware.delay_unit_dev_user_s)
        for _ in range(pspec.calibration_rounds)
    ]
    du = calibrate_delay_unit([0.0] * len(outputs), outputs, programmed_delay_s=programmed)

    tau_disp = dispersion_asymmetry(
        link_spec.lambda_server_nm, link_spec.lambda_user_nm,
        accumulated_dispersion(full_link),
    )
    tau_fpda = tau_disp + link_spec.sagnac_s
    tau_oaa = biedfa_asymmetry(scenario.hardware.biedfa_lambda1_s,
                               scenario.hardware.biedfa_lambda2_s)

    provenance = {}
    if tau_hd != 0.0:
        provenance["tau_hd_s"] = (
            f"direct-connection measurement, {pspec.calibration_rounds} rounds, "
            f"sample std {float(np.std(samples)):.3e} s"
        )
    if du.deviation_s != 0.0:
        provenance["tau_delay_u_s"] = (
            f"paired input/output measurement, {du.n} samples, std {du.std_s:.3e} s"
        )
    if tau_fpda != 0.0:
        provenance["tau_fpda_s"] = (
            f"wavelength difference x accumulated dispersion ({tau_disp:.6e} s) "
            f"plus Sagnac constant ({link_spec.sagnac_s:.6e} s)"
        )
    if tau_oaa != 0.0:
        provenance["tau_oaa_s"] = "amplifier per-wavelength delay difference"
    return CalibrationSet(
        tau_hd_s=tau_hd,
        tau_delay_u_s=du.deviation_s,
        tau_fpda_s=tau_fpda,
        tau_oaa_s=tau_oaa,
        reversal_constant_s=c,
        provenance=provenance,
    )


def _build_tic(spec: TicSpec | None, seed: int) -> TicModel:
    spec = spec or TicSpec()
    return TicModel(jitter_rms_s=spec.jitter_rms_s, resolution_s=spec.resolution_s,
                    rng_seed=seed)


def _shared_reference(scenario: Scenario, server: ClockModel, user: ClockModel):
    # clocks flagged freq_ref_shared take the scenario's reference frequency and
    # drift, so the difference of two such clocks has no deterministic frequency term
    y_ref, d_ref = scenario.freq_reference
    if server.freq_ref_shared:
        server = server.with_frequency_reference(y_ref, d_ref)
    if user.freq_ref_shared:
        user = user.with_frequency_reference(y_ref, d_ref)
    return server, user


def build_models(scenario: Scenario, master_seed: int | None = None) -> ModelSet:
    """Construct all live model objects for a run, with derived seeds."""
    seed = scenario.master_seed if master_seed is None else master_seed
    seeds = {
        "clocks.server.noise": derive_seed(seed, "clocks.server.noise"),
        "clocks.user.noise": derive_seed(seed, "clocks.user.noise"),
    }
    server = _build_clock(scenario.clocks["server"], seeds["clocks.server.noise"])
    user = _build_clock(scenario.clocks["user"], seeds["clocks.user.noise"])
    server, user = _shared_reference(scenario, server, user)
    models = ModelSet(server=server, user=user, hw=scenario.hardware, seeds=seeds)

    if scenario.link is not None:
        seeds["link.fluctuation"] = derive_seed(seed, "link.fluctuation")
        link_spec = _build_link_spec_default_dispersion(scenario.link)
        models.link = _build_link(link_spec, seeds["link.fluctuation"])

    if scenario.mode == "sync":
        seeds["tics.server"] = derive_seed(seed, "tics.server")
        seeds["tics.user"] = derive_seed(seed, "tics.user")
        models.tic_server = _build_tic(scenario.tics.get("server"), seeds["tics.server"])
        models.tic_user = _build_tic(scenario.tics.get("user"), seeds["tics.user"])

        pspec = scenario.protocol
        calibration = None
        if pspec.calibration is not None:
            calibration = CalibrationSet.from_dict(pspec.calibration)
        elif pspec.auto_calibrate:
            calibration = build_calibration_set(scenario, master_seed=seed)
        models.protocol = ProtocolConfig(
            reversal_constant_s=pspec.reversal_constant_s,
            compensation_period_s=pspec.compensation_period_s,
            calibration=calibration,
            apply_calibration=pspec.apply_calibration,
            textbook_mode=pspec.textbook_mode,
        )
        for node_spec in scenario.access_nodes:
            path = f"access_nodes.{node_spec.name}.tic"
            seeds[path] = derive_seed(seed, path)
            models.nodes.append(AccessNode(
                distance_from_server_km=node_spec.distance_from_server_km,
                tic=_build_tic(node_spec.tic, seeds[path]),
                coupler_delay_s=node_spec.coupler_delay_s,
                name=node_spec.name,
            ))
    return models


# ---------------------------------------------------------------------------
# running and persistence


@dataclass
class RunReport:
    """In-memory results of one run, mirroring the on-disk artifact tree."""

    name: str
    mode: str
    out_dir: Path | None
    curves: dict
    series: dict
    manifest: dict
    rounds: SessionResult | None = None


def write_series_csv(path: Path, series: TimeErrorSeries) -> None:
    write_columns(path, SERIES_HEADER, [np.arange(len(series)), series.values])


def read_series_csv(path: Path, tau0_s: float) -> TimeErrorSeries:
    (values,) = read_columns(path, SERIES_HEADER[1:])
    return TimeErrorSeries(tau0_s=tau0_s, values=values, meta={"source": str(path)})


def write_curve_csv(path: Path, curve: StabilityCurve) -> None:
    write_columns(path, TDEV_HEADER, [curve.taus, curve.values, curve.n_samples])


def read_curve_csv(path: Path) -> StabilityCurve:
    taus, values, counts = read_columns(path, TDEV_HEADER)
    # whole numbers that int64 holds exactly, so astype(int) keeps them
    if not np.all((counts >= 1) & (counts < 2 ** 53) & (counts % 1 == 0)):
        raise ValidationError(f"{path}: n_samples must be whole numbers >= 1")
    return StabilityCurve(taus, values, counts.astype(int))


def write_rounds_csv(path: Path, rounds: SessionResult) -> None:
    write_columns(path, ROUNDS_HEADER, [
        rounds.t_round_s, rounds.t1_s, rounds.t2_s, rounds.offset_estimate_s,
        rounds.true_offset_s, rounds.residual_s,
    ])


def write_node_csv(path: Path, rounds: SessionResult, observations: NodeObservation,
                   reversal_constant_s: float) -> None:
    # same shape as the rounds CSV: the node's tap interval sits in the T2
    # column and its implied half-interval estimate in offset_est
    t3 = observations.t3_s
    write_columns(path, NODE_HEADER, [
        rounds.t_round_s, rounds.t1_s, t3, 0.5 * (t3 - reversal_constant_s),
        rounds.true_offset_s, observations.residual_s,
        np.full(t3.size, observations.position_km, dtype=float),
    ])


def run(scenario: Scenario, out_dir: str | Path | None = None,
        master_seed: int | None = None) -> RunReport:
    """Execute a scenario and, when out_dir is given, persist its artifacts.

    The artifact tree is a pure function of (scenario, master_seed): rerunning
    with equal inputs produces byte-identical files.
    """
    seed = scenario.master_seed if master_seed is None else master_seed
    models = build_models(scenario, master_seed=seed)
    curves: dict = {}
    series: dict = {}
    rounds = None

    if scenario.mode == "clocks_only":
        period = scenario.sample_period_s
        epochs = np.arange(_sample_count(scenario)) * period
        series["main"] = TimeErrorSeries(
            tau0_s=period,
            values=models.user.time_errors(epochs) - models.server.time_errors(epochs),
            meta={"kind": "clock_difference", "master_seed": seed},
        )
    else:
        cfg = models.protocol
        rounds = run_session(
            models.server, models.user, models.link, models.hw,
            models.tic_server, models.tic_user, cfg, scenario.duration_s,
            nodes=models.nodes,
        )
        series["main"] = tracking_error_series(rounds, cfg, models.hw,
                                               warmup_rounds=scenario.warmup_rounds)
        for name, obs in rounds.nodes.items():
            series[name] = TimeErrorSeries(
                tau0_s=cfg.compensation_period_s,
                values=obs.residual_s[_node_warmup(scenario):],
                meta={"kind": "node_residual", "node": name},
            )

    taus = list(scenario.tdev_taus) if scenario.tdev_taus is not None else None
    for key, s in series.items():
        curves[key] = tdev(s, taus)

    manifest = {
        "package": "fotsim",
        "version": __version__,
        "numpy_version": np.__version__,
        "name": scenario.name,
        "mode": scenario.mode,
        "master_seed": seed,
        "derived_seeds": models.seeds,
        "scenario": scenario.raw,
        "outputs": [],
        "summary": {
            key: {
                "n_samples": int(len(s)),
                "tdev_first_s": float(curves[key].values[0]),
                "tdev_last_s": float(curves[key].values[-1]),
            }
            for key, s in series.items()
        },
    }
    if models.protocol is not None and models.protocol.calibration is not None:
        manifest["calibration"] = models.protocol.calibration.as_dict()

    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        outputs = []

        def emit(filename: str, writer, *args):
            outputs.append(filename)
            return writer(out_path / filename, *args)

        emit("series.csv", write_series_csv, series["main"])
        emit("tdev.csv", write_curve_csv, curves["main"])
        if rounds is not None:
            emit("rounds.csv", write_rounds_csv, rounds)
            for name, obs in rounds.nodes.items():
                emit(f"rounds_{name}.csv", write_node_csv, rounds, obs,
                     models.protocol.reversal_constant_s)
                emit(f"tdev_{name}.csv", write_curve_csv, curves[name])
        manifest["outputs"] = sorted(outputs + ["manifest.json"])
        with open(out_path / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return RunReport(
        name=scenario.name, mode=scenario.mode, out_dir=out_path,
        curves=curves, series=series, manifest=manifest,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# comparison


@dataclass
class ComparisonTable:
    """Stability values of several runs on their shared tau grid."""

    labels: list[str]
    taus: list[float]
    values: np.ndarray  # shape (len(taus), len(labels))
    ratios: np.ndarray  # values relative to the first run
    ordering_violations: list  # (tau, label_i, label_j) where value decreased

    def to_text(self) -> str:
        width = max(12, *(len(lb) + 2 for lb in self.labels))
        lines = ["tau_s".rjust(10) + "".join(lb.rjust(width) for lb in self.labels)]
        for i, tau in enumerate(self.taus):
            cells = "".join(f"{v:.3e}".rjust(width) for v in self.values[i])
            lines.append(f"{tau:10.4g}" + cells)
        if self.ordering_violations:
            lines.append("ordering violations (value decreased vs earlier run):")
            for tau, a, b in self.ordering_violations:
                lines.append(f"  tau {tau:g} s: {b} < {a}")
        else:
            lines.append("ordering: non-decreasing across runs at every shared tau")
        return "\n".join(lines)


def compare_curves(labeled_curves: list) -> ComparisonTable:
    """Tabulate stability curves on their shared tau grid.

    Curves are compared in the given order; a value lower than an earlier
    run's value at the same tau is recorded as an ordering violation (the
    caller passes runs in expected non-decreasing order).
    """
    if len(labeled_curves) < 2:
        raise ValidationError("compare needs at least two runs")
    keyed = []
    for label, curve in labeled_curves:
        keyed.append((label, {round(t, 9): v for t, v in zip(curve.taus, curve.values)}))
    shared = set(keyed[0][1])
    for _, d in keyed[1:]:
        shared &= set(d)
    if not shared:
        raise ValidationError("tau grids of the runs are disjoint")
    taus = sorted(shared)
    values = np.array([[d[t] for _, d in keyed] for t in taus])
    ratios = values / values[:, :1]
    violations = []
    for i, tau in enumerate(taus):
        for j in range(1, len(keyed)):
            if values[i, j] < values[i, j - 1]:
                violations.append((tau, keyed[j - 1][0], keyed[j][0]))
    return ComparisonTable(
        labels=[label for label, _ in labeled_curves],
        taus=taus, values=values, ratios=ratios,
        ordering_violations=violations,
    )


def compare(reports: list, curve_key: str = "main") -> ComparisonTable:
    """Compare the named stability curve across two or more run reports."""
    return compare_curves([(r.name, r.curves[curve_key]) for r in reports])
