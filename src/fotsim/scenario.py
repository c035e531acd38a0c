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
import inspect
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .access import AccessNode
from .calibration import CalibrationSet, calibrate_delay_unit, calibrate_hardware_delay
from .cells import read_columns, write_tables
from .channel import FluctuationSpec, HardwareDelays, LinkModel
from .errors import ScenarioParseError, ValidationError
from .protocol import (
    ProtocolConfig,
    SyncRoundResult,
    TicModel,
    run_rounds,
    run_session,
    tracking_error_series,
)
from .stability import MIN_SAMPLES, StabilityCurve, _tau_to_n, tdev
from .timebase import (
    NOISE_TYPES,
    ClockModel,
    NoiseProfile,
    TimeErrorSeries,
    _buffer_size,
    clock_time_errors,
)

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
#
# One table per JSON object maps each key to (check, default).  A check takes
# the value and its path and returns the parsed value, or raises
# ValidationError naming the path.  A key that is a keyword argument of a
# model takes its default from that constructor's signature, and _REQUIRED
# (no default there) means the document must set it.

_REQUIRED = inspect.Parameter.empty


def _parse(doc, schema: dict, context: str) -> dict:
    """Every key of schema, checked in doc or at its default."""
    _mapping(doc, context)
    for key in doc:
        if key not in schema:
            raise ValidationError(
                f"unknown key {key!r} in {context}; allowed keys: {sorted(schema)}"
            )
    for key, (_, default) in schema.items():
        if default is _REQUIRED and key not in doc:
            raise ValidationError(f"missing required key {key!r} in {context}")
    return {key: check(doc[key], f"{context}.{key}") if key in doc else default
            for key, (check, default) in schema.items()}


def _table(model=None, **entries) -> dict:
    """A schema table.  An entry given as a bare check is a keyword argument
    of model and takes its default from the model's signature."""
    params = inspect.signature(model).parameters if model else {}
    return {key: entry if isinstance(entry, tuple) else (entry, params[key].default)
            for key, entry in entries.items()}


def _mapping(value, path):
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object")
    return value


def _object(schema: dict, into=SimpleNamespace):
    return lambda value, path: into(**_parse(value, schema, path))


def _optional(check) -> tuple:
    """Entry of an optional object: absent, it reads as an empty one."""
    return check, check({}, "")


def _list_of(item):
    def check(value, path):
        if not isinstance(value, list):
            raise ValidationError(f"{path} must be a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
    return check


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(minimum=None, strict=False):
    """A finite number, at least minimum (above it if strict)."""
    def check(value, path):
        if not _is_number(value):
            raise ValidationError(f"{path} must be a number")
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"{path} must be finite")
        if minimum is not None and (value <= minimum if strict else value < minimum):
            raise ValidationError(f"{path} must be {'>' if strict else '>='} {minimum}")
        return value
    return check


def _integer(minimum, what: str):
    def check(value, path):
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ValidationError(f"{path} must be {what}")
        return value
    return check


def _bool(value, path):
    if not isinstance(value, bool):
        raise ValidationError(f"{path} must be a boolean")
    return value


def _text(value, path):
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{path} must be a non-empty string")
    return value


def _node_name(value, path):
    # a node's name names its tables, its curve and its seed path, so it is
    # one plain file-name token, and not main, the run's own series
    value = _text(value, path)
    if value == "main" or not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", value):
        raise ValidationError(
            f"{path} {value!r} must be letters, digits, '_', '.' or '-', starting "
            "with a letter or digit, and not 'main'"
        )
    return value


def _choice(options: tuple):
    def check(value, path):
        if value not in options:
            raise ValidationError(f"{path} must be one of {options}, not {value!r}")
        return value
    return check


def _taus(value, path):
    if value is None:
        return None
    if not isinstance(value, list) or not all(_is_number(t) for t in value):
        raise ValidationError(f"{path} must be a list of numbers")
    return tuple(float(t) for t in value)


_CALIBRATION = _table(
    CalibrationSet,
    tau_hd_s=_finite(), tau_delay_u_s=_finite(), tau_fpda_s=_finite(),
    tau_oaa_s=_finite(), reversal_constant_s=_finite(),
    # an absent provenance passes the dataclass's factory marker, which the
    # constructor replaces with a fresh dict
    provenance=_mapping,
)


def _calibration(value, path):
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object or null")
    fields = _parse(value, _CALIBRATION, path)
    try:
        return CalibrationSet(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# counter settings; absent, those of an ideal counter
_TIC = _optional(_object(_table(TicModel, jitter_rms_s=_finite(0.0),
                                resolution_s=_finite(0.0))))
_NOISE = _table(type=(_choice(NOISE_TYPES), _REQUIRED), amplitude=(_finite(0.0), _REQUIRED))
_CLOCK = _object(_table(
    ClockModel,
    # (type, amplitude) pairs; _build_clock seeds them into a NoiseProfile
    noise=_list_of(_object(_NOISE, into=lambda **c: tuple(c.values()))),
    initial_offset_s=_finite(), frac_frequency=_finite(), drift_per_s=_finite(),
    freq_ref_shared=(_bool, False), pulse_period_s=_finite(0.0, strict=True),
    noise_grid_s=_finite(0.0, strict=True),
))
_FLUCTUATION = _table(FluctuationSpec, amplitude_s=_finite(0.0),
                      timescale_s=_finite(0.0, strict=True),
                      grid_s=_finite(0.0, strict=True))
_LINK = _table(
    LinkModel,
    length_km=_finite(0.0), group_delay_s_per_km=_finite(0.0),
    dispersion_coeff_ps_per_nm_km=_finite(), accumulated_dispersion_ps_per_nm=_finite(),
    sagnac_s=_finite(), lambda_server_nm=_finite(0.0, strict=True),
    lambda_user_nm=_finite(0.0, strict=True),
    fluctuation=_object(_FLUCTUATION, into=FluctuationSpec),
    evaluate_at_emit_time=_bool, biedfa_position_km=_finite(0.0),
)
_HARDWARE = _table(HardwareDelays, **{
    key: _finite() for key in inspect.signature(HardwareDelays).parameters
})
_PROTOCOL = _table(
    ProtocolConfig,
    calibration=_calibration,
    calibration_rounds=(_integer(1, "a positive integer"), 100),
    reversal_constant_s=_finite(0.0, strict=True),
    compensation_period_s=_finite(0.0, strict=True),
    apply_calibration=(_bool, False), auto_calibrate=(_bool, False),
)
_NODE = _table(
    AccessNode,
    # a node built in code may go unnamed and needs a live counter; in a
    # document the name is required and the counter settings are optional
    name=(_node_name, _REQUIRED), distance_from_server_km=_finite(0.0),
    coupler_delay_s=_finite(), tic=_TIC,
)
_COMMON = dict(
    name=(_text, _REQUIRED),
    # checked against _MODES before the mode's table is picked
    mode=(_text, _REQUIRED),
    duration_s=(_finite(0.0, strict=True), _REQUIRED),
    master_seed=(_integer(-math.inf, "an integer"), _REQUIRED),
    clocks=(_object(_table(server=(_CLOCK, _REQUIRED), user=(_CLOCK, _REQUIRED))), _REQUIRED),
    freq_reference=_optional(_object(_table(frac_frequency=(_finite(), 0.0),
                                            drift_per_s=(_finite(), 0.0)))),
    tdev_taus=(_taus, None),
)
# one table per mode: a key of the other mode is an unknown key
_MODES = {
    "sync": _table(
        **_COMMON,
        warmup_rounds=(_integer(0, "a non-negative integer"), 1),
        link=(_object(_LINK), _REQUIRED),
        protocol=(_object(_PROTOCOL), _REQUIRED),
        hardware=_optional(_object(_HARDWARE, into=HardwareDelays)),
        tics=_optional(_object(_table(server=_TIC, user=_TIC))),
        access_nodes=(_list_of(_object(_NODE)), ()),
    ),
    "clocks_only": _table(**_COMMON, sample_period_s=(_finite(0.0, strict=True), 1.0)),
}


class Scenario(SimpleNamespace):
    """A validated scenario: one attribute per key of its mode's table in
    _MODES, each object parsed by its table, plus raw, the document itself."""


def validate_scenario(doc: dict) -> Scenario:
    """Validate a parsed scenario document into a Scenario.

    Raises ValidationError naming the offending key on any problem.
    """
    mode = _choice(tuple(_MODES))(_mapping(doc, "scenario").get("mode"), "scenario.mode")
    scenario = Scenario(**_parse(doc, _MODES[mode], "scenario"), raw=doc)
    if mode == "sync":
        names = [node.name for node in scenario.access_nodes]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(
                    f"scenario.access_nodes[{i}].name {name!r} repeats an earlier node's name"
                )
        link = scenario.link
        if (link.biedfa_position_km or 0.0) > link.length_km:
            raise ValidationError(
                f"scenario.link.biedfa_position_km {link.biedfa_position_km:g} lies beyond "
                f"the link's length_km {link.length_km:g}"
            )
        pspec = scenario.protocol
        if pspec.apply_calibration and pspec.calibration is None and not pspec.auto_calibrate:
            raise ValidationError(
                "scenario.protocol.apply_calibration applies a calibration the document neither "
                "gives nor builds: set scenario.protocol.calibration or auto_calibrate, or set "
                "apply_calibration to false")
        if (pspec.apply_calibration and pspec.calibration is not None
                and pspec.calibration.reversal_constant_s != pspec.reversal_constant_s):
            raise ValidationError(
                f"scenario.protocol.calibration.reversal_constant_s "
                f"{pspec.calibration.reversal_constant_s:g} differs from "
                f"scenario.protocol.reversal_constant_s {pspec.reversal_constant_s:g}: "
                f"an applied calibration must share C"
            )
        for node in scenario.access_nodes:
            if node.distance_from_server_km > link.length_km:
                raise ValidationError(
                    f"scenario.access_nodes: node {node.name!r} lies beyond the link"
                )
    _check_sizes(scenario)
    _check_series(scenario)
    _check_noise_grids(scenario)
    return scenario


def _series_tau0(scenario: Scenario) -> float:
    if scenario.mode == "sync":
        return scenario.protocol.compensation_period_s
    return scenario.sample_period_s


def _series_period(scenario: Scenario) -> str:
    """The period field of the rounds or samples and its value, as an error
    names it."""
    key = "protocol.compensation_period_s" if scenario.mode == "sync" else "sample_period_s"
    return f"scenario.{key} = {_series_tau0(scenario):g} s"


def _sample_count(scenario: Scenario) -> int:
    """Rounds of a sync run, clock-difference samples of a clocks_only run."""
    return int(math.floor(scenario.duration_s / _series_tau0(scenario)))


def _node_warmup(scenario: Scenario) -> int:
    # node recovery applies the previous round's tap interval, so its
    # acquisition transient lasts one round longer than the user's
    return scenario.warmup_rounds + 1


# The most samples or rounds, calibration rounds and samples of a clock's
# noise buffer a scenario may ask for, each.  The largest size of any canned
# scenario or benchmark input is 2^18 (a clock's noise on clocks_flicker).
# At the cap a flicker clock takes a 128 MB noise buffer and a 512 MB filter
# workspace, and a sync run's round engine about 3 GB (some 200 bytes a
# round).
_MAX_SIZE = 1 << 24


def _check_size(key: str, size, what: str) -> None:
    if size > _MAX_SIZE:
        shown = f"{float(size):.10g}" if size < 1e300 else "more than 1e300"
        raise ValidationError(f"scenario.{key} asks for {shown} {what}, over the cap "
                              f"of {_MAX_SIZE}")


def _check_sizes(scenario: Scenario) -> None:
    """Refuse, before any model is built, a run that would ask for more than
    _MAX_SIZE of its samples or rounds or its calibration rounds."""
    # duration_s over the period of the rounds or samples: name both
    what = "rounds" if scenario.mode == "sync" else "samples"
    _check_size("duration_s", scenario.duration_s / _series_tau0(scenario),
                f"{what} of {_series_period(scenario)}")
    if scenario.mode == "sync":
        _check_size("protocol.calibration_rounds", scenario.protocol.calibration_rounds,
                    "rounds")


def _check_noise_grids(scenario: Scenario) -> None:
    """Refuse a noisy clock whose noise grid is coarser than the span it is
    queried over, or whose noise buffer would hold more than _MAX_SIZE
    samples."""
    # the span over which a clock is queried, in the run or its calibration;
    # where the calibration's is the longer, name the fields that set it
    horizon, span = scenario.duration_s, ""
    if scenario.mode == "sync":
        rounds = scenario.protocol.calibration_rounds
        period = scenario.protocol.compensation_period_s
        if rounds * period > horizon:
            horizon = rounds * period
            span = (f" for the calibration's scenario.protocol.calibration_rounds = {rounds} "
                    f"rounds of scenario.protocol.compensation_period_s = {period:g} s")
    for name in ("server", "user"):
        clock = getattr(scenario.clocks, name)
        if clock.noise:
            key = "pulse_period_s" if clock.noise_grid_s is None else "noise_grid_s"
            grid = getattr(clock, key)
            # on a grid coarser than the span every query reads sample 0: one
            # draw of each class, scaled to a constant over the whole run
            if grid > horizon:
                raise ValidationError(
                    f"scenario.clocks.{name}.{key} = {grid:g} s is coarser than the "
                    f"{horizon:g} s the clock is queried over{span}")
            steps = horizon / grid
            _check_size(f"clocks.{name}.{key}",
                        _buffer_size(math.ceil(steps)) if math.isfinite(steps) else steps,
                        "noise samples" + span)


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
                f"scenario.duration_s leaves {max(length, 0) or 'no'} samples for the {label} "
                f"at {_series_period(scenario)}; at least {MIN_SAMPLES} are needed"
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
    """Live model objects for one run, seeded from the scenario.  calibration
    is the given or auto-built set, whether protocol applies it or not."""

    server: ClockModel
    user: ClockModel
    link: LinkModel | None = None
    hw: HardwareDelays = HardwareDelays()
    tic_server: TicModel | None = None
    tic_user: TicModel | None = None
    protocol: ProtocolConfig | None = None
    calibration: CalibrationSet | None = None
    nodes: list[AccessNode] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)


def _build_clock(spec: SimpleNamespace, reference: SimpleNamespace, seed: int) -> ClockModel:
    kwargs = dict(vars(spec))
    noise = NoiseProfile(spec.noise, rng_seed=seed) if spec.noise else None
    # a clock flagged freq_ref_shared takes the scenario's reference frequency
    # and drift, so two such clocks differ by no deterministic frequency term
    shared = vars(reference) if kwargs.pop("freq_ref_shared") else {}
    return ClockModel(**{**kwargs, "noise": noise, **shared})


def _build_sites(scenario: Scenario, seed: int, paths: tuple) -> tuple[dict, list]:
    """The server clock, user clock, server counter and user counter, in that
    order and as many as paths names (two or four), each seeded from its
    path; returned with those seeds by path."""
    builders = (
        lambda s: _build_clock(scenario.clocks.server, scenario.freq_reference, s),
        lambda s: _build_clock(scenario.clocks.user, scenario.freq_reference, s),
        lambda s: TicModel(**vars(scenario.tics.server), rng_seed=s),
        lambda s: TicModel(**vars(scenario.tics.user), rng_seed=s),
    )
    seeds = {path: derive_seed(seed, path) for path in paths}
    return seeds, [build(s) for build, s in zip(builders, seeds.values())]


def _build_link(spec: SimpleNamespace, seed: int | None) -> LinkModel:
    kwargs = dict(vars(spec))
    if spec.fluctuation is not None:
        kwargs["fluctuation"] = None if seed is None else replace(spec.fluctuation, rng_seed=seed)
    return LinkModel(**kwargs)


def build_calibration_set(scenario: Scenario, literal_sign: bool = False) -> CalibrationSet:
    """Run the full calibration pipeline for a scenario's equipment.

    Hardware delay: the two sites are directly connected (zero-length link,
    amplifier out of the path) and the response interval is compared against
    the known clock offset over calibration_rounds rounds.  Dispersion and
    Sagnac terms come from the link constants; the amplifier term from its
    per-wavelength delays; the user delay-unit deviation from paired
    input/output measurements with the user's counter.
    """
    if scenario.mode != "sync":
        raise ValidationError("calibration needs scenario.protocol and scenario.link")
    pspec = scenario.protocol
    hw = scenario.hardware
    c = pspec.reversal_constant_s

    _, (server, user, tic_server, tic_user) = _build_sites(scenario, scenario.master_seed, (
        "calibration.clock_server", "calibration.clock_user",
        "calibration.tic_server", "calibration.tic_user",
    ))

    direct_link = LinkModel(length_km=0.0)
    direct_hw = replace(hw, biedfa_lambda1_s=0.0, biedfa_lambda2_s=0.0)
    cfg = ProtocolConfig(reversal_constant_s=c, compensation_period_s=pspec.compensation_period_s)
    direct = run_rounds(server, user, direct_link, direct_hw, tic_server, tic_user, cfg,
                        pspec.calibration_rounds, steering_enabled=False)
    samples = calibrate_hardware_delay(direct.t2_s, direct.true_offset_s, c,
                                       literal_sign=literal_sign)
    tau_hd = float(np.mean(samples))

    # user delay-unit deviation, measured as paired input/output edges
    du_tic = TicModel(
        jitter_rms_s=scenario.tics.user.jitter_rms_s,
        resolution_s=0.0,
        rng_seed=derive_seed(scenario.master_seed, "calibration.delay_unit_tic"),
    )
    programmed = 1e-3
    n = pspec.calibration_rounds
    outputs = du_tic.measure_intervals(np.zeros(n),
                                       np.full(n, programmed + hw.delay_unit_dev_user_s))
    du = calibrate_delay_unit(np.zeros(n), outputs, programmed_delay_s=programmed)

    # only the link's constants are read: no fluctuation process, no seed
    link = _build_link(scenario.link, None)
    tau_disp = link.dispersion_asymmetry_s()
    tau_fpda = tau_disp + link.sagnac_s
    tau_oaa = hw.biedfa_lambda1_s - hw.biedfa_lambda2_s

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
            f"plus Sagnac constant ({link.sagnac_s:.6e} s)"
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


def build_models(scenario: Scenario) -> ModelSet:
    """Construct all live model objects for a run, seeded from its master_seed."""
    seed = scenario.master_seed
    # a clocks_only run has no counters, and its manifest records no seeds for them
    paths = ("clocks.server.noise", "clocks.user.noise", "tics.server", "tics.user")
    sync = scenario.mode == "sync"
    seeds, (server, user, *tics) = _build_sites(scenario, seed, paths if sync else paths[:2])
    models = ModelSet(server=server, user=user, seeds=seeds)

    if sync:
        models.hw = scenario.hardware
        seeds["link.fluctuation"] = derive_seed(seed, "link.fluctuation")
        models.link = _build_link(scenario.link, seeds["link.fluctuation"])
        models.tic_server, models.tic_user = tics
        pspec = scenario.protocol
        calibration = pspec.calibration
        if calibration is None and pspec.auto_calibrate:
            calibration = build_calibration_set(scenario)
        models.calibration = calibration
        models.protocol = ProtocolConfig(
            reversal_constant_s=pspec.reversal_constant_s,
            compensation_period_s=pspec.compensation_period_s,
            calibration=calibration if pspec.apply_calibration else None,
        )
        for node in scenario.access_nodes:
            path = f"access_nodes.{node.name}.tic"
            seeds[path] = derive_seed(seed, path)
            tic = TicModel(**vars(node.tic), rng_seed=seeds[path])
            models.nodes.append(AccessNode(**{**vars(node), "tic": tic}))
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
    rounds: SyncRoundResult | None = None


def write_series_csv(path: Path, series: TimeErrorSeries) -> None:
    write_tables([(path, SERIES_HEADER, [np.arange(len(series)), series.values])])


def write_curve_csv(path: Path, curve: StabilityCurve) -> None:
    write_tables([(path, TDEV_HEADER, [curve.taus, curve.values, curve.n_samples])])


def read_curve_csv(path: Path) -> StabilityCurve:
    taus, values, counts = read_columns(path, TDEV_HEADER)
    try:
        # whole numbers that int64 holds exactly, so astype(int) keeps them
        # (the range check first: inf % 1 is nan, with a RuntimeWarning)
        if not (np.all((counts >= 1) & (counts < 2 ** 53)) and np.all(counts % 1 == 0)):
            raise ValidationError("n_samples must be whole numbers >= 1")
        return StabilityCurve(taus, values, counts.astype(int))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_rounds_csv(out_dir: Path, rounds: SyncRoundResult) -> list[str]:
    """Write rounds.csv and one rounds_<node>.csv per access node into
    out_dir in one pass, and return their file names.

    A node table has the rounds table's shape plus a constant position_km
    column: the node's tap interval sits in the T2 column and its implied
    half-interval estimate in offset_est.  Its t_s, T1_s and true_offset_s
    are the rounds table's own arrays, so their cells are formatted once.
    """
    tables = {"rounds.csv": (ROUNDS_HEADER, [
        rounds.t_round_s, rounds.t1_s, rounds.t2_s, rounds.offset_estimate_s,
        rounds.true_offset_s, rounds.residual_s,
    ])}
    for name, obs in rounds.nodes.items():
        t3 = obs.t3_s
        tables[f"rounds_{name}.csv"] = (NODE_HEADER, [
            rounds.t_round_s, rounds.t1_s, t3, 0.5 * (t3 - rounds.events.reversal_constant_s),
            rounds.true_offset_s, obs.residual_s,
            np.broadcast_to(np.float64(obs.position_km), t3.shape),
        ])
    write_tables([(out_dir / filename, *table) for filename, table in tables.items()])
    return list(tables)


def run(scenario: Scenario, out_dir: str | Path | None = None) -> RunReport:
    """Execute a scenario and, when out_dir is given, persist its artifacts.

    The artifact tree is a pure function of the scenario, its master_seed
    included: rerunning it produces byte-identical files.
    """
    models = build_models(scenario)
    curves: dict = {}
    series: dict = {}
    rounds = None

    if scenario.mode == "clocks_only":
        period = scenario.sample_period_s
        epochs = np.arange(_sample_count(scenario)) * period
        x_user, x_server = clock_time_errors([models.user, models.server], epochs)
        x_user -= x_server  # the difference in place: no third column held
        del x_server
        series["main"] = TimeErrorSeries(tau0_s=period, values=x_user)
    else:
        cfg = models.protocol
        rounds = run_session(
            models.server, models.user, models.link, models.hw,
            models.tic_server, models.tic_user, cfg, scenario.duration_s,
            nodes=models.nodes,
        )
        series["main"] = tracking_error_series(rounds, cfg, warmup_rounds=scenario.warmup_rounds)
        for name, obs in rounds.nodes.items():
            series[name] = TimeErrorSeries(tau0_s=cfg.compensation_period_s,
                                           values=obs.residual_s[_node_warmup(scenario):])

    taus = list(scenario.tdev_taus) if scenario.tdev_taus is not None else None
    for key, s in series.items():
        curves[key] = tdev(s, taus)

    manifest = {
        "package": "fotsim",
        "version": __version__,
        "numpy_version": np.__version__,
        "name": scenario.name,
        "mode": scenario.mode,
        "master_seed": scenario.master_seed,
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
    if models.calibration is not None:
        manifest["calibration"] = asdict(models.calibration)

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
            outputs += write_rounds_csv(out_path, rounds)
            for name in rounds.nodes:
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

    The shared grid is the first curve's taus that every other curve holds
    to a relative 1e-9 (StabilityCurve.index_of).  Curves are compared in
    the given order; a value lower than an earlier run's value at the same
    tau is recorded as an ordering violation (the caller passes runs in
    expected non-decreasing order).
    """
    if len(labeled_curves) < 2:
        raise ValidationError("compare needs at least two runs")
    labels, curves = map(list, zip(*labeled_curves))
    taus, rows = [], []
    for tau in curves[0].taus:
        idx = [curve.index_of(tau) for curve in curves]
        if None not in idx:
            taus.append(float(tau))
            rows.append([curve.values[i] for curve, i in zip(curves, idx)])
    if not taus:
        raise ValidationError("tau grids of the runs are disjoint")
    values = np.array(rows)
    violations = []
    for i, tau in enumerate(taus):
        for j in range(1, len(labels)):
            if values[i, j] < values[i, j - 1]:
                violations.append((tau, labels[j - 1], labels[j]))
    return ComparisonTable(
        labels=labels, taus=taus, values=values,
        ordering_violations=violations,
    )
