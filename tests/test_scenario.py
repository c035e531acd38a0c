"""Scenario layer: config validation, seeding, runs, persistence, comparison, CLI."""

import errno
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fotsim
from fotsim import cells, channel
from fotsim import scenario as scenario_module
from fotsim.cli import main as cli_main
from fotsim.errors import ConfigError, NonCausalError, ScenarioParseError, ValidationError
from fotsim.scenario import (
    build_calibration_set,
    build_models,
    canned_scenarios,
    compare_curves,
    derive_seed,
    load_scenario,
    read_curve_csv,
    run,
    validate_scenario,
)
from test_cells import check_text, reference_rows


def minimal_doc(**overrides):
    doc = {
        "name": "tiny",
        "mode": "clocks_only",
        "duration_s": 32.0,
        "sample_period_s": 1.0,
        "master_seed": 7,
        "clocks": {
            "server": {"noise": [{"type": "white_pm", "amplitude": 1e-11}]},
            "user": {"initial_offset_s": 1e-8},
        },
    }
    doc.update(overrides)
    return doc


def sync_doc(**overrides):
    doc = minimal_doc(
        name="tiny_sync",
        mode="sync",
        duration_s=24.0,
        link={"length_km": 50.0, "dispersion_coeff_ps_per_nm_km": 0.0},
        tics={"server": {"jitter_rms_s": 0.0}, "user": {"jitter_rms_s": 0.0}},
        protocol={"reversal_constant_s": 2e-3, "compensation_period_s": 1.0},
    )
    del doc["sample_period_s"]  # a clocks_only key
    doc.update(overrides)
    return doc


class TestValidation:
    def test_canned_scenarios_all_load(self):
        names = canned_scenarios()
        assert "link_sync_230km" in names
        assert "midlink_access_230km" in names
        for name in names:
            scenario = load_scenario(name)
            assert scenario.name == name

    def test_unknown_key_is_named_in_the_error(self):
        doc = sync_doc()
        doc["link"]["lenght_km"] = 230
        with pytest.raises(ValidationError, match="lenght_km"):
            validate_scenario(doc)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration_s"):
            validate_scenario(minimal_doc(duration_s=0))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="fibre"):
            validate_scenario(minimal_doc(fibre={}))

    def test_sync_mode_requires_link_and_protocol(self):
        doc = sync_doc()
        del doc["link"]
        with pytest.raises(ValidationError, match="link"):
            validate_scenario(doc)

    @pytest.mark.parametrize("mode", [None, "sinc"])
    def test_mode_is_checked_before_the_rest(self, mode):
        # the mode picks the table the rest is read by, so its fault is
        # reported ahead of an unknown key or a bad value
        doc = minimal_doc(mode=mode, fibre={}, duration_s=0)
        if mode is None:
            del doc["mode"]
        with pytest.raises(ValidationError, match=re.escape(
                f"scenario.mode must be one of ('sync', 'clocks_only'), not {mode!r}")):
            validate_scenario(doc)

    def test_node_beyond_link_rejected(self):
        doc = sync_doc(access_nodes=[
            {"name": "far", "distance_from_server_km": 99.0}])
        doc["link"]["length_km"] = 50.0
        with pytest.raises(ValidationError, match="far"):
            validate_scenario(doc)

    def test_amplifier_beyond_link_rejected(self):
        # at load time and named by its key, not where the link is built
        doc = sync_doc()
        doc["link"]["biedfa_position_km"] = 50.0
        validate_scenario(doc)
        doc["link"]["biedfa_position_km"] = 500.0
        with pytest.raises(ValidationError,
                           match=re.escape("scenario.link.biedfa_position_km 500 lies beyond")):
            validate_scenario(doc)

    @pytest.mark.parametrize("calibration", [{"reversal_constant_s": 1e-3}, {}])
    def test_applied_calibration_of_another_reversal_constant_rejected(self, calibration):
        # a set whose C differs from the protocol's, or is left out (0), cannot
        # be applied; unapplied, it is only recorded
        doc = sync_doc()
        doc["protocol"].update(calibration=calibration, apply_calibration=True)
        with pytest.raises(ValidationError, match=re.escape(
                "scenario.protocol.calibration.reversal_constant_s")):
            validate_scenario(doc)
        doc["protocol"]["apply_calibration"] = False
        validate_scenario(doc)

    @pytest.mark.parametrize("name", ["main", "a/b", "../x", "a\\b", ".x", "-x", "a b"])
    def test_node_name_that_is_not_a_plain_file_name_rejected(self, name):
        # the name makes the node's file names and seed path, and main is
        # the run's own series
        doc = sync_doc(access_nodes=[{"name": name, "distance_from_server_km": 25.0}])
        with pytest.raises(ValidationError, match=re.escape(f"access_nodes[0].name {name!r}")):
            validate_scenario(doc)

    def test_duplicate_node_names_rejected(self):
        doc = sync_doc(access_nodes=[
            {"name": "mid", "distance_from_server_km": 25.0},
            {"name": "up", "distance_from_server_km": 10.0},
            {"name": "mid", "distance_from_server_km": 40.0}])
        with pytest.raises(ValidationError, match=re.escape("access_nodes[2].name 'mid'")):
            validate_scenario(doc)

    def test_missing_file_or_name_raises_parse_error(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("no_such_scenario_anywhere")

    def test_malformed_json_raises_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            load_scenario(bad)

    def test_empty_tdev_taus_rejected(self):
        with pytest.raises(ConfigError, match="tdev_taus must not be empty"):
            validate_scenario(minimal_doc(tdev_taus=[]))

    def test_unsorted_tdev_taus_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            validate_scenario(minimal_doc(tdev_taus=[2.0, 1.0]))

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tdev_tau_rejected(self, tau):
        # NaN passes the order check; neither may reach int()
        with pytest.raises(ConfigError, match=f"tdev_taus: tau {tau} is not a positive multiple"):
            validate_scenario(minimal_doc(tdev_taus=[1.0, tau]))

    def test_tau_too_long_for_the_series_rejected(self):
        # 32 samples hold tau = n * 1 s up to n = 10 (3n + 1 <= 32)
        validate_scenario(minimal_doc(tdev_taus=[1.0, 10.0]))
        with pytest.raises(ConfigError, match="too short for tau 11"):
            validate_scenario(minimal_doc(tdev_taus=[1.0, 11.0]))

    def test_tau_too_long_for_a_node_series_rejected(self):
        # 23 rounds: the tracking series keeps 22 samples, the node series 21
        node = {"name": "mid", "distance_from_server_km": 25.0}
        validate_scenario(sync_doc(duration_s=23.0, tdev_taus=[7.0]))
        with pytest.raises(ConfigError, match="too short for tau 7"):
            validate_scenario(sync_doc(duration_s=23.0, tdev_taus=[7.0],
                                       access_nodes=[node]))

    def test_too_few_rounds_after_warmup_rejected(self):
        with pytest.raises(ConfigError, match="at least 4"):
            validate_scenario(sync_doc(duration_s=5.0, warmup_rounds=2))

    def test_clock_entry_must_be_an_object(self):
        doc = minimal_doc()
        doc["clocks"]["server"] = 5
        with pytest.raises(ConfigError, match="scenario.clocks.server must be an object"):
            validate_scenario(doc)

    def test_freq_reference_must_be_an_object(self):
        with pytest.raises(ConfigError, match="scenario.freq_reference must be an object"):
            validate_scenario(minimal_doc(freq_reference=[0.0, 0.0]))

    def test_calibration_errors_name_their_path(self):
        doc = sync_doc()
        doc["protocol"]["calibration"] = {"tau_hd_s": 1e-9}
        with pytest.raises(ConfigError, match=re.escape(
                "scenario.protocol.calibration: non-zero calibration field tau_hd_s "
                "needs a provenance note")):
            validate_scenario(doc)

    def test_calibration_fields_must_be_numbers(self):
        doc = sync_doc()
        doc["protocol"]["calibration"] = {"tau_hd_s": "1e-9"}
        with pytest.raises(ConfigError, match="calibration.tau_hd_s must be a number"):
            validate_scenario(doc)

    def test_lists_must_be_lists(self):
        with pytest.raises(ConfigError, match="scenario.access_nodes must be a list"):
            validate_scenario(sync_doc(access_nodes=5))
        doc = minimal_doc()
        doc["clocks"]["user"]["noise"] = {"type": "white_pm"}
        with pytest.raises(ConfigError, match="scenario.clocks.user.noise must be a list"):
            validate_scenario(doc)

    def test_bad_noise_type_rejected(self):
        # at load time, before any model is built
        doc = minimal_doc()
        doc["clocks"]["server"]["noise"] = [{"type": "pink-ish", "amplitude": 1e-12}]
        with pytest.raises(ValidationError,
                           match=r"scenario\.clocks\.server\.noise\[0\]\.type .*pink-ish"):
            validate_scenario(doc)


def canned_doc(name):
    return json.loads((resources.files("fotsim") / "scenarios" / f"{name}.json").read_text())


def object_paths(node, path=()):
    """Key path of every JSON object in node, node itself included."""
    if isinstance(node, dict):
        yield path
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from object_paths(value, path + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def context(path):
    return "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


# the keys a document must set, by object path with list indices left out,
# and at the top level by mode
REQUIRED_KEYS = {
    "clocks_only": {"name", "mode", "duration_s", "master_seed", "clocks"},
    "sync": {"name", "mode", "duration_s", "master_seed", "clocks", "link", "protocol"},
    "scenario.clocks": {"server", "user"},
    "scenario.clocks.server.noise[]": {"type", "amplitude"},
    "scenario.clocks.user.noise[]": {"type", "amplitude"},
    "scenario.link": {"length_km"},
    "scenario.access_nodes[]": {"name", "distance_from_server_km"},
}


def applies_no_calibration(protocol):
    # a protocol object that applies a calibration it neither gives nor builds
    return (protocol.get("apply_calibration") and protocol.get("calibration") is None
            and not protocol.get("auto_calibrate"))


CANNED_OBJECTS = [(name, path) for name in canned_scenarios()
                  for path in object_paths(canned_doc(name))]


@pytest.mark.parametrize("name,path", CANNED_OBJECTS,
                         ids=[f"{n}:{context(p)}" for n, p in CANNED_OBJECTS])
class TestEveryCannedObject:
    def test_extra_key_is_named_with_its_path(self, name, path):
        doc = canned_doc(name)
        get(doc, path)["extra_key"] = 1
        with pytest.raises(ValidationError,
                           match=re.escape(f"unknown key 'extra_key' in {context(path)};")):
            validate_scenario(doc)

    def test_only_required_keys_cannot_be_dropped(self, name, path):
        doc = canned_doc(name)
        where = doc["mode"] if path == () else re.sub(r"\[\d+\]", "[]", context(path))
        required = REQUIRED_KEYS.get(where, ())
        for key in get(doc, path):
            dropped = canned_doc(name)
            del get(dropped, path)[key]
            if key in required or (context(path) == "scenario.protocol"
                                   and applies_no_calibration(get(dropped, path))):
                with pytest.raises(ValidationError, match=re.escape(key)):
                    validate_scenario(dropped)
            else:
                validate_scenario(dropped)


class TestSeeding:
    def test_derivation_is_stable(self):
        # frozen values: the derivation must never change between runs
        assert derive_seed(7, "clocks.server.noise") == derive_seed(7, "clocks.server.noise")
        assert derive_seed(7, "clocks.server.noise") != derive_seed(7, "clocks.user.noise")
        assert derive_seed(7, "clocks.server.noise") != derive_seed(8, "clocks.server.noise")

    def test_component_streams_differ(self):
        models = build_models(validate_scenario(minimal_doc()))
        assert models.seeds["clocks.server.noise"] != models.seeds["clocks.user.noise"]


class TestRun:
    def test_clocks_only_run_produces_series_and_curve(self, tmp_path):
        report = run(validate_scenario(minimal_doc()), out_dir=tmp_path / "out")
        assert (tmp_path / "out" / "series.csv").exists()
        assert (tmp_path / "out" / "tdev.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert len(report.series["main"]) == 32

    def test_sync_run_emits_rounds_csv(self, tmp_path):
        report = run(validate_scenario(sync_doc()), out_dir=tmp_path / "out")
        rounds_csv = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
        assert rounds_csv[0] == "t_s,T1_s,T2_s,offset_est_s,true_offset_s,residual_s"
        assert len(rounds_csv) == 1 + 24
        # >= 15 significant digits in scientific notation
        assert "e" in rounds_csv[1].split(",")[1]
        mantissa = rounds_csv[1].split(",")[1].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 15
        assert report.rounds is not None

    def test_node_csv_carries_position_column(self, tmp_path):
        doc = sync_doc(access_nodes=[
            {"name": "mid", "distance_from_server_km": 25.0,
             "tic": {"jitter_rms_s": 0.0}}])
        run(validate_scenario(doc), out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "rounds_mid.csv").read_text().splitlines()
        assert lines[0].endswith(",position_km")
        assert float(lines[1].split(",")[-1]) == 25.0

    def test_round_tables_share_their_cells(self, tmp_path):
        # one node upstream and one downstream of the amplifier at 25 km
        doc = sync_doc(access_nodes=[
            {"name": name, "distance_from_server_km": km, "tic": {"jitter_rms_s": 5e-12}}
            for name, km in (("up", 10.0), ("down", 40.0))])
        doc["link"]["biedfa_position_km"] = 25.0
        out = tmp_path / "out"
        rounds = run(validate_scenario(doc), out_dir=out).rounds
        tables = {"rounds.csv": [rounds.t_round_s, rounds.t1_s, rounds.t2_s,
                                 rounds.offset_estimate_s, rounds.true_offset_s,
                                 rounds.residual_s]}
        for name, obs in rounds.nodes.items():
            tables[f"rounds_{name}.csv"] = [
                rounds.t_round_s, rounds.t1_s, obs.t3_s,
                0.5 * (obs.t3_s - rounds.events.reversal_constant_s),
                rounds.true_offset_s, obs.residual_s, np.full(obs.t3_s.size, obs.position_km)]
        assert set(tables) == {"rounds.csv", "rounds_up.csv", "rounds_down.csv"}
        cells = {}
        for name, columns in tables.items():
            data = (out / name).read_bytes()
            assert b"\r" not in data
            header, body = data.decode("ascii").split("\n", 1)
            check_text(body, reference_rows(columns), name)
            cells[name] = dict(zip(header.split(","),
                                   zip(*(row.split(",") for row in body.splitlines()))))
        for node, km in (("up", "1.0000000000000000e+01"), ("down", "4.0000000000000000e+01")):
            table = cells[f"rounds_{node}.csv"]
            for column in ("t_s", "T1_s", "true_offset_s"):
                assert table[column] == cells["rounds.csv"][column]
            assert set(table["position_km"]) == {km}

    def test_reruns_are_byte_identical(self, tmp_path):
        scenario = validate_scenario(sync_doc(access_nodes=[
            {"name": "mid", "distance_from_server_km": 25.0,
             "tic": {"jitter_rms_s": 5e-12}}]))
        run(scenario, out_dir=tmp_path / "a")
        run(scenario, out_dir=tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", names, shallow=False)
        assert mismatch == [] and errors == []

    def test_measured_dispersion_wins_over_the_coefficient(self, tmp_path):
        # a link with both sources runs as one with the measured value alone,
        # and not as one with the coefficient alone
        both = sync_doc()
        both["link"].update(dispersion_coeff_ps_per_nm_km=17.0,
                            accumulated_dispersion_ps_per_nm=1000.0)
        measured, coefficient = sync_doc(), sync_doc()
        measured["link"]["accumulated_dispersion_ps_per_nm"] = 1000.0
        coefficient["link"]["dispersion_coeff_ps_per_nm_km"] = 17.0
        files = {}
        for label, doc in (("both", both), ("measured", measured), ("coefficient", coefficient)):
            run(validate_scenario(doc), out_dir=tmp_path / label)
            files[label] = {p.name: p.read_bytes()
                            for p in sorted((tmp_path / label).glob("*.csv"))}
        assert list(files["both"]) == ["rounds.csv", "series.csv", "tdev.csv"]
        assert files["both"] == files["measured"]
        assert files["both"]["rounds.csv"] != files["coefficient"]["rounds.csv"]

    def test_unapplied_calibration_is_recorded_but_not_subtracted(self):
        doc = canned_doc("demo_short")
        doc["protocol"]["apply_calibration"] = False
        scenario = validate_scenario(doc)
        report = run(scenario)
        assert report.manifest["calibration"] == asdict(build_calibration_set(scenario))
        c = scenario.protocol.reversal_constant_s
        rounds = report.rounds
        assert rounds.offset_estimate_s.tobytes() == (0.5 * (rounds.t2_s - c)).tobytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        scenario = validate_scenario(minimal_doc())
        a = run(scenario)
        b = run(validate_scenario(minimal_doc(master_seed=123456)))
        assert not np.array_equal(a.series["main"].values, b.series["main"].values)

    def test_manifest_traces_config_and_seeds(self, tmp_path):
        report = run(validate_scenario(minimal_doc()), out_dir=tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["scenario"] == minimal_doc()
        assert manifest["master_seed"] == 7
        assert "clocks.server.noise" in manifest["derived_seeds"]
        assert sorted(manifest["outputs"]) == manifest["outputs"]
        assert manifest["version"] == report.manifest["version"]

    def test_auto_calibration_lands_in_manifest(self, tmp_path):
        doc = sync_doc(hardware={"tx_server_s": 1e-8, "delay_unit_dev_server_s": 5e-12})
        doc["protocol"]["apply_calibration"] = True
        doc["protocol"]["auto_calibrate"] = True
        report = run(validate_scenario(doc))
        assert "calibration" in report.manifest
        assert report.manifest["calibration"]["tau_hd_s"] == pytest.approx(
            1e-8 + 5e-12, abs=1e-15)


class TestCalibrationPipeline:
    def test_recovers_injected_constants_with_ideal_counters(self):
        doc = sync_doc(hardware={
            "tx_server_s": 3.0e-8, "rx_server_s": 2.0e-8, "tx_user_s": 1.5e-8,
            "rx_user_s": 1.2e-8, "delay_unit_dev_server_s": 2.0e-11,
            "delay_unit_dev_user_s": 1.2e-11, "biedfa_lambda1_s": 8e-12,
            "biedfa_lambda2_s": 5e-12})
        doc["link"] = {"length_km": 230.0, "dispersion_coeff_ps_per_nm_km": 17.0,
                       "sagnac_s": 3.0e-11}
        cal = build_calibration_set(validate_scenario(doc))
        expected_hd = 3.0e-8 + 1.2e-8 - 1.5e-8 - 2.0e-8 + 2.0e-11
        assert cal.tau_hd_s == pytest.approx(expected_hd, abs=1e-15)
        assert cal.tau_delay_u_s == pytest.approx(1.2e-11, abs=1e-15)
        assert cal.tau_fpda_s == pytest.approx(3128e-12 + 30e-12, abs=1e-15)
        assert cal.tau_oaa_s == pytest.approx(3e-12, abs=1e-18)
        assert all(cal.provenance.values())

    def test_link_constants_need_no_fluctuation(self, monkeypatch):
        # calibration reads only the link's dispersion and Sagnac terms: it
        # derives no seed for the link and starts no fluctuation process
        paths = []
        derive = scenario_module.derive_seed
        monkeypatch.setattr(scenario_module, "derive_seed",
                            lambda seed, path: paths.append(path) or derive(seed, path))

        def no_process(spec):
            raise AssertionError("calibration built a fluctuation process")

        monkeypatch.setattr(channel, "_OuProcess", no_process)
        scenario = load_scenario("link_sync_230km")
        assert scenario.link.fluctuation.amplitude_s > 0
        build_calibration_set(scenario)
        assert paths == ["calibration.clock_server", "calibration.clock_user",
                         "calibration.tic_server", "calibration.tic_user",
                         "calibration.delay_unit_tic"]

    @pytest.mark.parametrize("shared", [True, False])
    def test_clocks_take_the_shared_reference(self, shared):
        # clocks 2e-4 apart in frequency drift by more than the reversal
        # constant within the calibration rounds, unless both take the
        # scenario's reference frequency in place of their own
        doc = json.loads((resources.files("fotsim") / "scenarios" / "demo_short.json").read_text())
        for role, y in (("server", 1e-4), ("user", -1e-4)):
            doc["clocks"][role].update(freq_ref_shared=shared, frac_frequency=y)
        scenario = validate_scenario(doc)
        if shared:
            assert build_calibration_set(scenario) == build_calibration_set(
                load_scenario("demo_short"))
        else:
            with pytest.raises(NonCausalError):
                build_calibration_set(scenario)


class TestCompare:
    def _labeled_curve(self, tmp_path, name, scale):
        doc = minimal_doc(name=name)
        doc["clocks"]["server"]["noise"] = [{"type": "white_pm", "amplitude": scale}]
        doc["duration_s"] = 256.0
        report = run(validate_scenario(doc))
        return report.name, report.curves["main"]

    def test_identical_runs_have_equal_values(self, tmp_path):
        a = self._labeled_curve(tmp_path, "a", 1e-11)
        b = self._labeled_curve(tmp_path, "b", 1e-11)
        table = compare_curves([a, b])
        assert np.array_equal(table.values[:, 0], table.values[:, 1])
        assert table.ordering_violations == []

    def test_zero_values_compare_without_warnings(self):
        # a run without noise or frequency terms has a TDEV of 0 at every tau
        from fotsim.stability import StabilityCurve
        zero = StabilityCurve(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([5, 5]))
        noisy = StabilityCurve(np.array([1.0, 2.0]), np.array([0.0, 1e-12]), np.array([5, 5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = compare_curves([("zero", zero), ("noisy", noisy)])
        assert np.array_equal(table.values, [[0.0, 0.0], [0.0, 1e-12]])
        assert table.ordering_violations == []

    def test_ordering_violations_flagged(self, tmp_path):
        small = self._labeled_curve(tmp_path, "small", 1e-12)
        big = self._labeled_curve(tmp_path, "big", 1e-9)
        table = compare_curves([big, small])  # wrong order on purpose
        assert table.ordering_violations

    def test_disjoint_grids_rejected(self):
        from fotsim.stability import StabilityCurve
        a = StabilityCurve(np.array([1.0, 2.0]), np.array([1e-12, 1e-12]),
                           np.array([5, 5]))
        b = StabilityCurve(np.array([3.0, 4.0]), np.array([1e-12, 1e-12]),
                           np.array([5, 5]))
        with pytest.raises(ValidationError):
            compare_curves([("a", a), ("b", b)])

    def test_sub_nanosecond_taus_keep_one_row_each(self):
        # taus are matched to a relative 1e-9, not rounded to 1 ns: four taus
        # below 1 ns next to longer ones give one row each, with its values
        from fotsim.stability import StabilityCurve
        taus = np.array([1e-10, 2e-10, 5e-10, 1e-9, 1.0, 2.0])
        a = StabilityCurve(taus, np.arange(1, 7) * 1e-12, np.full(6, 5))
        # b's taus off by a relative 1e-12 still match a's
        b = StabilityCurve(taus * (1 + 1e-12), np.arange(1, 7) * 2e-12, np.full(6, 5))
        table = compare_curves([("a", a), ("b", b)])
        assert table.taus == taus.tolist()
        assert np.array_equal(table.values, np.stack([a.values, b.values], axis=1))
        assert table.ordering_violations == []

    def test_table_renders(self, tmp_path):
        a = self._labeled_curve(tmp_path, "a", 1e-11)
        b = self._labeled_curve(tmp_path, "b", 1e-11)
        text = compare_curves([a, b]).to_text()
        assert "tau_s" in text and "a" in text

    def test_three_canned_regimes_order_monotonically_at_long_tau(self):
        # full sync < frequency sync only < free running at 1000 s; at 1 s the
        # sync curve legitimately sits above the freq-sync one, so the flag
        # list is inspected per tau rather than required empty
        reports = [run(load_scenario(name)) for name in
                   ("link_sync_230km", "freq_synced_clocks", "free_running_clocks")]
        table = compare_curves([(r.name, r.curves["main"]) for r in reports])
        i1000 = table.taus.index(1000.0)
        vals = table.values[i1000]
        assert vals[0] < vals[1] < vals[2]
        assert all(tau != 1000.0 for tau, _, _ in table.ordering_violations)


def grid_doc(grid_s):
    doc = minimal_doc()
    doc["clocks"]["server"]["noise_grid_s"] = grid_s
    return doc


def calibration_doc(rounds):
    doc = sync_doc()
    doc["protocol"]["calibration_rounds"] = rounds
    doc["clocks"]["server"]["noise_grid_s"] = 1.0
    return doc


def pulse_doc(period_s):
    doc = minimal_doc()
    doc["clocks"]["server"]["pulse_period_s"] = period_s
    return doc


def with_server_grid(doc, grid_s):
    doc["clocks"]["server"]["noise_grid_s"] = grid_s
    return doc


CAP = scenario_module._MAX_SIZE


class TestAdmission:
    @pytest.mark.parametrize("key, at_cap, over_cap", [
        ("duration_s", grid_doc(1.0) | {"duration_s": CAP * 1.0},
         grid_doc(1.0) | {"duration_s": CAP + 1.0}),
        # 1e300 samples of 1e-300 s are more than a float holds
        ("duration_s", grid_doc(1.0) | {"duration_s": CAP * 1.0},
         grid_doc(1.0) | {"duration_s": 1e300, "sample_period_s": 1e-300}),
        ("protocol.calibration_rounds", calibration_doc(CAP), calibration_doc(CAP + 1)),
        ("protocol.calibration_rounds", calibration_doc(CAP), calibration_doc(10 ** 400)),
        # 32 s on a 2^-19 s grid is a buffer of 2^24 samples, and on a
        # 2^-20 s grid of 2^25
        ("clocks.server.noise_grid_s", grid_doc(2.0 ** -19), grid_doc(2.0 ** -20)),
        # without noise_grid_s the noise takes the pulse period's grid
        ("clocks.server.pulse_period_s", pulse_doc(2.0 ** -19), pulse_doc(2.0 ** -20)),
    ])
    def test_each_size_passes_at_the_cap_and_fails_past_it(self, key, at_cap, over_cap):
        validate_scenario(at_cap)
        with pytest.raises(ValidationError,
                           match=rf"^scenario\.{re.escape(key)} asks for .*, over the cap of {CAP}$"):
            validate_scenario(over_cap)

    @pytest.mark.parametrize("key, at_span, past_span, span", [
        ("clocks.server.noise_grid_s", grid_doc(32.0), grid_doc(32.5), "32 s"),
        ("clocks.server.pulse_period_s", pulse_doc(32.0), pulse_doc(32.5), "32 s"),
        # 64 calibration rounds of 1 s outlast the 24 s run
        ("clocks.server.noise_grid_s",
         with_server_grid(calibration_doc(64), 64.0), with_server_grid(calibration_doc(64), 65.0),
         "64 s the clock is queried over for the calibration's "
         "scenario.protocol.calibration_rounds = 64 rounds"),
    ])
    def test_a_noise_grid_passes_at_the_span_and_fails_past_it(self, key, at_span, past_span,
                                                              span):
        # a grid coarser than the span reads sample 0 at every query
        validate_scenario(at_span)
        with pytest.raises(ValidationError,
                           match=rf"^scenario\.{re.escape(key)} = .* s is coarser than the "
                                 rf"{re.escape(span)}"):
            validate_scenario(past_span)

    @pytest.mark.parametrize("name, key, change", [
        ("free_running_clocks", "duration_s", lambda d: d.update(duration_s=1e20)),
        ("link_sync_230km", "duration_s", lambda d: d.update(duration_s=1e20)),
        ("demo_short", "protocol.calibration_rounds",
         lambda d: d["protocol"].update(calibration_rounds=10 ** 20)),
        ("link_sync_230km", "clocks.user.noise_grid_s",
         lambda d: d["clocks"]["user"].update(noise_grid_s=1e-15)),
    ])
    def test_an_oversized_run_ends_at_once(self, tmp_path, name, key, change):
        # each of these allocated until it failed before the sizes were
        # checked
        out = run_oversized(tmp_path, name, change)
        assert out.returncode == 1
        assert out.stderr.startswith(f"error: scenario.{key} asks for ")
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, period, change", [
        ("free_running_clocks", "scenario.sample_period_s",
         lambda d: d.update(sample_period_s=1e-9)),
        ("link_sync_230km", "scenario.protocol.compensation_period_s",
         lambda d: d.update(duration_s=1e20)),
    ])
    def test_a_run_past_the_cap_names_its_duration_and_its_period(self, tmp_path, name,
                                                                   period, change):
        # the sample or round count is duration_s over the period, and
        # either may be the one at fault
        out = run_oversized(tmp_path, name, change)
        assert out.returncode == 1
        line = out.stderr.splitlines()[0]
        assert line.startswith("error: scenario.duration_s asks for ") and period in line
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, path, named, k", [
        (name, path, path, k)
        for name, period in (("demo_short", "protocol.compensation_period_s"),
                             ("free_running_clocks", "sample_period_s"))
        for path in ("duration_s", period, "clocks.server.noise_grid_s",
                     "clocks.user.initial_offset_s")
        for k in (-12, 12)
    ] + [
        ("demo_short", "link.fluctuation.grid_s", "link.fluctuation", -12),
        ("demo_short", "link.fluctuation.grid_s", "link.fluctuation", 12),
        ("demo_short", "protocol.calibration_rounds", "protocol.calibration_rounds", 12),
    ])
    def test_a_size_scaled_by_ten_to_the_twelve_ends_cleanly(self, tmp_path, name, path,
                                                               named, k):
        # a run with one size field scaled by 10^k ends in a clean exit, and
        # a refusal names the field and counts no fewer than no samples; a
        # noise grid 10^12 times coarser than the run's span is refused
        def change(doc):
            *parents, key = path.split(".")
            table = doc
            for parent in parents:
                table = table[parent]
            if key == "grid_s":  # absent: the default grid, scaled
                table[key] = table["timescale_s"] / 10 * 10.0 ** k
            elif key == "calibration_rounds":
                table[key] *= 10 ** k
            else:
                table[key] *= 10.0 ** k

        out = run_oversized(tmp_path, name, change)
        assert out.returncode in ((1,) if path.endswith("noise_grid_s") and k > 0
                                  else (0, 1, 2, 3))
        assert "Traceback" not in out.stderr
        if out.returncode == 1:
            assert not (tmp_path / "o").exists()
            [line] = [line for line in out.stderr.splitlines() if line.startswith("error: ")]
            assert named in line and not re.search(r" -\d", line)


def run_oversized(tmp_path, name, change):
    """`fotsim run` on the canned scenario changed by change(doc), through
    the CLI in a child process with 3 GB of address space."""
    doc = canned_doc(name)
    change(doc)
    (tmp_path / "s.json").write_text(json.dumps(doc))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from fotsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = Path(fotsim.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", code, "run", "--scenario", str(tmp_path / "s.json"),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=5.0,
        env=dict(os.environ, PYTHONPATH=str(src)))


class TestCli:
    def test_run_and_tdev_and_compare(self, tmp_path, capsys):
        scenario_file = tmp_path / "s.json"
        scenario_file.write_text(json.dumps(sync_doc()))
        out_a = tmp_path / "a"
        assert cli_main(["run", "--scenario", str(scenario_file),
                         "--out", str(out_a)]) == 0
        assert cli_main(["tdev", "--input", str(out_a / "rounds.csv"),
                         "--out", str(tmp_path / "t.csv")]) == 0
        curve = read_curve_csv(tmp_path / "t.csv")
        assert curve.taus[0] == 1.0
        out_b = tmp_path / "b"
        assert cli_main(["run", "--scenario", str(scenario_file), "--out", str(out_b),
                         "--seed", "99"]) == 0
        assert cli_main(["compare", str(out_a), str(out_b)]) == 0
        assert "tau_s" in capsys.readouterr().out

    def test_run_seed_runs_the_document_with_that_master_seed(self, tmp_path, capsys):
        # the CSVs of the seeded document byte for byte; the manifest records
        # the seed run and echoes the document as written
        doc = sync_doc()
        (tmp_path / "s.json").write_text(json.dumps(doc))
        (tmp_path / "s99.json").write_text(json.dumps(doc | {"master_seed": 99}))
        seeded, written, own = tmp_path / "seeded", tmp_path / "written", tmp_path / "own"
        for name, out, extra in (("s", seeded, ["--seed", "99"]), ("s99", written, []),
                                 ("s", own, [])):
            assert cli_main(["run", "--scenario", str(tmp_path / f"{name}.json"),
                             "--out", str(out), *extra]) == 0
        csvs = sorted(p.name for p in written.glob("*.csv"))
        assert csvs == sorted(p.name for p in seeded.glob("*.csv"))
        for name in csvs:
            assert (seeded / name).read_bytes() == (written / name).read_bytes(), name
        assert (seeded / "series.csv").read_bytes() != (own / "series.csv").read_bytes()
        manifest = json.loads((seeded / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        assert manifest["scenario"] == doc
        assert manifest["derived_seeds"] == \
            json.loads((written / "manifest.json").read_text())["derived_seeds"]

    def test_calibrate_seed_prints_what_the_seeded_document_prints(self, tmp_path, capsys):
        doc = canned_doc("demo_short")
        (tmp_path / "s.json").write_text(json.dumps(doc))
        (tmp_path / "s99.json").write_text(json.dumps(doc | {"master_seed": 99}))
        printed = []
        for name, extra in (("s", ["--seed", "99"]), ("s99", []), ("s", [])):
            assert cli_main(["calibrate", "--scenario", str(tmp_path / f"{name}.json"),
                             *extra]) == 0
            printed.append(capsys.readouterr().out)
        seeded, written, own = printed
        assert seeded == written != own

    def test_validation_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(duration_s=0)))
        assert cli_main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "duration_s" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, tmp_path):
        doc = sync_doc()
        doc["protocol"]["reversal_constant_s"] = 1e-4  # below the path delay
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("taus", [[], [1.0, np.nan], [1.0, np.inf], [np.nan]])
    def test_bad_tdev_taus_exit_1_before_simulating(self, tmp_path, capsys, taus):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(sync_doc(tdev_taus=taus)))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tdev_taus" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names", [["mid", "mid"], ["main"], ["a/b"]])
    def test_bad_node_names_exit_1_before_simulating(self, tmp_path, capsys, names):
        doc = sync_doc(access_nodes=[{"name": name, "distance_from_server_km": 25.0}
                                     for name in names])
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "access_nodes" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,key,source", [
        *(("free_running_clocks", key, "midlink_access_230km") for key in
          ("link", "protocol", "access_nodes", "hardware", "tics", "warmup_rounds")),
        ("link_sync_230km", "sample_period_s", "free_running_clocks"),
    ])
    def test_a_key_of_the_other_mode_exits_1(self, tmp_path, capsys, name, key, source):
        # each mode has its own keys: one of the other mode is refused, not
        # ignored or built unused
        doc = canned_doc(name)
        doc[key] = canned_doc(source)[key]
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown key {key!r} in scenario;")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,edit", [
        ("link.biedfa_position_km", {"link": {"biedfa_position_km": 500.0}}),
        ("protocol.calibration.reversal_constant_s",
         {"protocol": {"auto_calibrate": False, "calibration": {"reversal_constant_s": 1e-3}}}),
        # applied, but neither given nor built
        ("protocol.apply_calibration", {"protocol": {"auto_calibrate": False}}),
    ])
    def test_keys_refused_at_load_exit_1_naming_them(self, tmp_path, capsys, key, edit):
        # refused before the models are built, with the key in the error line
        doc = canned_doc("demo_short")
        for section, changes in edit.items():
            doc[section].update(changes)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario.{key} ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_apply_calibration_without_a_set_exits_1(self, tmp_path, capsys, command):
        # the document does not validate: the error line names the key and
        # says how to mend the document, for a run and a calibration alike
        doc = canned_doc("demo_short")
        doc["protocol"]["auto_calibrate"] = False
        with pytest.raises(ValidationError, match="scenario.protocol.apply_calibration"):
            validate_scenario(doc)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        argv = [command, "--scenario", str(f)]
        if command == "run":
            argv += ["--out", str(tmp_path / "o")]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: scenario.protocol.apply_calibration ")
        for fix in ("set scenario.protocol.calibration", "auto_calibrate",
                    "apply_calibration to false"):
            assert fix in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_clock_drift_exits_1(self, tmp_path, capsys):
        # a user clock off the shared reference with a drift whose time error
        # overflows within the run ends as a config error, before calibration
        doc = canned_doc("demo_short")
        doc["clocks"]["user"].update(freq_ref_shared=False, drift_per_s=1e307)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["run", "--scenario", str(f), "--out", str(tmp_path / "o")]) == 1
        assert "clock time error overflows" in capsys.readouterr().err

    @staticmethod
    def chunked_run_argv(tmp_path):
        """`fotsim run` of demo_short over three chunks of rounds.csv, which
        the calling thread formats and a helper writes."""
        doc = canned_doc("demo_short") | {"duration_s": 3.0 * cells._chunk_rows([[None] * 6])}
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        return ["run", "--scenario", str(f), "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("command", ["tdev", "run"])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, pin_workers,
                                   idle_helpers, command):
        # the CSV reader's workspace raises MemoryError or its read fails
        # with ENOMEM, or the CSV writer raises MemoryError: an error line
        # and exit 1, not an i/o error or a traceback.  The writer's helper,
        # waiting for the chunk the caller failed in, ends its run
        pin_workers(2)

        def fail(*args):
            raise MemoryError()

        class StarvedReader(io.BufferedReader):
            def readinto(self, buffer):
                raise OSError(errno.ENOMEM, "Cannot allocate memory")

        if command == "tdev":
            series = tmp_path / "series.csv"
            cells.write_tables([(series, ["index", "x_seconds"],
                                 [np.arange(64), np.ones(64)])])
            argv = ["tdev", "--input", str(series), "--tau0", "1", "--out", str(tmp_path / "t")]
            seams = [("_Workspace", fail),
                     ("open", lambda path, mode: StarvedReader(io.FileIO(path, mode)))]
        else:
            argv = self.chunked_run_argv(tmp_path)
            seams = [("_float_words", fail)]
        for name, stand_in in seams:
            with monkeypatch.context() as patch:
                patch.setattr(cells, name, stand_in, raising=False)
                assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: out of memory") and "Traceback" not in err
        assert idle_helpers.qsize() == (command == "run")

    def test_a_failed_write_on_the_helper_exits_3(self, tmp_path, capsys, monkeypatch,
                                                  pin_workers, idle_helpers):
        # the disk fills in the helper's write of the second chunk: an i/o
        # error line and exit 3, no traceback, and the helper idle again
        pin_workers(2)
        caller, writes = threading.current_thread(), []

        class FullDisk(io.BufferedWriter):
            def write(self, data):
                if threading.current_thread() is not caller:
                    writes.append(len(data))
                    if len(writes) == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr(cells, "open", lambda path, mode: FullDisk(io.FileIO(path, mode)),
                            raising=False)
        assert cli_main(self.chunked_run_argv(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: [Errno 28] No space left on device")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(writes) >= 2 and idle_helpers.qsize() == 1

    @staticmethod
    def compare_into(stdout, tmp_path, **env):
        """`python -m fotsim.cli compare` of two curves in a child process
        writing to the file descriptor stdout."""
        curves = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for curve in curves:
            curve.write_text("tau_s,tdev_s,n_samples\n1,2e-9,10\n2,1e-9,7\n")
        src = Path(fotsim.__file__).resolve().parent.parent
        return subprocess.run([sys.executable, "-m", "fotsim.cli", "compare", *map(str, curves)],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=30.0,
                              env=dict(os.environ, PYTHONPATH=str(src), **env))

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_a_closed_stdout_exits_0_quietly(self, tmp_path, unbuffered):
        # the reader is gone before the table is written, as with `| true`:
        # buffered (PYTHONUNBUFFERED empty), the write fails at the flush,
        # unbuffered, in print
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = self.compare_into(write_end, tmp_path, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (0, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_any_other_write_failure_exits_3(self, tmp_path, unbuffered):
        # buffered, the bytes the failed flush left behind must not fail
        # again at exit (which would print a second report and exit 120)
        with open("/dev/full", "w") as full:
            out = self.compare_into(full, tmp_path, PYTHONUNBUFFERED=unbuffered)
        assert out.returncode == 3
        assert out.stderr.startswith("i/o error: ") and out.stderr.count("\n") == 1

    def test_a_broken_pipe_off_stdout_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        # only a closed stdout exits 0: an --out whose reader went away
        # leaves a truncated file, which is an i/o error
        def broken(*_args):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        series = tmp_path / "series.csv"
        cells.write_tables([(series, ["index", "x_seconds"],
                             [np.arange(64), np.ones(64)])])
        monkeypatch.setattr("fotsim.cli.write_curve_csv", broken)
        assert cli_main(["tdev", "--input", str(series), "--tau0", "1",
                         "--out", str(tmp_path / "t")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and captured.out == ""

    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert cli_main(["run", "--scenario", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("argv,text,message", [
        (["tdev", "--tau0", "1"], "index,x_seconds\n0,1.5\n1,abc\n2,1\n3,2\n",
         "line 3, column 'x_seconds': cannot read 'abc'"),
        (["tdev"], "t_s,residual_s\n0,1\n1,2\n2,zz\n3,4\n",
         "line 4, column 'residual_s': cannot read 'zz'"),
        (["tdev"], "t_s,residual_s\n0,1\n1,2,3\n2,3\n3,4\n",
         "line 3: expected 2 fields, found 3"),
        (["tdev"], "t_s,T1_s\n0,1\n1,2\n2,3\n3,4\n", "column 'residual_s' not in"),
        (["tdev", "--tau0", "1"], "index,x_seconds\n0,1\n1,2\n", "holds 2 samples"),
        (["tdev"], "t_s,residual_s\n0,1\n1,2\n2,3\n", "holds 3 samples"),
        (["compare", "{good}"], "tau_s,tdev_s,n_samples\n1,2e-9,10\n2,zz,7\n",
         "line 3, column 'tdev_s': cannot read 'zz'"),
        (["compare", "{good}"], "tau_s,tdev_s,n_samples\n1,2e-9,10\n2,1e-9,7.5\n",
         "n_samples must be whole numbers"),
        (["compare", "{good}"], "tau_s,tdev_s,n_samples\n1,2e-9,10\nnan,1e-9,7\n",
         "taus must be finite"),
    ])
    def test_malformed_csv_exits_1_naming_the_place(self, tmp_path, capsys, argv, text,
                                                     message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        good = tmp_path / "good.csv"
        good.write_text("tau_s,tdev_s,n_samples\n1,2e-9,10\n2,1e-9,7\n")
        if argv[0] == "tdev":
            argv = argv + ["--input", str(bad), "--out", str(tmp_path / "t.csv")]
        else:
            argv = [argv[0], str(good), str(bad)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(bad) in err
        assert not (tmp_path / "t.csv").exists()

    def test_tdev_reads_rounds_shaped_input_by_column(self, tmp_path):
        rows = "".join(f"{2.0 * i},{0.5 * i},{float(i * i)}\n" for i in range(8))
        f = tmp_path / "r.csv"
        f.write_text("t_s,a,residual_s\n" + rows)
        assert cli_main(["tdev", "--input", str(f), "--out", str(tmp_path / "t.csv")]) == 0
        assert read_curve_csv(tmp_path / "t.csv").taus.tolist() == [2.0, 4.0]
        assert cli_main(["tdev", "--input", str(f), "--column", "a", "--tau0", "1",
                         "--out", str(tmp_path / "u.csv")]) == 0
        assert read_curve_csv(tmp_path / "u.csv").taus.tolist() == [1.0, 2.0]

    def test_calibrate_prints_calibration_set(self, tmp_path, capsys):
        doc = sync_doc(hardware={"tx_server_s": 1e-8})
        f = tmp_path / "s.json"
        f.write_text(json.dumps(doc))
        assert cli_main(["calibrate", "--scenario", str(f)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["tau_hd_s"] == pytest.approx(1e-8, abs=1e-15)

    def test_calibrate_a_clocks_only_document_exits_1(self, capsys):
        # a clocks_only scenario has no link or protocol to calibrate
        assert cli_main(["calibrate", "--scenario", "free_running_clocks"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: calibration needs scenario.protocol")

    def test_scenarios_subcommand_lists_canned(self, capsys):
        assert cli_main(["scenarios"]) == 0
        assert "link_sync_230km" in capsys.readouterr().out
