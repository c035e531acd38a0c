"""Stability statistics: brute-force oracle agreement, known responses, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fotsim.cli import main as cli_main
from fotsim.errors import ValidationError
from fotsim.scenario import write_series_csv
from fotsim.stability import (
    StabilityCurve,
    adev,
    default_taus,
    mdev,
    slope,
    tdev,
    tdev_bruteforce,
)
from fotsim.timebase import NoiseProfile, TimeErrorSeries, synthesize_time_error_series


def series(values, tau0=1.0):
    return TimeErrorSeries(tau0_s=tau0, values=np.asarray(values, dtype=float))


class TestTdevKnownResponses:
    def test_constant_series_is_zero_at_all_taus(self):
        s = series(np.full(64, 3.7e-9))
        curve = tdev(s)
        assert np.all(curve.values == 0.0)

    def test_linear_ramp_is_annihilated(self):
        # second differences remove constant offset and linear drift exactly
        s = series(2.5e-12 * np.arange(256) + 4.2e-9)
        curve = tdev(s)
        assert np.all(curve.values == pytest.approx(0.0, abs=1e-24))

    def test_white_pm_tdev_at_tau0_equals_sigma(self):
        # E[(x_{i+2} - 2 x_{i+1} + x_i)^2] = 6 sigma^2, so the 1/6 normalizer
        # makes TDEV(tau0) estimate sigma directly; 200-seed ensemble
        sigma = 25e-12
        tvars = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            s = series(sigma * rng.standard_normal(512))
            tvars.append(tdev(s, taus=[1.0]).values[0] ** 2)
        assert math.sqrt(np.mean(tvars)) == pytest.approx(sigma, rel=0.05)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(128) * 1e-11
        base = tdev(series(x)).values
        scaled = tdev(series(-3.0 * x)).values
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_offset_and_drift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(128) * 1e-11
        t = np.arange(128) * 1.0
        shifted = x + 5e-6 + 3e-9 * t
        assert tdev(series(shifted)).values == pytest.approx(
            tdev(series(x)).values, rel=1e-9)


class TestBruteForceOracle:
    def test_trivial_cases(self):
        assert tdev_bruteforce(series(np.zeros(16)), 2.0) == 0.0
        ramp = series(1e-12 * np.arange(32))
        assert tdev_bruteforce(ramp, 4.0) == pytest.approx(0.0, abs=1e-24)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=7, max_size=64),
        n=st.integers(1, 20),
    )
    def test_matches_fast_path_on_random_series(self, data, n):
        s = series(data)
        if len(data) < 3 * n + 1:
            with pytest.raises(ValidationError):
                tdev_bruteforce(s, float(n))
            return
        expected = tdev_bruteforce(s, float(n))
        got = tdev(s, taus=[float(n)]).values[0]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_matches_fast_path_on_seeded_n64_series(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = series(rng.standard_normal(64) * 1e-10, tau0=0.5)
            for tau in (0.5, 1.0, 2.5, 10.0):
                assert tdev(s, taus=[tau]).values[0] == pytest.approx(
                    tdev_bruteforce(s, tau), rel=1e-12)


class TestValidation:
    def test_rejects_tau_not_a_multiple(self):
        with pytest.raises(ValidationError):
            tdev(series(np.zeros(32)), taus=[1.5])

    def test_rejects_tau_too_long(self):
        with pytest.raises(ValidationError):
            tdev(series(np.zeros(32)), taus=[11.0])  # needs 34 points

    def test_boundary_tau_is_accepted(self):
        tdev(series(np.zeros(31)), taus=[10.0])  # N = 3n+1 exactly

    def test_default_grid_is_125_up_to_quarter_span(self):
        assert default_taus(1.0, 100) == [1.0, 2.0, 5.0, 10.0, 20.0]
        assert default_taus(0.5, 8) == [0.5, 1.0]

    def test_default_grid_ends_where_tau_overflows(self):
        # n * tau0 overflows to inf, so only the overflow of tau ends the grid
        assert default_taus(1e307, 100) == [1e307, 2e307, 5e307, 1e308]

    def test_series_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            series([0.0, np.inf, 0.0])

    @pytest.mark.parametrize("tau0", [0.0, -1.0, np.inf, np.nan])
    def test_series_rejects_tau0_not_finite_and_positive(self, tau0):
        with pytest.raises(ValidationError, match="tau0_s"):
            series(np.zeros(8), tau0=tau0)


class TestSlope:
    def test_white_pm_slope_minus_half(self):
        taus = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0]
        tvars = np.zeros(len(taus))
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            c = tdev(series(rng.standard_normal(1024) * 1e-11), taus=taus)
            tvars += c.values ** 2
        mean_curve = StabilityCurve(np.asarray(taus), np.sqrt(tvars / 200),
                                    np.ones(len(taus), dtype=int))
        assert slope(mean_curve, 1.0, 50.0) == pytest.approx(-0.5, abs=0.05)

    def test_white_fm_slope_plus_half(self):
        # the discrete estimator reaches the +1/2 asymptote for n >~ 5,
        # so the fit window starts there
        taus = [5.0, 10.0, 20.0, 50.0, 100.0, 200.0]
        tvars = np.zeros(len(taus))
        profile_amp = 1e-12
        for seed in range(200):
            profile = NoiseProfile(components=[("white_fm", profile_amp)], rng_seed=seed)
            s = synthesize_time_error_series(profile, 2048, 1.0)
            tvars += tdev(s, taus=taus).values ** 2
        mean_curve = StabilityCurve(np.asarray(taus), np.sqrt(tvars / 200),
                                    np.ones(len(taus), dtype=int))
        assert slope(mean_curve, 5.0, 200.0) == pytest.approx(0.5, abs=0.05)

    def test_constant_curve_has_zero_slope(self):
        curve = StabilityCurve(np.array([1.0, 2.0, 5.0]), np.full(3, 2e-12),
                               np.ones(3, dtype=int))
        assert slope(curve, 1.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_insufficient_points(self):
        curve = StabilityCurve(np.array([1.0, 2.0, 5.0]), np.full(3, 2e-12),
                               np.ones(3, dtype=int))
        with pytest.raises(ValidationError):
            slope(curve, 1.0, 2.0)


class TestEstimatorFamily:
    def test_mdev_is_scaled_tdev(self):
        rng = np.random.default_rng(3)
        s = series(rng.standard_normal(256) * 1e-11)
        t_curve = tdev(s, taus=[1.0, 2.0, 4.0])
        m_curve = mdev(s, taus=[1.0, 2.0, 4.0])
        assert m_curve.values == pytest.approx(
            math.sqrt(3.0) * t_curve.values / t_curve.taus, rel=1e-12)

    def test_adev_white_fm_level(self):
        # overlapping ADEV of white FM: sigma_y(tau) = amp / sqrt(tau)
        amp = 2e-12
        avars = []
        for seed in range(100):
            profile = NoiseProfile(components=[("white_fm", amp)], rng_seed=seed)
            s = synthesize_time_error_series(profile, 2048, 1.0)
            avars.append(adev(s, taus=[4.0]).values[0] ** 2)
        assert math.sqrt(np.mean(avars)) == pytest.approx(amp / 2.0, rel=0.05)

    def test_estimator_variance_shrinks_with_length(self):
        # Monte-Carlo check that the point estimate tightens as N grows
        def spread(n):
            vals = [
                tdev(series(np.random.default_rng(s).standard_normal(n)), taus=[2.0]).values[0]
                for s in range(150)
            ]
            return np.std(vals) / np.mean(vals)

        assert spread(1024) < spread(64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteValues:
    # finite samples whose squared window sums overflow to inf; the curve is
    # rejected with a ValidationError alone, no numpy RuntimeWarning first
    huge = series(1e300 * (-1.0) ** np.arange(64))

    @pytest.mark.parametrize("statistic", [tdev, adev, mdev])
    def test_overflow_is_rejected(self, statistic):
        with pytest.raises(ValidationError, match="finite"):
            statistic(self.huge)

    def test_curve_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            StabilityCurve([1.0], [np.nan], [1])

    def test_cli_fails_without_writing(self, tmp_path, capsys):
        write_series_csv(tmp_path / "series.csv", self.huge)
        out = tmp_path / "curve.csv"
        code = cli_main(["tdev", "--input", str(tmp_path / "series.csv"),
                         "--tau0", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_cli_rejects_non_finite_sample_counts(self, tmp_path, capsys):
        curve = tmp_path / "tdev.csv"
        curve.write_text("tau_s,tdev_s,n_samples\n"
                         "1.0000000000000000e+00,1.0000000000000000e-11,inf\n")
        assert cli_main(["compare", str(curve), str(curve)]) == 1
        assert "n_samples must be whole numbers" in capsys.readouterr().err
