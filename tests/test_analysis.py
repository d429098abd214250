import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdemux.analysis import (
    FringePoint,
    FringeScan,
    car_from_histogram,
    fit_visibility,
    visibility_minmax,
    visibility_report,
)
from qdemux.events import (
    CoincidenceConfig,
    CoincidenceHistogram,
    EventStream,
    central_window_counts,
    histogram,
)


def synthetic_scan(v, phi0=0.0, amplitude=1000.0, n_points=12, background=0.0):
    phases = np.arange(n_points) * 2.0 * np.pi / n_points
    counts = amplitude * (1.0 + v * np.cos(phases + phi0)) + background
    return FringeScan(tuple(
        FringePoint(phase_rad=float(p), center_counts=float(c),
                    background_counts=background)
        for p, c in zip(phases, counts)
    ))


# --- closed-form min/max estimator ---


def test_minmax_example():
    v, sigma = visibility_minmax(100.0, 25.0)
    assert v == pytest.approx(0.6, rel=1e-12)
    # oracle: independent propagation expression
    expected_sigma = 2.0 * math.sqrt(100.0**2 * 25.0 + 25.0**2 * 100.0) / (125.0**2)
    assert sigma == pytest.approx(expected_sigma, rel=1e-12)
    assert sigma == pytest.approx(0.0715, abs=1e-4)


def test_minmax_degenerate():
    assert visibility_minmax(50.0, 50.0)[0] == 0.0
    v, sigma = visibility_minmax(0.0, 0.0)
    assert v == 0.0 and sigma == float("inf")


def test_minmax_error_scales_inverse_sqrt_counts():
    _, s1 = visibility_minmax(100.0, 25.0)
    _, s16 = visibility_minmax(1600.0, 400.0)
    assert s16 == pytest.approx(s1 / 4.0, rel=1e-12)


# --- least-squares fringe fit ---


def test_fit_recovers_exact_synthetic_fringe():
    for v in (0.0, 0.3, 0.9622, 1.0):
        for phi0 in (0.0, 1.1, 4.5):
            result = fit_visibility(synthetic_scan(v, phi0))
            assert result.v_raw == pytest.approx(v, abs=1e-6)
            if v > 0:
                # the fitted offset angle is defined modulo 2*pi
                diff = (result.fit_phase_offset_rad - phi0) % (2.0 * np.pi)
                assert min(diff, 2.0 * np.pi - diff) < 1e-6


@settings(max_examples=40)
@given(st.floats(0.01, 1.0), st.floats(0.0, 2.0 * np.pi))
def test_fit_recovery_property(v, phi0):
    result = fit_visibility(synthetic_scan(v, phi0))
    assert result.v_raw == pytest.approx(v, abs=1e-6)


def test_reference_visibility_value_recovered():
    result = fit_visibility(synthetic_scan(0.9622))
    assert result.v_raw == pytest.approx(0.9622, abs=1e-6)
    assert result.bell_violating


def test_degenerate_flat_scan_reports_zero_with_sigma():
    scan = FringeScan(tuple(
        FringePoint(phase_rad=p, center_counts=400.0)
        for p in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ))
    result = fit_visibility(scan)
    assert result.v_raw == pytest.approx(0.0, abs=1e-12)
    assert result.v_raw_sigma > 0.0


def test_zero_background_makes_net_equal_raw():
    result = fit_visibility(synthetic_scan(0.8))
    assert result.v_net == pytest.approx(result.v_raw, abs=1e-12)


def test_constant_background_lowers_raw_leaves_net():
    clean = fit_visibility(synthetic_scan(0.8))
    dirty = fit_visibility(synthetic_scan(0.8, background=200.0))
    assert dirty.v_raw < clean.v_raw
    assert dirty.v_net == pytest.approx(0.8, abs=1e-6)
    assert dirty.v_net > dirty.v_raw


def test_oversubtracted_background_flags_negative_net_points():
    scan = FringeScan(tuple(
        FringePoint(phase_rad=float(p), center_counts=float(c), background_counts=120.0)
        for p, c in zip(np.linspace(0, 2 * np.pi, 8, endpoint=False),
                        100.0 * (1.0 + np.cos(np.linspace(0, 2 * np.pi, 8, endpoint=False))))
    ))
    result = fit_visibility(scan)
    assert result.negative_net_points > 0


def test_error_scaling_with_counts():
    # scaling every count by k scales sigma_V by 1/sqrt(k)
    base = fit_visibility(synthetic_scan(0.6, amplitude=500.0))
    for k in (4.0, 16.0, 100.0):
        scaled = fit_visibility(synthetic_scan(0.6, amplitude=500.0 * k))
        ratio = scaled.v_raw_sigma / base.v_raw_sigma
        assert ratio == pytest.approx(1.0 / np.sqrt(k), rel=0.05)


def test_scan_validation():
    with pytest.raises(ValueError, match="at least 4"):
        fit_visibility(FringeScan(tuple(
            FringePoint(phase_rad=p, center_counts=10.0) for p in (0.0, 1.0, 2.0)
        )))
    with pytest.raises(ValueError, match="span"):
        fit_visibility(FringeScan(tuple(
            FringePoint(phase_rad=p, center_counts=10.0)
            for p in (0.0, 0.5, 1.0, 1.5)
        )))


def test_minmax_cross_check_agrees_on_clean_data():
    result = fit_visibility(synthetic_scan(0.75))
    assert not result.estimators_disagree
    assert result.v_minmax == pytest.approx(0.75, abs=1e-9)


# --- CAR from histograms ---


def _poisson_stream(label, rate_hz, duration_s, seed):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_hz * duration_s)
    t = np.unique(rng.integers(0, int(duration_s * 1e12), n).astype(np.int64))
    return EventStream(label, t, duration_s, seed)


def test_flat_histogram_car_is_one():
    cfg = CoincidenceConfig()
    a = _poisson_stream("a", 200_000.0, 1.0, seed=21)
    b = _poisson_stream("b", 200_000.0, 1.0, seed=22)
    est = car_from_histogram(histogram(a, b, cfg), 0.8)
    assert est.car == pytest.approx(1.0, abs=5.0 * est.sigma)
    assert not est.lower_bound


def test_noiseless_pair_run_gives_flagged_lower_bound():
    cfg = CoincidenceConfig()
    # perfectly correlated pairs, 50 ps offset, spaced far beyond the span
    t = np.arange(5000, dtype=np.int64) * 200_000_000 + 1000
    a = EventStream("a", t, 1.0, 0)
    b = EventStream("b", t + 50, 1.0, 0)
    est = car_from_histogram(histogram(a, b, cfg), 0.8)
    assert est.lower_bound
    assert est.background_per_window == 0.0
    assert est.center_counts == len(t)


def test_car_background_excludes_side_peak_tails():
    # Franson side peaks at +-1.6 ns with 250 ps exponential tails: at 2.5 ns
    # they still add ~27 counts a bin, past 3.6 ns under one count in all
    rng = np.random.default_rng(31)
    centers = np.arange(-50, 51, dtype=np.int64) * 100
    floor_per_bin = 5.0
    mean = floor_per_bin + 4000.0 * np.exp(-np.abs(centers) / 250.0)
    for side in (-1600, 1600):
        mean += 1000.0 * np.exp(-np.abs(centers - side) / 250.0)
    h = CoincidenceHistogram(bin_width_ps=100, centers_ps=centers,
                             counts=rng.poisson(mean), total_pairs_examined=0)
    est = car_from_histogram(h, 0.8)
    win = central_window_counts(h, 0.8)
    assert est.background_per_window == win.background_per_window
    assert est.car == win.center / win.background_per_window
    floor = floor_per_bin * win.window_bins
    assert abs(est.background_per_window - floor) <= 3.0 * win.background_sigma_per_window


def test_car_background_region_validation():
    cfg = CoincidenceConfig()
    a = _poisson_stream("a", 10_000.0, 0.1, seed=23)
    h = histogram(a, a, cfg)
    with pytest.raises(ValueError, match="background region"):
        car_from_histogram(h, 0.8, background_start_ns=0.1)


# --- report table ---


def _result(v_raw=0.90, v_net=0.95):
    scan = synthetic_scan(v_raw)
    base = fit_visibility(scan)
    return base


def test_visibility_report_layout():
    res = _result()
    table = visibility_report({
        "S1-I1": {"before": res, "after": res},
        "S2-I2": {"before": res, "after": None},
    })
    assert "Channel pairs" in table
    assert "S1-I1" in table and "S2-I2" in table
    assert "--" in table                       # missing cell rendered blank
    assert "note: S2-I2 after scan missing" in table
    assert "%" in table
    # two-decimal percent formatting
    assert f"({0.90 * 100:.2f}" in table


def test_visibility_report_marks_bell_violation():
    res = fit_visibility(synthetic_scan(0.95))
    table = visibility_report({"S3-I3": {"before": res, "after": res}})
    assert "*" in table
