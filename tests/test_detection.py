import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdemux.detection import (
    DetectionArm,
    DetectorSpec,
    LossEntry,
    LossLedger,
    apply_detector,
    car_curve,
    coincidence_rates,
    db_to_linear,
    linear_to_db,
    loss_report,
)
from qdemux.events import EventStream
from qdemux.ring_source import SfwmRates


def sfg_module_ledger():
    return LossLedger((
        LossEntry("transmission", 0.80, "sfg_passive"),
        LossEntry("up-conversion", 5.38, "conversion"),
        LossEntry("filtering", 0.20, "sfg_passive"),
        LossEntry("fiber coupling", 2.21, "sfg_passive"),
    ), role="signal-arm")


def idler_ledger():
    return LossLedger((
        LossEntry("waveguide insertion", 5.00, "chip"),
        LossEntry("DWDM filtering", 2.00, "filters"),
        LossEntry("InGaAs detector", 6.99, "detector"),
    ), role="idler-arm")


def test_ledger_sums():
    assert sfg_module_ledger().total_db() == pytest.approx(8.59, abs=1e-12)
    assert idler_ledger().total_db() == pytest.approx(13.99, abs=1e-12)


def test_empty_ledger():
    ledger = LossLedger(())
    assert ledger.total_db() == 0.0
    assert ledger.linear() == 1.0


def test_negative_entry_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        LossEntry("bad", -0.1, "chip")


@pytest.mark.parametrize("group", ["", "bogus"])
def test_entry_outside_loss_groups_rejected(group):
    # an entry in no group would count in the idler arm's survival but in
    # no signal survival
    with pytest.raises(ValueError, match="group: expected one of"):
        LossEntry("x", 1.0, group)


def test_loss_report_headline_numbers():
    signal = LossLedger((
        LossEntry("waveguide insertion", 5.00, "chip"),
        LossEntry("DWDM filtering", 2.00, "filters"),
        *sfg_module_ledger().entries,
        LossEntry("Si detector", 3.00, "detector"),
    ), role="signal-arm")
    report = loss_report(signal, idler_ledger())
    assert report["sfg_module_db"] == pytest.approx(8.59, abs=1e-12)
    assert report["idler_total_db"] == pytest.approx(13.99, abs=1e-12)
    assert report["signal_optical_db"] == pytest.approx(15.59, abs=1e-12)
    assert report["signal_total_db"] == pytest.approx(18.59, abs=1e-12)


@given(st.floats(0.0, 60.0))
def test_db_linear_round_trip(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_coincidence_rates_examples():
    rates = SfwmRates(pair_coefficient=0.8)
    dark_a = DetectionArm(1.0, DetectorSpec(1.0, dark_rate_hz=1000.0))
    dark_b = DetectionArm(1.0, DetectorSpec(1.0, dark_rate_hz=2000.0))
    # darks alone at zero power: 1000/s x 2000/s x 0.8 ns
    true, acc = coincidence_rates(rates, dark_a, dark_b, 0.8, 0.0)
    assert true == 0.0
    assert acc == pytest.approx(1.6e-3, rel=1e-12)
    assert coincidence_rates(rates, dark_a, dark_b, 1.6, 0.0)[1] == pytest.approx(
        2.0 * acc, rel=1e-12)
    assert coincidence_rates(rates, DetectionArm(1.0, DetectorSpec(1.0)), dark_b,
                             0.8, 0.0)[1] == 0.0
    # 8000 pairs/s at 100 uW through arms of 0.25 and 0.2: singles 2000 and
    # 1600/s, 400 true/s, and 2000/s x 1600/s x 0.8 ns accidental
    true, acc = coincidence_rates(rates, DetectionArm(0.5, DetectorSpec(0.5)),
                                  DetectionArm(1.0, DetectorSpec(0.2)), 0.8, 100.0)
    assert true == pytest.approx(400.0, rel=1e-12)
    assert acc == pytest.approx(2.56e-3, rel=1e-12)


# --- analytic CAR ---


def _arms(dark_a=0.0, dark_b=0.0, conv_a=1.0):
    arm_a = DetectionArm(db_to_linear(7.0) * conv_a, DetectorSpec(0.5, dark_rate_hz=dark_a))
    arm_b = DetectionArm(db_to_linear(7.0), DetectorSpec(0.2, dark_rate_hz=dark_b))
    return arm_a, arm_b


def test_car_strictly_decreasing_without_noise():
    rates = SfwmRates(pair_coefficient=0.8)
    arm_a, arm_b = _arms()
    p = np.linspace(10.0, 2000.0, 300)
    car = car_curve(rates, arm_a, arm_b, 0.8, p)
    assert np.all(np.diff(car) < 0)


def test_car_undefined_when_accidentals_vanish():
    rates = SfwmRates(pair_coefficient=0.8)
    arm_a, arm_b = _arms()
    assert np.isnan(car_curve(rates, arm_a, arm_b, 0.8, 0.0))


def test_car_interior_maximum_matches_closed_form():
    # with pure quadratic singles plus darks the optimum power obeys
    # P*^4 = (d_a d_b) / (eta_a k * eta_b k); verified against a fine scan
    k = 0.8
    rates = SfwmRates(pair_coefficient=k)
    arm_a, arm_b = _arms(dark_a=800.0, dark_b=1500.0)
    eta_a, eta_b = arm_a.efficiency(), arm_b.efficiency()
    p_star = ((800.0 * 1500.0) / (eta_a * k * eta_b * k)) ** 0.25

    p = np.linspace(1.0, 5000.0, 20000)
    car = car_curve(rates, arm_a, arm_b, 0.8, p)
    assert p[np.argmax(car)] == pytest.approx(p_star, rel=2e-3)
    # unique interior maximum: rises then falls
    imax = int(np.argmax(car))
    assert 0 < imax < len(p) - 1
    assert np.all(np.diff(car[:imax + 1]) > 0)
    assert np.all(np.diff(car[imax:]) < 0)


def test_extra_loss_and_darks_shift_optimum_to_higher_power():
    rates = SfwmRates(pair_coefficient=0.8, raman_signal=32.0, raman_idler=32.0)
    p = np.linspace(1.0, 5000.0, 5000)

    arm_a_clean, arm_b = _arms(dark_a=100.0, dark_b=1000.0)
    before = car_curve(rates, arm_a_clean, arm_b, 0.8, p)

    # add the conversion stage: 8.59 dB of loss and a 1000/s dark floor
    arm_a_conv, _ = _arms(dark_a=1000.0, dark_b=1000.0, conv_a=db_to_linear(8.59))
    after = car_curve(rates, arm_a_conv, arm_b, 0.8, p)

    assert p[np.argmax(after)] > p[np.argmax(before)]


def test_car_scale_invariance_with_darks():
    # shrinking both arms' efficiency by a common factor strictly lowers the
    # CAR at fixed power when dark counts are present
    rates = SfwmRates(pair_coefficient=0.8)
    arm_a, arm_b = _arms(dark_a=500.0, dark_b=500.0)
    arm_a_k = DetectionArm(arm_a.survival * 0.5, arm_a.detector)
    arm_b_k = DetectionArm(arm_b.survival * 0.5, arm_b.detector)
    for p in (50.0, 200.0, 800.0):
        assert car_curve(rates, arm_a_k, arm_b_k, 0.8, p) < car_curve(
            rates, arm_a, arm_b, 0.8, p)


# --- detector Monte Carlo stage ---


def _stream(times_ps, duration_s=1.0):
    return EventStream("test", np.asarray(times_ps, dtype=np.int64), duration_s, seed=0)


def test_apply_detector_identity():
    spec = DetectorSpec(efficiency=1.0)
    s = _stream([100, 5000, 123456])
    out = apply_detector(s, spec, seed=1)
    assert np.array_equal(out.timestamps_ps, s.timestamps_ps)


@pytest.mark.parametrize("times_ps, kept_ps", [
    # two events 1 us apart with a 5 us dead time
    ([1_000_000, 2_000_000, 8_000_000], [1_000_000, 8_000_000]),
    # a gap of exactly the dead time is kept, one picosecond less is not
    ([1_000_000, 6_000_000], [1_000_000, 6_000_000]),
    ([1_000_000, 5_999_999], [1_000_000]),
    # non-paralyzable: the dropped 3 us event does not extend the dead time
    ([0, 3_000_000, 6_000_000, 9_000_000], [0, 6_000_000]),
    ([4_000_000], [4_000_000]),
    ([0, 5_000_000, 20_000_000], [0, 5_000_000, 20_000_000]),
], ids=["close_pair", "gap_equal_dead_time", "gap_one_short", "chain", "one_event",
        "no_close_pair"])
def test_dead_time_drops_second_of_close_pair(times_ps, kept_ps):
    spec = DetectorSpec(efficiency=1.0, dead_time_us=5.0)
    s = _stream(times_ps)
    out = apply_detector(s, spec, seed=1)
    assert list(out.timestamps_ps) == kept_ps


# 20 000 events with a 2000 ps dead time: pile-up (mean gap 500 ps), and
# sparse (mean gap 100 ns, about 2 % of gaps close, as in the workloads)
@pytest.mark.parametrize("span_ps", [10_000_000, 2_000_000_000], ids=["pile_up", "sparse"])
def test_dead_time_pruning_is_exact_greedy(span_ps):
    rng = np.random.default_rng(3)
    t = np.unique(rng.integers(0, span_ps, 20_000).astype(np.int64))
    spec = DetectorSpec(efficiency=1.0, dead_time_us=0.002)  # 2000 ps
    out = apply_detector(_stream(t, duration_s=1.0), spec, seed=1)
    # oracle: explicit sequential scan
    kept = []
    last = -10**9
    for ti in t:
        if ti - last >= 2000:
            kept.append(ti)
            last = ti
    assert list(out.timestamps_ps) == kept
    assert np.all(np.diff(out.timestamps_ps) >= 2000)


def test_dark_counts_poisson_mean():
    spec = DetectorSpec(efficiency=1.0, dark_rate_hz=1000.0)
    empty = _stream([], duration_s=1.0)
    counts = [apply_detector(empty, spec, seed=s).count for s in range(60)]
    mean = np.mean(counts)
    sigma_mean = np.sqrt(1000.0 / len(counts))
    assert abs(mean - 1000.0) < 5.0 * sigma_mean


def test_apply_detector_deterministic_per_seed():
    spec = DetectorSpec(efficiency=0.4, dark_rate_hz=2000.0, dead_time_us=1.0,
                        timing_jitter_sigma_ps=120.0)
    rng = np.random.default_rng(9)
    t = np.unique(rng.integers(0, 10**12, 5000).astype(np.int64))
    s = _stream(t, duration_s=1.0)
    out1 = apply_detector(s, spec, seed=77)
    out2 = apply_detector(s, spec, seed=77)
    out3 = apply_detector(s, spec, seed=78)
    assert np.array_equal(out1.timestamps_ps, out2.timestamps_ps)
    assert not np.array_equal(out1.timestamps_ps, out3.timestamps_ps)


def test_apply_detector_output_sorted_and_in_range():
    spec = DetectorSpec(efficiency=0.9, dark_rate_hz=5000.0,
                        timing_jitter_sigma_ps=200.0)
    rng = np.random.default_rng(11)
    t = np.unique(rng.integers(0, 10**12, 10000).astype(np.int64))
    out = apply_detector(_stream(t, 1.0), spec, seed=5)
    assert np.all(np.diff(out.timestamps_ps) > 0)
    assert out.timestamps_ps[0] >= 0
    assert out.timestamps_ps[-1] < 10**12


def _reference_detector(stream, spec, rng):
    """apply_detector's stages, assembled with np.unique and dead time by a scan."""
    t = stream.timestamps_ps
    t = t[rng.random(t.size) < spec.efficiency]
    t = t + np.rint(rng.normal(0.0, spec.timing_jitter_sigma_ps, t.size)).astype(np.int64)
    n_dark = rng.poisson(spec.dark_rate_hz * stream.duration_s)
    dark = rng.integers(0, stream.duration_ps, size=n_dark, dtype=np.int64)
    t = np.unique(np.concatenate([t, dark]))
    t = t[(t >= 0) & (t < stream.duration_ps)]
    dead_ps = int(round(spec.dead_time_us * 1e6))
    kept = []
    last = -dead_ps
    for ti in t:
        if ti - last >= dead_ps:
            kept.append(ti)
            last = ti
    return np.asarray(kept, dtype=np.int64)


@pytest.mark.parametrize("dead_time_us, dark_rate_hz, n_events",
                         [(0.0002, 2e7, 200_000), (0.002, 2e7, 200_000), (0.002, 3e4, 2000)],
                         ids=["0.0002", "0.002", "sparse"])
def test_apply_detector_equals_unique_reference(dead_time_us, dark_rate_hz, n_events):
    # dense: 200 000 events in 0.1 ms, so jitter makes exact repeats and swaps
    # neighbours everywhere; sparse: 2000 events with a 50 ns mean gap against
    # 150 ps of jitter, a few darks, nearly sorted as in a run.  In both, jitter
    # pushes events past both ends.
    spec = DetectorSpec(efficiency=0.8, dark_rate_hz=dark_rate_hz, dead_time_us=dead_time_us,
                        timing_jitter_sigma_ps=150.0)
    rng = np.random.default_rng(4)
    edges = np.concatenate([np.arange(0, 400, 20), 10**8 - 1 - np.arange(0, 400, 20)])
    s = _stream(np.unique(np.concatenate([rng.integers(0, 10**8, n_events), edges])),
                duration_s=1e-4)
    out = apply_detector(s, spec, seed=np.random.default_rng(8))
    assert np.array_equal(out.timestamps_ps,
                          _reference_detector(s, spec, np.random.default_rng(8)))


def test_detector_spec_validation():
    with pytest.raises(ValueError, match="efficiency"):
        DetectorSpec(efficiency=0.0)
    with pytest.raises(ValueError, match="dead time"):
        DetectorSpec(efficiency=0.5, dead_time_us=-1.0)
