from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qdemux.channel_plan import build_plan, wavelength_to_frequency
from qdemux.config import load_config
from qdemux.detection import DetectorSpec, LossEntry, LossLedger, db_to_linear
from qdemux.events import CoincidenceConfig, central_window_counts, histogram
from qdemux.franson import FringeModel, UmiSpec, sample_single_paths
from qdemux.montecarlo import (
    ScenarioConfig,
    _lone_times,
    _truncated_laplace,
    fringe_scan,
    generate_run,
    operating_point,
    sub_seed,
)
from qdemux.ring_source import RingSpectrumModel, SfwmRates, singles_rate
from qdemux.sfg import (
    SELLMEIER_SETS,
    ConversionCurve,
    CrystalSpec,
    PumpLaser,
    acceptance,
    matched_signal_nm,
)


def ideal_config(pair_rate_hz=1e4, duration_s=1.0, phase=0.0, visibility=1.0,
                 dark_hz=0.0, seed=1234):
    """Lossless scenario with negligible correlation jitter: closed-form rates."""
    chip_power = 100.0
    ideal_det = DetectorSpec(efficiency=1.0, dark_rate_hz=dark_hz)
    umi = dict(delay_ns=1.6, operating_wavelength_nm=1550.0, dn_dt_per_k=0.811e-5,
               refractive_index=1.467, tunable_length_mm=163.48)
    return ScenarioConfig(
        plan=tuple(build_plan(34, [10, 12, 14])),
        active_label="S2",
        # broad resonance: correlation time ~6.5 ps, far inside the window
        ring=RingSpectrumModel(fsr_ghz=2000.0, fwhm_mhz=24500.0, q_factor=1e4),
        rates=SfwmRates(pair_coefficient=pair_rate_hz / chip_power**2),
        crystal=CrystalSpec(50.0, 7.3, 76.5, SELLMEIER_SETS["gayer2008_mgo_cln_e"]),
        curve=ConversionCurve.from_calibration(550.0, 0.38),
        sfg_pump=PumpLaser(),
        signal_umi=UmiSpec(**umi, label="signal"),
        idler_umi=UmiSpec(**umi, label="fiber"),
        fringe=FringeModel(visibility=visibility, signal_phase_rad=phase),
        signal_ledger=LossLedger((), role="signal-arm"),
        idler_ledger=LossLedger((), role="idler-arm"),
        apd1=ideal_det,
        apd2=ideal_det,
        coincidence=CoincidenceConfig(),
        chip_power_uw=chip_power,
        duration_s=duration_s,
        seed=seed,
        include_umis=True,
        simulate_all_channels=False,
        convert_signal=False,
    )


def _center_counts(run, cfg):
    h = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
    return central_window_counts(h, cfg.coincidence.window_ns,
                                 side_delay_ns=cfg.signal_umi.delay_ns)


def test_ideal_run_matches_closed_form_center_rate():
    cfg = ideal_config(pair_rate_hz=1e4, duration_s=1.0)
    run = generate_run(cfg)
    w = _center_counts(run, cfg)
    expected = 1e4 * 1.0 * 0.25  # pairs * p_center(V=1, phi=0)
    assert abs(w.center - expected) < 5.0 * np.sqrt(expected)


def test_arm_survivals_count_only_losses_before_each_stage():
    signal = LossLedger((LossEntry("chip", 1.0, "chip"), LossEntry("sfg", 2.0, "sfg_passive"),
                         LossEntry("conversion", 4.0, "conversion"),
                         LossEntry("detector", 8.0, "detector")))
    idler = LossLedger((LossEntry("chip", 1.0, "chip"), LossEntry("filters", 0.5, "filters"),
                        LossEntry("detector", 8.0, "detector")))
    cfg = replace(ideal_config(), signal_ledger=signal, idler_ledger=idler)
    for convert_signal, signal_db in ((False, 1.0), (True, 3.0)):
        op = operating_point(replace(cfg, convert_signal=convert_signal))
        assert op.signal_survival == pytest.approx(db_to_linear(signal_db), rel=1e-15)
        assert op.idler_survival == pytest.approx(db_to_linear(1.5), rel=1e-15)


def test_zero_pump_power_leaves_only_darks():
    cfg = replace(ideal_config(dark_hz=500.0), chip_power_uw=0.0)
    run = generate_run(cfg)
    expected = 500.0
    assert abs(run.signal_stream.count - expected) < 5.0 * np.sqrt(expected)
    assert abs(run.active_idler_stream.count - expected) < 5.0 * np.sqrt(expected)
    h = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
    # nothing but accidentals: essentially empty histogram at these rates
    assert h.counts.sum() <= 5


def test_side_peaks_at_interferometer_delay():
    cfg = ideal_config(pair_rate_hz=2e4, duration_s=2.0)
    run = generate_run(cfg)
    h = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
    occupied = h.centers_ps[h.counts > 0.01 * h.counts.max()]
    # three peaks: 0 and +-1.6 ns
    assert set(np.round(occupied / 100).astype(int) * 100) <= {-1600, 0, 1600}
    side = h.counts[h.centers_ps == 1600][0]
    assert side > 0


def test_center_to_sideband_ratio_follows_outcome_weights():
    cfg = ideal_config(pair_rate_hz=1e5, duration_s=2.0)
    run = generate_run(cfg)
    w = _center_counts(run, cfg)
    # p_center / p_side = 2 (1 + V) = 4 at the bright fringe
    ratio_early = w.center / w.early
    ratio_late = w.center / w.late
    assert ratio_early == pytest.approx(4.0, abs=0.25)
    assert ratio_late == pytest.approx(4.0, abs=0.25)


def test_dark_fringe_extinguishes_central_peak():
    cfg = ideal_config(pair_rate_hz=1e5, duration_s=1.0, phase=np.pi)
    run = generate_run(cfg)
    w = _center_counts(run, cfg)
    # central peak vanishes while the side peaks stay
    assert w.center <= 5
    assert w.early > 1000


def test_incoherent_center_weight_half_of_bright():
    bright = _center_counts(generate_run(ideal_config(pair_rate_hz=1e5, seed=5)),
                            ideal_config())
    flat = _center_counts(
        generate_run(ideal_config(pair_rate_hz=1e5, visibility=0.0, seed=5)),
        ideal_config())
    assert flat.center / bright.center == pytest.approx(0.5, abs=0.03)


def test_detected_coincidences_never_exceed_generated_pairs():
    cfg = ideal_config(pair_rate_hz=5e4)
    run = generate_run(cfg)
    generated = run.generated_pairs["S2-I2"]
    w = _center_counts(run, cfg)
    assert w.center + w.early + w.late <= generated


def test_run_determinism_byte_identical():
    cfg = ideal_config(dark_hz=800.0)
    r1 = generate_run(cfg)
    r2 = generate_run(cfg)
    assert np.array_equal(r1.signal_stream.timestamps_ps, r2.signal_stream.timestamps_ps)
    assert np.array_equal(r1.active_idler_stream.timestamps_ps,
                          r2.active_idler_stream.timestamps_ps)
    h1 = histogram(r1.signal_stream, r1.active_idler_stream, cfg.coincidence)
    h2 = histogram(r2.signal_stream, r2.active_idler_stream, cfg.coincidence)
    assert np.array_equal(h1.counts, h2.counts)


def test_changing_one_detector_leaves_other_stream_identical():
    # with conversion, the signal arm has its own detector (apd2)
    cfg = replace(ideal_config(dark_hz=100.0), convert_signal=True)
    base = generate_run(cfg)
    louder_idler = replace(cfg, apd1=replace(cfg.apd1, dark_rate_hz=5000.0))
    changed = generate_run(louder_idler)
    assert np.array_equal(base.signal_stream.timestamps_ps,
                          changed.signal_stream.timestamps_ps)
    assert not np.array_equal(base.active_idler_stream.timestamps_ps,
                              changed.active_idler_stream.timestamps_ps)


def test_sub_seed_is_stage_and_label_specific():
    assert sub_seed(1, "pairs", "S1") != sub_seed(1, "pairs", "S2")
    assert sub_seed(1, "pairs", "S1") != sub_seed(1, "detector", "S1")
    assert sub_seed(1, "pairs", "S1") == sub_seed(1, "pairs", "S1")


# --- full default scenario ---


@pytest.fixture(scope="module")
def default_config():
    return load_config(None)


def _expected_singles_hz(cfg):
    """Detected singles rate of every stream from the analytic chain.

    ``singles_rate`` of each simulated pair at its arm's survival times the
    detector efficiency (``op.signal_arm_survival(label)`` on the signal
    arm: each neighbour scaled by its conversion acceptance), the photon
    term halved by an interferometer, darks added, then the
    non-paralyzable dead-time law N / (1 + N tau).
    """
    op = operating_point(cfg)
    pairs = cfg.plan if cfg.simulate_all_channels else (cfg.active_pair,)
    share = 0.5 if cfg.include_umis else 1.0
    signal_detector = cfg.signal_detector()

    def detected(photons_hz, det):
        n = share * photons_hz + det.dark_rate_hz
        return n / (1.0 + n * det.dead_time_us * 1e-6)

    signal = sum(singles_rate(cfg.rates, cfg.chip_power_uw, "signal",
                              op.signal_arm_survival(p.label) * signal_detector.efficiency,
                              0.0, p.label)
                 for p in pairs)
    rates = {cfg.signal_stream_label: detected(signal, signal_detector)}
    for p in pairs:
        idler = singles_rate(cfg.rates, cfg.chip_power_uw, "idler",
                             op.idler_survival * cfg.apd1.efficiency, 0.0, p.label)
        rates[p.idler_label] = detected(idler, cfg.apd1)
    return rates


@pytest.mark.parametrize("fields, detector_fields, converted_hz", [
    # S2' by hand: the 2000/s calibration target, halved by the
    # interferometer, + 1000/s darks + about 1.4/s leaked from S1 and S3;
    # without interferometers 2000 + 1000 + 2.9/s
    pytest.param({}, {}, 2001.4, id="baseline"),
    pytest.param({"include_umis": False}, {}, 3002.9, id="no_interferometers"),
    pytest.param({"convert_signal": False}, {}, None, id="unconverted"),
    pytest.param({"chip_power_uw": 50.0}, {}, None, id="50uW"),
    pytest.param({"chip_power_uw": 800.0}, {}, None, id="800uW"),
    pytest.param({}, {"dark_rate_hz": 0.0, "timing_jitter_sigma_ps": 0.0}, None,
                 id="no_darks_or_jitter"),
    pytest.param({}, {"dead_time_us": 100.0}, None, id="dead_time_100us"),
    pytest.param({"simulate_all_channels": False}, {}, None, id="one_channel"),
])
def test_default_scenario_singles_rates_match_analytic_chain(default_config, fields,
                                                             detector_fields, converted_hz):
    cfg = replace(default_config, duration_s=10.0, **fields,
                  apd1=replace(default_config.apd1, **detector_fields),
                  apd2=replace(default_config.apd2, **detector_fields))
    expected = _expected_singles_hz(cfg)
    if converted_hz is not None:
        assert expected["S2'"] == pytest.approx(converted_hz, abs=0.05)
    run = generate_run(cfg)
    streams = [run.signal_stream, *run.idler_streams.values()]
    assert sorted(s.label for s in streams) == sorted(expected)
    for stream in streams:
        n = expected[stream.label] * cfg.duration_s
        z = (stream.count - n) / np.sqrt(n)
        assert abs(z) < 5.0, (stream.label, stream.count, n)


def test_channel_acceptance_equals_acceptance_at_its_detuning(default_config):
    # the operating point reads each channel's own wavelength; sfg.acceptance
    # reaches it by detuning from the signal the pump phase-matches
    for active in ("S1", "S2", "S3"):
        cfg = replace(default_config, active_label=active)
        op = operating_point(cfg)
        matched_thz = wavelength_to_frequency(matched_signal_nm(cfg.crystal, op.pump_nm))
        for pair in cfg.plan:
            detuning_ghz = (pair.signal.center_frequency_thz - matched_thz) * 1e3
            assert op.acceptance[pair.label] == pytest.approx(
                acceptance(cfg.crystal, op.pump_nm, detuning_ghz), rel=1e-12, abs=0.0)


def test_truncated_laplace_is_one_uniform_per_sample_inside_the_bound():
    scale, n = 325.0, 200_000
    rng = np.random.default_rng(11)
    x = _truncated_laplace(rng, scale, n)
    assert np.abs(x).max() <= 5.0 * scale

    def cdf(t):
        mass = -np.expm1(-np.minimum(np.abs(t), 5.0 * scale) / scale) / -np.expm1(-5.0)
        return 0.5 + 0.5 * np.sign(t) * mass

    assert stats.kstest(x, cdf).pvalue > 1e-3
    ref = np.random.default_rng(11)
    ref.uniform(-1.0, 1.0, n)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_lone_times_draw_only_the_photons_an_interferometer_passes():
    n, duration_ps, delay_ps = 100_000, 10**9, 1600
    rng_pairs, rng_umi = np.random.default_rng(5), np.random.default_rng(6)
    t = _lone_times(n, rng_pairs, rng_umi, duration_ps, delay_ps, include_umis=True)
    n_short, n_long = sample_single_paths(n, np.random.default_rng(6))
    assert t.size == n_short + n_long
    assert np.all((t[:n_short] >= 0) & (t[:n_short] < duration_ps))
    assert np.all((t[n_short:] >= delay_ps) & (t[n_short:] < duration_ps + delay_ps))
    ref = np.random.default_rng(5)
    ref.uniform(0.0, duration_ps, n_short + n_long)
    assert rng_pairs.bit_generator.state == ref.bit_generator.state

    # without interferometers every photon gets a time and umi is untouched
    rng_pairs, rng_umi = np.random.default_rng(5), np.random.default_rng(6)
    t = _lone_times(n, rng_pairs, rng_umi, duration_ps, delay_ps, include_umis=False)
    ref = np.random.default_rng(5)
    assert np.array_equal(t, ref.uniform(0.0, duration_ps, n))
    assert rng_pairs.bit_generator.state == ref.bit_generator.state
    assert rng_umi.bit_generator.state == np.random.default_rng(6).bit_generator.state


def test_default_scenario_mismatched_idler_is_accidental_only(default_config):
    cfg = replace(default_config, duration_s=30.0, active_label="S2")
    run = generate_run(cfg)
    h = histogram(run.signal_stream, run.idler_streams["I1"], cfg.coincidence)
    w = central_window_counts(h, cfg.coincidence.window_ns,
                              side_delay_ns=cfg.signal_umi.delay_ns)
    sigma = np.sqrt(max(w.center, 1) + w.background_sigma_per_window**2)
    assert abs(w.center - w.background_per_window) <= 5.0 * sigma


def test_unaddressable_channel_raises_scenario_error(default_config):
    cfg = replace(default_config,
                  sfg_pump=PumpLaser(wavelength_nm=794.95, window_nm=(794.9, 795.0)),
                  active_label="S1", duration_s=0.1)
    from qdemux.sfg import UnaddressableChannelError
    with pytest.raises(UnaddressableChannelError):
        generate_run(cfg)


def test_crosstalk_matrix_diagonally_dominant(default_config):
    from qdemux.montecarlo import demux_crosstalk
    from qdemux.sfg import acceptance, matched_signal_nm, solve_pump_wavelength
    from qdemux.channel_plan import wavelength_to_frequency

    xtalk = demux_crosstalk(default_config, duration_s=20.0)
    matrix = xtalk["matrix"]
    crystal = default_config.crystal
    for sig_label, row in matrix.items():
        matched = "I" + sig_label[1:]
        diag = row[matched]
        pump = xtalk["pump_nm"][sig_label]
        f0 = wavelength_to_frequency(matched_signal_nm(crystal, pump))
        for idl_label, cell in row.items():
            if idl_label == matched:
                continue
            assert diag.center > 10 * (cell.center + 1)
            # leaked true coincidences are bounded by the conversion
            # acceptance at the neighbour's detuning (oracle), plus noise
            pair = next(p for p in default_config.plan if p.idler_label == idl_label)
            det_ghz = (pair.signal.center_frequency_thz - f0) * 1e3
            leak_bound = diag.center * float(acceptance(crystal, pump, det_ghz))
            excess = cell.center - cell.background_per_window
            assert excess <= 2.0 * leak_bound + 3.0 * cell.sigma


def test_fringe_scan_pipeline_recovers_high_visibility(default_config):
    cfg = replace(default_config, simulate_all_channels=False)
    phases = np.arange(6) * 2.0 * np.pi / 6.0
    scan = fringe_scan(cfg, phases, accumulation_s=10.0)
    from qdemux.analysis import fit_visibility
    result = fit_visibility(scan)
    assert result.v_raw > 0.9
    assert result.v_net >= result.v_raw
