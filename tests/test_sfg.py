import math

import numpy as np
import pytest

from qdemux.channel_plan import ItuChannel, channel_wavelength
from qdemux.sfg import (
    SELLMEIER_SETS,
    ConversionCurve,
    CrystalSpec,
    PumpLaser,
    UnaddressableChannelError,
    acceptance,
    acceptance_fwhm_ghz,
    matched_signal_nm,
    phase_mismatch,
    power_efficiency,
    quantum_efficiency,
    quantum_from_power,
    relative_efficiency,
    sfg_wavelength,
    solve_pump_wavelength,
    solve_qpm_temperature,
)

C_NM_THZ = 299792.458


# --- independent oracle: own copy of the index fit and mismatch arithmetic ---

def _oracle_index(lam_um: float, t_c: float) -> float:
    # 5% MgO-doped congruent LiNbO3, extraordinary (Gayer 2008 fit)
    f = (t_c - 24.5) * (t_c + 570.82)
    g1 = 5.756 + 2.860e-6 * f
    g2 = 0.0983 + 4.700e-8 * f
    g3 = 0.2020 + 6.113e-8 * f
    g4 = 189.32 + 1.516e-4 * f
    return math.sqrt(g1 + g2 / (lam_um**2 - g3**2) + g4 / (lam_um**2 - 12.52**2)
                     - 1.32e-2 * lam_um**2)


def _oracle_mismatch(pump_nm: float, sig_nm: float, t_c: float, poling_um: float) -> float:
    lam3 = 1.0 / (1.0 / pump_nm + 1.0 / sig_nm)
    return 2.0 * math.pi * (
        _oracle_index(lam3 * 1e-3, t_c) / (lam3 * 1e-9)
        - _oracle_index(pump_nm * 1e-3, t_c) / (pump_nm * 1e-9)
        - _oracle_index(sig_nm * 1e-3, t_c) / (sig_nm * 1e-9)
        - 1.0 / (poling_um * 1e-6)
    )


@pytest.fixture
def crystal():
    spec = CrystalSpec(length_mm=50.0, poling_period_um=7.3, temperature_c=25.0,
                       sellmeier=SELLMEIER_SETS["gayer2008_mgo_cln_e"])
    t_qpm = solve_qpm_temperature(spec, 795.0, 1560.0)
    return CrystalSpec(length_mm=50.0, poling_period_um=7.3, temperature_c=t_qpm,
                       sellmeier=SELLMEIER_SETS["gayer2008_mgo_cln_e"])


def test_sfg_wavelength_examples():
    # oracle: plain harmonic-sum arithmetic
    assert sfg_wavelength(795.0, 1560.0) == pytest.approx(
        1.0 / (1.0 / 795.0 + 1.0 / 1560.0), rel=1e-12)
    assert sfg_wavelength(795.0, 1560.0) == pytest.approx(526.624, abs=1e-3)
    assert sfg_wavelength(1000.0, 1000.0) == pytest.approx(500.0, rel=1e-12)
    lam_c20 = channel_wavelength(20)
    assert sfg_wavelength(795.0, lam_c20) == pytest.approx(
        1.0 / (1.0 / 795.0 + 1.0 / lam_c20), rel=1e-12)


def test_phase_mismatch_matches_oracle(crystal):
    for pump, sig, t in [(795.0, 1560.0, 25.0), (793.0, 1558.2, 60.0), (797.5, 1561.4, 90.0)]:
        assert phase_mismatch(crystal, pump, sig, t) == pytest.approx(
            _oracle_mismatch(pump, sig, t, 7.3), rel=1e-9)


def test_phase_mismatch_zero_at_solved_temperature(crystal):
    assert abs(phase_mismatch(crystal, 795.0, 1560.0)) < 1e-2


def test_mismatch_temperature_slope_sign_matches_finite_difference(crystal):
    t0 = crystal.temperature_c
    fd = (_oracle_mismatch(795.0, 1560.0, t0 + 0.5, 7.3)
          - _oracle_mismatch(795.0, 1560.0, t0 - 0.5, 7.3))
    dk_hi = phase_mismatch(crystal, 795.0, 1560.0, t0 + 5.0)
    dk_lo = phase_mismatch(crystal, 795.0, 1560.0, t0 - 5.0)
    assert np.sign(dk_hi - dk_lo) == np.sign(fd)


def test_sellmeier_validity_range_enforced(crystal):
    with pytest.raises(ValueError, match="validity"):
        # sum-frequency wavelength of a 500 nm "signal" falls far below 0.5 um
        phase_mismatch(crystal, 795.0, 500.0)


def test_relative_efficiency_arrays_equal_scalar_calls(crystal):
    signal = matched_signal_nm(crystal, 795.0)
    assert relative_efficiency(crystal, 795.0, signal) == pytest.approx(1.0, abs=1e-12)
    pumps = np.linspace(790.0, 800.0, 801)
    temps = np.linspace(crystal.temperature_c - 10.0, crystal.temperature_c + 10.0, 801)
    for array, scalars in (
        (relative_efficiency(crystal, pumps, signal),
         [relative_efficiency(crystal, float(p), signal) for p in pumps]),
        (relative_efficiency(crystal, 795.0, signal, temps),
         [relative_efficiency(crystal, 795.0, signal, float(t)) for t in temps]),
    ):
        assert array.shape == (801,)
        np.testing.assert_allclose(array, scalars, rtol=1e-15, atol=0.0)


def test_acceptance_peak_is_unity(crystal):
    assert acceptance(crystal, 795.0, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_acceptance_fwhm_against_scan_oracle(crystal):
    # oracle: independent sinc^2 scan over detuned signal frequencies
    sig0 = matched_signal_nm(crystal, 795.0)
    f0 = C_NM_THZ / sig0
    length_m = crystal.length_mm * 1e-3

    def rel_eff(det_ghz: float) -> float:
        sig = C_NM_THZ / (f0 + det_ghz * 1e-3)
        x = _oracle_mismatch(795.0, sig, crystal.temperature_c, 7.3) * length_m / 2.0
        return (math.sin(x) / x) ** 2 if x != 0 else 1.0

    det = np.linspace(0.01, 60.0, 6000)
    vals = np.array([rel_eff(d) for d in det])
    below = np.nonzero(vals < 0.5)[0][0]
    fwhm_oracle = 2 * det[below]
    fwhm = acceptance_fwhm_ghz(crystal, 795.0)
    assert fwhm == pytest.approx(fwhm_oracle, abs=0.1)
    assert 5.0 < fwhm < 100.0  # tens of GHz for a 50 mm crystal


def test_adjacent_channel_suppression_at_least_20_db(crystal):
    for det in (200.0, -200.0, 400.0, -400.0):
        assert acceptance(crystal, 795.0, det) <= 1e-2


def test_acceptance_even_in_detuning_to_first_order(crystal):
    a_plus = acceptance(crystal, 795.0, 1.0)
    a_minus = acceptance(crystal, 795.0, -1.0)
    assert a_plus == pytest.approx(a_minus, abs=5e-4)


def test_qpm_temperature_solver_self_consistent():
    spec = CrystalSpec(50.0, 7.3, 25.0, SELLMEIER_SETS["gayer2008_mgo_cln_e"])
    t = solve_qpm_temperature(spec, 795.0, 1560.0)
    assert abs(_oracle_mismatch(795.0, 1560.0, t, 7.3)) < 1.0


def test_solve_pump_wavelength_fixed_point(crystal):
    # the crystal is phase matched for 1560 nm at 795 nm by construction
    pump = solve_pump_wavelength(crystal, 1560.0)
    assert pump == pytest.approx(795.0, abs=1e-3)


def test_solve_pump_wavelengths_monotone_and_phase_matched(crystal):
    signals = [ItuChannel(24), ItuChannel(22), ItuChannel(20)]
    pumps = [solve_pump_wavelength(crystal, s) for s in signals]
    for s, p in zip(signals, pumps):
        assert 790.0 <= p <= 800.0
        assert abs(phase_mismatch(crystal, p, s.center_wavelength_nm)) < 1.0
    # signal wavelengths ascend from C24 to C20; the solved pumps must be
    # strictly monotone (decreasing) against them
    wavelengths = [s.center_wavelength_nm for s in signals]
    assert all(np.diff(wavelengths) > 0)
    assert all(np.diff(pumps) < 0)


def test_unaddressable_channel_raises(crystal):
    with pytest.raises(UnaddressableChannelError, match="unaddressable"):
        solve_pump_wavelength(crystal, 1520.0)


def test_quantum_efficiency_examples():
    curve = ConversionCurve.from_calibration(550.0, 0.38)
    # oracle: invert the sine law by hand
    p_pi = 550.0 / ((2.0 / math.pi) * math.asin(math.sqrt(0.38))) ** 2
    assert curve.p_pi_mw == pytest.approx(p_pi, rel=1e-12)
    assert quantum_efficiency(curve, 0.0) == 0.0
    assert quantum_efficiency(curve, 550.0) == pytest.approx(0.38, abs=1e-12)
    assert quantum_efficiency(curve, curve.p_pi_mw) == pytest.approx(curve.eta_device,
                                                                     rel=1e-12)


def test_quantum_efficiency_monotone_then_concave():
    curve = ConversionCurve.from_calibration(550.0, 0.38)
    p = np.linspace(0.0, curve.p_pi_mw, 400)
    eta = quantum_efficiency(curve, p)
    assert np.all(np.diff(eta) >= -1e-12)
    tail = eta[-40:]
    assert np.all(np.diff(tail, 2) < 0)  # concave approaching the peak


def test_power_efficiency_examples():
    assert power_efficiency(0.38, 1560.0, 525.0) == pytest.approx(0.38 * 1560.0 / 525.0,
                                                                  rel=1e-12)
    assert power_efficiency(0.38, 1560.0, 525.0) == pytest.approx(1.129, abs=1e-3)
    assert power_efficiency(0.0, 1560.0, 525.0) == 0.0
    assert power_efficiency(0.38, 1000.0, 1000.0) == pytest.approx(0.38, rel=1e-12)


def test_power_quantum_round_trip_exact():
    for eta in (0.01, 0.38, 0.97):
        ep = power_efficiency(eta, 1560.0, 526.624)
        assert quantum_from_power(ep, 1560.0, 526.624) == pytest.approx(eta, abs=1e-12)


def test_pump_laser_validation():
    with pytest.raises(ValueError, match="window"):
        PumpLaser(wavelength_nm=810.0)
    with pytest.raises(ValueError, match="power"):
        PumpLaser(power_mw=-1.0)


def test_conversion_curve_validation():
    with pytest.raises(ValueError, match="eta_device"):
        ConversionCurve(eta_device=1.5)
    with pytest.raises(ValueError, match="p_pi"):
        ConversionCurve(p_pi_mw=-5.0)
