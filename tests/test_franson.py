import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdemux.franson import (
    FringeModel,
    UmiSpec,
    fringe_expectation,
    outcome_distribution,
    phase_from_temperature,
    sample_pair_paths,
    sample_single_paths,
    temperature_tuning_period_k,
    tuning_consistency_report,
)


def fiber_umi(**overrides):
    base = dict(delay_ns=1.6, operating_wavelength_nm=1550.0, dn_dt_per_k=0.811e-5,
                refractive_index=1.467, tunable_length_mm=163.48,
                reference_temperature_k=295.0, label="fiber")
    base.update(overrides)
    return UmiSpec(**base)


def ktp_umi(**overrides):
    base = dict(delay_ns=1.6, operating_wavelength_nm=525.0, dn_dt_per_k=1.6e-5,
                refractive_index=1.89, tunable_length_mm=14.1433,
                reference_temperature_k=295.0, label="free-space")
    base.update(overrides)
    return UmiSpec(**base)


# --- temperature tuning law ---


def test_fiber_tuning_period():
    # oracle: direct formula evaluation lambda / (2 L dn/dT)
    expected = 1550e-9 / (2.0 * 163.48e-3 * 0.811e-5)
    period = temperature_tuning_period_k(fiber_umi())
    assert period == pytest.approx(expected, rel=1e-12)
    assert period == pytest.approx(0.585, abs=1e-3)


def test_doubling_length_halves_period():
    p1 = temperature_tuning_period_k(fiber_umi())
    p2 = temperature_tuning_period_k(fiber_umi(tunable_length_mm=2 * 163.48))
    assert p2 == pytest.approx(p1 / 2.0, rel=1e-12)


def test_ktp_period_with_full_path_difference_contradicts_quoted_value():
    # using the fiber path-length difference for the crystal-tuned
    # interferometer gives ~0.100 K, an order of magnitude below the
    # quoted 1.16 K fringe period
    period = temperature_tuning_period_k(ktp_umi(tunable_length_mm=163.48))
    assert period == pytest.approx(525e-9 / (2.0 * 163.48e-3 * 1.6e-5), rel=1e-12)
    assert period == pytest.approx(0.100, abs=1e-3)


def test_ktp_period_with_effective_crystal_length():
    assert temperature_tuning_period_k(ktp_umi()) == pytest.approx(1.16, abs=1e-3)


def test_tuning_consistency_report_flags_ktp():
    report = tuning_consistency_report(ktp_umi(), stated_length_mm=163.48)
    assert not report["consistent"]
    assert report["implied_length_for_configured_period_mm"] == pytest.approx(14.14, abs=0.01)
    assert report["period_from_stated_length_k"] == pytest.approx(0.100, abs=1e-3)


def test_tuning_consistency_report_passes_fiber():
    report = tuning_consistency_report(fiber_umi(), stated_length_mm=163.48)
    assert report["consistent"]


def test_phase_from_temperature():
    umi = fiber_umi()
    period = temperature_tuning_period_k(umi)
    assert phase_from_temperature(umi, 295.0) == 0.0
    assert phase_from_temperature(umi, 295.0 + period) == pytest.approx(0.0, abs=1e-9)
    assert phase_from_temperature(umi, 295.0 + period / 4.0) == pytest.approx(np.pi / 2.0,
                                                                              rel=1e-9)


# --- outcome distribution ---


def outcome_oracle(v: float, phi: float) -> dict:
    """Two-splitter amplitude calculation, independent of the implementation.

    Each photon reaches the analyzed port with amplitude 1/2 per arm.  The
    coherent part (weight v) interferes SS with LL; the incoherent part
    (weight 1-v) adds their probabilities.
    """
    amp_ss = 0.25
    amp_ll = 0.25 * cmath.exp(1j * phi)
    coherent_center = abs(amp_ss + amp_ll) ** 2
    incoherent_center = abs(amp_ss) ** 2 + abs(amp_ll) ** 2
    center = v * coherent_center + (1.0 - v) * incoherent_center
    early = late = 0.25 * 0.25
    return {"center": center, "early": early, "late": late,
            "lost": 1.0 - center - early - late}


def test_outcome_distribution_matches_amplitude_oracle():
    for v in (0.0, 0.5, 1.0):
        for phi in np.linspace(0.0, 2.0 * np.pi, 17):
            model = FringeModel(visibility=v, signal_phase_rad=float(phi))
            got = outcome_distribution(model)
            want = outcome_oracle(v, float(phi))
            for key in ("center", "early", "late", "lost"):
                assert got[key] == pytest.approx(want[key], abs=1e-12), (v, phi, key)


def test_outcome_distribution_reference_points():
    d = outcome_distribution(FringeModel(visibility=1.0, signal_phase_rad=0.0))
    assert d == pytest.approx({"center": 0.25, "early": 1 / 16, "late": 1 / 16,
                               "lost": 5 / 8})
    d = outcome_distribution(FringeModel(visibility=1.0, signal_phase_rad=np.pi))
    assert d["center"] == pytest.approx(0.0, abs=1e-12)
    assert d["lost"] == pytest.approx(7 / 8, abs=1e-12)


def test_outcome_distribution_incoherent_case_flat():
    for phi in (0.0, 1.0, np.pi):
        d = outcome_distribution(FringeModel(visibility=0.0, signal_phase_rad=phi))
        assert d["center"] == pytest.approx(1 / 8, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(-10.0, 10.0))
def test_outcome_probabilities_sum_to_one(v, phi):
    d = outcome_distribution(FringeModel(visibility=v, signal_phase_rad=phi))
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= -1e-15 for p in d.values())


def test_fringe_expectation_normalization():
    assert fringe_expectation(FringeModel(1.0, 0.0, 0.0, 0.0), 100.0) == pytest.approx(100.0)
    for v in (0.2, 0.9):
        model = FringeModel(visibility=v, signal_phase_rad=np.pi / 2.0)
        assert fringe_expectation(model, 100.0) == pytest.approx(50.0, abs=1e-9)


def test_fringe_expectation_sweep_recovers_visibility():
    v0 = 0.73
    phases = np.linspace(0.0, 2.0 * np.pi, 721)
    rates = [fringe_expectation(FringeModel(visibility=v0, signal_phase_rad=p), 100.0)
             for p in phases]
    v = (max(rates) - min(rates)) / (max(rates) + min(rates))
    assert v == pytest.approx(v0, abs=1e-6)


# --- Monte Carlo path sampling ---


@pytest.mark.parametrize("phase_jitter_rad", [0.0, 1.0])
def test_sample_pair_paths_frequencies(phase_jitter_rad):
    rng = np.random.default_rng(42)
    n = 200_000
    model = FringeModel(visibility=1.0, signal_phase_rad=np.pi / 3.0,
                        phase_jitter_rad=phase_jitter_rad)
    paths = sample_pair_paths(model, n, rng)
    # Gaussian phase jitter scales the fringe by E[cos] = exp(-sigma^2 / 2)
    p_center = (1.0 + np.exp(-phase_jitter_rad**2 / 2.0) * np.cos(np.pi / 3.0)) / 8.0

    both = paths.signal_alive & paths.idler_alive
    same_shift = paths.signal_long == paths.idler_long
    frac_center = np.mean(both & same_shift)
    frac_sides = np.mean(both & ~same_shift)
    sigma = 5.0 / np.sqrt(n)
    assert abs(frac_center - p_center) < sigma
    assert abs(frac_sides - 0.125) < sigma
    # the marginal survival through each interferometer is exactly 1/2
    assert abs(np.mean(paths.signal_alive) - 0.5) < sigma
    assert abs(np.mean(paths.idler_alive) - 0.5) < sigma


def test_sample_single_paths_marginals():
    n = 100_000
    n_short, n_long = sample_single_paths(n, np.random.default_rng(7))
    assert n_short + n_long <= n
    # each arm passes a quarter of the photons: binomial(n, 1/4) marginals
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert abs(n_short - n / 4) < 5.0 * sigma
    assert abs(n_long - n / 4) < 5.0 * sigma


def test_phase_jitter_degrades_center_contrast():
    n = 300_000
    sharp = sample_pair_paths(FringeModel(1.0, signal_phase_rad=np.pi),
                              n, np.random.default_rng(1))
    blurred = sample_pair_paths(FringeModel(1.0, signal_phase_rad=np.pi,
                                            phase_jitter_rad=1.0),
                                n, np.random.default_rng(1))

    def center_frac(paths):
        both = paths.signal_alive & paths.idler_alive
        return np.mean(both & (paths.signal_long == paths.idler_long))

    # at the dark fringe, jitter can only add coincidences
    assert center_frac(blurred) > center_frac(sharp) + 0.01


def test_validation():
    with pytest.raises(ValueError, match="visibility"):
        FringeModel(visibility=1.2)
    with pytest.raises(ValueError, match="delay"):
        fiber_umi(delay_ns=-1.0)
    with pytest.raises(ValueError, match="dn/dT"):
        temperature_tuning_period_k(fiber_umi(dn_dt_per_k=-1e-5))
