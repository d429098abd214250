"""Unbalanced-Michelson pair: phase tuning law and coincidence outcomes.

Each photon of an energy-time entangled pair traverses its own
unbalanced Michelson interferometer whose arms differ by a delay large
compared to the single-photon coherence time.  Post-selecting
coincidences at zero relative delay makes the short-short and long-long
two-photon amplitudes interfere, producing fringes in the sum of the two
interferometer phases while single rates stay flat.

The interferometer phase is tuned thermally: heating the tunable medium
stretches its optical path, and one full fringe corresponds to a
temperature excursion of ``lambda / (2 * L * dn/dT)`` (the factor 2 is
the Michelson double pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Vacuum light speed [m/s], for path-delay geometry.
C_M_PER_S = 299_792_458.0


@dataclass(frozen=True)
class UmiSpec:
    """Geometry and tuning medium of one unbalanced Michelson interferometer.

    ``tunable_length_mm`` is the length of medium whose index is actually
    temperature-tuned.  For an all-fiber interferometer that is the full
    path-length difference; for a free-space interferometer tuned by a
    crystal in one arm it is the crystal length only.
    """

    delay_ns: float
    operating_wavelength_nm: float
    dn_dt_per_k: float
    refractive_index: float
    tunable_length_mm: float
    reference_temperature_k: float = 295.0
    label: str = "fiber"

    def __post_init__(self) -> None:
        if self.delay_ns <= 0:
            raise ValueError(f"delay_ns: delay must be positive, got {self.delay_ns} ns")
        if self.tunable_length_mm <= 0:
            raise ValueError(
                f"tunable_length_mm: must be positive, got {self.tunable_length_mm} mm"
            )
        if self.operating_wavelength_nm <= 0:
            raise ValueError(
                f"operating_wavelength_nm: must be positive, got {self.operating_wavelength_nm} nm")
        if self.dn_dt_per_k <= 0:
            raise ValueError(f"dn_dt_per_k: dn/dT must be positive, got {self.dn_dt_per_k}")
        if self.refractive_index <= 0:
            raise ValueError(f"refractive_index: must be positive, got {self.refractive_index}")

    @property
    def delay_ps(self) -> int:
        return int(round(self.delay_ns * 1000.0))

    def path_length_difference_mm(self) -> float:
        """Arm length difference implied by the delay: L_d = c*dt/(2n) [mm].

        The factor 2 accounts for the double pass to the end mirror.
        """
        return C_M_PER_S * self.delay_ns * 1e-9 / (2.0 * self.refractive_index) * 1e3


def temperature_tuning_period_k(umi: UmiSpec) -> float:
    """Temperature change [K] that advances the interferometer by one fringe.

    dT = lambda / (2 * L_tunable * dn/dT)
    """
    lam_m = umi.operating_wavelength_nm * 1e-9
    length_m = umi.tunable_length_mm * 1e-3
    return lam_m / (2.0 * length_m * umi.dn_dt_per_k)


def phase_from_temperature(umi: UmiSpec, temperature_k: float) -> float:
    """Interferometer phase [rad] at the given temperature, wrapped to [0, 2*pi)."""
    period = temperature_tuning_period_k(umi)
    phase = TWO_PI * (temperature_k - umi.reference_temperature_k) / period
    return float(np.mod(phase, TWO_PI))


def tuning_consistency_report(umi: UmiSpec, stated_length_mm: float) -> dict:
    """Cross-check a quoted tunable length against the configured one.

    Returns the tuning period implied by both lengths and the length that
    would reproduce the configured period, flagging disagreement beyond
    1 %.  Useful when a data sheet reuses the path-length difference for
    an interferometer whose tuning medium is much shorter.
    """
    period_configured = temperature_tuning_period_k(umi)
    lam_m = umi.operating_wavelength_nm * 1e-9
    period_stated = lam_m / (2.0 * stated_length_mm * 1e-3 * umi.dn_dt_per_k)
    return {
        "label": umi.label,
        "configured_length_mm": umi.tunable_length_mm,
        "stated_length_mm": stated_length_mm,
        "period_from_configured_length_k": period_configured,
        "period_from_stated_length_k": period_stated,
        "implied_length_for_configured_period_mm": stated_length_mm
        * period_stated / period_configured,
        "consistent": abs(period_stated - period_configured)
        <= 0.01 * period_configured,
    }


@dataclass(frozen=True)
class FringeModel:
    """Two-photon fringe parameters for the post-selected central peak."""

    visibility: float = 1.0
    phase_offset_rad: float = 0.0
    signal_phase_rad: float = 0.0
    idler_phase_rad: float = 0.0
    phase_jitter_rad: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility: must be in [0, 1], got {self.visibility}")
        if self.phase_jitter_rad < 0:
            raise ValueError(f"phase_jitter_rad: must be >= 0, got {self.phase_jitter_rad}")

    @property
    def total_phase_rad(self) -> float:
        return self.signal_phase_rad + self.idler_phase_rad + self.phase_offset_rad


def outcome_distribution(fringe: FringeModel) -> dict[str, float]:
    """Per-pair probabilities of the four coincidence outcomes.

    Each photon reaches the analyzed output port with amplitude 1/2 per
    arm (two passes through a balanced splitter).  The short-short and
    long-long amplitudes overlap at zero relative delay and interfere:

        p_center = (1 + V * cos(Phi)) / 8,   Phi = phi_s + phi_i + phi_0
        p_early  = p_late = 1/16             (distinguishable SL / LS)
        p_lost   = the rest (either photon out the unused port)
    """
    phi = fringe.total_phase_rad
    p_center = (1.0 + fringe.visibility * np.cos(phi)) / 8.0
    p_side = 1.0 / 16.0
    return {
        "center": float(p_center),
        "early": p_side,
        "late": p_side,
        "lost": float(1.0 - p_center - 2.0 * p_side),
    }


def fringe_expectation(fringe: FringeModel, base_rate: float) -> float:
    """Central-peak coincidence rate, normalized so V=1, Phi=0 gives ``base_rate``."""
    if base_rate < 0:
        raise ValueError(f"base rate must be >= 0, got {base_rate}")
    phi = fringe.total_phase_rad
    return base_rate * (1.0 + fringe.visibility * np.cos(phi)) / 2.0


@dataclass(frozen=True)
class PairPathSample:
    """Per-pair interferometer outcome for Monte Carlo event generation.

    ``*_long`` marks photons routed through the long arm (timestamp
    shifted by the interferometer delay); dead photons left the unused
    port and never reach the detector.
    """

    signal_alive: np.ndarray
    idler_alive: np.ndarray
    signal_long: np.ndarray
    idler_long: np.ndarray


def sample_pair_paths(fringe: FringeModel, n: int, rng: np.random.Generator) -> PairPathSample:
    """Sample joint interferometer outcomes for ``n`` pairs.

    Refines :func:`outcome_distribution` so that the marginal survival of
    each photon through its interferometer is exactly 1/2 (no
    single-photon interference at delays far beyond the single-photon
    coherence time), while the joint both-survive outcomes carry the
    two-photon fringe:

        SS or LL (interfering, same shift)  : (1 + V cos Phi) / 8
        SL / LS (side peaks)                : 1/16 each
        one photon lost                     : 3/8 - p_center each side
        both lost                           : p_center + 1/8
    """
    if fringe.phase_jitter_rad > 0:
        phi = fringe.total_phase_rad + rng.normal(0.0, fringe.phase_jitter_rad, n)
    else:
        phi = np.full(n, fringe.total_phase_rad)
    p_center = (1.0 + fringe.visibility * np.cos(phi)) / 8.0

    u = rng.random(n)
    arm = rng.random(n) < 0.5  # long-arm choice where one is needed

    c1 = p_center                 # SS or LL, both analyzed
    c2 = c1 + 1.0 / 16.0          # SL
    c3 = c2 + 1.0 / 16.0          # LS
    c4 = c3 + (0.375 - p_center)  # signal survives alone
    c5 = c4 + (0.375 - p_center)  # idler survives alone

    center = u < c1
    sl = (u >= c1) & (u < c2)
    ls = (u >= c2) & (u < c3)
    s_only = (u >= c3) & (u < c4)
    i_only = (u >= c4) & (u < c5)

    signal_alive = center | sl | ls | s_only
    idler_alive = center | sl | ls | i_only
    signal_long = (center & arm) | ls | (s_only & arm)
    idler_long = (center & arm) | sl | (i_only & arm)
    return PairPathSample(signal_alive, idler_alive, signal_long, idler_long)


def sample_single_paths(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Interferometer outcome for photons whose partner was already lost.

    Returns ``(alive, long)``: survival probability 1/2, and the survivors
    split evenly between short and long arms.
    """
    u = rng.random(n)
    alive = u < 0.5
    long_arm = u < 0.25
    return alive, long_arm
