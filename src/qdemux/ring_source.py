"""Microring pair source: transmission spectrum, thermal tuning, rate laws.

The ring is modelled as an all-pass resonator with a comb of Lorentzian
notches spaced by the free spectral range.  Thermo-optic tuning shifts
the whole comb linearly with temperature.  Photon-pair generation by
spontaneous four-wave mixing scales quadratically with on-chip pump
power; spurious Raman singles scale linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class RingSpectrumModel:
    """All-pass ring spectrum parameters.

    Parameters
    ----------
    fsr_ghz : float
        Free spectral range [GHz].
    fwhm_mhz : float
        Resonance linewidth (FWHM) [MHz].  Authoritative for all
        linewidth-derived quantities; the quality factor is descriptive.
    q_factor : float
        Quoted loaded quality factor [dimensionless].
    extinction_depth : float
        Fractional transmission dip on resonance, in (0, 1].
    reference_resonance_thz : float
        One comb line at the reference temperature [THz].
    thermo_optic_ghz_per_k : float
        Comb shift per kelvin of substrate temperature [GHz/K].
    temperature_offset_k : float
        Operating temperature relative to the reference [K].
    """

    fsr_ghz: float
    fwhm_mhz: float
    q_factor: float
    extinction_depth: float = 0.9
    reference_resonance_thz: float = 193.4
    thermo_optic_ghz_per_k: float = 10.0
    temperature_offset_k: float = 0.0

    def __post_init__(self) -> None:
        if self.fwhm_mhz <= 0:
            raise ValueError(f"fwhm_mhz: must be positive, got {self.fwhm_mhz} MHz")
        if self.fsr_ghz <= 0:
            raise ValueError(f"fsr_ghz: must be positive, got {self.fsr_ghz} GHz")
        if self.fsr_ghz * 1e3 <= 10 * self.fwhm_mhz:
            raise ValueError(
                f"fsr_ghz: {self.fsr_ghz} GHz must be much larger than the "
                f"linewidth ({self.fwhm_mhz} MHz)"
            )
        if not 0.0 < self.extinction_depth <= 1.0:
            raise ValueError(
                f"extinction_depth: must be in (0, 1], got {self.extinction_depth}"
            )

    def resonance_frequency_thz(self, mode: int) -> float:
        """Frequency of comb line ``mode`` at the current temperature."""
        shift_ghz = self.thermo_optic_ghz_per_k * self.temperature_offset_k
        return self.reference_resonance_thz + (mode * self.fsr_ghz + shift_ghz) * 1e-3


def transmission(model: RingSpectrumModel, frequency_thz):
    """Bus-waveguide power transmission at ``frequency_thz`` (THz).

    Lorentzian all-pass notch around the nearest comb line:

        T(nu) = 1 - d * (G/2)^2 / ((nu - nu_m)^2 + (G/2)^2)

    with ``G`` the FWHM and ``d`` the extinction depth.  Accepts scalars
    or arrays; total function of frequency.
    """
    nu = np.asarray(frequency_thz, dtype=float)
    shift_ghz = model.thermo_optic_ghz_per_k * model.temperature_offset_k
    detune_ghz = (nu - model.reference_resonance_thz) * 1e3 - shift_ghz
    # distance to the nearest comb line, in GHz
    local = detune_ghz - np.rint(detune_ghz / model.fsr_ghz) * model.fsr_ghz
    half_ghz = model.fwhm_mhz * 1e-3 / 2.0
    t = 1.0 - model.extinction_depth * half_ghz**2 / (local**2 + half_ghz**2)
    return t if t.ndim else float(t)


def q_consistency_ratio(model: RingSpectrumModel) -> float:
    """Ratio of the quoted Q to the linewidth-implied Q at the reference line.

    Returns ``q_factor / (nu_ref / fwhm)``; 1.0 means the quoted Q and the
    linewidth agree exactly.  Deviations up to ~15 % are common in quoted
    device figures; the linewidth wins whenever they disagree.
    """
    implied_q = model.reference_resonance_thz * 1e6 / model.fwhm_mhz
    return model.q_factor / implied_q


def pair_correlation_time_ps(model: RingSpectrumModel) -> float:
    """Decay constant of the signal-idler arrival-time difference [ps].

    Both photons of a pair are filtered by the same Lorentzian resonance,
    so the probability density of the arrival-time difference is a
    double exponential whose decay constant is ``1/(2*pi*fwhm)``.
    """
    return 1e6 / (2.0 * np.pi * model.fwhm_mhz)


@dataclass(frozen=True)
class SfwmRates:
    """Pair and noise generation coefficients at the chip output.

    Parameters
    ----------
    pair_coefficient : float
        Generated pairs/s per uW^2 of on-chip pump power.
    raman_signal, raman_idler : float
        Spurious singles (counts/s per uW) on each side; dominated by
        Raman scattering in fiber pigtails, hence linear in pump power.
    enhancement : mapping
        Optional per-channel-pair brightness multiplier keyed by pair
        label; 1.0 for a pair exactly on resonance.
    """

    pair_coefficient: float
    raman_signal: float = 0.0
    raman_idler: float = 0.0
    enhancement: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.pair_coefficient < 0:
            raise ValueError(f"pair_coefficient: must be >= 0, got {self.pair_coefficient}")
        if self.raman_signal < 0 or self.raman_idler < 0:
            raise ValueError(f"raman_signal, raman_idler: must be >= 0, got {self.raman_signal}, "
                             f"{self.raman_idler}")
        for label, multiplier in self.enhancement.items():
            if multiplier < 0:
                raise ValueError(f"enhancement.{label}: must be >= 0, got {multiplier}")

    def channel_enhancement(self, label: str) -> float:
        return float(self.enhancement.get(label, 1.0))


def pair_rate(rates: SfwmRates, pump_power_uw: float, label: str | None = None) -> float:
    """Generated pair rate [pairs/s] at on-chip pump power ``pump_power_uw``."""
    if pump_power_uw < 0:
        raise ValueError(f"pump power must be >= 0, got {pump_power_uw} uW")
    enh = rates.channel_enhancement(label) if label is not None else 1.0
    return rates.pair_coefficient * enh * pump_power_uw**2


def singles_rate(
    rates: SfwmRates,
    pump_power_uw: float,
    side: str,
    efficiency: float = 1.0,
    dark: float = 0.0,
    label: str | None = None,
) -> float:
    """Detected singles rate [counts/s] on one arm.

    ``efficiency * (pair_coefficient * P^2 + raman * P) + dark``: the
    quadratic four-wave-mixing term and the linear Raman term share the
    arm's detection efficiency; detector dark counts do not.
    """
    if pump_power_uw < 0:
        raise ValueError(f"pump power must be >= 0, got {pump_power_uw} uW")
    if side == "signal":
        raman = rates.raman_signal
    elif side == "idler":
        raman = rates.raman_idler
    else:
        raise ValueError(f"side must be 'signal' or 'idler', got {side!r}")
    enh = rates.channel_enhancement(label) if label is not None else 1.0
    sfwm = rates.pair_coefficient * enh * pump_power_uw**2
    return efficiency * (sfwm + raman * pump_power_uw) + dark
