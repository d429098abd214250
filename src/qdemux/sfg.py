"""Quasi-phase-matched sum-frequency conversion in periodically poled LiNbO3.

Covers the wave-vector mismatch for the type-0 interaction
pump + signal -> sum, the sinc^2 acceptance curve that makes the
converter a narrow bandpass filter, pump-wavelength channel addressing,
and the pump-power dependence of the quantum conversion efficiency.

Refractive indices come from named temperature-dependent Sellmeier fits
carried as configuration data.  Published fits for lithium niobate
disagree noticeably in the green, so tuning-curve positions inherit a
model uncertainty of tens of kelvin; relative quantities (bandwidths,
channel spacings, tuning slopes) are much more reliable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_plan import ItuChannel, wavelength_to_frequency, frequency_to_wavelength


class UnaddressableChannelError(ValueError):
    """No pump wavelength inside the tuning window phase-matches the channel."""


@dataclass(frozen=True)
class SellmeierSet:
    """Temperature-dependent extraordinary-index fit of the Gayer/Jundt form.

    n^2 = g1 + g2/(lam^2 - g3^2) + g4/(lam^2 - a5^2) - a6*lam^2,
    g_i = a_i + b_i * f(T),  f(T) = (T - 24.5)(T + 570.82),
    with ``lam`` in micrometres and ``T`` in degrees Celsius.
    """

    name: str
    a: tuple[float, float, float, float, float, float]
    b: tuple[float, float, float, float]
    valid_um: tuple[float, float]
    citation: str

    def index(self, wavelength_um, temperature_c: float):
        lam = np.asarray(wavelength_um, dtype=float)
        lo, hi = self.valid_um
        if np.any(lam < lo) or np.any(lam > hi):
            raise ValueError(
                f"wavelength {np.min(lam):.4f}-{np.max(lam):.4f} um outside "
                f"validity range [{lo}, {hi}] um of Sellmeier set '{self.name}'"
            )
        f = (temperature_c - 24.5) * (temperature_c + 570.82)
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        g1 = a1 + b1 * f
        g2 = a2 + b2 * f
        g3 = a3 + b3 * f
        g4 = a4 + b4 * f
        n2 = g1 + g2 / (lam**2 - g3**2) + g4 / (lam**2 - a5**2) - a6 * lam**2
        n = np.sqrt(n2)
        return n if n.ndim else float(n)


SELLMEIER_SETS: dict[str, SellmeierSet] = {
    "gayer2008_mgo_cln_e": SellmeierSet(
        name="gayer2008_mgo_cln_e",
        a=(5.756, 0.0983, 0.2020, 189.32, 12.52, 1.32e-2),
        b=(2.860e-6, 4.700e-8, 6.113e-8, 1.516e-4),
        valid_um=(0.5, 4.0),
        citation=(
            "O. Gayer et al., Appl. Phys. B 91, 343 (2008); "
            "5% MgO-doped congruent LiNbO3, extraordinary index"
        ),
    ),
    "jundt1997_cln_e": SellmeierSet(
        name="jundt1997_cln_e",
        a=(5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2),
        b=(4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5),
        valid_um=(0.4, 5.0),
        citation=(
            "D. H. Jundt, Opt. Lett. 22, 1553 (1997); "
            "undoped congruent LiNbO3, extraordinary index"
        ),
    ),
}


def resolve_sellmeier(sellmeier: str | SellmeierSet) -> SellmeierSet:
    if isinstance(sellmeier, SellmeierSet):
        return sellmeier
    try:
        return SELLMEIER_SETS[sellmeier]
    except KeyError:
        raise ValueError(
            f"unknown Sellmeier set {sellmeier!r}; available: {sorted(SELLMEIER_SETS)}"
        ) from None


@dataclass(frozen=True)
class CrystalSpec:
    """Periodically poled crystal for the type-0 up-conversion stage.

    All three waves are extraordinary-polarized, so one index fit serves
    the whole interaction.  ``thermal_expansion_per_k`` optionally dilates
    the poling period away from 25 degC.
    """

    length_mm: float
    poling_period_um: float
    temperature_c: float
    sellmeier: SellmeierSet
    thermal_expansion_per_k: float = 0.0

    def __post_init__(self) -> None:
        if self.length_mm <= 0:
            raise ValueError(f"length_mm: must be positive, got {self.length_mm} mm")
        if self.poling_period_um <= 0:
            raise ValueError(
                f"poling_period_um: must be positive, got {self.poling_period_um} um"
            )

    def poling_period_m(self, temperature_c: float | None = None) -> float:
        t = self.temperature_c if temperature_c is None else temperature_c
        dilation = 1.0 + self.thermal_expansion_per_k * (t - 25.0)
        return self.poling_period_um * 1e-6 * dilation

    def index(self, wavelength_um, temperature_c: float | None = None):
        t = self.temperature_c if temperature_c is None else temperature_c
        return self.sellmeier.index(wavelength_um, t)


@dataclass(frozen=True)
class PumpLaser:
    """Strong conversion pump, tunable in a narrow window around 795 nm."""

    wavelength_nm: float = 795.0
    power_mw: float = 400.0
    window_nm: tuple[float, float] = (790.0, 800.0)

    def __post_init__(self) -> None:
        if self.power_mw < 0:
            raise ValueError(f"power_mw: pump power must be >= 0, got {self.power_mw} mW")
        if len(self.window_nm) != 2 or not self.window_nm[0] < self.window_nm[1]:
            raise ValueError(f"window_nm: expected (lo, hi) with lo < hi, got {self.window_nm}")
        lo, hi = self.window_nm
        if not lo <= self.wavelength_nm <= hi:
            raise ValueError(
                f"wavelength_nm: {self.wavelength_nm} nm outside tuning window "
                f"[{lo}, {hi}] nm"
            )


def sfg_wavelength(pump_nm, signal_nm):
    """Sum-frequency wavelength in nm, scalars or arrays: 1/lam3 = 1/lam_p + 1/lam_s."""
    if np.any(np.asarray(pump_nm) <= 0) or np.any(np.asarray(signal_nm) <= 0):
        raise ValueError("wavelengths must be positive")
    return 1.0 / (1.0 / pump_nm + 1.0 / signal_nm)


def phase_mismatch(crystal: CrystalSpec, pump_nm, signal_nm, temperature_c=None):
    """Quasi-phase-matched wave-vector mismatch [rad/m].

    Delta_k = 2*pi * (n3/lam3 - n_p/lam_p - n_s/lam_s - 1/Lambda(T))

    with the first-order grating vector of the poling.  Zero means the
    interaction is phase matched.  Any of the pump, the signal and the
    temperature may be an array; each point equals the scalar call's
    value bit for bit.
    """
    t = crystal.temperature_c if temperature_c is None else temperature_c
    lam3_nm = sfg_wavelength(pump_nm, signal_nm)
    n3 = crystal.index(lam3_nm * 1e-3, t)
    n1 = crystal.index(pump_nm * 1e-3, t)
    n2 = crystal.index(signal_nm * 1e-3, t)
    return 2.0 * np.pi * (
        n3 / (lam3_nm * 1e-9)
        - n1 / (pump_nm * 1e-9)
        - n2 / (signal_nm * 1e-9)
        - 1.0 / crystal.poling_period_m(t)
    )


def solve_qpm_temperature(crystal: CrystalSpec, pump_nm: float, signal_nm: float,
                          t_range_c: tuple[float, float] = (-20.0, 200.0)) -> float:
    """Temperature [degC] at which the interaction phase matches.

    Raises ``ValueError`` when no root lies in ``t_range_c``.
    """
    lo, hi = t_range_c
    return _first_root(
        lambda t: phase_mismatch(crystal, pump_nm, signal_nm, t),
        np.linspace(lo, hi, 221), xtol=1e-6,
        error=ValueError(
            f"no phase-matching temperature in [{lo}, {hi}] degC for "
            f"pump {pump_nm} nm / signal {signal_nm} nm "
            f"(poling period {crystal.poling_period_um} um)"
        ),
    )


def matched_signal_nm(crystal: CrystalSpec, pump_nm: float,
                      signal_window_nm: tuple[float, float] = (1500.0, 1620.0)) -> float:
    """Signal wavelength [nm] phase matched by ``pump_nm`` at the crystal setting."""
    lo, hi = signal_window_nm
    return _first_root(
        lambda s: phase_mismatch(crystal, pump_nm, s),
        np.linspace(lo, hi, 121), xtol=1e-9,
        error=ValueError(
            f"no phase-matched signal in [{lo}, {hi}] nm for pump {pump_nm} nm "
            f"at {crystal.temperature_c} degC"
        ),
    )


def acceptance(crystal: CrystalSpec, pump_nm: float, signal_detuning_ghz) -> float | np.ndarray:
    """Relative conversion efficiency for a signal detuned from phase matching.

    ``sinc^2(Delta_k * L / 2)`` evaluated at the signal frequency detuned
    by ``signal_detuning_ghz`` from the wavelength that the given pump
    phase-matches; equals 1 at zero detuning.  The narrow acceptance is
    what suppresses neighbouring multiplexed channels.
    """
    matched_thz = wavelength_to_frequency(matched_signal_nm(crystal, pump_nm))
    return _acceptance(crystal, pump_nm, matched_thz, signal_detuning_ghz)


def _acceptance(crystal: CrystalSpec, pump_nm: float, matched_thz: float,
                signal_detuning_ghz) -> float | np.ndarray:
    """:func:`acceptance` about an already solved matched-signal frequency [THz]."""
    det = np.asarray(signal_detuning_ghz, dtype=float)
    if np.any(np.abs(det) > 2000.0):
        raise ValueError("signal detuning outside +-2 THz")
    sig_nm = np.asarray(
        [frequency_to_wavelength(matched_thz + d * 1e-3) for d in np.atleast_1d(det)]
    )
    length_m = crystal.length_mm * 1e-3
    dk = phase_mismatch(crystal, pump_nm, sig_nm)
    # np.sinc is sin(pi x)/(pi x)
    out = np.sinc(dk * length_m / 2.0 / np.pi) ** 2
    return out if det.ndim else float(out[0])


def acceptance_fwhm_ghz(crystal: CrystalSpec, pump_nm: float,
                        scan_ghz: float = 120.0) -> float:
    """Full width at half maximum of the acceptance curve [GHz], by scan."""
    det = np.linspace(0.0, scan_ghz, 2401)
    acc = acceptance(crystal, pump_nm, det)
    below = np.nonzero(acc < 0.5)[0]
    if len(below) == 0:
        raise ValueError(f"acceptance does not fall to 0.5 within {scan_ghz} GHz")
    i = int(below[0])
    # linear interpolation between the straddling samples
    d0, d1 = det[i - 1], det[i]
    a0, a1 = acc[i - 1], acc[i]
    half = d0 + (0.5 - a0) * (d1 - d0) / (a1 - a0)
    return 2.0 * float(half)


def solve_pump_wavelength(crystal: CrystalSpec, signal: ItuChannel | float,
                          window_nm: tuple[float, float] = (790.0, 800.0)) -> float:
    """Pump wavelength [nm] that phase-matches the given signal channel.

    Brackets sign changes of the mismatch by scanning the pump window at
    0.01 nm steps, then bisects to 1e-4 nm.  Deterministic: the
    smallest-wavelength root wins when several exist.
    """
    signal_nm = signal.center_wavelength_nm if isinstance(signal, ItuChannel) else float(signal)
    lo, hi = window_nm
    step = 0.01
    return _first_root(
        lambda p: phase_mismatch(crystal, p, signal_nm),
        np.arange(lo, hi + step / 2, step), xtol=1e-4,
        error=UnaddressableChannelError(
            f"channel at {signal_nm:.2f} nm unaddressable at "
            f"{crystal.temperature_c:.2f} degC: no pump in [{lo}, {hi}] nm "
            f"satisfies quasi-phase matching"
        ),
    )


@dataclass(frozen=True)
class ConversionCurve:
    """Quantum conversion efficiency versus conversion-pump power.

    eta_q(P) = eta_device * sin^2((pi/2) * sqrt(P / p_pi))

    the standard undepleted-signal law for a cavity-enhanced pump;
    ``p_pi_mw`` is the power at which the sine argument reaches pi/2.
    """

    eta_device: float = 1.0
    p_pi_mw: float = 3076.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_device <= 1.0:
            raise ValueError(f"eta_device: must be in (0, 1], got {self.eta_device}")
        if self.p_pi_mw <= 0:
            raise ValueError(f"p_pi_mw: must be positive, got {self.p_pi_mw} mW")

    @classmethod
    def from_calibration(cls, power_mw: float, eta_quantum: float,
                         eta_device: float = 1.0) -> "ConversionCurve":
        """Build the curve through one measured (power, efficiency) point."""
        if power_mw <= 0:
            raise ValueError(f"calibration power must be positive, got {power_mw} mW")
        if not 0.0 < eta_quantum < eta_device:
            raise ValueError(
                f"calibration efficiency must be in (0, eta_device={eta_device}), got {eta_quantum}"
            )
        ratio = (2.0 / np.pi) * np.arcsin(np.sqrt(eta_quantum / eta_device))
        return cls(eta_device=eta_device, p_pi_mw=power_mw / ratio**2)


def quantum_efficiency(curve: ConversionCurve, pump_power_mw) -> float | np.ndarray:
    """Photon-number conversion efficiency at the given pump power [mW]."""
    p = np.asarray(pump_power_mw, dtype=float)
    if np.any(p < 0):
        raise ValueError("pump power must be >= 0")
    eta = curve.eta_device * np.sin(np.pi / 2.0 * np.sqrt(p / curve.p_pi_mw)) ** 2
    return eta if p.ndim else float(eta)


def power_efficiency(quantum_eff: float, signal_nm: float, sfg_nm: float) -> float:
    """Optical power ratio P_out/P_in for a given quantum efficiency.

    Each converted photon carries the sum-frequency energy, so
    eta_power = eta_quantum * lam_signal / lam_sfg; it may exceed 1.
    """
    if signal_nm <= 0 or sfg_nm <= 0:
        raise ValueError("wavelengths must be positive")
    return quantum_eff * signal_nm / sfg_nm


def quantum_from_power(power_eff: float, signal_nm: float, sfg_nm: float) -> float:
    """Inverse of :func:`power_efficiency`: eta_quantum = eta_power * lam_sfg / lam_signal."""
    if signal_nm <= 0 or sfg_nm <= 0:
        raise ValueError("wavelengths must be positive")
    return power_eff * sfg_nm / signal_nm


def _first_root(mismatch, grid: np.ndarray, xtol: float, error: ValueError,
                max_iter: int = 200) -> float:
    """Lowest root of ``mismatch`` on ``grid``; raises ``error`` when there is none.

    The grid is evaluated in one array call to bracket the first sign
    change, which plain bisection then refines with scalar calls;
    deterministic.
    """
    vals = mismatch(grid)
    idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    if len(idx) == 0:
        raise error
    lo, hi = float(grid[idx[0]]), float(grid[idx[0] + 1])
    flo = mismatch(lo)
    fhi = mismatch(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = mismatch(mid)
        if fmid == 0.0 or (hi - lo) / 2.0 < xtol:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
