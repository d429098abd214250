"""Scenario configuration: baseline values, JSON loading, content digest.

The baseline scenario reproduces the reference demultiplexer bench at
desk scale.  Every constant that encodes a measured device figure
carries a provenance comment next to it; derived quantities (the
conversion-curve knee, the pair-generation coefficient, the operating
crystal temperature) are computed from their calibration anchors at
build time rather than frozen as magic numbers.

Config files are JSON with the same nesting as ``baseline_dict()``.
Loading is strict: unknown keys are rejected and every validation error
names the offending field.  An empty file or ``{}`` yields the full
baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from . import sfg
from .channel_plan import build_plan
from .detection import LOSS_GROUPS, DetectorSpec, LossEntry, LossLedger
from .events import CoincidenceConfig
from .franson import FringeModel, UmiSpec
from .montecarlo import ScenarioConfig, signal_passive_groups
from .ring_source import RingSpectrumModel, SfwmRates
from .sfg import ConversionCurve, CrystalSpec, PumpLaser


class ConfigError(ValueError):
    """Configuration file failed validation; the message names the field."""


def baseline_dict() -> dict:
    """The baseline scenario as a plain nested dict (JSON-shaped)."""
    return {
        "plan": {
            "pump_index": 34,          # pump parked on C34 (1550.12 nm)
            "offsets": [10, 12, 14],   # S1/I1..S3/I3 at +-1.0/1.2/1.4 THz
            "active": "S2",
        },
        "ring": {
            "fsr_ghz": 200.0,              # two grid slots per resonance
            "fwhm_mhz": 490.0,             # measured linewidth; authoritative
            "q_factor": 430000.0,          # quoted loaded Q; descriptive only
            "extinction_depth": 0.9,       # notch depth, configurable
            "reference_resonance_thz": 193.4,   # comb anchored on the pump channel
            "thermo_optic_ghz_per_k": 10.0,     # silicon thermo-optic comb shift
            "temperature_offset_k": 0.0,
        },
        "sfwm": {
            # pairs/s per uW^2; "auto" back-solves the coefficient so the
            # detected converted-singles rate hits detected_singles_target_hz
            # at the operating powers below.
            "pair_coefficient": "auto",
            "detected_singles_target_hz": 2000.0,
            # linear-noise singles as a fraction of the quadratic singles at
            # the operating chip power (pigtail Raman scattering):
            "raman_fraction": 0.10,
            "enhancement": {},
        },
        "crystal": {
            "length_mm": 50.0,            # poled crystal length
            "poling_period_um": 7.3,      # first-order grating
            # "auto" solves the phase-matching temperature for the design
            # point (pump_design_nm + the C-band signal below); published
            # index fits disagree by tens of kelvin here, so the solved
            # value is reported next to the bench's 29.5 degC figure.
            "temperature_c": "auto",
            "design_signal_nm": 1560.0,
            "sellmeier": "gayer2008_mgo_cln_e",
            "thermal_expansion_per_k": 0.0,
        },
        "conversion": {
            "eta_device": 1.0,
            # "auto" places the sin^2 knee through the calibration point:
            # quantum efficiency 0.38 at 550 mW of conversion pump.
            "p_pi_mw": "auto",
            "calibration_power_mw": 550.0,
            "calibration_eta": 0.38,
        },
        "sfg_pump": {
            "wavelength_nm": 795.0,       # design pump; per-channel value is solved
            "power_mw": 400.0,            # operating conversion-pump power
            "window_nm": [790.0, 800.0],
        },
        "umis": {
            "idler": {
                "delay_ns": 1.6,
                "operating_wavelength_nm": 1550.0,
                "dn_dt_per_k": 0.811e-5,      # fiber thermo-optic coefficient
                "refractive_index": 1.467,
                "tunable_length_mm": 163.48,  # full fiber path difference c*dt/(2n)
                "reference_temperature_k": 295.0,
                "label": "fiber",
            },
            "signal": {
                "delay_ns": 1.6,
                "operating_wavelength_nm": 525.0,
                "dn_dt_per_k": 1.6e-5,        # KTP dn_z/dT at 525 nm
                "refractive_index": 1.89,
                # effective tuned length: only the KTP crystal is heated, and
                # 14.143 mm reproduces the measured 1.16 K fringe period (the
                # full path difference would give 0.100 K; see the dedicated
                # consistency check).
                "tunable_length_mm": 14.1433,
                "reference_temperature_k": 295.0,
                "label": "free-space",
            },
        },
        "fringe": {
            "visibility": 1.0,            # intrinsic; degradation enters via noise
            "phase_offset_rad": 0.0,
            "signal_phase_rad": 0.0,
            "idler_phase_rad": 0.0,
            "phase_jitter_rad": 0.0,      # both interferometers locked
        },
        "ledgers": {
            "signal": [
                {"name": "waveguide insertion", "loss_db": 5.00, "group": "chip"},
                {"name": "DWDM filtering", "loss_db": 2.00, "group": "filters"},
                {"name": "SFG transmission", "loss_db": 0.80, "group": "sfg_passive"},
                {"name": "up-conversion", "loss_db": 5.38, "group": "conversion"},
                {"name": "SFG filtering", "loss_db": 0.20, "group": "sfg_passive"},
                {"name": "fiber coupling", "loss_db": 2.21, "group": "sfg_passive"},
                {"name": "Si detector", "loss_db": 3.00, "group": "detector"},
            ],
            "idler": [
                {"name": "waveguide insertion", "loss_db": 5.00, "group": "chip"},
                {"name": "DWDM filtering", "loss_db": 2.00, "group": "filters"},
                {"name": "InGaAs detector", "loss_db": 6.99, "group": "detector"},
            ],
        },
        "detectors": {
            "apd1": {   # free-running InGaAs on the idler arm
                "efficiency": 0.20,
                "dark_rate_hz": 1000.0,
                "dead_time_us": 5.0,
                "timing_jitter_sigma_ps": 100.0,
            },
            "apd2": {   # Si detector on the converted-signal arm
                "efficiency": 0.50,
                "dark_rate_hz": 1000.0,   # dominant noise at the operating point
                "dead_time_us": 0.0,
                "timing_jitter_sigma_ps": 100.0,
            },
        },
        "coincidence": {
            "window_ns": 0.8,
            "histogram_bin_ps": 100,
            "histogram_span_ns": 5.0,
        },
        "run": {
            "duration_s": 60.0,
            "seed": 20260810,
            "chip_power_uw": 400.0,       # on-chip pump at the fringe measurements
            "active_channel": "S2",
            "include_umis": True,
            "simulate_all_channels": True,
            "convert_signal": True,
        },
    }


def _merge_strict(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and key not in ("enhancement",):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            out[key] = _merge_strict(base[key], value, here)
        else:
            out[key] = value
    return out


def _require_number(raw: dict, path: str, key: str, minimum: float | None = None,
                    strict_min: bool = False) -> float:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if minimum is not None:
        if strict_min and value <= minimum:
            raise ConfigError(f"{path}.{key}: must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return float(value)


def _ledger(entries_raw: list, role: str, path: str) -> LossLedger:
    entries = []
    for i, entry in enumerate(entries_raw):
        here = f"{path}[{i}]"
        extra = set(entry) - {"name", "loss_db", "group"}
        if extra:
            raise ConfigError(f"{here}: unknown keys {sorted(extra)}")
        loss = _require_number(entry, here, "loss_db", minimum=0.0)
        group = entry.get("group")
        if group not in LOSS_GROUPS:
            raise ConfigError(f"{here}.group: expected one of {list(LOSS_GROUPS)}, got {group!r}")
        entries.append(LossEntry(entry["name"], loss, group))
    return LossLedger(tuple(entries), role=role)


def _detector(raw: dict, path: str) -> DetectorSpec:
    eff = _require_number(raw, path, "efficiency", minimum=0.0, strict_min=True)
    dark = _require_number(raw, path, "dark_rate_hz", minimum=0.0)
    dead = _require_number(raw, path, "dead_time_us", minimum=0.0)
    jitter = _require_number(raw, path, "timing_jitter_sigma_ps", minimum=0.0)
    try:
        return DetectorSpec(eff, dark, dead, jitter)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_config(raw: dict) -> ScenarioConfig:
    """Turn a full (merged) config dict into a validated ScenarioConfig."""
    plan_raw = raw["plan"]
    try:
        plan = tuple(build_plan(plan_raw["pump_index"], list(plan_raw["offsets"])))
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from None

    r = raw["ring"]
    try:
        ring = RingSpectrumModel(
            fsr_ghz=_require_number(r, "ring", "fsr_ghz"),
            fwhm_mhz=_require_number(r, "ring", "fwhm_mhz"),
            q_factor=_require_number(r, "ring", "q_factor"),
            extinction_depth=_require_number(r, "ring", "extinction_depth"),
            reference_resonance_thz=_require_number(r, "ring", "reference_resonance_thz"),
            thermo_optic_ghz_per_k=_require_number(r, "ring", "thermo_optic_ghz_per_k"),
            temperature_offset_k=_require_number(r, "ring", "temperature_offset_k"),
        )
    except ValueError as exc:
        raise ConfigError(f"ring: {exc}") from None

    c = raw["crystal"]
    try:
        sellmeier = sfg.resolve_sellmeier(c["sellmeier"])
    except ValueError as exc:
        raise ConfigError(f"crystal.sellmeier: {exc}") from None
    design_signal_nm = _require_number(c, "crystal", "design_signal_nm")
    pump_design_nm = _require_number(raw["sfg_pump"], "sfg_pump", "wavelength_nm")
    auto_temperature = c["temperature_c"] == "auto"
    crystal = CrystalSpec(
        length_mm=_require_number(c, "crystal", "length_mm", 0.0, True),
        poling_period_um=_require_number(c, "crystal", "poling_period_um", 0.0, True),
        # the auto solve scans its own temperatures; 25 degC is a placeholder
        temperature_c=25.0 if auto_temperature else _require_number(c, "crystal", "temperature_c"),
        sellmeier=sellmeier,
        thermal_expansion_per_k=_require_number(c, "crystal", "thermal_expansion_per_k"),
    )
    if auto_temperature:
        crystal = replace(crystal, temperature_c=sfg.solve_qpm_temperature(
            crystal, pump_design_nm, design_signal_nm))

    conv = raw["conversion"]
    eta_device = _require_number(conv, "conversion", "eta_device", 0.0, True)
    if conv["p_pi_mw"] == "auto":
        curve = ConversionCurve.from_calibration(
            power_mw=_require_number(conv, "conversion", "calibration_power_mw", 0.0, True),
            eta_quantum=_require_number(conv, "conversion", "calibration_eta", 0.0, True),
            eta_device=eta_device,
        )
    else:
        curve = ConversionCurve(
            eta_device=eta_device,
            p_pi_mw=_require_number(conv, "conversion", "p_pi_mw", 0.0, True),
        )

    sp = raw["sfg_pump"]
    try:
        sfg_pump = PumpLaser(
            wavelength_nm=pump_design_nm,
            power_mw=_require_number(sp, "sfg_pump", "power_mw", minimum=0.0),
            window_nm=(float(sp["window_nm"][0]), float(sp["window_nm"][1])),
        )
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"sfg_pump: {exc}") from None

    umis = {}
    for side in ("idler", "signal"):
        u = raw["umis"][side]
        path = f"umis.{side}"
        try:
            umis[side] = UmiSpec(
                delay_ns=_require_number(u, path, "delay_ns", 0.0, True),
                operating_wavelength_nm=_require_number(
                    u, path, "operating_wavelength_nm", 0.0, True),
                dn_dt_per_k=_require_number(u, path, "dn_dt_per_k", 0.0, True),
                refractive_index=_require_number(u, path, "refractive_index", 0.0, True),
                tunable_length_mm=_require_number(u, path, "tunable_length_mm", 0.0, True),
                reference_temperature_k=_require_number(u, path, "reference_temperature_k"),
                label=u["label"],
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    f = raw["fringe"]
    try:
        fringe = FringeModel(
            visibility=_require_number(f, "fringe", "visibility"),
            phase_offset_rad=_require_number(f, "fringe", "phase_offset_rad"),
            signal_phase_rad=_require_number(f, "fringe", "signal_phase_rad"),
            idler_phase_rad=_require_number(f, "fringe", "idler_phase_rad"),
            phase_jitter_rad=_require_number(f, "fringe", "phase_jitter_rad"),
        )
    except ValueError as exc:
        raise ConfigError(f"fringe: {exc}") from None

    signal_ledger = _ledger(raw["ledgers"]["signal"], "signal-arm", "ledgers.signal")
    idler_ledger = _ledger(raw["ledgers"]["idler"], "idler-arm", "ledgers.idler")
    apd1 = _detector(raw["detectors"]["apd1"], "detectors.apd1")
    apd2 = _detector(raw["detectors"]["apd2"], "detectors.apd2")

    co = raw["coincidence"]
    try:
        coincidence = CoincidenceConfig(
            window_ns=_require_number(co, "coincidence", "window_ns"),
            histogram_bin_ps=int(co["histogram_bin_ps"]),
            histogram_span_ns=_require_number(co, "coincidence", "histogram_span_ns"),
        )
    except ValueError as exc:
        raise ConfigError(f"coincidence: {exc}") from None

    run = raw["run"]
    sf = raw["sfwm"]
    chip_power_uw = _require_number(run, "run", "chip_power_uw", minimum=0.0)
    duration_s = _require_number(run, "run", "duration_s", 0.0, True)
    seed = run["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"run.seed: expected an integer, got {seed!r}")

    raman_fraction = _require_number(sf, "sfwm", "raman_fraction", minimum=0.0)
    if sf["pair_coefficient"] == "auto":
        pair_coefficient = calibrate_pair_coefficient(
            target_singles_hz=_require_number(
                sf, "sfwm", "detected_singles_target_hz", 0.0, True),
            chip_power_uw=chip_power_uw,
            raman_fraction=raman_fraction,
            signal_ledger=signal_ledger,
            curve=curve,
            sfg_power_mw=sfg_pump.power_mw,
            detector=apd2,
        )
    else:
        pair_coefficient = _require_number(sf, "sfwm", "pair_coefficient", minimum=0.0)
    raman = raman_fraction * pair_coefficient * chip_power_uw
    try:
        rates = SfwmRates(
            pair_coefficient=pair_coefficient,
            raman_signal=raman,
            raman_idler=raman,
            enhancement=dict(sf["enhancement"]),
        )
    except ValueError as exc:
        raise ConfigError(f"sfwm: {exc}") from None

    try:
        return ScenarioConfig(
            plan=plan,
            active_label=run["active_channel"],
            ring=ring,
            rates=rates,
            crystal=crystal,
            curve=curve,
            sfg_pump=sfg_pump,
            signal_umi=umis["signal"],
            idler_umi=umis["idler"],
            fringe=fringe,
            signal_ledger=signal_ledger,
            idler_ledger=idler_ledger,
            apd1=apd1,
            apd2=apd2,
            coincidence=coincidence,
            chip_power_uw=chip_power_uw,
            duration_s=duration_s,
            seed=seed,
            include_umis=bool(run["include_umis"]),
            simulate_all_channels=bool(run["simulate_all_channels"]),
            convert_signal=bool(run["convert_signal"]),
        )
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from None


def calibrate_pair_coefficient(target_singles_hz: float, chip_power_uw: float,
                               raman_fraction: float, signal_ledger: LossLedger,
                               curve: ConversionCurve, sfg_power_mw: float,
                               detector: DetectorSpec) -> float:
    """Back-solve the pair coefficient from a detected converted-singles anchor.

    Inverts the signal-arm efficiency chain (passive losses x conversion
    efficiency x detector efficiency) so that the detected converted
    singles, including the linear noise share, hit the target rate at the
    operating powers.
    """
    passive = signal_ledger.linear(groups=signal_passive_groups(convert_signal=True))
    eta = passive * sfg.quantum_efficiency(curve, sfg_power_mw) * detector.efficiency
    if eta <= 0 or chip_power_uw <= 0:
        raise ConfigError("sfwm.pair_coefficient: cannot calibrate with zero efficiency or power")
    return target_singles_hz / (eta * chip_power_uw**2 * (1.0 + raman_fraction))


def load_config(path: str | Path | None) -> ScenarioConfig:
    """Load a scenario config: baseline values overridden by the JSON file.

    ``None``, an empty file, or ``{}`` produce the full baseline.
    """
    merged = load_config_dict(path)
    return build_config(merged)


def load_config_dict(path: str | Path | None) -> dict:
    """Baseline dict merged with the file's overrides (strict keys)."""
    base = baseline_dict()
    if path is None:
        return base
    text = Path(path).read_text().strip()
    if not text:
        return base
    try:
        override = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _merge_strict(base, override)


def config_digest(config_dict: dict) -> str:
    """Content hash of a config dict, stable under key reordering."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
