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
import math
from dataclasses import replace
from pathlib import Path

from . import sfg
from .channel_plan import build_plan
from .detection import DetectorSpec, LossEntry, LossLedger, passive_groups
from .events import CoincidenceConfig
from .franson import FringeModel, UmiSpec
from .montecarlo import ScenarioConfig
from .ring_source import RingSpectrumModel, SfwmRates
from .sfg import ConversionCurve, CrystalSpec, PumpLaser


class ConfigError(ValueError):
    """Configuration file failed validation; the message names the field."""


# A ledger's detector entries may differ from -10 log10(efficiency) of its detector by
# this much [dB]: the baseline's 3.00 dB stands for 50 % (3.0103 dB).
_DETECTOR_DB_TOLERANCE = 0.02


def baseline_dict() -> dict:
    """The baseline scenario as a plain nested dict (JSON-shaped)."""
    return {
        "plan": {
            "pump_index": 34,          # pump parked on C34 (1550.12 nm)
            "offsets": [10, 12, 14],   # S1/I1..S3/I3 at +-1.0/1.2/1.4 THz
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
        },
    }


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        # sections merge key by key; other values, free maps and keys outside
        # the baseline too, are replaced and left to ``_typed`` to check
        nested = isinstance(base.get(key), dict) and base[key] and isinstance(value, dict)
        out[key] = _merge(base[key], value) if nested else value
    return out


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object"}


def _expected(base) -> str:
    return '"auto" or a number' if base == "auto" else _KINDS[type(base)]


def _typed(value, base, path: str):
    """A copy of ``value``, checked to have the JSON type of its baseline ``base``.

    An integer stands for a float (and becomes one in the copy), a number
    for ``"auto"``, and a number must be finite; lists are checked by
    element against their first baseline element, and an empty baseline
    object is a map of numbers.
    """
    kind = type(base)
    if base == "auto":
        if value == "auto":
            return value
        kind = float
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        # the float the integer stands for, so 40 builds what 40.0 builds
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected {_expected(base)}, got {value!r}")
    if kind is float and not math.isfinite(value):  # JSON's NaN and Infinity, or a flag's
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if kind is list:
        return [_typed(v, base[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if kind is not dict:
        return value
    join = (lambda key: f"{path}.{key}") if path else str
    if not base:
        return {key: _typed(v, 0.0, join(key)) for key, v in value.items()}
    for key in value:
        if key not in base:
            raise ConfigError(f"unknown config key {join(key)!r}")
    for key, b in base.items():
        if key not in value:
            raise ConfigError(f"{join(key)}: expected {_expected(b)}, got nothing")
    return {key: _typed(value[key], b, join(key)) for key, b in base.items()}


def _build(cls, fields: dict, path: str):
    """``cls(**fields)``; each message of ``cls`` starts with the attribute or
    argument it is about, so a ``ValueError`` becomes a ``ConfigError``
    naming ``path.attribute``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def build_config(raw: dict) -> ScenarioConfig:
    """Turn a full (merged) config dict into a validated ScenarioConfig.

    Keys and JSON types are checked against ``baseline_dict()``; bounds
    are checked by the dataclasses each section builds.  ``raw`` itself
    is not changed, so its ``config_digest`` stays that of the input.
    """
    t = _typed(raw, baseline_dict(), "")
    try:
        plan = tuple(build_plan(t["plan"]["pump_index"], t["plan"]["offsets"]))
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from None
    ring = _build(RingSpectrumModel, t["ring"], "ring")
    sp = t["sfg_pump"]
    sfg_pump = _build(PumpLaser, {**sp, "window_nm": tuple(sp["window_nm"])}, "sfg_pump")

    crystal_raw = t["crystal"]
    design_signal_nm = crystal_raw.pop("design_signal_nm")
    try:
        crystal_raw["sellmeier"] = sfg.resolve_sellmeier(crystal_raw["sellmeier"])
    except ValueError as exc:
        raise ConfigError(f"crystal.sellmeier: {exc}") from None
    auto_temperature = crystal_raw["temperature_c"] == "auto"
    if auto_temperature:  # a placeholder: the solve below scans its own temperatures
        crystal_raw["temperature_c"] = 25.0
    crystal = _build(CrystalSpec, crystal_raw, "crystal")
    if auto_temperature:
        try:
            crystal = replace(crystal, temperature_c=sfg.solve_qpm_temperature(
                crystal, sfg_pump.wavelength_nm, design_signal_nm))
        except ValueError as exc:
            raise ConfigError(f"crystal.temperature_c: {exc}") from None

    conv = t["conversion"]
    if conv["p_pi_mw"] == "auto":
        calibration = ("calibration_power_mw", "calibration_eta", "eta_device")
        curve = _build(ConversionCurve.from_calibration, {k: conv[k] for k in calibration},
                       "conversion")
    else:
        curve = _build(ConversionCurve, {k: conv[k] for k in ("eta_device", "p_pi_mw")},
                       "conversion")

    umis = {side: _build(UmiSpec, t["umis"][side], f"umis.{side}")
            for side in ("idler", "signal")}
    if umis["signal"].delay_ps != umis["idler"].delay_ps:
        raise ConfigError(f"umis.signal.delay_ns: must equal umis.idler.delay_ns for "
                          f"central-peak interference, got {umis['signal'].delay_ns} and "
                          f"{umis['idler'].delay_ns} ns")
    fringe = _build(FringeModel, t["fringe"], "fringe")
    ledgers = {arm: LossLedger(tuple(_build(LossEntry, entry, f"ledgers.{arm}[{i}]")
                                     for i, entry in enumerate(t["ledgers"][arm])),
                               role=f"{arm}-arm")
               for arm in ("signal", "idler")}
    apd1, apd2 = (_build(DetectorSpec, t["detectors"][name], f"detectors.{name}")
                  for name in ("apd1", "apd2"))
    # the ledgers' detector entries are what `qdemux loss` reports, the efficiencies what
    # every run and law uses: they must state one detector
    for arm, name, detector in (("signal", "apd2", apd2), ("idler", "apd1", apd1)):
        ledger_db = ledgers[arm].total_db(("detector",))
        detector_db = -10.0 * math.log10(detector.efficiency)
        if abs(ledger_db - detector_db) > _DETECTOR_DB_TOLERANCE:
            raise ConfigError(
                f"ledgers.{arm}: its detector entries total {ledger_db:.2f} dB, but "
                f"detectors.{name}.efficiency {detector.efficiency} is {detector_db:.2f} dB; "
                f"they must agree within {_DETECTOR_DB_TOLERANCE} dB")
    coincidence = _build(CoincidenceConfig, t["coincidence"], "coincidence")

    run = t["run"]
    active_label = run.pop("active_channel")  # the other run keys are ScenarioConfig fields
    # ScenarioConfig checks these three too; they are checked here so that the message
    # names the key, and chip power before the calibration and the Raman rates use it
    signal_labels = sorted(pair.signal_label for pair in plan)
    if active_label not in signal_labels:
        raise ConfigError(f"run.active_channel: channel {active_label!r} not in plan "
                          f"{signal_labels}")
    if run["chip_power_uw"] < 0:
        raise ConfigError(f"run.chip_power_uw: must be >= 0, got {run['chip_power_uw']}")
    if run["duration_s"] <= 0:
        raise ConfigError(f"run.duration_s: must be positive, got {run['duration_s']}")
    sf = t["sfwm"]
    if sf["raman_fraction"] < 0:
        raise ConfigError(f"sfwm.raman_fraction: must be >= 0, got {sf['raman_fraction']}")
    labels = [pair.label for pair in plan]
    for label in sf["enhancement"]:
        if label not in labels:
            raise ConfigError(f"sfwm.enhancement.{label}: expected a pair label of {labels}")
    if sf["pair_coefficient"] == "auto":
        target_hz = sf["detected_singles_target_hz"]
        if target_hz <= 0:
            raise ConfigError(f"sfwm.detected_singles_target_hz: must be > 0, got {target_hz}")
        pair_coefficient = calibrate_pair_coefficient(
            target_singles_hz=target_hz,
            chip_power_uw=run["chip_power_uw"],
            raman_fraction=sf["raman_fraction"],
            signal_ledger=ledgers["signal"],
            curve=curve,
            sfg_power_mw=sfg_pump.power_mw,
            detector=apd2,
        )
    else:
        pair_coefficient = sf["pair_coefficient"]
    raman = sf["raman_fraction"] * pair_coefficient * run["chip_power_uw"]
    rates = _build(SfwmRates, {"pair_coefficient": pair_coefficient, "raman_signal": raman,
                               "raman_idler": raman, "enhancement": sf["enhancement"]}, "sfwm")

    return ScenarioConfig(
        plan=plan,
        active_label=active_label,
        ring=ring,
        rates=rates,
        crystal=crystal,
        curve=curve,
        sfg_pump=sfg_pump,
        signal_umi=umis["signal"],
        idler_umi=umis["idler"],
        fringe=fringe,
        signal_ledger=ledgers["signal"],
        idler_ledger=ledgers["idler"],
        apd1=apd1,
        apd2=apd2,
        coincidence=coincidence,
        **run,
    )


def calibrate_pair_coefficient(target_singles_hz: float, chip_power_uw: float,
                               raman_fraction: float, signal_ledger: LossLedger,
                               curve: ConversionCurve, sfg_power_mw: float,
                               detector: DetectorSpec) -> float:
    """Back-solve the pair coefficient from a detected converted-singles anchor.

    Inverts the active channel's converted-arm chain at acceptance 1
    (``OperatingPoint.signal_arm_survival``: passive losses x conversion
    efficiency), times the detector efficiency, so that the detected
    converted singles, including the linear noise share, hit the target
    rate at the operating powers.
    """
    passive = signal_ledger.linear(groups=passive_groups(convert_signal=True)[0])
    eta = passive * sfg.quantum_efficiency(curve, sfg_power_mw) * detector.efficiency
    if eta <= 0 or chip_power_uw <= 0:
        raise ConfigError(f"sfwm.pair_coefficient: cannot calibrate at signal-arm efficiency "
                          f"{eta} and run.chip_power_uw {chip_power_uw}")
    return target_singles_hz / (eta * chip_power_uw**2 * (1.0 + raman_fraction))


def load_config(path: str | Path | None) -> ScenarioConfig:
    """Load a scenario config: baseline values overridden by the JSON file.

    ``None``, an empty file, or ``{}`` produce the full baseline.
    """
    merged = load_config_dict(path)
    return build_config(merged)


def load_config_dict(path: str | Path | None) -> dict:
    """Baseline dict merged with the file's overrides; ``build_config`` checks it."""
    base = baseline_dict()
    if path is None:
        return base
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not text:
        return base
    try:
        override = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(override, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _merge(base, override)


def config_digest(config_dict: dict) -> str:
    """Content hash of a config dict, stable under key reordering."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
