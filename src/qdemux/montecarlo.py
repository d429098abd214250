"""End-to-end Monte Carlo of the demultiplexer: source to timestamps.

A run is a pure function of (scenario, seed).  Pair arrivals are
homogeneous Poisson; each photon then survives a chain of Bernoulli
stages (passive losses, frequency conversion with its acceptance factor,
interferometer routing, detector efficiency), picks up timing jitter,
and is finally merged with dark counts and pruned for dead time.

Randomness discipline: every stage draws from its own generator, seeded
by hashing (master seed, stage name, channel label), so adding a stage
or changing one noise source never perturbs the other streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, franson, ring_source, sfg
from .channel_plan import ChannelPair, plan_by_signal_label, wavelength_to_frequency
from .detection import DetectionArm, DetectorSpec, LossLedger, apply_detector
from .events import (
    CoincidenceConfig,
    EventStream,
    central_window_counts,
    histogram,
)
from .franson import FringeModel, UmiSpec, sample_pair_paths, sample_single_paths
from .ring_source import RingSpectrumModel, SfwmRates
from .sfg import ConversionCurve, CrystalSpec, PumpLaser


def sub_seed(master: int, stage: str, label: str = "") -> int:
    """Derive a named child seed from the master seed, stably across runs."""
    digest = hashlib.sha256(f"{master}:{stage}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sub_rng(master: int, stage: str, label: str = "") -> np.random.Generator:
    return np.random.default_rng(sub_seed(master, stage, label))


def signal_passive_groups(convert_signal: bool) -> tuple[str, ...]:
    """Signal-arm loss groups that count as passive survival.

    Conversion and detection are stages of their own; the SFG module's
    passive losses apply only when the signal is converted.
    """
    return ("chip", "filters", "sfg_passive") if convert_signal else ("chip", "filters")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a run needs: device models, losses, powers, timing, seed."""

    plan: tuple[ChannelPair, ...]
    active_label: str
    ring: RingSpectrumModel
    rates: SfwmRates
    crystal: CrystalSpec
    curve: ConversionCurve
    sfg_pump: PumpLaser
    signal_umi: UmiSpec
    idler_umi: UmiSpec
    fringe: FringeModel
    signal_ledger: LossLedger
    idler_ledger: LossLedger
    apd1: DetectorSpec  # idler arm (InGaAs)
    apd2: DetectorSpec  # converted signal arm (Si)
    coincidence: CoincidenceConfig
    chip_power_uw: float
    duration_s: float
    seed: int
    include_umis: bool = True
    simulate_all_channels: bool = True
    convert_signal: bool = True
    direct_signal_detector: DetectorSpec | None = None

    def __post_init__(self) -> None:
        labels = {p.signal_label for p in self.plan}
        if self.active_label not in labels:
            raise ValueError(
                f"active channel {self.active_label!r} not in plan {sorted(labels)}"
            )
        if self.chip_power_uw < 0:
            raise ValueError(f"chip power must be >= 0, got {self.chip_power_uw} uW")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s} s")
        if self.signal_umi.delay_ps != self.idler_umi.delay_ps:
            raise ValueError(
                "the two interferometer delays must match for central-peak "
                f"interference, got {self.signal_umi.delay_ns} and "
                f"{self.idler_umi.delay_ns} ns"
            )

    @property
    def active_pair(self) -> ChannelPair:
        return plan_by_signal_label(list(self.plan))[self.active_label]

    @property
    def signal_stream_label(self) -> str:
        return f"{self.active_label}'" if self.convert_signal else self.active_label

    def signal_passive_ledger(self) -> LossLedger:
        """Signal-arm losses before the conversion and detector stages."""
        groups = signal_passive_groups(self.convert_signal)
        return LossLedger(
            tuple(e for e in self.signal_ledger.entries if e.group in groups),
            role=self.signal_ledger.role,
        )

    def idler_passive_ledger(self) -> LossLedger:
        """Idler-arm losses before the detector."""
        return self.idler_ledger.excluding(("detector",))

    def signal_detector(self) -> DetectorSpec:
        if self.convert_signal:
            return self.apd2
        return self.direct_signal_detector or self.apd1


@dataclass(frozen=True)
class OperatingPoint:
    """Pump, conversion efficiency, acceptances and arm survivals, solved once.

    ``acceptance`` maps each simulated pair label to the share of its
    signal photons sent to the signal detector; without conversion that
    is 1 for the active channel and 0 for the others.  Runs that differ
    only in chip power, duration, seed, interferometers or by simulating
    fewer channels share one.
    """

    pump_nm: float | None
    eta_quantum: float
    acceptance: dict[str, float]
    signal_survival: float
    idler_survival: float


def operating_point(config: ScenarioConfig) -> OperatingPoint:
    """Solve the conversion pump for the active channel and derive the rest.

    Raises :class:`~qdemux.sfg.UnaddressableChannelError` when no pump
    wavelength inside the tuning window addresses the active channel.
    """
    active = config.active_pair
    pairs = config.plan if config.simulate_all_channels else (active,)
    if config.convert_signal:
        pump_nm = sfg.solve_pump_wavelength(
            config.crystal, active.signal, config.sfg_pump.window_nm
        )
        matched_thz = wavelength_to_frequency(sfg.matched_signal_nm(config.crystal, pump_nm))
        eta_q = sfg.quantum_efficiency(config.curve, config.sfg_pump.power_mw)
        # one call per channel: np.sinc over a longer array can differ in the last bit
        acceptance = {
            pair.label: float(sfg._acceptance(
                config.crystal, pump_nm, matched_thz,
                (pair.signal.center_frequency_thz - matched_thz) * 1e3,
            ))
            for pair in pairs
        }
    else:
        pump_nm = None
        eta_q = 1.0
        acceptance = {pair.label: 1.0 if pair.label == active.label else 0.0
                      for pair in pairs}
    return OperatingPoint(
        pump_nm=pump_nm,
        eta_quantum=eta_q,
        acceptance=acceptance,
        signal_survival=config.signal_passive_ledger().linear(),
        idler_survival=config.idler_passive_ledger().linear(),
    )


@dataclass(frozen=True)
class RunResult:
    """Streams and bookkeeping from one Monte Carlo run."""

    signal_stream: EventStream
    idler_streams: dict[str, EventStream]
    pump_nm: float | None
    diagnostics: dict

    @property
    def active_idler_stream(self) -> EventStream:
        label = self.diagnostics["active_idler_label"]
        return self.idler_streams[label]


def _truncated_laplace(rng: np.random.Generator, scale: float, n: int,
                       bound_scales: float = 5.0) -> np.ndarray:
    """Double-exponential samples truncated at +-bound_scales * scale."""
    x = rng.laplace(0.0, scale, n)
    bad = np.abs(x) > bound_scales * scale
    while bad.any():
        x[bad] = rng.laplace(0.0, scale, int(bad.sum()))
        bad = np.abs(x) > bound_scales * scale
    return x


def _route_single(t: np.ndarray, rng: np.random.Generator, delay_ps: float,
                  include_umis: bool) -> np.ndarray:
    """Unpaired photons through their arm's interferometer, when it is in place."""
    if not include_umis:
        return t
    alive, long_arm = sample_single_paths(t.size, rng)
    return (t + np.where(long_arm, delay_ps, 0.0))[alive]


def generate_run(config: ScenarioConfig, op: OperatingPoint | None = None) -> RunResult:
    """Simulate one accumulation and return detected timestamp streams.

    The converted-signal detector sees every simulated channel (matched
    channel converted efficiently, neighbours suppressed by the
    conversion acceptance); each idler channel has its own detector.
    ``op`` defaults to ``operating_point(config)``, which raises
    :class:`~qdemux.sfg.UnaddressableChannelError` when no pump
    wavelength inside the tuning window addresses the active channel.
    """
    if op is None:
        op = operating_point(config)
    master = config.seed
    duration_ps = int(round(config.duration_s * 1e12))
    active = config.active_pair
    delay_ps = config.signal_umi.delay_ps
    tau_ps = ring_source.pair_correlation_time_ps(config.ring)

    pairs = config.plan if config.simulate_all_channels else (active,)
    sig_parts: list[np.ndarray] = []
    idler_streams: dict[str, EventStream] = {}
    per_channel: dict[str, dict] = {}

    for pair in pairs:
        label = pair.label
        acc = op.acceptance[label]
        p_sig = op.signal_survival * op.eta_quantum * acc
        p_idl = op.idler_survival
        rate = ring_source.pair_rate(config.rates, config.chip_power_uw, label)

        rng_pairs = sub_rng(master, "pairs", label)
        rng_jit = sub_rng(master, "pair-jitter", label)
        rng_umi = sub_rng(master, "umi", label)

        n_total = int(rng_pairs.poisson(rate * config.duration_s))
        p_both = p_sig * p_idl
        p_sonly = p_sig * (1.0 - p_idl)
        p_ionly = (1.0 - p_sig) * p_idl
        n_both, n_sonly, n_ionly, _ = rng_pairs.multinomial(
            n_total, [p_both, p_sonly, p_ionly, 1.0 - p_both - p_sonly - p_ionly]
        )

        t_both = rng_pairs.uniform(0.0, duration_ps, n_both)
        jit_both = _truncated_laplace(rng_jit, tau_ps, n_both)
        t_sonly = rng_pairs.uniform(0.0, duration_ps, n_sonly)
        t_ionly = rng_pairs.uniform(0.0, duration_ps, n_ionly)
        jit_ionly = _truncated_laplace(rng_jit, tau_ps, n_ionly)

        if config.include_umis:
            paths = sample_pair_paths(config.fringe, n_both, rng_umi)
            shift_s = np.where(paths.signal_long, delay_ps, 0.0)
            shift_i = np.where(paths.idler_long, delay_ps, 0.0)
            sig_ch = [(t_both + shift_s)[paths.signal_alive]]
            idl_ch = [(t_both + jit_both + shift_i)[paths.idler_alive]]
        else:
            sig_ch = [t_both]
            idl_ch = [t_both + jit_both]
        sig_ch.append(_route_single(t_sonly, rng_umi, delay_ps, config.include_umis))
        idl_ch.append(_route_single(t_ionly + jit_ionly, rng_umi, delay_ps, config.include_umis))

        # spurious linear-noise photons share each arm's survival chain
        rng_ram_s = sub_rng(master, "raman-signal", label)
        rng_ram_i = sub_rng(master, "raman-idler", label)
        raman_sig_rate = config.rates.raman_signal * config.chip_power_uw * p_sig
        raman_idl_rate = config.rates.raman_idler * config.chip_power_uw * p_idl
        n_rs = int(rng_ram_s.poisson(raman_sig_rate * config.duration_s))
        n_ri = int(rng_ram_i.poisson(raman_idl_rate * config.duration_s))
        t_rs = rng_ram_s.uniform(0.0, duration_ps, n_rs)
        t_ri = rng_ram_i.uniform(0.0, duration_ps, n_ri)
        sig_ch.append(_route_single(t_rs, rng_ram_s, delay_ps, config.include_umis))
        idl_ch.append(_route_single(t_ri, rng_ram_i, delay_ps, config.include_umis))

        # a channel not routed to the signal detector has p_sig = 0: no signal photons
        sig_parts.extend(sig_ch)

        raw_idler = EventStream.from_unsorted(
            pair.idler_label,
            np.rint(np.concatenate(idl_ch)).astype(np.int64),
            config.duration_s,
            master,
        )
        idler_streams[pair.idler_label] = apply_detector(
            raw_idler, config.apd1, sub_rng(master, "detector", pair.idler_label)
        )
        per_channel[label] = {
            "pair_rate_hz": rate,
            "acceptance": acc,
            "signal_survival": p_sig,
            "idler_survival": p_idl,
            "generated_pairs": n_total,
        }

    raw_signal = EventStream.from_unsorted(
        config.signal_stream_label,
        np.rint(np.concatenate(sig_parts)).astype(np.int64),
        config.duration_s,
        master,
    )
    signal_stream = apply_detector(
        raw_signal, config.signal_detector(),
        sub_rng(master, "detector", config.signal_stream_label),
    )

    diagnostics = {
        "pump_nm": op.pump_nm,
        "eta_quantum": op.eta_quantum,
        "active_idler_label": active.idler_label,
        "per_channel": per_channel,
        "pair_correlation_time_ps": tau_ps,
    }
    return RunResult(signal_stream, idler_streams, op.pump_nm, diagnostics)


def detection_arms(config: ScenarioConfig,
                   op: OperatingPoint | None = None) -> tuple[DetectionArm, DetectionArm]:
    """Analytic detection arms matching the Monte Carlo survival chain.

    Interferometers are not included (use them for coincidence scenarios
    without the fringe analysis, e.g. CAR sweeps with
    ``include_umis=False``).  ``op`` defaults to ``operating_point(config)``.
    """
    if op is None:
        op = operating_point(config)
    conv = op.eta_quantum * op.acceptance[config.active_pair.label]
    arm_signal = DetectionArm(config.signal_passive_ledger(), config.signal_detector(), conv)
    arm_idler = DetectionArm(config.idler_passive_ledger(), config.apd1)
    return arm_signal, arm_idler


# ---------------------------------------------------------------------------
# Scenario pipelines


def fringe_scan(config: ScenarioConfig, phases_rad: np.ndarray,
                accumulation_s: float, scan_name: str = "fringe") -> analysis.FringeScan:
    """Monte Carlo fringe scan: one run per phase point of the signal UMI.

    Each point runs with its own derived seed.  The per-point background
    estimate is the pooled far-window rate of the whole scan, rescaled to
    the central window: the accidental floor is phase independent, so
    pooling is both the lower-variance and the physically honest choice.
    """
    period = franson.temperature_tuning_period_k(config.signal_umi)
    op = operating_point(config)
    points_raw = []
    for k, phi in enumerate(np.asarray(phases_rad, dtype=float)):
        cfg = replace(
            config,
            fringe=replace(config.fringe, signal_phase_rad=float(phi)),
            duration_s=accumulation_s,
            seed=sub_seed(config.seed, scan_name, str(k)),
        )
        run = generate_run(cfg, op)
        hist = histogram(run.signal_stream, run.active_idler_stream, config.coincidence)
        win = central_window_counts(
            hist, config.coincidence.window_ns,
            side_delay_ns=config.signal_umi.delay_ns,
        )
        points_raw.append((float(phi), win))

    total_bg = sum(w.background_raw for _, w in points_raw)
    n_pts = len(points_raw)
    points = []
    for phi, win in points_raw:
        scale = win.window_bins / win.background_bins if win.background_bins else 0.0
        pooled_bg = total_bg * scale / n_pts
        temperature = config.signal_umi.reference_temperature_k + phi / (2.0 * np.pi) * period
        points.append(analysis.FringePoint(
            phase_rad=phi,
            center_counts=win.center,
            background_counts=pooled_bg,
            accumulation_s=accumulation_s,
            temperature_k=temperature,
        ))
    return analysis.FringeScan(points=tuple(points))


@dataclass(frozen=True)
class CrosstalkCell:
    """Central-window outcome for one (addressed-channel, idler-channel) pairing."""

    center: int
    background_per_window: float
    sigma: float


def demux_crosstalk(config: ScenarioConfig, duration_s: float | None = None) -> dict:
    """Address each channel in turn and coincide the converted stream with every idler.

    Returns the crosstalk matrix, the solved pump wavelengths and the
    runs themselves, one per addressed channel.  Matched entries should
    tower over the accidental floor; mismatched entries should sit on
    it, suppressed by the conversion acceptance.
    """
    duration = duration_s if duration_s is not None else config.duration_s
    matrix: dict[str, dict[str, CrosstalkCell]] = {}
    pumps: dict[str, float] = {}
    runs: dict[str, RunResult] = {}
    for pair in config.plan:
        cfg = replace(
            config,
            active_label=pair.signal_label,
            duration_s=duration,
            seed=sub_seed(config.seed, "demux", pair.signal_label),
            simulate_all_channels=True,
            convert_signal=True,
        )
        run = runs[pair.signal_label] = generate_run(cfg)
        pumps[pair.signal_label] = float(run.pump_nm)
        row: dict[str, CrosstalkCell] = {}
        for other in config.plan:
            hist = histogram(
                run.signal_stream, run.idler_streams[other.idler_label], config.coincidence
            )
            win = central_window_counts(
                hist, config.coincidence.window_ns,
                side_delay_ns=config.signal_umi.delay_ns,
            )
            bg = win.background_per_window
            sigma = float(np.sqrt(max(win.center, 1) + win.background_sigma_per_window**2))
            row[other.idler_label] = CrosstalkCell(win.center, bg, sigma)
        matrix[pair.signal_label] = row
    return {"matrix": matrix, "pump_nm": pumps, "duration_s": duration, "runs": runs}
