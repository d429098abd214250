"""End-to-end Monte Carlo of the demultiplexer: source to timestamps.

A run is a pure function of (scenario, seed).  Pair arrivals are
homogeneous Poisson, the idler trailing its signal by a truncated-Laplace
delay; each arm's unpaired photons (broken pairs and linear noise) are
one uniform Poisson population.  Their times do not decide their
interferometer paths, so they are routed by count: one multinomial
split gives how many leave by each arm, and only those get a time.
Each photon survives a chain of Bernoulli stages (passive losses,
frequency conversion with its acceptance factor, interferometer
routing, detector efficiency), picks up timing jitter, and is finally
merged with dark counts and pruned for dead time.

Randomness discipline: every stage draws from its own generator, seeded
by hashing (master seed, stage name, channel label), so adding a stage
or changing one noise source never perturbs the other streams.  Each
channel draws from ``pairs``, ``pair-jitter``, ``umi`` and ``raman``,
each detected stream from its own ``detector``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, franson, ring_source, sfg
from .channel_plan import ChannelPair
from .detection import DetectionArm, DetectorSpec, LossLedger, apply_detector, passive_groups
from .events import (
    CoincidenceConfig,
    EventStream,
    WindowCounts,
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
        return next(p for p in self.plan if p.signal_label == self.active_label)

    @property
    def signal_stream_label(self) -> str:
        return f"{self.active_label}'" if self.convert_signal else self.active_label

    def signal_detector(self) -> DetectorSpec:
        return self.apd2 if self.convert_signal else self.apd1


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

    def signal_arm_survival(self, label: str) -> float:
        """Share of pair ``label``'s signal photons that reach the signal detector:
        passive survival x conversion efficiency x acceptance."""
        return self.signal_survival * self.eta_quantum * self.acceptance[label]


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
        eta_q = sfg.quantum_efficiency(config.curve, config.sfg_pump.power_mw)
        # one call per channel: np.sinc over a longer array can differ in the last bit
        acceptance = {
            pair.label: sfg.relative_efficiency(
                config.crystal, pump_nm, pair.signal.center_wavelength_nm)
            for pair in pairs
        }
    else:
        pump_nm = None
        eta_q = 1.0
        acceptance = {pair.label: 1.0 if pair.label == active.label else 0.0
                      for pair in pairs}
    signal_groups, idler_groups = passive_groups(config.convert_signal)
    return OperatingPoint(
        pump_nm=pump_nm,
        eta_quantum=eta_q,
        acceptance=acceptance,
        signal_survival=config.signal_ledger.linear(signal_groups),
        idler_survival=config.idler_ledger.linear(idler_groups),
    )


@dataclass(frozen=True)
class RunResult:
    """Detected streams of one Monte Carlo run, the operating point it used,
    and the Poisson draw of generated pairs for each simulated pair label."""

    signal_stream: EventStream
    idler_streams: dict[str, EventStream]
    active_idler_label: str
    op: OperatingPoint
    generated_pairs: dict[str, int]

    @property
    def active_idler_stream(self) -> EventStream:
        return self.idler_streams[self.active_idler_label]


# pair delays beyond this many correlation times are cut from the Laplace law
JITTER_BOUND_SCALES = 5.0


def _truncated_laplace(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    """Double-exponential samples truncated at +-JITTER_BOUND_SCALES * scale.

    One inverse-CDF draw per sample: ``v ~ U(-1, 1)`` gives the sign and
    |x| = -scale * log(1 - |v| (1 - exp(-JITTER_BOUND_SCALES))).
    """
    v = rng.uniform(-1.0, 1.0, n)
    return np.copysign(-scale * np.log1p(np.abs(v) * np.expm1(-JITTER_BOUND_SCALES)), v)


def _lone_times(n: int, rng_pairs: np.random.Generator, rng_umi: np.random.Generator,
                duration_ps: int, delay_ps: int, include_umis: bool) -> np.ndarray:
    """Times of an arm's ``n`` unpaired photons, after its interferometer if in place.

    Their times are uniform and do not decide their paths, so routing is a
    split of the count (from ``rng_umi``; all ``n`` pass the short arm
    without interferometers): only the photons the interferometer passes
    get a time (from ``rng_pairs``), and the last ``n_long`` of them are
    delayed by the long arm.
    """
    n_short, n_long = sample_single_paths(n, rng_umi) if include_umis else (n, 0)
    t = rng_pairs.uniform(0.0, duration_ps, n_short + n_long)
    t[n_short:] += delay_ps
    return t


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

    def detect(label: str, parts: list[np.ndarray], detector: DetectorSpec) -> EventStream:
        # empties ``parts`` and drops each full-size buffer once the next is made
        t = np.concatenate(parts)
        parts.clear()
        t.sort()  # rounding keeps the order: the rounded times need no second sort
        stamps = np.rint(t, out=t).astype(np.int64)
        del t
        raw = EventStream.from_unsorted(label, stamps, config.duration_s, master)
        del stamps
        return apply_detector(raw, detector, sub_rng(master, "detector", label))

    pairs = config.plan if config.simulate_all_channels else (active,)
    sig_parts: list[np.ndarray] = []
    idler_streams: dict[str, EventStream] = {}
    generated_pairs: dict[str, int] = {}

    for pair in pairs:
        label = pair.label
        p_sig = op.signal_arm_survival(label)
        p_idl = op.idler_survival
        rate = ring_source.pair_rate(config.rates, config.chip_power_uw, label)

        rng_pairs = sub_rng(master, "pairs", label)
        rng_jit = sub_rng(master, "pair-jitter", label)
        rng_umi = sub_rng(master, "umi", label)
        rng_raman = sub_rng(master, "raman", label)

        n_total = generated_pairs[label] = int(rng_pairs.poisson(rate * config.duration_s))
        p_both = p_sig * p_idl
        p_sonly = p_sig * (1.0 - p_idl)
        p_ionly = (1.0 - p_sig) * p_idl
        n_both, n_sonly, n_ionly, _ = rng_pairs.multinomial(
            n_total, [p_both, p_sonly, p_ionly, 1.0 - p_both - p_sonly - p_ionly]
        )
        # each arm's unpaired photons, broken pairs plus linear-noise photons on
        # the same survival chain, are one uniform Poisson population
        raman_s = config.rates.raman_signal * config.chip_power_uw * p_sig
        raman_i = config.rates.raman_idler * config.chip_power_uw * p_idl
        n_lone_s = n_sonly + int(rng_raman.poisson(raman_s * config.duration_s))
        n_lone_i = n_ionly + int(rng_raman.poisson(raman_i * config.duration_s))

        t_sig = rng_pairs.uniform(0.0, duration_ps, n_both)
        t_idl = t_sig + _truncated_laplace(rng_jit, tau_ps, n_both)
        if config.include_umis:
            paths = sample_pair_paths(config.fringe, n_both, rng_umi)
            t_sig = np.compress(paths.signal_alive,
                                t_sig + np.where(paths.signal_long, delay_ps, 0.0))
            t_idl = np.compress(paths.idler_alive,
                                t_idl + np.where(paths.idler_long, delay_ps, 0.0))
        lone_s, lone_i = (
            _lone_times(n, rng_pairs, rng_umi, duration_ps, delay_ps, config.include_umis)
            for n in (n_lone_s, n_lone_i))
        # a channel not routed to the signal detector has p_sig = 0: no signal photons
        sig_parts += [t_sig, lone_s]
        idl_parts = [t_idl, lone_i]
        del t_sig, t_idl, lone_s, lone_i  # held by the part lists alone, which detect empties
        idler_streams[pair.idler_label] = detect(pair.idler_label, idl_parts, config.apd1)

    signal_stream = detect(config.signal_stream_label, sig_parts, config.signal_detector())
    return RunResult(signal_stream, idler_streams, active.idler_label, op, generated_pairs)


def detection_arms(config: ScenarioConfig,
                   op: OperatingPoint | None = None) -> tuple[DetectionArm, DetectionArm]:
    """Analytic detection arms matching the Monte Carlo survival chain.

    Interferometers are not included (use them for coincidence scenarios
    without the fringe analysis, e.g. CAR sweeps with
    ``include_umis=False``).  ``op`` defaults to ``operating_point(config)``.
    """
    if op is None:
        op = operating_point(config)
    arm_signal = DetectionArm(op.signal_arm_survival(config.active_pair.label),
                              config.signal_detector())
    return arm_signal, DetectionArm(op.idler_survival, config.apd1)


# ---------------------------------------------------------------------------
# Scenario pipelines


def fringe_scan(config: ScenarioConfig, phases_rad: np.ndarray,
                accumulation_s: float, scan_name: str = "fringe",
                op: OperatingPoint | None = None) -> analysis.FringeScan:
    """Monte Carlo fringe scan: one run per phase point of the signal UMI.

    Each point runs with its own derived seed.  The per-point background
    estimate is the pooled far-window rate of the whole scan, rescaled to
    the central window: the accidental floor is phase independent, so
    pooling is both the lower-variance and the physically honest choice.
    ``op`` defaults to ``operating_point(config)``.
    """
    period = franson.temperature_tuning_period_k(config.signal_umi)
    if op is None:
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
        pooled_bg = total_bg * win.background_scale / n_pts
        temperature = config.signal_umi.reference_temperature_k + phi / (2.0 * np.pi) * period
        points.append(analysis.FringePoint(
            phase_rad=phi,
            center_counts=win.center,
            background_counts=pooled_bg,
            temperature_k=temperature,
        ))
    return analysis.FringeScan(points=tuple(points))


def demux_crosstalk(config: ScenarioConfig, duration_s: float) -> dict:
    """Address each channel in turn and coincide the converted stream with every idler.

    Returns the crosstalk matrix (addressed signal label -> idler label ->
    ``WindowCounts``), the solved pump wavelengths and the runs
    themselves, one of ``duration_s`` per addressed channel.  Matched
    entries should tower over the accidental floor; mismatched entries
    should sit on it, suppressed by the conversion acceptance.
    """
    matrix: dict[str, dict[str, WindowCounts]] = {}
    pumps: dict[str, float] = {}
    runs: dict[str, RunResult] = {}
    for pair in config.plan:
        cfg = replace(
            config,
            active_label=pair.signal_label,
            duration_s=duration_s,
            seed=sub_seed(config.seed, "demux", pair.signal_label),
            simulate_all_channels=True,
            convert_signal=True,
        )
        run = runs[pair.signal_label] = generate_run(cfg)
        pumps[pair.signal_label] = float(run.op.pump_nm)
        row: dict[str, WindowCounts] = {}
        for other in config.plan:
            hist = histogram(
                run.signal_stream, run.idler_streams[other.idler_label], config.coincidence
            )
            row[other.idler_label] = central_window_counts(
                hist, config.coincidence.window_ns,
                side_delay_ns=config.signal_umi.delay_ns,
            )
        matrix[pair.signal_label] = row
    return {"matrix": matrix, "pump_nm": pumps, "runs": runs}
