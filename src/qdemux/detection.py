"""Loss bookkeeping, detector models, and coincidence/accidental arithmetic.

Losses are tracked as ordered decibel entries so reports can show both
group subtotals and overall arm efficiencies.  The analytic
coincidence-to-accidental ratio (CAR) combines the quadratic pair rate
with the flat accidental background computed from singles rates; dark
counts make the CAR rise and then fall with pump power, and extra arm
loss pushes the optimum to higher power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ring_source
from .events import EventStream
from .ring_source import SfwmRates


def db_to_linear(loss_db: float) -> float:
    """Transmission fraction for a loss in dB."""
    return 10.0 ** (-loss_db / 10.0)


def linear_to_db(transmission: float) -> float:
    """Loss in dB for a transmission fraction in (0, 1]."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    return -10.0 * np.log10(transmission)


# Where a loss sits in the chain, in the order a signal photon meets them.
LOSS_GROUPS = ("chip", "filters", "sfg_passive", "conversion", "detector")


@dataclass(frozen=True)
class LossEntry:
    """One named loss contribution [dB].

    ``group`` tags where the loss sits in the chain (one of
    ``LOSS_GROUPS``); reports and the Monte Carlo pipeline use the tags
    to form subtotals.
    """

    name: str
    loss_db: float
    group: str = ""

    def __post_init__(self) -> None:
        if self.loss_db < 0:
            raise ValueError(
                f"loss_db: loss entry {self.name!r} must be nonnegative, got {self.loss_db} dB")


@dataclass(frozen=True)
class LossLedger:
    """Ordered loss entries for one detection arm."""

    entries: tuple[LossEntry, ...]
    role: str = ""

    def total_db(self, groups: tuple[str, ...] | None = None) -> float:
        """Sum of entries, optionally restricted to the given groups."""
        return float(sum(
            e.loss_db for e in self.entries if groups is None or e.group in groups
        ))

    def linear(self, groups: tuple[str, ...] | None = None) -> float:
        return db_to_linear(self.total_db(groups))

    def excluding(self, groups: tuple[str, ...]) -> "LossLedger":
        return LossLedger(
            entries=tuple(e for e in self.entries if e.group not in groups),
            role=self.role,
        )


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector: efficiency, darks, dead time, timing jitter."""

    efficiency: float
    dark_rate_hz: float = 0.0
    dead_time_us: float = 0.0
    timing_jitter_sigma_ps: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency: must be in (0, 1], got {self.efficiency}")
        if self.dark_rate_hz < 0:
            raise ValueError(f"dark_rate_hz: must be >= 0, got {self.dark_rate_hz}")
        if self.dead_time_us < 0:
            raise ValueError(f"dead_time_us: dead time must be >= 0, got {self.dead_time_us} us")
        if self.timing_jitter_sigma_ps < 0:
            raise ValueError(
                f"timing_jitter_sigma_ps: must be >= 0, got {self.timing_jitter_sigma_ps}")


def accidental_rate(singles_a_hz: float, singles_b_hz: float, window_ns: float) -> float:
    """Accidental coincidence rate [1/s]: R_a * R_b * window.

    Flat-background approximation, valid when both singles streams are
    uncorrelated on the scale of the window.
    """
    if singles_a_hz < 0 or singles_b_hz < 0:
        raise ValueError("singles rates must be >= 0")
    return singles_a_hz * singles_b_hz * window_ns * 1e-9


@dataclass(frozen=True)
class DetectionArm:
    """One detection chain: passive losses, detector, optional conversion factor.

    ``conversion_efficiency`` multiplies the arm efficiency for chains
    that include photon-wise frequency conversion; leave at 1.0 for a
    passive arm.  The ledger here must not double-count the detector
    efficiency (keep detector entries out of it).
    """

    ledger: LossLedger
    detector: DetectorSpec
    conversion_efficiency: float = 1.0

    def efficiency(self) -> float:
        return self.ledger.linear() * self.detector.efficiency * self.conversion_efficiency


def car_curve(source: SfwmRates, arm_signal: DetectionArm, arm_idler: DetectionArm,
              window_ns: float, pump_power_uw, label: str | None = None):
    """Analytic coincidence-to-accidental ratio versus on-chip pump power.

    CAR(P) = eta_s * eta_i * R_pair(P) / (S_s(P) * S_i(P) * window)

    where each singles rate includes the quadratically growing pair
    photons, linear Raman noise, and the detector's dark counts.  Returns
    NaN where the accidental rate vanishes (all noise off at P = 0).
    Accepts a scalar or an array of powers.
    """
    p = np.asarray(pump_power_uw, dtype=float)
    if np.any(p < 0):
        raise ValueError("pump power must be >= 0")
    eta_s = arm_signal.efficiency()
    eta_i = arm_idler.efficiency()
    pairs = source.pair_coefficient * source.channel_enhancement(label or "") * p**2
    c_true = eta_s * eta_i * pairs
    s_sig = np.array([
        ring_source.singles_rate(source, pi, "signal", eta_s,
                                 arm_signal.detector.dark_rate_hz, label)
        for pi in np.atleast_1d(p)
    ])
    s_idl = np.array([
        ring_source.singles_rate(source, pi, "idler", eta_i,
                                 arm_idler.detector.dark_rate_hz, label)
        for pi in np.atleast_1d(p)
    ])
    acc = s_sig * s_idl * window_ns * 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        car = np.where(acc > 0, np.atleast_1d(c_true) / acc, np.nan)
    return car if p.ndim else float(car[0])


def apply_detector(stream: EventStream, spec: DetectorSpec,
                   seed: int | np.random.Generator) -> EventStream:
    """Detect a photon stream: thinning, jitter, dark counts, dead time.

    Stages, in order: Bernoulli survival at the detector efficiency,
    Gaussian timing smear, merge of Poisson dark events, then
    non-paralyzable dead-time pruning of the combined record.  The result
    is time-sorted and deterministic for a fixed seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = stream.timestamps_ps
    duration_ps = stream.duration_ps

    if spec.efficiency < 1.0:
        t = t[rng.random(t.size) < spec.efficiency]
    if spec.timing_jitter_sigma_ps > 0 and t.size:
        t = t + np.rint(rng.normal(0.0, spec.timing_jitter_sigma_ps, t.size)).astype(np.int64)
    if spec.dark_rate_hz > 0:
        n_dark = rng.poisson(spec.dark_rate_hz * stream.duration_s)
        dark = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
        t = np.concatenate([t, dark])
    t = np.unique(t)
    t = t[(t >= 0) & (t < duration_ps)]
    if spec.dead_time_us > 0 and t.size:
        t = _prune_dead_time(t, int(round(spec.dead_time_us * 1e6)))
    return EventStream(stream.label, t, stream.duration_s, stream.seed)


def _prune_dead_time(t: np.ndarray, dead_ps: int) -> np.ndarray:
    """Non-paralyzable dead time: greedy keep of the first event of each burst.

    Iteratively drops the first offender of every too-close run; each pass
    resolves one layer of pile-up, so sparse streams converge in a couple
    of passes.  Falls back to an explicit scan for pathological pile-up.
    """
    keep = np.ones(t.size, dtype=bool)
    for _ in range(64):
        kept = t[keep]
        close = np.diff(kept) < dead_ps
        if not close.any():
            return kept
        first_of_run = close & ~np.concatenate(([False], close[:-1]))
        drop_local = np.nonzero(first_of_run)[0] + 1
        keep_idx = np.nonzero(keep)[0]
        keep[keep_idx[drop_local]] = False
    # dense stream: do it exactly, one event at a time
    out = []
    last = -dead_ps
    for ti in t[keep]:
        if ti - last >= dead_ps:
            out.append(ti)
            last = ti
    return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Report helpers


def loss_report(signal_ledger: LossLedger, idler_ledger: LossLedger) -> dict:
    """Headline loss figures for both arms.

    The signal arm is reported twice: once without the detector (the
    figure usually quoted for the optical chain) and once including it,
    because the two conventions differ by the detector's dB and are easy
    to confuse.
    """
    sfg_module_db = signal_ledger.total_db(groups=("sfg_passive", "conversion"))
    signal_optical_db = signal_ledger.total_db(groups=("chip", "filters")) + sfg_module_db
    return {
        "sfg_module_db": sfg_module_db,
        "idler_total_db": idler_ledger.total_db(),
        "signal_optical_db": signal_optical_db,
        "signal_total_db": signal_ledger.total_db(),
    }


def format_ledger_table(ledger: LossLedger) -> str:
    """Aligned text table of a ledger with its total."""
    width = max([len(e.name) for e in ledger.entries] + [len("total")])
    lines = [f"{ledger.role or 'arm'}:"]
    for e in ledger.entries:
        group = f"  [{e.group}]" if e.group else ""
        lines.append(f"  {e.name:<{width}}  {e.loss_db:6.2f} dB{group}")
    total = ledger.total_db()
    lines.append(f"  {'total':<{width}}  {total:6.2f} dB  (x{db_to_linear(total):.4g})")
    return "\n".join(lines)
