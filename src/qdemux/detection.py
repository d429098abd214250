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
from .events import EventStream, assemble_timestamps
from .ring_source import SfwmRates


def db_to_linear(loss_db: float) -> float:
    """Transmission fraction for a loss in dB."""
    return 10.0 ** (-loss_db / 10.0)


# Where a loss sits in the chain, in the order a signal photon meets them.
LOSS_GROUPS = ("chip", "filters", "sfg_passive", "conversion", "detector")


def passive_groups(convert_signal: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Loss groups that count as passive survival: (signal arm, idler arm).

    Conversion and detection are stages of their own; the SFG module's
    passive losses apply only when the signal is converted.  The idler arm
    counts every loss but its detector's.
    """
    signal = ("chip", "filters", "sfg_passive") if convert_signal else ("chip", "filters")
    return signal, tuple(g for g in LOSS_GROUPS if g != "detector")


@dataclass(frozen=True)
class LossEntry:
    """One named loss contribution [dB].

    ``group`` tags where the loss sits in the chain (one of
    ``LOSS_GROUPS``); reports and the Monte Carlo pipeline use the tags
    to form subtotals.
    """

    name: str
    loss_db: float
    group: str

    def __post_init__(self) -> None:
        if self.loss_db < 0:
            raise ValueError(
                f"loss_db: loss entry {self.name!r} must be nonnegative, got {self.loss_db} dB")
        if self.group not in LOSS_GROUPS:
            raise ValueError(f"group: expected one of {list(LOSS_GROUPS)}, got {self.group!r}")


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


@dataclass(frozen=True)
class DetectionArm:
    """One detection chain: the share of photons that reach the detector, and the detector.

    ``survival`` is everything before the detector (passive losses and,
    for a converted arm, conversion efficiency times acceptance); it must
    not count the detector efficiency again.
    """

    survival: float
    detector: DetectorSpec

    def efficiency(self) -> float:
        return self.survival * self.detector.efficiency


def coincidence_rates(source: SfwmRates, arm_signal: DetectionArm, arm_idler: DetectionArm,
                      window_ns: float, pump_power_uw, label: str | None = None):
    """``(true, accidental)`` coincidence rates [1/s] versus on-chip pump power.

    true = eta_s * eta_i * R_pair(P), all inside the window; accidental =
    S_s(P) * S_i(P) * window, where each singles rate holds the pair
    photons, linear Raman noise and the detector's darks.  Accepts a
    scalar or an array of powers.
    """
    eta_s = arm_signal.efficiency()
    eta_i = arm_idler.efficiency()
    true = eta_s * eta_i * ring_source.pair_rate(source, pump_power_uw, label)
    s_sig = ring_source.singles_rate(source, pump_power_uw, "signal", eta_s,
                                     arm_signal.detector.dark_rate_hz, label)
    s_idl = ring_source.singles_rate(source, pump_power_uw, "idler", eta_i,
                                     arm_idler.detector.dark_rate_hz, label)
    return true, s_sig * s_idl * window_ns * 1e-9


def car_curve(source: SfwmRates, arm_signal: DetectionArm, arm_idler: DetectionArm,
              window_ns: float, pump_power_uw, label: str | None = None):
    """Analytic coincidence-to-accidental ratio versus on-chip pump power.

    The ratio of the two :func:`coincidence_rates`; NaN where the
    accidental rate vanishes (all noise off at P = 0).  Accepts a scalar
    or an array of powers.
    """
    p = np.atleast_1d(np.asarray(pump_power_uw, dtype=float))
    c_true, acc = coincidence_rates(source, arm_signal, arm_idler, window_ns, p, label)
    with np.errstate(divide="ignore", invalid="ignore"):
        car = np.where(acc > 0, c_true / acc, np.nan)
    return car if np.ndim(pump_power_uw) else float(car[0])


def apply_detector(stream: EventStream, spec: DetectorSpec,
                   seed: int | np.random.Generator) -> EventStream:
    """Detect a photon stream: thinning, jitter, dark counts, dead time.

    Stages, in order: Bernoulli survival at the detector efficiency,
    Gaussian timing smear, merge of Poisson dark events, then
    non-paralyzable dead time on the combined record (J. W. Mueller, Nucl.
    Instrum. Methods 112, 47 (1973)): an event is kept only if it comes at
    least the dead time after the last kept event, so one at least the
    dead time after the previous event is always kept.  The result is
    time-sorted and deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    t = stream.timestamps_ps
    duration_ps = stream.duration_ps

    if spec.efficiency < 1.0:
        t = np.compress(rng.random(t.size) < spec.efficiency, t)
    if spec.timing_jitter_sigma_ps > 0 and t.size:
        t = t + np.rint(rng.normal(0.0, spec.timing_jitter_sigma_ps, t.size)).astype(np.int64)
    if spec.dark_rate_hz > 0:
        n_dark = rng.poisson(spec.dark_rate_hz * stream.duration_s)
        dark = rng.integers(0, duration_ps, size=n_dark, dtype=np.int64)
        t = np.concatenate([t, np.sort(dark)])
    if spec.timing_jitter_sigma_ps > 0 or spec.dark_rate_hz > 0:
        # in order but where jitter swapped neighbours and where the darks' run
        # starts: a stable sort (timsort) merges such runs in about one pass
        t = np.sort(t, kind="stable")
    t = assemble_timestamps(t, duration_ps)
    if spec.dead_time_us > 0 and t.size:
        t = _prune_dead_time(t, int(round(spec.dead_time_us * 1e6)))
    return EventStream(stream.label, t, stream.duration_s, stream.seed)


def _prune_dead_time(t: np.ndarray, dead_ps: int) -> np.ndarray:
    """Keep each event of sorted ``t`` at least ``dead_ps`` after the last kept one.

    An event at least ``dead_ps`` after its predecessor is always kept, as
    the last kept event is no later than that predecessor.  So only the
    closer events can go, and the first of each run of them goes: its
    predecessor opened the run and was kept.  Only the later ones of a run
    are scanned, in order, starting from the run's opener.
    """
    close = np.flatnonzero(np.diff(t) < dead_ps) + 1
    chained = close[1:][np.diff(close) == 1]
    kept, prev = [], -1
    # memoryviews make one Python int at a time, not lists of them
    for i, ti, t_opener in zip(memoryview(chained), memoryview(t[chained]),
                               memoryview(t[chained - 2])):
        if i - 1 != prev:
            last = t_opener
        if ti - last >= dead_ps:
            kept.append(i)
            last = ti
        prev = i
    keep = np.ones(t.size, dtype=bool)
    keep[close] = False
    keep[kept] = True
    return t[keep]


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
        lines.append(f"  {e.name:<{width}}  {e.loss_db:6.2f} dB  [{e.group}]")
    total = ledger.total_db()
    lines.append(f"  {'total':<{width}}  {total:6.2f} dB  (x{db_to_linear(total):.4g})")
    return "\n".join(lines)
