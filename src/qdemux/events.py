"""Timestamped detection events, coincidence histograms, and tag-file I/O.

Time is integer picoseconds throughout: coincidence windows (0.8 ns) and
interferometer delays (1.6 ns) are exactly representable, file round
trips are lossless, and sorting is exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CoincidenceConfig:
    """Coincidence window and histogram binning."""

    window_ns: float = 0.8
    histogram_bin_ps: int = 100
    histogram_span_ns: float = 5.0

    def __post_init__(self) -> None:
        if self.window_ns <= 0:
            raise ValueError(f"window_ns: window must be positive, got {self.window_ns} ns")
        if self.histogram_bin_ps <= 0:
            raise ValueError(f"histogram_bin_ps: must be positive, got {self.histogram_bin_ps} ps")
        if self.histogram_bin_ps > self.window_ns * 1000.0:
            raise ValueError(
                f"histogram_bin_ps: bin ({self.histogram_bin_ps} ps) must not exceed the window "
                f"({self.window_ns} ns)"
            )
        if self.histogram_span_ns <= 0:
            raise ValueError(
                f"histogram_span_ns: must be positive, got {self.histogram_span_ns} ns")


@dataclass(frozen=True)
class EventStream:
    """One detector channel's timestamps [ps], strictly increasing."""

    label: str
    timestamps_ps: np.ndarray
    duration_s: float
    seed: int

    def __post_init__(self) -> None:
        t = np.asarray(self.timestamps_ps, dtype=np.int64)
        object.__setattr__(self, "timestamps_ps", t)
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s} s")
        if t.size:
            if np.any(np.diff(t) <= 0):
                raise ValueError(f"stream {self.label!r}: timestamps must be strictly increasing")
            if t[0] < 0 or t[-1] >= self.duration_ps:
                raise ValueError(
                    f"stream {self.label!r}: timestamps outside [0, {self.duration_ps}) ps"
                )
        t.flags.writeable = False

    @property
    def duration_ps(self) -> int:
        return int(round(self.duration_s * 1e12))

    @property
    def count(self) -> int:
        return int(self.timestamps_ps.size)

    @property
    def rate_hz(self) -> float:
        return self.count / self.duration_s

    @classmethod
    def from_unsorted(cls, label: str, timestamps_ps: np.ndarray, duration_s: float,
                      seed: int) -> "EventStream":
        """Sort, deduplicate, and clip raw timestamps into a valid stream."""
        t = np.asarray(timestamps_ps, dtype=np.int64)
        t = np.unique(t)  # sorts and removes exact collisions
        t = t[(t >= 0) & (t < int(round(duration_s * 1e12)))]
        return cls(label, t, duration_s, seed)


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Counts of arrival-time differences (b - a) in bins centred on zero.

    Bin centres run from -span to +span in steps of ``bin_width_ps``; the
    middle bin is centred exactly on zero delay, so mirrored delays fall
    in mirrored bins.
    """

    bin_width_ps: int
    centers_ps: np.ndarray
    counts: np.ndarray
    total_pairs_examined: int
    label_a: str = ""
    label_b: str = ""

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.counts) < 0):
            raise ValueError("histogram counts must be nonnegative")

    @property
    def span_ps(self) -> int:
        return int(self.centers_ps[-1])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate arange(s, s+l) for each start/length pair, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


def histogram(a: EventStream, b: EventStream, cfg: CoincidenceConfig) -> CoincidenceHistogram:
    """Histogram of all pairwise delays (b - a) within the configured span.

    Every event of ``a`` is paired with every event of ``b`` inside
    +-span (start/stop-free tagger semantics), via one linear merge pass
    over the sorted streams.
    """
    bin_ps = int(cfg.histogram_bin_ps)
    span_ps = int(round(cfg.histogram_span_ns * 1000.0))
    n_half = span_ps // bin_ps
    centers = np.arange(-n_half, n_half + 1, dtype=np.int64) * bin_ps

    ta = a.timestamps_ps
    tb = b.timestamps_ps
    lo = np.searchsorted(tb, ta - span_ps, side="left")
    hi = np.searchsorted(tb, ta + span_ps, side="right")
    per = (hi - lo).astype(np.int64)
    total = int(per.sum())
    if total:
        nz = per > 0
        idx = _ranges(lo[nz], per[nz])
        delays = tb[idx] - np.repeat(ta, per)
        bins = np.rint(delays / bin_ps).astype(np.int64)
        keep = np.abs(bins) <= n_half
        counts = np.bincount(bins[keep] + n_half, minlength=2 * n_half + 1)
    else:
        counts = np.zeros(2 * n_half + 1, dtype=np.int64)
    return CoincidenceHistogram(
        bin_width_ps=bin_ps,
        centers_ps=centers,
        counts=counts.astype(np.int64),
        total_pairs_examined=total,
        label_a=a.label,
        label_b=b.label,
    )


@dataclass(frozen=True)
class WindowCounts:
    """Integrals of a coincidence histogram over the three-peak structure.

    ``background_per_window`` is the far-background count rescaled to the
    same number of bins as the central window, so center, sidebands and
    background are directly comparable.
    """

    center: int
    early: int
    late: int
    background_raw: int
    background_bins: int
    window_bins: int

    @property
    def background_per_window(self) -> float:
        if self.background_bins == 0:
            return float("nan")
        return self.background_raw * self.window_bins / self.background_bins

    @property
    def background_sigma_per_window(self) -> float:
        """Poisson error of the rescaled background (floor of one count)."""
        if self.background_bins == 0:
            return float("nan")
        scale = self.window_bins / self.background_bins
        return float(np.sqrt(max(self.background_raw, 1)) * scale)


def central_window_counts(h: CoincidenceHistogram, window_ns: float,
                          side_delay_ns: float = 1.6,
                          background_start_ns: float | None = None) -> WindowCounts:
    """Integrate the central peak, both side peaks, and the far background.

    The background region excludes all three peaks; its count is reported
    rescaled per central-window width.  Rejects windows wide enough to
    overlap the side peaks, and windows larger than a quarter span.
    """
    window_ps = window_ns * 1000.0
    side_ps = side_delay_ns * 1000.0
    span_ps = h.span_ps
    if window_ps > span_ps / 4.0:
        raise ValueError(
            f"window {window_ns} ns exceeds a quarter of the histogram span "
            f"{span_ps / 1000.0} ns"
        )
    if side_ps < window_ps:
        raise ValueError(
            f"window {window_ns} ns overlaps the side peaks at +-{side_delay_ns} ns"
        )
    if background_start_ns is None:
        background_start_ns = side_delay_ns + window_ns / 2.0 + 2.0 * window_ns
    bg_start_ps = background_start_ns * 1000.0
    if bg_start_ps >= span_ps:
        raise ValueError(
            f"background region start {background_start_ns} ns outside the span"
        )

    c = h.centers_ps.astype(float)
    in_center = np.abs(c) <= window_ps / 2.0
    in_early = np.abs(c - side_ps) <= window_ps / 2.0
    in_late = np.abs(c + side_ps) <= window_ps / 2.0
    in_bg = np.abs(c) >= bg_start_ps
    return WindowCounts(
        center=int(h.counts[in_center].sum()),
        early=int(h.counts[in_early].sum()),
        late=int(h.counts[in_late].sum()),
        background_raw=int(h.counts[in_bg].sum()),
        background_bins=int(in_bg.sum()),
        window_bins=int(in_center.sum()),
    )


# ---------------------------------------------------------------------------
# Tag-file I/O: CSV of (channel, time_ps) plus a JSON sidecar manifest.


def _manifest_path(path: Path) -> Path:
    return path.with_suffix(".manifest.json")


def write_streams(streams: list[EventStream], path: str | Path,
                  config_digest: str = "") -> Path:
    """Write streams to a tag CSV with a sidecar manifest; returns the CSV path.

    Rows are ``channel,time_ps`` with timestamps ascending per channel.
    The manifest records duration, seed, labels, and the scenario digest
    so a written run can be re-analyzed without its original config.
    """
    if not streams:
        raise ValueError("no streams to write")
    duration = streams[0].duration_s
    seed = streams[0].seed
    for s in streams:
        if s.duration_s != duration:
            raise ValueError("all streams in one tag file must share a duration")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "time_ps"])
        for s in streams:
            for t in s.timestamps_ps:
                writer.writerow([s.label, int(t)])
    manifest = {
        "duration_s": duration,
        "seed": seed,
        "config_digest": config_digest,
        "labels": [s.label for s in streams],
    }
    _manifest_path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_streams(path: str | Path) -> tuple[list[EventStream], dict]:
    """Read a tag CSV and its manifest back into streams.

    Raises ``ValueError`` naming the file and the offending line for
    malformed rows and rows of a channel the manifest does not list, and
    the file and the offending channel for timestamps that are not
    strictly increasing or fall outside ``[0, duration)``.
    """
    path = Path(path)
    manifest = json.loads(_manifest_path(path).read_text())
    per_label: dict[str, list[int]] = {label: [] for label in manifest["labels"]}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["channel", "time_ps"]:
            raise ValueError(f"{path}: line 1: expected header 'channel,time_ps', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            label, raw = row
            try:
                t = int(raw)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: time_ps {raw!r} is not an integer"
                ) from None
            try:
                per_label[label].append(t)
            except KeyError:
                raise ValueError(
                    f"{path}: line {lineno}: channel {label!r} not in the manifest's "
                    f"labels {manifest['labels']}"
                ) from None
    streams = []
    for label in manifest["labels"]:
        t = np.asarray(per_label[label], dtype=np.int64)
        try:
            streams.append(EventStream(label, t, manifest["duration_s"], manifest["seed"]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return streams, manifest
