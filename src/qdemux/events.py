"""Timestamped detection events, coincidence histograms, and tag-file I/O.

Time is integer picoseconds throughout: coincidence windows (0.8 ns) and
interferometer delays (1.6 ns) are exactly representable, file round
trips are lossless, and sorting is exact.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NoReturn

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
            if np.any(t[1:] <= t[:-1]):
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
        return cls(label, assemble_timestamps(timestamps_ps, int(round(duration_s * 1e12))),
                   duration_s, seed)


def assemble_timestamps(timestamps_ps: np.ndarray, duration_ps: int) -> np.ndarray:
    """Raw timestamps sorted, with exact repeats dropped, clipped to ``[0, duration_ps)``.

    The same array as ``np.unique`` followed by the clip, always a new one.
    Sorted input, as ``generate_run`` and ``apply_detector`` pass, is not
    sorted again: on 1.15 M sorted int64 timestamps the check for a descent
    takes 0.8 ms and ``np.sort`` 16 ms (numpy 2.4.6, one core of a 2-core
    Xeon).  The clip is two binary searches and the repeats one comparison
    of neighbours (``np.unique`` on int64 is a hash table in numpy 2.x).
    """
    t = np.asarray(timestamps_ps, dtype=np.int64)
    if np.any(t[1:] < t[:-1]):
        t = np.sort(t)
    t = t[np.searchsorted(t, 0):np.searchsorted(t, duration_ps)]
    keep = np.empty(t.size, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


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
    """Histogram of all pairwise delays (b - a) in bins centred within the span.

    Every event of ``a`` is paired with every event of ``b`` (start/stop-free
    tagger semantics) whose delay rounds to a bin centre within +-span, out
    to the outer edge of the outermost bins, so every bin is a full bin
    wide.  Each event of ``a`` costs one binary search for its window's
    start; the rest runs only on windows that hold an event of ``b`` (1-3 %
    of them at the baseline).
    """
    bin_ps = int(cfg.histogram_bin_ps)
    span_ps = int(round(cfg.histogram_span_ns * 1000.0))
    n_half = span_ps // bin_ps
    centers = np.arange(-n_half, n_half + 1, dtype=np.int64) * bin_ps
    reach_ps = n_half * bin_ps + bin_ps // 2  # the outer edge of the outermost bins

    ta = a.timestamps_ps
    tb = b.timestamps_ps
    lo = np.searchsorted(tb, ta - reach_ps, side="left")
    held = lo < tb.size
    held[held] = tb[lo[held]] <= ta[held] + reach_ps
    ta, lo = ta[held], lo[held]
    per = np.searchsorted(tb, ta + reach_ps, side="right") - lo
    delays = tb[_ranges(lo, per)] - np.repeat(ta, per)
    bins = np.rint(delays / bin_ps).astype(np.int64)
    keep = np.abs(bins) <= n_half
    counts = np.bincount(bins[keep] + n_half, minlength=2 * n_half + 1)
    return CoincidenceHistogram(
        bin_width_ps=bin_ps,
        centers_ps=centers,
        counts=counts.astype(np.int64),
        total_pairs_examined=int(per.sum()),
    )


@dataclass(frozen=True)
class WindowCounts:
    """Integrals of a coincidence histogram over the three-peak structure.

    ``background_per_window`` is the far-background count rescaled to the
    same number of bins as the central window, so center, sidebands and
    background are directly comparable.  Only ``central_window_counts``
    makes these, and it guarantees a nonempty background region.
    """

    center: int
    early: int
    late: int
    background_raw: int
    background_bins: int
    window_bins: int

    @property
    def background_scale(self) -> float:
        """Central-window bins per background bin."""
        return self.window_bins / self.background_bins

    @property
    def background_per_window(self) -> float:
        return self.background_raw * self.window_bins / self.background_bins

    @property
    def background_sigma_per_window(self) -> float:
        """Poisson error of the rescaled background (floor of one count)."""
        return float(np.sqrt(max(self.background_raw, 1)) * self.background_scale)

    @property
    def sigma(self) -> float:
        """Poisson error of center minus background (floor of one center count)."""
        return float(np.sqrt(max(self.center, 1) + self.background_sigma_per_window**2))


def central_window_counts(h: CoincidenceHistogram, window_ns: float,
                          side_delay_ns: float = 1.6,
                          background_start_ns: float | None = None) -> WindowCounts:
    """Integrate the central peak, both side peaks, and the far background.

    The only reader of a histogram's windows: every CAR, crosstalk cell
    and fringe point is read from its result.  The background region is
    every bin at least ``background_start_ns`` from zero delay, by default
    two windows past the outer edge of the side peaks, so that their tails
    stay out of it; its count is reported rescaled per central-window
    width.  Rejects windows wide enough to overlap the side peaks, windows
    larger than a quarter span, and a background start at or inside the
    central window's edge or at or past the last bin centre.
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
    if not window_ps / 2.0 < bg_start_ps < span_ps:
        raise ValueError(
            f"background region start {background_start_ns} ns must lie between the "
            f"central window edge {window_ns / 2.0} ns and the span {span_ps / 1000.0} ns"
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

# Rows per block written, and bytes per block read (that many rows of 16
# bytes): large enough that the per-block Python cost vanishes, small enough
# that one block's bytes and digit matrices stay a few MB.
_BLOCK_ROWS = 16_384
_BLOCK_BYTES = 16 * _BLOCK_ROWS
_HEADER = "channel,time_ps"
# The byte parser reads times of at most 18 digits, which int64 always holds;
# the writer cuts a block at the powers of ten from 10 to 10**18.
_MAX_DIGITS = 18
_TENS = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)


def _manifest_path(path: Path) -> Path:
    return path.with_suffix(".manifest.json")


def write_streams(streams: list[EventStream], path: str | Path,
                  config_digest: str = "") -> Path:
    """Write streams to a tag CSV with a sidecar manifest; returns the CSV path.

    The CSV is UTF-8: a ``channel,time_ps`` header then one
    ``label,time_ps`` row per event, each line ended by CRLF, one stream
    after another in the given order, timestamps ascending within each.
    Labels are written unquoted, so a label must not contain a comma, a
    double quote, CR or LF.  The manifest records duration, seed, labels,
    and the scenario digest so a written run can be re-analyzed without its
    original config.

    Since times ascend, the rows of a block that share a digit count are
    contiguous; each such run is formatted as one byte matrix (label and
    comma, digits, CRLF), the same bytes as ``csv.writer``.

    Raises ``ValueError`` naming the stream for a file ``read_streams``
    could not read back or whose manifest would misstate it: a duration
    or seed other than the first stream's, a repeated label, or a label
    with one of the characters above.
    """
    if not streams:
        raise ValueError("no streams to write")
    first = streams[0]
    labels: list[str] = []
    for s in streams:
        if s.duration_s != first.duration_s:
            raise ValueError(f"stream {s.label!r}: duration {s.duration_s} s differs from "
                             f"{first.duration_s} s; all streams in one tag file must share "
                             f"a duration")
        if s.seed != first.seed:
            raise ValueError(f"stream {s.label!r}: seed {s.seed} differs from {first.seed}; "
                             f"all streams in one tag file must share a seed")
        if s.label in labels:
            raise ValueError(f"stream {s.label!r}: label appears twice; each stream of a "
                             f"tag file needs its own")
        if any(c in s.label for c in ',"\r\n'):
            raise ValueError(f"stream {s.label!r}: a label must not contain a comma, a double "
                             f"quote, CR or LF")
        labels.append(s.label)
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"{_HEADER}\r\n".encode())
        for s in streams:
            prefix = np.frombuffer(f"{s.label},".encode(), dtype=np.uint8)
            for start in range(0, s.count, _BLOCK_ROWS):
                block = s.timestamps_ps[start:start + _BLOCK_ROWS]
                ends = [*np.searchsorted(block, _TENS).tolist(), block.size]
                for digits, (lo, hi) in enumerate(zip([0, *ends], ends), start=1):
                    if hi > lo:
                        fh.write(_row_bytes(prefix, block[lo:hi], digits))
    manifest = {
        "duration_s": first.duration_s,
        "seed": first.seed,
        "config_digest": config_digest,
        "labels": labels,
    }
    _manifest_path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return path


def _row_bytes(prefix: np.ndarray, times: np.ndarray, digits: int) -> np.ndarray:
    """One row per time: ``prefix``, the time's ``digits`` decimal digits, CRLF."""
    rows = np.empty((times.size, prefix.size + digits + 2), dtype=np.uint8)
    rows[:, :prefix.size] = prefix
    rest = times
    for col in range(prefix.size + digits - 1, prefix.size - 1, -1):
        quot = rest // 10  # with the multiply-subtract below, faster than np.divmod
        rows[:, col] = rest - quot * 10
        rest = quot
    rows[:, prefix.size:-2] += ord("0")
    rows[:, -2:] = (ord("\r"), ord("\n"))
    return rows


def read_streams(path: str | Path,
                 labels: Iterable[str] | None = None) -> tuple[list[EventStream], dict]:
    """Read a UTF-8 tag CSV and its manifest (see ``read_manifest``) back into streams.

    Lines may end in CRLF, LF or CR, and blank lines are skipped.  Every
    other line must be ``label,time_ps``: an unquoted label that the
    manifest lists, as ``write_streams`` writes it, and a time that
    ``int()`` reads and int64 holds.

    ``labels`` picks the streams to build; they are returned in manifest
    order, each once.  ``None`` builds every stream.  Every row is checked
    as above, but the times of the other labels' rows are not converted
    (byte parser) or are dropped once their block is parsed (str parser),
    and their streams are never built: their order and range go unchecked.

    The file is read in binary blocks of whole lines, cut after an LF or a
    lone CR, never between the CR and LF of a CRLF.  A block whose lines
    are all blank or in the form ``write_streams`` writes, each ended by
    CRLF or LF (or, in a block without LF, by CR), is parsed as byte
    matrices in numpy with no decoding.  Any other block (LF and lone CR
    line ends in one block, labels interleaved at one width as in a
    time-merged file, times that only ``int()`` reads, a last line without
    a line end, bytes that are not UTF-8) has its line ends mapped to LF,
    is decoded and goes to the str parser, and a block that parser refuses
    is searched for its first bad row (see ``_parse_block``).

    Raises ``ValueError`` as ``read_manifest`` does for a manifest; naming
    the file (or manifest), line and byte of a byte that is not UTF-8;
    naming the file and the offending line for a row without exactly 2
    fields, a time that is not such an integer, and a channel the manifest
    does not list; naming the file and the offending channel for
    timestamps of a built stream that are not strictly increasing or fall
    outside ``[0, duration)``; and naming the file, the label and the
    manifest's labels for a label of ``labels`` that the manifest does not
    list.
    """
    path = Path(path)
    manifest = read_manifest(path)
    names = manifest["labels"]
    index = {label: i for i, label in enumerate(names)}
    wanted = set()
    for label in names if labels is None else labels:
        if label not in index:
            raise ValueError(f"{path}: channel {label!r} not in the manifest's labels {names}")
        wanted.add(index[label])
    # The labels a row of the byte parser can name, by their UTF-8 bytes: a label with
    # a CR (a line end) or a lone surrogate (no UTF-8 form) is in no such row.
    row_index = {}
    for label, i in index.items():
        if "\r" not in label:
            with contextlib.suppress(UnicodeEncodeError):
                row_index[label.encode()] = i
    pieces = {i: [np.empty(0, dtype=np.int64)] for i in sorted(wanted)}
    with path.open("rb") as fh:
        blocks = _line_blocks(fh)
        first, *rest = re.split(rb"\r\n?|\n", next(blocks, b""), maxsplit=1)
        header = _decoded(path, first)
        if header != _HEADER:
            raise ValueError(f"{path}: line 1: expected header '{_HEADER}', "
                             f"got {header.split(',')}")
        lineno = 2
        for block in itertools.chain(rest, blocks):
            parsed = _parse_runs(block, row_index, wanted)
            if parsed is None:
                text = _decoded(path, block)
                try:
                    parsed = _parse_block(text, index, wanted), text.count("\n")
                except (ValueError, OverflowError, KeyError):
                    _raise_first_bad_line(path, text, lineno, names)
            runs, lines = parsed
            for i, times in runs:
                pieces[i].append(times)
            lineno += lines
    streams = []
    for i, own in pieces.items():
        try:
            streams.append(EventStream(names[i], np.concatenate(own), manifest["duration_s"],
                                       manifest["seed"]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return streams, manifest


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """Blocks of about ``_BLOCK_BYTES`` of whole lines; the last may lack its line end.

    A block ends after the last LF of a read, or after its last CR if that
    is not the read's last byte (the byte after it shows it is no CRLF's).
    """
    pending = []  # what was read after the last cut, joined once (a line may be long)
    while data := fh.read(_BLOCK_BYTES):
        end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if end:
            yield b"".join([*pending, memoryview(data)[:end]])
            pending = []
        pending.append(data[end:])
    if rest := b"".join(pending):
        yield rest


def _decoded(path: Path, data: bytes) -> str:
    """UTF-8 ``data`` read from ``path``, its CRLF and CR line ends mapped to LF.

    The bytes of ``path`` before ``data`` must be UTF-8: a byte of ``data``
    that is not is refused naming its line (see ``_utf8_text``).
    """
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        _utf8_text(path)
        raise


def _utf8_text(path: Path) -> str:
    """The text of ``path``; a byte that is not UTF-8 is refused naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # CR, LF and CRLF end lines
        raise ValueError(f"{path}: line {line}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def read_manifest(path: str | Path) -> dict:
    """The manifest of the tag file ``path``, its keys checked.

    It must hold ``labels``, a list of strings, none of them twice;
    ``duration_s``, a positive number; ``seed``, an integer; and, if
    present, ``config_digest``, a string.

    Raises ``ValueError`` naming the manifest and the key for a manifest
    that breaks those rules, and naming the manifest if it lists a label
    twice or is not JSON.
    """
    where = _manifest_path(Path(path))
    try:
        manifest = json.loads(_utf8_text(where))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(manifest).__name__}")
    checks = [
        ("labels", "a list of strings",
         lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
        ("duration_s", "a positive number",
         lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < np.inf),
        ("seed", "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        ("config_digest", "a string", lambda v: isinstance(v, str)),
    ]
    for key, kind, ok in checks:
        if key not in manifest:
            if key != "config_digest":  # the one optional key
                raise ValueError(f"{where}: no '{key}' key")
        elif not ok(manifest[key]):
            raise ValueError(f"{where}: '{key}' must be {kind}, got {manifest[key]!r}")
    labels = manifest["labels"]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{where}: a label appears twice in {labels}")
    return manifest


def _parse_block(block: str, index: dict[str, int],
                 wanted: set[int]) -> list[tuple[int, np.ndarray]]:
    """The str parser: (label index, times) pieces of a block of LF-ended lines, one
    for each label index of ``wanted``.

    Reads the blocks that the byte parser (``_parse_runs``) refuses, after
    their line ends are mapped to LF and their bytes decoded.  Blank lines
    are dropped, a last line may lack its LF, and a time is whatever
    ``int()`` reads (``+5``, `` 5``, ``5_0``, non-ASCII digits, 19-digit
    times) and int64 holds.

    Raises ``ValueError``, ``OverflowError`` or ``KeyError``, without
    saying where, if any row is malformed.
    """
    if not block.endswith("\n"):
        block += "\n"
    if block.startswith("\n") or "\n\n" in block:
        block = "".join(line + "\n" for line in block.split("\n") if line)
    times, owner = _parse_fields(block, np.frombuffer(block.encode(), dtype=np.uint8), index)
    return [(i, times[owner == i]) for i in wanted]


def _parse_runs(block: bytes, index: dict[bytes, int],
                wanted: set[int]) -> tuple[list[tuple[int, np.ndarray]], int] | None:
    """The byte parser: (label index, times) pieces of a block of whole lines, in file
    order, for the label indices of ``wanted``, and its number of lines.

    Every line must be blank or ``<label>,<1 to 18 ASCII digits>`` with a
    label of ``index``, as ``write_streams`` writes every time below
    10**18 ps, and end in LF or CRLF, or, in a block without LF, in CR.
    The lines are cut into runs of one width and first byte, and each run
    is checked as one byte matrix, and converted if its label is wanted.
    None if a line breaks these rules.
    """
    line_end = b"\n" if b"\n" in block else b"\r"
    if not block.endswith(line_end):
        return None if block else ([], 0)
    chars = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(chars == ord(line_end)) + 1
    starts = np.concatenate(([0], ends[:-1]))
    widths = ends - starts
    heads = chars[starts]
    cuts = (np.flatnonzero((widths[1:] != widths[:-1]) | (heads[1:] != heads[:-1])) + 1).tolist()
    runs = []
    for lo, hi in zip([0, *cuts], [*cuts, ends.size]):
        if widths[lo] <= 2 and heads[lo] in (ord("\r"), ord("\n")):
            continue  # blank lines: LF, CRLF or CR
        run = _parse_run(chars[starts[lo]:ends[hi - 1]].reshape(hi - lo, widths[lo]), index,
                         wanted)
        if run is None:
            return None
        runs += run
    return runs, ends.size


def _parse_run(rows: np.ndarray, index: dict[bytes, int],
               wanted: set[int]) -> list[tuple[int, np.ndarray]] | None:
    """[(label index, times)] of rows ``<label>,<digits>`` of one width, all ended
    by CRLF or all by one byte (LF, or CR), or [] if their label is not wanted;
    None if not such rows."""
    label, comma, _ = rows[0].tobytes().partition(b",")
    i = index.get(label) if comma else None
    # the first row's label and comma, and its line end, which every row must repeat
    prefix = len(label) + 1
    suffix = 2 if rows[0, -2] == ord("\r") else 1
    digits = rows.shape[1] - prefix - suffix
    if (i is None or not 1 <= digits <= _MAX_DIGITS
            or not (rows[:, :prefix] == rows[0, :prefix]).all()
            or not (rows[:, -suffix:] == rows[0, -suffix:]).all()):
        return None
    values = rows[:, prefix:-suffix] - ord("0")  # a non-digit byte wraps past 9
    if (values > 9).any():
        return None
    if i not in wanted:
        return []
    times = values[:, 0].astype(np.int64)
    for col in range(1, digits):
        times *= 10
        times += values[:, col]
    return [(i, times)]


def _parse_fields(block: str, chars: np.ndarray,
                  index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The core of the str parser: times and label indices of every row."""
    separators = chars[(chars == ord(",")) | (chars == ord("\n"))]
    if not (separators[0::2] == ord(",")).all() or not (separators[1::2] == ord("\n")).all():
        raise ValueError("not one comma per row")
    fields = block.replace(",", "\n").split("\n")
    del fields[-1]  # the empty string after the last line break
    times = np.array(fields[1::2], dtype=np.int64)
    owner = np.fromiter(map(index.__getitem__, fields[0::2]), dtype=np.intp, count=times.size)
    return times, owner


def _raise_first_bad_line(path: Path, block: str, lineno: int, labels: list[str]) -> NoReturn:
    """Raise the error of the first bad row of a block, whose first line is ``lineno``."""
    for n, row in enumerate(block.split("\n"), start=lineno):
        if not row:
            continue
        fields = row.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}: line {n}: expected 2 fields, got {len(fields)}")
        label, raw = fields
        try:
            np.array([raw], dtype=np.int64)
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {n}: time_ps {raw!r} is not an integer") from None
        if label not in labels:
            raise ValueError(
                f"{path}: line {n}: channel {label!r} not in the manifest's labels {labels}")
    raise AssertionError(f"{path}: no bad row from line {lineno} on")
