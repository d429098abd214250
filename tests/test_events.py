import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdemux import events
from qdemux.events import (
    CoincidenceConfig,
    EventStream,
    assemble_timestamps,
    central_window_counts,
    histogram,
    read_streams,
    write_streams,
)

CFG = CoincidenceConfig(window_ns=0.8, histogram_bin_ps=100, histogram_span_ns=5.0)


def _poisson_stream(label, rate_hz, duration_s, seed):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_hz * duration_s)
    t = np.unique(rng.integers(0, int(duration_s * 1e12), n).astype(np.int64))
    return EventStream(label, t, duration_s, seed)


def test_identical_streams_all_mass_in_zero_bin():
    s = _poisson_stream("a", 5000.0, 0.1, seed=1)
    h = histogram(s, s, CFG)
    zero_bin = np.nonzero(h.centers_ps == 0)[0][0]
    assert h.counts[zero_bin] == s.count
    others = np.delete(h.counts, zero_bin)
    assert np.all(others == 0)


def test_independent_poisson_streams_flat_histogram():
    # oracle: expected pairs per bin = rate_a * rate_b * bin * duration
    rate = 200_000.0
    duration = 1.0
    a = _poisson_stream("a", rate, duration, seed=2)
    b = _poisson_stream("b", rate, duration, seed=3)
    h = histogram(a, b, CFG)
    expected = a.rate_hz * b.rate_hz * CFG.histogram_bin_ps * 1e-12 * duration
    sigma = np.sqrt(expected)
    assert np.all(np.abs(h.counts - expected) < 5.0 * sigma)


def test_histogram_mirror_symmetry():
    a = _poisson_stream("a", 50_000.0, 0.2, seed=4)
    b = _poisson_stream("b", 50_000.0, 0.2, seed=5)
    h_ab = histogram(a, b, CFG)
    h_ba = histogram(b, a, CFG)
    assert np.array_equal(h_ab.counts, h_ba.counts[::-1])
    assert h_ab.total_pairs_examined == h_ba.total_pairs_examined


def test_edge_bins_are_full_bins():
    # about 1.6e4 expected pairs per bin: a half-width edge bin would read 8e3, 60 sigma low
    rng = np.random.default_rng(31)
    duration_s, n = 1e-3, 400_000
    a, b = (EventStream(label, np.unique(rng.integers(0, 10**9, n)), duration_s, 0)
            for label in "ab")
    h = histogram(a, b, CFG)
    interior = h.counts[1:-1].mean()
    assert interior > 1e4
    assert np.all(np.abs(h.counts[[0, -1]] - interior) < 5.0 * np.sqrt(interior))
    h_ba = histogram(b, a, CFG)
    assert np.array_equal(h.counts, h_ba.counts[::-1])
    assert h.total_pairs_examined == h_ba.total_pairs_examined


def test_delays_at_the_outer_bin_edges():
    # 5050 ps is half a bin past the last centre (5000 ps) and rounds to it (half to even)
    a = EventStream("a", np.array([10_000], dtype=np.int64), 1e-6, 0)
    b = EventStream("b", 10_000 + np.array([-5_051, -5_050, 5_049, 5_050, 5_051]), 1e-6, 0)
    h = histogram(a, b, CFG)
    assert h.counts[0] == 1 and h.counts[-1] == 2 and h.counts.sum() == 3
    assert h.total_pairs_examined == 3


def test_histogram_counts_known_delays():
    a = EventStream("a", np.array([10_000, 50_000], dtype=np.int64), 1e-6, 0)
    b = EventStream("b", np.array([10_800, 49_200], dtype=np.int64), 1e-6, 0)
    h = histogram(a, b, CFG)
    # delays: +800 and -800 ps from the matched pairs
    assert h.counts[np.nonzero(h.centers_ps == 800)[0][0]] == 1
    assert h.counts[np.nonzero(h.centers_ps == -800)[0][0]] == 1


def _all_pairs_histogram(ta, tb, cfg):
    """Reference: the delay of every (a, b) pair, examined within the reach, counted in a bin."""
    bin_ps = cfg.histogram_bin_ps
    n_half = int(round(cfg.histogram_span_ns * 1000.0)) // bin_ps
    reach_ps = n_half * bin_ps + bin_ps // 2
    delays = (np.asarray(tb, dtype=np.int64)[None, :]
              - np.asarray(ta, dtype=np.int64)[:, None]).ravel()
    delays = delays[np.abs(delays) <= reach_ps]
    bins = np.rint(delays / bin_ps).astype(np.int64)
    bins = bins[np.abs(bins) <= n_half]
    return np.bincount(bins + n_half, minlength=2 * n_half + 1), delays.size


_EDGE_A = np.arange(1, 9) * 100_000


def _edge_case_streams(case, reach_ps, rng):
    if case == "a empty":
        return np.empty(0, np.int64), np.unique(rng.integers(0, 10**6, 300))
    if case == "b empty":
        return np.unique(rng.integers(0, 10**6, 300)), np.empty(0, np.int64)
    if case == "b alone at and one past the reach":
        # each a event has a window holding at most this one b event
        offsets = [-reach_ps - 1, -reach_ps, reach_ps, reach_ps + 1] * 2
        return _EDGE_A, _EDGE_A + np.array(offsets)
    if case == "b at and one past the reach beside others":
        offsets = np.array([-reach_ps - 1, -reach_ps, -7, 0, 9, reach_ps, reach_ps + 1])
        return _EDGE_A, np.unique((_EDGE_A[:, None] + offsets).ravel())
    if case == "60 b events in one window":
        return np.array([50_000, 500_000]), 50_000 + np.arange(-30, 30) * 160
    if case == "last b in the last window":
        ta = np.unique(rng.integers(20_000, 10**6, 200))
        return ta, np.append(np.unique(rng.integers(0, 10**5, 100)), ta[-1] + reach_ps)
    if case == "window cut off by the stream start":
        return np.array([0, 17, 4_000, 30_000]), np.array([0, 3, 2_500, 5_066, 9_000])
    rate = {"random sparse": 300, "random dense": 3_000}[case]
    return (np.unique(rng.integers(0, 10**6, rate)), np.unique(rng.integers(0, 10**6, rate)))


@pytest.mark.parametrize("cfg, reach_ps", [
    (CFG, 5_050), (CoincidenceConfig(0.8, 160, 20.0), 20_080),
], ids=["50 bins a side", "125 bins a side"])
@pytest.mark.parametrize("case", [
    "a empty", "b empty", "b alone at and one past the reach",
    "b at and one past the reach beside others", "60 b events in one window",
    "last b in the last window", "window cut off by the stream start",
    "random sparse", "random dense",
])
def test_histogram_equals_all_pairs_reference(case, cfg, reach_ps):
    # reach: n_half bins a side plus half a bin, the outer edge of the outermost bin
    rng = np.random.default_rng(71)
    for _ in range(3):
        ta, tb = _edge_case_streams(case, reach_ps, rng)
        a, b = EventStream("a", ta, 1e-5, 0), EventStream("b", tb, 1e-5, 0)
        counts, examined = _all_pairs_histogram(ta, tb, cfg)
        h = histogram(a, b, cfg)
        assert np.array_equal(h.counts, counts)
        assert h.total_pairs_examined == examined
        h_ba = histogram(b, a, cfg)
        assert np.array_equal(h_ba.counts, counts[::-1])
        assert h_ba.total_pairs_examined == examined


def test_stream_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        EventStream("x", np.array([5, 5], dtype=np.int64), 1.0, 0)
    with pytest.raises(ValueError, match="outside"):
        EventStream("x", np.array([-1], dtype=np.int64), 1.0, 0)
    with pytest.raises(ValueError, match="duration"):
        EventStream("x", np.array([], dtype=np.int64), 0.0, 0)


def test_from_unsorted_sorts_dedupes_and_clips():
    s = EventStream.from_unsorted("x", np.array([30, 10, 10, -5, 2_000_000_000_000]),
                                  duration_s=1.0, seed=0)
    assert list(s.timestamps_ps) == [10, 30]


def _raw_timestamps(case, duration_ps, rng):
    if case == "spread":  # negatives and values >= duration on both sides
        return rng.integers(-duration_ps // 10, duration_ps + duration_ps // 10, 50_000)
    if case == "repeats":  # far more draws than distinct values, plus both edges
        t = rng.integers(-20, 500, 20_000)
        return np.concatenate([t, [0, 0, duration_ps - 1, duration_ps, duration_ps]])
    if case == "empty":
        return np.empty(0, dtype=np.int64)
    if case == "presorted":  # the sort is skipped: repeats and both edges still go
        return np.sort(_raw_timestamps("repeats", duration_ps, rng))
    if case == "descending":
        return np.sort(_raw_timestamps("spread", duration_ps, rng))[::-1]
    return np.concatenate([rng.integers(-10**6, 0, 300),
                           rng.integers(duration_ps, 2 * duration_ps, 300)])


@pytest.mark.parametrize("case", ["spread", "repeats", "empty", "all_out_of_range",
                                  "presorted", "descending"])
def test_assemble_timestamps_equals_unique_then_clip(case):
    rng = np.random.default_rng(21)
    for duration_ps in (400, 10**9):
        raw = _raw_timestamps(case, duration_ps, rng).astype(np.int64)
        expected = np.unique(raw)
        expected = expected[(expected >= 0) & (expected < duration_ps)]
        got = assemble_timestamps(raw, duration_ps)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


def test_sorted_caller_array_is_copied_not_frozen():
    # nothing to sort, repeat or clip: the result must still be a new array
    raw = np.array([3, 10, 250, 999], dtype=np.int64)
    for got in (assemble_timestamps(raw, 1000),
                EventStream.from_unsorted("x", raw, 1e-9, 0).timestamps_ps):
        assert np.array_equal(got, [3, 10, 250, 999])
        assert not np.shares_memory(got, raw)
    assert raw.flags.writeable
    raw[0] = 4
    assert list(raw) == [4, 10, 250, 999]


# --- window integrals ---


def test_flat_histogram_center_equals_background():
    a = _poisson_stream("a", 150_000.0, 1.0, seed=6)
    b = _poisson_stream("b", 150_000.0, 1.0, seed=7)
    h = histogram(a, b, CFG)
    w = central_window_counts(h, 0.8)
    expected = a.rate_hz * b.rate_hz * 0.8e-9  # per window, per second
    assert w.center == pytest.approx(w.background_per_window,
                                     abs=5.0 * np.sqrt(expected) + 5.0)


def test_window_overlapping_side_peaks_rejected():
    a = _poisson_stream("a", 10_000.0, 0.1, seed=8)
    h = histogram(a, a, CFG)
    with pytest.raises(ValueError, match="side peaks"):
        central_window_counts(h, 1.0, side_delay_ns=0.8)


def test_window_must_fit_quarter_span():
    a = _poisson_stream("a", 10_000.0, 0.1, seed=9)
    h = histogram(a, a, CFG)
    with pytest.raises(ValueError, match="quarter"):
        central_window_counts(h, 2.0, side_delay_ns=2.2)


@pytest.mark.parametrize("start_ns", [0.1, 0.4, 5.0, 6.0])
def test_background_start_outside_window_edge_and_span_rejected(start_ns):
    a = _poisson_stream("a", 10_000.0, 0.1, seed=10)
    h = histogram(a, a, CFG)
    with pytest.raises(ValueError, match="background region"):
        central_window_counts(h, 0.8, background_start_ns=start_ns)


# --- tag-file I/O ---


def test_write_read_round_trip(tmp_path):
    a = _poisson_stream("S2'", 5000.0, 0.5, seed=10)
    b = _poisson_stream("I2", 8000.0, 0.5, seed=10)
    path = write_streams([a, b], tmp_path / "tags.csv", config_digest="abc123")
    streams, manifest = read_streams(path)
    assert manifest["labels"] == ["S2'", "I2"]
    assert manifest["config_digest"] == "abc123"
    assert manifest["seed"] == 10
    for orig, loaded in zip([a, b], streams):
        assert loaded.label == orig.label
        assert loaded.duration_s == orig.duration_s
        assert np.array_equal(loaded.timestamps_ps, orig.timestamps_ps)


def test_read_header_only_file(tmp_path):
    a = EventStream("empty", np.array([], dtype=np.int64), 1.0, 3)
    path = write_streams([a], tmp_path / "tags.csv")
    streams, manifest = read_streams(path)
    assert streams[0].count == 0
    assert streams[0].duration_s == 1.0


def test_read_hand_written_fixture(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,100\nA,250\nB,175\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1e-6, "seed": 5, "config_digest": "", "labels": ["A", "B"]}'
    )
    streams, _ = read_streams(csv_path)
    assert list(streams[0].timestamps_ps) == [100, 250]
    assert list(streams[1].timestamps_ps) == [175]


def test_read_malformed_row_names_line(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,100\nA,not-a-number\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A"]}'
    )
    with pytest.raises(ValueError, match="line 3"):
        read_streams(csv_path)


def test_read_non_monotone_rejected(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,200\nA,100\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A"]}'
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        read_streams(csv_path)


def test_read_unknown_channel_names_file_and_line(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,100\nZ,150\nA,200\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A"]}'
    )
    with pytest.raises(ValueError, match=r"tags\.csv: line 3: channel 'Z'"):
        read_streams(csv_path)


def test_read_out_of_range_time_names_file_and_channel(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,100\nB,50\nB,1000000\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1e-6, "seed": 0, "config_digest": "", "labels": ["A", "B"]}'
    )
    with pytest.raises(ValueError, match=r"tags\.csv: stream 'B': timestamps outside"):
        read_streams(csv_path)


def test_manifest_listing_a_label_twice_rejected(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,1\nA,2\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A", "A"]}'
    )
    with pytest.raises(ValueError, match=r"tags\.manifest\.json: a label appears twice"):
        read_streams(csv_path)


@pytest.mark.parametrize("manifest, message", [
    ({"duration_s": 1.0, "seed": 0}, r"no 'labels' key"),
    ({"labels": "AB", "duration_s": 1.0, "seed": 0}, r"'labels' must be a list of strings"),
    ({"labels": ["A", 2], "duration_s": 1.0, "seed": 0}, r"'labels' must be a list of strings"),
    ({"labels": ["A"], "seed": 0}, r"no 'duration_s' key"),
    ({"labels": ["A"], "duration_s": "x", "seed": 0}, r"'duration_s' must be a positive number"),
    ({"labels": ["A"], "duration_s": 0, "seed": 0}, r"'duration_s' must be a positive number"),
    ({"labels": ["A"], "duration_s": True, "seed": 0}, r"'duration_s' must be a positive number"),
    ({"labels": ["A"], "duration_s": float("nan"), "seed": 0},
     r"'duration_s' must be a positive number"),
    ({"labels": ["A"], "duration_s": 1.0}, r"no 'seed' key"),
    ({"labels": ["A"], "duration_s": 1.0, "seed": "7"}, r"'seed' must be an integer"),
    ({"labels": ["A"], "duration_s": 1.0, "seed": 1.5}, r"'seed' must be an integer"),
    ({"labels": ["A"], "duration_s": 1.0, "seed": 0, "config_digest": 5},
     r"'config_digest' must be a string"),
    (["A"], r"expected a JSON object, got list"),
])
def test_malformed_manifest_names_file_and_key(tmp_path, manifest, message):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,1\n")
    (tmp_path / "tags.manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"tags\.manifest\.json: {message}"):
        read_streams(csv_path)


@pytest.mark.parametrize("manifest, message", [
    (b'{"labels": ["A"] "seed": 0}', r"tags\.manifest\.json: not valid JSON: Expecting ','"),
    (b'{"labels": ["\xff"]}', r"tags\.manifest\.json: line 1: not UTF-8 text: invalid start byte"),
])
def test_unreadable_manifest_names_it(tmp_path, manifest, message):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,1\n")
    (tmp_path / "tags.manifest.json").write_bytes(manifest)
    with pytest.raises(ValueError, match=message):
        read_streams(csv_path)


@pytest.mark.parametrize("rows, where", [
    (b"chann\xffel,time_ps\nA,1\n", "line 1: not UTF-8 text: invalid start byte at byte 5"),
    (b"channel,time_ps\nA,1\r\nA,\xff2\n",
     "line 3: not UTF-8 text: invalid start byte at byte 23"),
    (b"channel,time_ps\rA,1\r\xff", "line 3: not UTF-8 text: invalid start byte at byte 20"),
])
def test_tag_row_not_utf8_names_file_and_line(tmp_path, rows, where):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_bytes(rows)
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "labels": ["A"]}')
    with pytest.raises(ValueError, match=rf"tags\.csv: {where}$"):
        read_streams(csv_path)


def test_bad_header_rejected(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("time,channel\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": []}'
    )
    with pytest.raises(ValueError, match="header"):
        read_streams(csv_path)


def _block_spanning_streams():
    """Streams longer than two write blocks, an empty one, and a single row."""
    rng = np.random.default_rng(12)
    n = 2 * events._BLOCK_ROWS + 5
    long_a = np.sort(rng.choice(10**12, n, replace=False))
    long_b = np.sort(rng.choice(10**12, n + 1, replace=False))
    return [EventStream("S2'", long_a, 1.0, 4),
            EventStream("I1", np.array([], dtype=np.int64), 1.0, 4),
            EventStream("I2", long_b, 1.0, 4),
            EventStream("I3", np.array([999_999_999_999]), 1.0, 4)]


def _every_digit_width_streams():
    """Times of every digit count from 1 to 19, widths 1-18 inside one write block."""
    powers = 10 ** np.arange(18, dtype=np.int64)
    crossing = np.unique(np.concatenate([[0], powers - 1, powers, powers + 7]))
    huge = np.array([10**18, 10**18 + 1, 1_999_999_999_999_999_999])
    return [EventStream("S2′", crossing, 2e6, 4),
            EventStream("I1", huge, 2e6, 4),
            EventStream("I2", crossing[-5:], 2e6, 4)]


def _csv_writer_bytes(streams, path):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "time_ps"])
        for s in streams:
            writer.writerows([s.label, int(t)] for t in s.timestamps_ps)
    return path.read_bytes()


def test_written_bytes_equal_csv_writer(tmp_path):
    for name, streams in [("block-spanning", _block_spanning_streams()),
                          ("every-digit-width", _every_digit_width_streams())]:
        reference = _csv_writer_bytes(streams, tmp_path / f"{name}-reference.csv")
        path = write_streams(streams, tmp_path / f"{name}.csv")
        assert path.read_bytes() == reference, name


def test_every_digit_width_and_19_digit_times_read_back(tmp_path):
    streams = _every_digit_width_streams()
    back, _ = read_streams(write_streams(streams, tmp_path / "tags.csv"))
    for orig, loaded in zip(streams, back, strict=True):
        assert loaded.label == orig.label
        assert np.array_equal(loaded.timestamps_ps, orig.timestamps_ps)


def test_labels_meeting_at_one_width_read_back(tmp_path):
    # I1's last rows and I2's first have one width and first byte: one run, two labels
    streams = [EventStream("I1", np.array([10**13, 2 * 10**13, 3 * 10**13]), 100.0, 1),
               EventStream("I2", np.array([4 * 10**13, 5 * 10**13]), 100.0, 1)]
    back, _ = read_streams(write_streams(streams, tmp_path / "tags.csv"))
    assert [list(s.timestamps_ps) for s in back] == [[10**13, 2 * 10**13, 3 * 10**13],
                                                     [4 * 10**13, 5 * 10**13]]


_LABEL = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
                 max_size=6)


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(_LABEL, min_size=1, max_size=4, unique=True).map(lambda ls: ls + ["S2′"]),
       times=st.lists(st.sets(st.integers(0, 9 * 10**18 - 1), max_size=40), min_size=5,
                      max_size=5))
def test_round_trip_and_csv_writer_bytes_property(labels, times):
    streams = [EventStream(label, np.array(sorted(t), dtype=np.int64), 9e6, 0)
               for label, t in zip(dict.fromkeys(labels), times)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_streams(streams, Path(tmp) / "tags.csv")
        assert path.read_bytes() == _csv_writer_bytes(streams, Path(tmp) / "reference.csv")
        back, _ = read_streams(path)
    for orig, loaded in zip(streams, back, strict=True):
        assert loaded.label == orig.label
        assert np.array_equal(loaded.timestamps_ps, orig.timestamps_ps)


def _blank_lines_between_blocks(data: bytes) -> bytes:
    lines = data.split(b"\r\n")
    for at, blanks in ((len(lines) - 1, 2), (2 * events._BLOCK_ROWS, 2),
                       (events._BLOCK_ROWS + 3, 3), (1, 1)):
        lines[at:at] = [b""] * blanks
    return b"\r\n".join(lines)


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _rewrite_first_time(data: bytes, edit) -> bytes:
    header, row, rest = data.split(b"\r\n", 2)
    label, time = row.decode().split(",")
    return b"\r\n".join([header, f"{label},{edit(time)}".encode(), rest])


@pytest.mark.parametrize("rewrite", [
    lambda data: data.replace(b"\r\n", b"\n"),
    lambda data: data.replace(b"\r\n", b"\r"),
    _blank_lines_between_blocks,
    lambda data: _blank_lines_between_blocks(data).replace(b"\r\n", b"\r"),
    # a first row that int() reads but the writer never writes; leading zeros read the same
    # on either parser, the others send their block to the str parser
    lambda data: _rewrite_first_time(data, lambda t: "+" + t),
    lambda data: _rewrite_first_time(data, lambda t: " " + t),
    lambda data: _rewrite_first_time(data, lambda t: "00" + t),
    lambda data: _rewrite_first_time(data, lambda t: t[0] + "_" + t[1:]),
    lambda data: _rewrite_first_time(data, lambda t: t.translate(_ARABIC_INDIC)),
    lambda data: data[:-2],
], ids=["lf", "cr", "blank-lines", "cr-blank-lines", "plus-sign", "leading-space",
        "leading-zeros", "underscore", "arabic-indic-digits", "no-final-break"])
def test_read_back_exact_for_other_line_endings(tmp_path, rewrite):
    streams = _block_spanning_streams()
    path = write_streams(streams, tmp_path / "tags.csv")
    path.write_bytes(rewrite(path.read_bytes()))
    back, _ = read_streams(path)
    for orig, loaded in zip(streams, back, strict=True):
        assert loaded.label == orig.label
        assert np.array_equal(loaded.timestamps_ps, orig.timestamps_ps)


_BAD_ROWS = [
    ("I2;500", "expected 2 fields, got 1"),
    ("I2,500,7", "expected 2 fields, got 3"),
    ("I2,500,I2,501", "expected 2 fields, got 4"),
    ("I2,5e2", r"time_ps '5e2' is not an integer"),
    ("I2,99999999999999999999", r"time_ps '99999999999999999999' is not an integer"),
    ("I2,9999999999999999999", r"time_ps '9999999999999999999' is not an integer"),
    ("Z,500", r"channel 'Z' not in the manifest's labels"),
]


def _tags_with_bad_row(tmp_path, bad_row):
    """The block-spanning streams' file, LF-ended with a blank line, and ``bad_row``
    among I2's rows past the first read block; returns the path and the bad line."""
    path = write_streams(_block_spanning_streams(), tmp_path / "tags.csv")
    lines = path.read_text().split("\n")
    lines.insert(5, "")  # a blank line counts, as in any text editor
    bad_line = 2 * events._BLOCK_ROWS + 11  # 1-based, past the first read block too
    assert lines[bad_line - 1].startswith("I2,")
    lines[bad_line - 1] = bad_row
    path.write_text("\n".join(lines))
    return path, bad_line


@pytest.mark.parametrize("bad_row, message", _BAD_ROWS)
def test_bad_row_past_first_block_names_its_line(tmp_path, bad_row, message):
    path, bad_line = _tags_with_bad_row(tmp_path, bad_row)
    with pytest.raises(ValueError, match=rf"tags\.csv: line {bad_line}: {message}"):
        read_streams(path)


def test_bad_last_row_without_line_break_names_its_line(tmp_path):
    streams = [EventStream("A", np.array([1, 2, 3]), 1.0, 0),
               EventStream("B", np.array([4, 5]), 1.0, 0)]
    path = write_streams(streams, tmp_path / "tags.csv")
    lines = path.read_bytes().split(b"\r\n")
    assert lines[-2:] == [b"B,5", b""]  # the file's last row, then its final break
    path.write_bytes(b"\r\n".join(lines[:-2] + [b"B,7x"]))
    with pytest.raises(ValueError, match=r"tags\.csv: line 6: time_ps '7x' is not an integer"):
        read_streams(path)


def _streams_equal(streams, back):
    for orig, loaded in zip(streams, back, strict=True):
        assert loaded.label == orig.label
        assert np.array_equal(loaded.timestamps_ps, orig.timestamps_ps)


def _refuse_str_parser(*args):
    raise AssertionError("a block of rows in the writer's form reached the str parser")


@pytest.mark.parametrize("line_end", [b"\r\n", b"\n", b"\r"], ids=["crlf", "lf", "cr"])
def test_writer_rows_never_reach_the_str_parser(tmp_path, monkeypatch, line_end):
    crossing = _every_digit_width_streams()[0].timestamps_ps  # every width from 1 to 18 digits
    rng = np.random.default_rng(17)
    long = np.sort(rng.choice(10**15, 3 * events._BLOCK_ROWS, replace=False))
    streams = [EventStream("S2'", np.union1d(crossing, long), 2e6, 4),
               EventStream("I1", crossing[::3], 2e6, 4),
               EventStream("I2", long[::2] + 1, 2e6, 4)]
    path = write_streams(streams, tmp_path / "tags.csv")
    path.write_bytes(path.read_bytes().replace(b"\r\n", line_end))
    assert path.stat().st_size > 3 * events._BLOCK_BYTES
    monkeypatch.setattr(events, "_parse_fields", _refuse_str_parser)
    back, _ = read_streams(path)
    _streams_equal(streams, back)


def test_crlf_split_between_read_blocks(tmp_path, monkeypatch):
    header, row = b"channel,time_ps\r\n", b"A,1000000\r\n"
    # LF-only blank lines after the header put the CR of a row at the last byte of the
    # first read block and its LF at the first byte of the next
    blanks = (events._BLOCK_BYTES + 1 - len(header)) % len(row)
    times = np.arange(1_000_000, 1_000_000 + events._BLOCK_BYTES // 10)
    data = header + b"\n" * blanks + b"".join(b"A,%d\r\n" % t for t in times)
    assert data[events._BLOCK_BYTES - 1:events._BLOCK_BYTES + 1] == b"\r\n"
    path = tmp_path / "tags.csv"
    path.write_bytes(data)
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "labels": ["A"]}')
    with monkeypatch.context() as patch:
        patch.setattr(events, "_parse_fields", _refuse_str_parser)
        back, _ = read_streams(path)
    assert np.array_equal(back[0].timestamps_ps, times)
    # the split CRLF ends one line: the first row after it is named at its own line
    after = events._BLOCK_BYTES + 1
    path.write_bytes(data[:after] + b"A,x" + data[data.index(b"\r\n", after):])
    line = data[:after].count(b"\n") + 1
    with pytest.raises(ValueError, match=rf"tags\.csv: line {line}: time_ps 'x' is not an integer"):
        read_streams(path)


def test_line_longer_than_read_blocks_names_its_line(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_bytes(b"channel,time_ps\r\nA,1\r\n" + b"x" * (3 * events._BLOCK_BYTES)
                     + b"\r\nA,2\r\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "labels": ["A"]}')
    with pytest.raises(ValueError, match=r"tags\.csv: line 3: expected 2 fields, got 1$"):
        read_streams(path)


def test_cr_only_file_names_bad_row_past_first_block(tmp_path):
    streams = _block_spanning_streams()
    path = write_streams(streams, tmp_path / "tags.csv")
    lines = path.read_bytes().split(b"\r\n")
    bad_line = 2 * events._BLOCK_ROWS + 11  # 1-based
    lines[bad_line - 1] = b"I2,5e2"
    path.write_bytes(b"\r".join(lines))
    assert path.stat().st_size > 3 * events._BLOCK_BYTES
    with pytest.raises(ValueError, match=rf"tags\.csv: line {bad_line}: time_ps '5e2' is not"):
        read_streams(path)


@pytest.mark.parametrize("rows, times", [
    (b"A,100\r\nA,1000\nA,2000\nA,30000\r\n", [100, 1000, 2000, 30000]),
    (b"A,0099\nA,100\r\nA,101\r\n", [99, 100, 101]),
], ids=["crlf-first", "lf-first"])
def test_rows_of_one_width_with_and_without_cr_read_back(tmp_path, rows, times):
    path = tmp_path / "tags.csv"
    path.write_bytes(b"channel,time_ps\r\n" + rows)
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "labels": ["A"]}')
    back, _ = read_streams(path)
    assert list(back[0].timestamps_ps) == times


def test_writer_row_with_non_utf8_label_names_its_line(tmp_path):
    path = write_streams(_block_spanning_streams(), tmp_path / "tags.csv")
    data = path.read_bytes()
    bad_line = 2 * events._BLOCK_ROWS + 11  # 1-based, an I2 row
    at = sum(len(line) + 2 for line in data.split(b"\r\n")[:bad_line - 1])
    assert data[at:at + 3] == b"I2,"
    path.write_bytes(data[:at] + b"I\xff" + data[at + 2:])
    with pytest.raises(ValueError, match=rf"tags\.csv: line {bad_line}: not UTF-8 text: "
                                         rf"invalid start byte at byte {at + 1}$"):
        read_streams(path)


@pytest.mark.parametrize("labels, rows, message", [
    (["A", "\ud800"], b"A,5\r\n", None),  # a lone surrogate has no UTF-8 form
    (["A\rB"], b"A\rB,5\r\n", "line 2: expected 2 fields, got 1"),  # CR ends a line
])
def test_label_no_utf8_row_can_hold(tmp_path, labels, rows, message):
    path = tmp_path / "tags.csv"
    path.write_bytes(b"channel,time_ps\r\n" + rows)
    (tmp_path / "tags.manifest.json").write_text(
        json.dumps({"duration_s": 1.0, "seed": 0, "labels": labels}))
    if message is None:
        back, _ = read_streams(path)
        assert [list(s.timestamps_ps) for s in back] == [[5], []]
    else:
        with pytest.raises(ValueError, match=rf"tags\.csv: {message}$"):
            read_streams(path)


def test_time_merged_file_reads_back(tmp_path):
    # rows of every stream merged in time order, labels interleaved, as a time tagger
    # exports them
    streams = _block_spanning_streams()
    path = write_streams(streams, tmp_path / "tags.csv")
    rows = sorted((int(t), s.label) for s in streams for t in s.timestamps_ps)
    path.write_bytes(b"channel,time_ps\r\n"
                     + "".join(f"{label},{t}\r\n" for t, label in rows).encode())
    back, _ = read_streams(path)
    _streams_equal(streams, back)


@pytest.mark.parametrize("labels, message", [
    (["A", "B", "A"], r"stream 'A': label appears twice"),
    (["A", "x,y"], r"stream 'x,y': a label must not contain a comma"),
    (['say "A"'], r"""stream 'say "A"': a label must not contain"""),
    (["A\r"], r"stream 'A\\r': a label must not contain"),
    (["A\nB"], r"stream 'A\\nB': a label must not contain"),
])
def test_write_refuses_what_it_cannot_read_back(tmp_path, labels, message):
    streams = [EventStream(label, np.array([1, 2]), 1.0, 0) for label in labels]
    with pytest.raises(ValueError, match=message):
        write_streams(streams, tmp_path / "tags.csv")
    assert not (tmp_path / "tags.csv").exists()


def test_write_refuses_mixed_durations_naming_the_stream(tmp_path):
    streams = [EventStream("A", np.array([1]), 1.0, 0), EventStream("B", np.array([1]), 2.0, 0)]
    with pytest.raises(ValueError, match=r"stream 'B': duration 2\.0 s differs from 1\.0 s"):
        write_streams(streams, tmp_path / "tags.csv")


def test_write_refuses_mixed_seeds_naming_the_stream(tmp_path):
    streams = [EventStream("A", np.array([1]), 1.0, 10), EventStream("B", np.array([1]), 1.0, 11)]
    with pytest.raises(ValueError, match=r"stream 'B': seed 11 differs from 10"):
        write_streams(streams, tmp_path / "tags.csv")
    assert not (tmp_path / "tags.csv").exists()


def test_coincidence_config_validation():
    with pytest.raises(ValueError, match="bin"):
        CoincidenceConfig(window_ns=0.8, histogram_bin_ps=900)
    with pytest.raises(ValueError, match="window"):
        CoincidenceConfig(window_ns=-0.5)


# --- reading only some streams ---


@pytest.mark.parametrize("rewrite", [
    lambda data: data,
    lambda data: data.replace(b"\r\n", b"\n"),
    _blank_lines_between_blocks,
], ids=["crlf", "lf", "blank-lines"])
@pytest.mark.parametrize("labels", [["I2"], ["S2'", "I2"], ["I3", "I1"], ["I2", "I2"], []])
def test_read_labels_equals_full_read_of_those_streams(tmp_path, rewrite, labels):
    path = write_streams(_block_spanning_streams(), tmp_path / "tags.csv")
    path.write_bytes(rewrite(path.read_bytes()))
    full, manifest = read_streams(path)
    back, back_manifest = read_streams(path, labels=labels)
    assert back_manifest == manifest
    # each listed stream once, in manifest order
    _streams_equal([s for s in full if s.label in labels], back)


@pytest.mark.parametrize("labels", [["I2"], ["I1", "I3"]])
def test_read_labels_of_a_time_merged_file(tmp_path, monkeypatch, labels):
    # rows of one width and first byte, labels interleaved: the str parser reads the blocks
    rng = np.random.default_rng(21)
    streams = [EventStream(label, np.unique(rng.integers(10**11, 10**12, 15_000)), 1.0, 4)
               for label in ("I1", "I2", "I3")]
    path = write_streams(streams, tmp_path / "tags.csv")
    rows = sorted((int(t), s.label) for s in streams for t in s.timestamps_ps)
    path.write_bytes(b"channel,time_ps\r\n"
                     + "".join(f"{label},{t}\r\n" for t, label in rows).encode())
    parse_block, blocks = events._parse_block, []
    monkeypatch.setattr(events, "_parse_block", lambda *a: blocks.append(1) or parse_block(*a))
    back, _ = read_streams(path, labels=labels)
    assert len(blocks) >= 2
    _streams_equal([s for s in streams if s.label in labels], back)


@pytest.mark.parametrize("bad_row, message", _BAD_ROWS)
def test_bad_row_of_an_unlisted_stream_names_its_line(tmp_path, bad_row, message):
    path, bad_line = _tags_with_bad_row(tmp_path, bad_row)
    with pytest.raises(ValueError, match=rf"tags\.csv: line {bad_line}: {message}"):
        read_streams(path, labels=["S2'"])


@pytest.mark.parametrize("bad_time", ["1:3", "12a", "1 3"])
def test_non_digit_in_an_unlisted_writer_row_names_its_line(tmp_path, bad_time):
    # a row of the writer's width, so that only the byte parser's digit check can refuse it
    csv_path = tmp_path / "tags.csv"
    csv_path.write_bytes(b"channel,time_ps\r\nA,100\r\nB,200\r\nB," + bad_time.encode()
                         + b"\r\nB,400\r\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A", "B"]}')
    with pytest.raises(ValueError, match=rf"tags\.csv: line 4: time_ps '{bad_time}' is not"):
        read_streams(csv_path, labels=["A"])


def test_unlisted_stream_order_is_not_checked(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("channel,time_ps\nA,100\nB,200\nB,100\nA,250\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A", "B"]}')
    (a,), _ = read_streams(csv_path, labels=["A"])
    assert a.label == "A" and list(a.timestamps_ps) == [100, 250]
    with pytest.raises(ValueError, match=r"tags\.csv: stream 'B': timestamps must be strictly"):
        read_streams(csv_path)
    with pytest.raises(ValueError, match=r"tags\.csv: stream 'B': timestamps must be strictly"):
        read_streams(csv_path, labels=["B"])


def test_read_unknown_label_names_it_and_the_manifest_labels(tmp_path):
    path = write_streams(_block_spanning_streams(), tmp_path / "tags.csv")
    with pytest.raises(ValueError, match=r"tags\.csv: channel 'I4' not in the manifest's "
                                         r"labels \[\"S2'\", 'I1', 'I2', 'I3'\]"):
        read_streams(path, labels=["I2", "I4"])
