import numpy as np
import pytest

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


def test_histogram_counts_known_delays():
    a = EventStream("a", np.array([10_000, 50_000], dtype=np.int64), 1e-6, 0)
    b = EventStream("b", np.array([10_800, 49_200], dtype=np.int64), 1e-6, 0)
    h = histogram(a, b, CFG)
    # delays: +800 and -800 ps from the matched pairs
    assert h.counts[np.nonzero(h.centers_ps == 800)[0][0]] == 1
    assert h.counts[np.nonzero(h.centers_ps == -800)[0][0]] == 1


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
    return np.concatenate([rng.integers(-10**6, 0, 300),
                           rng.integers(duration_ps, 2 * duration_ps, 300)])


@pytest.mark.parametrize("case", ["spread", "repeats", "empty", "all_out_of_range"])
def test_assemble_timestamps_equals_unique_then_clip(case):
    rng = np.random.default_rng(21)
    for duration_ps in (400, 10**9):
        raw = _raw_timestamps(case, duration_ps, rng).astype(np.int64)
        expected = np.unique(raw)
        expected = expected[(expected >= 0) & (expected < duration_ps)]
        got = assemble_timestamps(raw, duration_ps)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


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


# --- tag-file I/O ---


def test_write_read_round_trip(tmp_path):
    a = _poisson_stream("S2'", 5000.0, 0.5, seed=10)
    b = _poisson_stream("I2", 8000.0, 0.5, seed=11)
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


def test_bad_header_rejected(tmp_path):
    csv_path = tmp_path / "tags.csv"
    csv_path.write_text("time,channel\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": []}'
    )
    with pytest.raises(ValueError, match="header"):
        read_streams(csv_path)


def test_coincidence_config_validation():
    with pytest.raises(ValueError, match="bin"):
        CoincidenceConfig(window_ns=0.8, histogram_bin_ps=900)
    with pytest.raises(ValueError, match="window"):
        CoincidenceConfig(window_ns=-0.5)
