import json
from dataclasses import replace

import numpy as np
import pytest

from qdemux import cli
from qdemux.config import (
    ConfigError,
    baseline_dict,
    build_config,
    config_digest,
    load_config,
    load_config_dict,
)
from qdemux.detection import loss_report
from qdemux.events import EventStream, histogram, read_streams, write_streams
from qdemux.montecarlo import generate_run, sub_seed
from qdemux.sfg import quantum_efficiency


# --- config loading and validation ---


def test_empty_file_yields_baseline(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert load_config_dict(path) == baseline_dict()
    cfg = load_config(path)
    assert cfg.active_label == "S2"
    assert cfg.chip_power_uw == 400.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"detectors": {"apd1": {"dead_time": 3}}}')
    with pytest.raises(ConfigError, match="detectors.apd1.dead_time"):
        load_config(path)


def test_negative_dead_time_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"detectors": {"apd1": {"dead_time_us": -1}}}')
    with pytest.raises(ConfigError, match="detectors.apd1"):
        load_config(path)


@pytest.mark.parametrize("entry", [
    {"name": "typo", "loss_db": 3.0, "group": "filter"},
    {"name": "ungrouped", "loss_db": 3.0},
])
def test_unknown_or_missing_loss_group_names_field(entry):
    # a loss outside the known groups would be dropped by the Monte Carlo
    # but kept by the analytic arms
    raw = baseline_dict()
    raw["ledgers"]["signal"].append(entry)
    with pytest.raises(ConfigError, match=r"ledgers\.signal\[7\]\.group"):
        build_config(raw)


@pytest.mark.parametrize("override, message", [
    ({"ledgers": {"signal": [{"loss_db": 1.0, "group": "chip"}]}},
     r"ledgers\.signal\[0\]\.name: expected a string, got nothing"),
    ({"ledgers": {"signal": [{"name": "chip", "group": "chip"}]}},
     r"ledgers\.signal\[0\]\.loss_db: expected a number, got nothing"),
    ({"ledgers": {"signal": ["oops"]}},
     r"ledgers\.signal\[0\]: expected an object, got 'oops'"),
    ({"coincidence": {"histogram_bin_ps": 100.7}},
     r"coincidence\.histogram_bin_ps: expected an integer, got 100\.7"),
    ({"coincidence": {"histogram_bin_ps": True}},
     r"coincidence\.histogram_bin_ps: expected an integer, got True"),
    ({"run": {"include_umis": False}},
     r"unknown config key 'run\.include_umis'"),
    ({"plan": {"offsets": "10"}},
     r"plan\.offsets: expected a list, got '10'"),
    ({"sfwm": {"enhancement": {"S2-I2": "big"}}},
     r"sfwm\.enhancement\.S2-I2: expected a number, got 'big'"),
    ({"sfwm": {"enhancement": {"S2": 5.0}}},
     r"sfwm\.enhancement\.S2: expected a pair label of \['S1-I1', 'S2-I2', 'S3-I3'\]"),
    ({"sfwm": {"enhancement": {"S2-I2": -3}}},
     r"sfwm\.enhancement\.S2-I2: must be >= 0, got -3\.0"),
    ({"plan": {"active": "S3"}},
     r"unknown config key 'plan\.active'"),
    ({"run": {"chip_power_uw": -5}},
     r"^run\.chip_power_uw: must be >= 0, got -5\.0"),
    ({"run": {"chip_power_uw": -5}, "sfwm": {"pair_coefficient": 0.5}},
     r"^run\.chip_power_uw: must be >= 0, got -5\.0"),
    ({"run": {"duration_s": 0}},
     r"^run\.duration_s: must be positive, got 0\.0"),
    ({"conversion": {"calibration_power_mw": 0}},
     r"^conversion\.calibration_power_mw: must be positive, got 0\.0 mW"),
    ({"conversion": {"calibration_eta": 0}},
     r"^conversion\.calibration_eta: must be in \(0, eta_device=1\.0\), got 0\.0"),
    ({"conversion": {"p_pi_mw": -1}},
     r"^conversion\.p_pi_mw: must be positive, got -1\.0 mW"),
    ({"run": {"active_channel": "S9"}},
     r"^run\.active_channel: channel 'S9' not in plan \['S1', 'S2', 'S3'\]"),
    ({"run": {"simulate_all_channels": False}},
     r"unknown config key 'run\.simulate_all_channels'"),
    ({"run": {"convert_signal": False}},
     r"unknown config key 'run\.convert_signal'"),
    ({"run": {"chip_power_uw": float("nan")}},
     r"^run\.chip_power_uw: must be finite, got nan"),
    ({"coincidence": {"window_ns": float("inf")}},
     r"^coincidence\.window_ns: must be finite, got inf"),
    ({"sfwm": {"pair_coefficient": float("-inf")}},
     r"^sfwm\.pair_coefficient: must be finite, got -inf"),
    ({"sfwm": {"enhancement": {"S2-I2": float("nan")}}},
     r"^sfwm\.enhancement\.S2-I2: must be finite, got nan"),
    ({"sfg_pump": {"window_nm": [790.0, float("inf")]}},
     r"^sfg_pump\.window_nm\[1\]: must be finite, got inf"),
    ({"plan": {"offsets": [10, 10]}},
     r"^plan: duplicate pair offset 10$"),
    ({"crystal": {"sellmeier": "nope"}},
     r"^crystal\.sellmeier: unknown Sellmeier set 'nope'; available: \['gayer2008"),
    ({"crystal": {"poling_period_um": 20.0}},
     r"^crystal\.temperature_c: no phase-matching temperature in \[-20\.0, 200\.0\] degC"),
    ({"sfwm": {"raman_fraction": -0.1}},
     r"^sfwm\.raman_fraction: must be >= 0, got -0\.1"),
    ({"sfwm": {"detected_singles_target_hz": 0}},
     r"^sfwm\.detected_singles_target_hz: must be > 0, got 0\.0"),
    ({"run": {"chip_power_uw": 0}},
     r"^sfwm\.pair_coefficient: cannot calibrate at .* run\.chip_power_uw 0\.0"),
    ({"umis": {"signal": {"delay_ns": 2.0}}},
     r"^umis\.signal\.delay_ns: must equal umis\.idler\.delay_ns .* got 2\.0 and 1\.6 ns"),
    # a string is written as the file's text, not as JSON
    ('{"run": {"seed": 1', r"bad\.json: not valid JSON: "),
    ([{"run": {"seed": 1}}], r"bad\.json: top level must be an object"),
    # a detector's efficiency and its arm's ledger entries must state one detector
    ({"detectors": {"apd2": {"efficiency": 0.25}}},
     r"^ledgers\.signal: its detector entries total 3\.00 dB, but "
     r"detectors\.apd2\.efficiency 0\.25 is 6\.02 dB; they must agree within 0\.02 dB$"),
    ({"detectors": {"apd1": {"efficiency": 0.5}}},
     r"^ledgers\.idler: its detector entries total 6\.99 dB, but "
     r"detectors\.apd1\.efficiency 0\.5 is 3\.01 dB"),
    ({"ledgers": {"idler": [{"name": "InGaAs detector", "loss_db": 3.01, "group": "detector"}]}},
     r"^ledgers\.idler: its detector entries total 3\.01 dB, but "
     r"detectors\.apd1\.efficiency 0\.2 is 6\.99 dB"),
])
def test_malformed_override_names_path_and_expectation(tmp_path, override, message):
    path = tmp_path / "bad.json"
    path.write_text(override if isinstance(override, str) else json.dumps(override))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_detector_overridden_in_ledger_and_efficiency_together_builds():
    raw = baseline_dict()
    raw["detectors"]["apd2"]["efficiency"] = 0.25
    si = next(e for e in raw["ledgers"]["signal"] if e["group"] == "detector")
    si["loss_db"] = 6.02  # -10 log10(0.25) = 6.0206 dB
    cfg = build_config(raw)
    assert cfg.apd2.efficiency == 0.25
    assert loss_report(cfg.signal_ledger, cfg.idler_ledger)["signal_total_db"] == \
        pytest.approx(18.59 - 3.00 + 6.02)


def test_build_config_leaves_input_digest_unchanged():
    raw = load_config_dict(None)
    raw["crystal"]["temperature_c"] = 40
    raw["sfwm"]["enhancement"] = {"S1-I1": 2}
    before = config_digest(raw)
    build_config(raw)
    assert config_digest(raw) == before
    assert raw["crystal"]["temperature_c"] == 40 and type(raw["crystal"]["temperature_c"]) is int


def test_integer_for_float_builds_the_float_config():
    as_int, as_float = baseline_dict(), baseline_dict()
    as_int["crystal"]["temperature_c"] = 40
    as_float["crystal"]["temperature_c"] = 40.0
    cfg = build_config(as_int)
    assert cfg == build_config(as_float)
    assert type(cfg.crystal.temperature_c) is float


def test_bad_active_channel_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"run": {"active_channel": "S9"}}')
    with pytest.raises(ConfigError, match="run"):
        load_config(path)


def test_override_merging(tmp_path):
    path = tmp_path / "override.json"
    path.write_text('{"run": {"chip_power_uw": 150.0}, "ring": {"fwhm_mhz": 600.0}}')
    cfg = load_config(path)
    assert cfg.chip_power_uw == 150.0
    assert cfg.ring.fwhm_mhz == 600.0
    assert cfg.ring.fsr_ghz == 200.0  # untouched values stay at baseline


def test_digest_stable_under_key_reordering():
    d1 = {"b": 1, "a": {"y": 2, "x": 3}}
    d2 = {"a": {"x": 3, "y": 2}, "b": 1}
    assert config_digest(d1) == config_digest(d2)


def test_digest_changes_with_content():
    base = baseline_dict()
    other = baseline_dict()
    other["run"]["seed"] = 999
    assert config_digest(base) != config_digest(other)


def test_conversion_curve_calibration_point():
    cfg = load_config(None)
    assert quantum_efficiency(cfg.curve, 550.0) == pytest.approx(0.38, abs=1e-9)


def test_pair_coefficient_backsolve_oracle():
    # oracle: push the calibrated coefficient forward through the explicit
    # efficiency product and recover the target singles rate
    cfg = load_config(None)
    passive = cfg.signal_ledger.linear(groups=("chip", "filters", "sfg_passive"))
    eta = passive * quantum_efficiency(cfg.curve, cfg.sfg_pump.power_mw) * cfg.apd2.efficiency
    p = cfg.chip_power_uw
    detected = eta * (cfg.rates.pair_coefficient * p**2 + cfg.rates.raman_signal * p)
    assert detected == pytest.approx(2000.0, rel=1e-9)


def test_crystal_temperature_auto_solves_design_point():
    from qdemux.sfg import phase_mismatch
    cfg = load_config(None)
    assert abs(phase_mismatch(cfg.crystal, 795.0, 1560.0)) < 1.0


def test_explicit_values_bypass_auto(tmp_path):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({
        "crystal": {"temperature_c": 40.0},
        "sfwm": {"pair_coefficient": 0.5},
        "conversion": {"p_pi_mw": 2500.0},
    }))
    cfg = load_config(path)
    assert cfg.crystal.temperature_c == 40.0
    assert cfg.rates.pair_coefficient == 0.5
    assert cfg.curve.p_pi_mw == 2500.0


# --- CLI ---


def test_plan_csv_matches_grid_table(tmp_path):
    out = tmp_path / "plan"
    assert cli.main(["plan", "--out", str(out)]) == 0
    rows = (out / "plan.csv").read_text().strip().splitlines()[1:]
    values = {row.split(",")[1]: float(row.split(",")[2]) for row in rows}
    assert values["C34"] == pytest.approx(1550.12, abs=0.005)
    assert values["C20"] == pytest.approx(1561.42, abs=0.005)
    assert values["C48"] == pytest.approx(1538.98, abs=0.005)
    assert len(values) == 7


def test_plan_json_format(tmp_path):
    out = tmp_path / "plan"
    assert cli.main(["plan", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert {entry["channel"] for entry in payload} == {
        "C20", "C22", "C24", "C34", "C44", "C46", "C48"}


def test_loss_report_prints_headline_figures(tmp_path, capsys):
    out = tmp_path / "loss"
    assert cli.main(["loss", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for figure in ("8.59", "13.99", "15.59", "18.59"):
        assert figure in text
    assert (out / "loss_report.txt").exists()


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_unknown_flag_exits_1(capsys):
    assert cli.main(["plan", "--nonsense"]) == 1


@pytest.mark.parametrize("argv", [
    ["plan", "--duration", "5"],
    ["ring", "--format", "json"],
    ["plan", "--pump", "30"],
    ["plan", "--offsets", "10,12,14"],
])
def test_flag_the_subcommand_ignores_exits_1(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["ring", "--step-mhz", "0"],
    ["ring", "--step-mhz", "-50"],
    ["ring", "--span-fsr", "-2"],
    ["qpm", "--points", "0"],
    ["sfg-eff", "--points", "0"],
    ["car", "--points", "0"],
    ["car", "--mc-powers", "-5"],
    ["car", "--mc-powers", "0"],
    ["car", "--min-uw", "-5"],
    ["car", "--max-uw", "nan"],
    ["sfg-eff", "--max-mw", "-5"],
    ["qpm", "--temp-span", "inf"],
    ["demux", "--duration-before", "0"],
    ["demux", "--duration-after", "-1"],
])
def test_sweep_flag_must_be_positive(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert f"argument {argv[1]}: must be positive, got {argv[2]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["car", "--mc-powers", ","], "invalid float value: ','"),
    (["car", "--mc-powers", ""], "invalid float value: ''"),
    (["car", "--mc-powers", "50,abc"], "invalid float value: '50,abc'"),
    (["car", "--mc-powers", "50,-5"], "must be positive, got -5"),
    (["fringe", "--points", "3"], "must be at least 4, got 3"),
    (["demux", "--points", "3"], "must be at least 4, got 3"),
])
def test_numeric_flag_refused_when_parsed_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert f"argument {argv[1]}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fringe", "--points", "4", "--duration", "1"],
    ["plan", "--seed", "3"],
])
def test_run_section_not_an_object_exits_1(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"run": 5}')
    assert cli.main(argv + ["--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"config error ({bad}): run: expected an object, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["car", "--duration", "nan"],
    ["fringe", "--duration", "inf"],
])
def test_non_finite_duration_exits_1_naming_it(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert (f"config error (<baseline>): run.duration_s: must be finite, got {argv[2]}"
            in capsys.readouterr().err)


def test_config_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert cli.main(["plan", "--config", str(bad)]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("make, cause", [
    (lambda path: None, "cannot read: No such file or directory"),
    (lambda path: path.mkdir(), "cannot read: Is a directory"),
    (lambda path: path.write_bytes(b'{"run": "\xff"}'), "not UTF-8 text: invalid start byte"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_1_naming_it(tmp_path, capsys, make, cause):
    bad = tmp_path / "bad.json"
    make(bad)
    assert cli.main(["plan", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"config error ({bad}): {bad}: {cause}" in capsys.readouterr().err


def test_runtime_error_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", "--tags", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "out")]) == 2


def test_analyze_out_of_range_time_names_file_and_line(tmp_path, capsys):
    tags = tmp_path / "tags.csv"
    tags.write_text("channel,time_ps\nA,100\nB,99999999999999999999\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1.0, "seed": 0, "config_digest": "", "labels": ["A", "B"]}')
    assert cli.main(["analyze", "--tags", str(tags), "--out", str(tmp_path / "out")]) == 2
    assert ("tags.csv: line 3: time_ps '99999999999999999999' is not an integer"
            in capsys.readouterr().err)


def test_analyze_one_stream_file_names_file_and_labels(tmp_path, capsys):
    stream = EventStream("A", np.array([100, 200], dtype=np.int64), 1.0, seed=0)
    tags = write_streams([stream], tmp_path / "tags.csv")
    assert cli.main(["analyze", "--tags", str(tags), "--out", str(tmp_path / "out")]) == 2
    assert ("tags.csv: tag file has channels ['A']; analyze needs two channels"
            in capsys.readouterr().err)


def test_analyze_reads_only_its_two_streams(tmp_path, capsys):
    # C's times descend: a full read refuses the file, analyze never builds C
    tags = tmp_path / "tags.csv"
    tags.write_text("channel,time_ps\nA,100\nB,150\nC,900\nC,800\n")
    (tmp_path / "tags.manifest.json").write_text(
        '{"duration_s": 1e-6, "seed": 0, "config_digest": "", "labels": ["A", "B", "C"]}')
    out = tmp_path / "out"
    assert cli.main(["analyze", "--tags", str(tags), "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["labels"] == ["A", "B"] and stats["center_counts"] == 1
    assert cli.main(["analyze", "--tags", str(tags), "--a", "A", "--b", "C",
                     "--out", str(out)]) == 2
    assert "tags.csv: stream 'C': timestamps must be strictly" in capsys.readouterr().err
    assert cli.main(["analyze", "--tags", str(tags), "--a", "Z", "--out", str(out)]) == 2
    assert "channels 'Z'/'B' not in tag file ['A', 'B', 'C']" in capsys.readouterr().err


def test_manifest_written_with_digest_and_files(tmp_path):
    out = tmp_path / "plan"
    assert cli.main(["plan", "--out", str(out), "--seed", "42"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "plan"
    assert manifest["seed"] == 42
    assert manifest["files"] == ["plan.csv"]
    assert len(manifest["config_digest"]) == 64


def test_subcommand_outputs_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["fringe", "--channel", "S1", "--points", "4", "--duration", "2"]
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    for name in ("fringe_S1.csv", "fringe_S1_visibility.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # manifests match except for the wall-clock field
    m_a = json.loads((out_a / "manifest.json").read_text())
    m_b = json.loads((out_b / "manifest.json").read_text())
    m_a.pop("runtime_s"), m_b.pop("runtime_s")
    assert m_a == m_b


def test_fringe_channel_flag_is_the_active_channel_key(tmp_path):
    config = tmp_path / "s1.json"
    config.write_text('{"run": {"active_channel": "S1"}}')
    args = ["fringe", "--points", "4", "--duration", "1"]
    for name, extra in (("flag", ["--channel", "S1"]), ("key", ["--config", str(config)]),
                        ("plain", [])):
        assert cli.main(args + extra + ["--out", str(tmp_path / name)]) == 0
    for name in ("fringe_S1.csv", "fringe_S1_visibility.json"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()
    manifests = {name: json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in ("flag", "key", "plain")}
    for manifest in manifests.values():
        manifest.pop("runtime_s")
    assert manifests["flag"] == manifests["key"]
    assert manifests["flag"]["config_digest"] != manifests["plain"]["config_digest"]


def test_fringe_unknown_channel_exits_1_naming_key(tmp_path, capsys):
    argv = ["fringe", "--channel", "S9", "--points", "4", "--duration", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "run.active_channel: channel 'S9' not in plan" in capsys.readouterr().err


def test_seed_changes_stochastic_output(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["fringe", "--channel", "S1", "--points", "4", "--duration", "2"]
    assert cli.main(args + ["--out", str(out_a), "--seed", "1"]) == 0
    assert cli.main(args + ["--out", str(out_b), "--seed", "2"]) == 0
    assert (out_a / "fringe_S1.csv").read_bytes() != (out_b / "fringe_S1.csv").read_bytes()


def test_analyze_matches_in_memory_pipeline(tmp_path):
    out = tmp_path / "demux"
    assert cli.main([
        "demux", "--out", str(out), "--points", "4",
        "--duration-before", "2", "--duration-after", "2", "--duration", "5",
        "--emit-tags",
    ]) == 0

    # reproduce the S2 crosstalk run in memory
    cfg = load_config(None)
    cfg = replace(cfg, active_label="S2", duration_s=5.0,
                  seed=sub_seed(cfg.seed, "demux", "S2"),
                  simulate_all_channels=True, convert_signal=True)
    run = generate_run(cfg)
    streams, manifest = read_streams(out / "tags_S2.csv")
    by_label = {s.label: s for s in streams}
    assert np.array_equal(by_label["S2'"].timestamps_ps, run.signal_stream.timestamps_ps)
    assert np.array_equal(by_label["I2"].timestamps_ps,
                          run.idler_streams["I2"].timestamps_ps)

    # file-based analysis equals the in-memory histogram exactly
    analyze_out = tmp_path / "analyze"
    assert cli.main(["analyze", "--tags", str(out / "tags_S2.csv"),
                     "--a", "S2'", "--b", "I2", "--out", str(analyze_out)]) == 0
    stats = json.loads((analyze_out / "stats.json").read_text())
    h_mem = histogram(run.signal_stream, run.idler_streams["I2"], cfg.coincidence)
    rows = (analyze_out / "histogram.csv").read_text().strip().splitlines()[1:]
    counts_file = np.array([int(r.split(",")[1]) for r in rows])
    assert np.array_equal(counts_file, h_mem.counts)
    assert stats["total_pairs_examined"] == h_mem.total_pairs_examined


@pytest.mark.parametrize("delay_ns", [1.6, 2.0])
def test_analyze_car_is_center_over_its_background(tmp_path, delay_ns):
    # darks raise the accidental floor so that a 3 s run has background counts
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "umis": {"signal": {"delay_ns": delay_ns}, "idler": {"delay_ns": delay_ns}},
        "detectors": {"apd1": {"dark_rate_hz": 4e4}, "apd2": {"dark_rate_hz": 4e4}},
    }))
    out = tmp_path / "demux"
    assert cli.main([
        "demux", "--config", str(config), "--out", str(out), "--points", "4",
        "--duration", "3", "--duration-before", "1", "--duration-after", "1", "--emit-tags",
    ]) == 0
    analyze_out = tmp_path / "analyze"
    assert cli.main(["analyze", "--config", str(config), "--tags", str(out / "tags_S2.csv"),
                     "--a", "S2'", "--b", "I2", "--out", str(analyze_out)]) == 0
    stats = json.loads((analyze_out / "stats.json").read_text())
    assert not stats["car_lower_bound"]
    assert stats["car"] == stats["center_counts"] / stats["background_per_window"]


def test_car_mc_flags_rows_without_background_as_lower_bounds(tmp_path):
    # at seed 7 the 2 s runs below 800 uW see no background count
    out = tmp_path / "car"
    assert cli.main(["car", "--duration", "2", "--points", "2", "--seed", "7",
                     "--out", str(out)]) == 0
    lines = (out / "car_mc.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "lower_bound"
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [r["lower_bound"] for r in rows] == ["true"] * 4 + ["false"]
    for r in rows:
        no_background = float(r["background_per_window"]) == 0.0
        assert (r["lower_bound"] == "true") == no_background == (r["sigma"] == "inf")
