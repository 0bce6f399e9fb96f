import ast
import csv
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
import yaml

import wptsim
from oracles import document_text
from test_golden import SCENARIOS
from wptsim import cli
from wptsim.chirp import ChirpParams
from wptsim.cli import (
    SCENARIO_DEFAULTS,
    ConfigError,
    apply_axis,
    build_scenario,
    cmd_sweep,
    load_config,
    main,
    parse_config,
    run_one,
    serialize_config,
    sweep_jobs,
    write_trace,
)
from wptsim.engine import Scenario, SyncSettings, run_scenario

MINIMAL = {
    "scenario": {
        "slave_count": 3,
        "ring_radius_m": 1.0,
        "ring_height_m": 0.0,
        "node_position_m": [0.0, 0.0, -0.1],
        "rounds": 30,
        "sync_enabled": False,
        "cold_start_enabled": False,
    },
    "seeds": [1],
}


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_parse_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["scenario"]["tx_power_dbm"] == 30.0
    assert cfg["scenario"]["sigma_deg"] == 55.0
    assert cfg["seeds"] == [1]
    assert cfg["sweep"] == {}


def test_config_round_trip():
    cfg = parse_config(MINIMAL)
    again = parse_config(yaml.safe_load(serialize_config(cfg)))
    assert again == cfg
    # And the derived scenario objects agree too.
    assert build_scenario(again["scenario"], 1) == build_scenario(
        cfg["scenario"], 1)


def _readme_config() -> dict:
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return yaml.safe_load(re.search(r"```yaml\n(.*?)```", text, flags=re.S).group(1))


# Full-precision coordinates, 3.67e-16 among them.
_RING_24 = [[6.0 * math.cos(k * math.pi / 12), 6.0 * math.sin(k * math.pi / 12), 3.0]
            for k in range(24)]


@pytest.mark.newest_python
@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("doc", [
    _readme_config(),
    dict(MINIMAL, sweep={"slave_count": [2, 3.0], "speed_m_per_s": [0, 0.05, 1],
                         "sigma_deg": [10.0, 55.0], "chirp_bandwidth_hz": [10e3, 40e3]}),
    dict(MINIMAL, scenario=dict(MINIMAL["scenario"], slave_layout="explicit", slave_count=24,
                                slave_positions_m=_RING_24)),
    dict(MINIMAL, sweep={"leader_node_distance_m": [0.25, 0.5, 1.0, 2.5]}),
], ids=["readme", "list_axes", "explicit_24", "leader_node_distance"])
def test_libyaml_and_pyyaml_write_a_config_s_same_bytes(doc):
    cfg = parse_config(doc)
    text = serialize_config(cfg)
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        assert yaml.dump(cfg, Dumper=dumper, sort_keys=True, default_flow_style=None) == text
    assert parse_config(yaml.safe_load(text)) == cfg


def test_config_defaults_match_dataclass_defaults():
    # The config takes its defaults from the dataclasses, and a scenario
    # built from an empty config must carry each of them through
    # build_scenario.  Fields whose default is itself a dataclass are
    # compared field by field below, except the medium: a bare MediumMap is
    # air, while the config's default node sits in muscle.
    scn = build_scenario(parse_config({})["scenario"], Scenario.seed)
    checked = 0
    for obj, cls in ((scn, Scenario), (scn.sync, SyncSettings), (scn.chirp, ChirpParams)):
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                want = f.default
            elif f.default_factory is not dataclasses.MISSING:
                want = f.default_factory()
            else:
                continue
            if dataclasses.is_dataclass(want):
                continue
            assert getattr(obj, f.name) == want, f"{cls.__name__}.{f.name}"
            checked += 1
    assert checked >= 19


def test_readme_table_gives_every_scenario_key_its_default():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", text, flags=re.M))
    assert rows.keys() == cli.SCENARIO_DEFAULTS.keys()
    for key, (default, read) in cli.SCENARIO_DEFAULTS.items():
        cell = yaml.safe_load(rows[key].strip("`").replace("\u2212", "-"))
        assert read(cell, f"scenario.{key}") == default, key


def test_unknown_field_is_named_in_error():
    doc = {"scenario": {"slave_countt": 3}}
    with pytest.raises(ConfigError, match="slave_countt"):
        parse_config(doc)
    with pytest.raises(ConfigError, match="unknown field 'deadband_frac' in 'scenario'"):
        parse_config({"scenario": {"deadband_frac": 0.001}})


def test_unknown_sweep_axis_rejected():
    doc = dict(MINIMAL, sweep={"bogus_axis": [1, 2]})
    with pytest.raises(ConfigError, match="bogus_axis"):
        parse_config(doc)


def test_seeds_must_be_integers():
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, seeds="not-a-list"))
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL, seeds=[]))


def test_apply_axis_distance_moves_node_along_bearing():
    cfg = parse_config(MINIMAL)["scenario"]
    out = apply_axis(cfg, "leader_node_distance_m", 0.5)
    # Node sits straight below the leader, so distance is applied along -z.
    assert out["node_position_m"] == pytest.approx([0.0, 0.0, -0.5])


def test_apply_axis_slave_count():
    cfg = parse_config(MINIMAL)["scenario"]
    assert apply_axis(cfg, "slave_count", 6)["slave_count"] == 6


def test_run_verb_writes_artifacts(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    doc = json.loads((out / "run_seed1.json").read_text())
    assert 0.0 <= doc["metrics"]["power_percentage"] <= 1.05
    with open(out / "run_seed1_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "y_raw", "y_ref", "phi_deg",
                       "power_percentage"]
    assert len(rows) == 1 + 30
    assert all(len(r) == 5 for r in rows)


def test_run_verb_heatmap_csv(tmp_path):
    doc = dict(MINIMAL, heatmap={"enabled": True, "cube_m": 0.4,
                                 "voxel_m": 0.2})
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "run_seed1_heatmap.csv").read_text().strip().splitlines()
    assert lines[0] == "x_m,y_m,z_m,power_w"
    assert all(len(l.split(",")) == 4 for l in lines[1:])


def test_moving_run_heatmap_holds_the_last_tracked_position(tmp_path):
    # At 1 m/s over 60 rounds the node ends 0.295 m along +x, past the
    # 0.4 m cube's half edge, which used to centre on the start position.
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], speed_m_per_s=1.0, rounds=60),
               heatmap={"enabled": True, "cube_m": 0.4, "voxel_m": 0.1})
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    grid = np.loadtxt(out / "run_seed1_heatmap.csv", delimiter=",", skiprows=1)[:, :3]
    last = build_scenario(parse_config(doc)["scenario"], 1).trajectory[-1]
    assert last[0] > 0.2
    assert np.linalg.norm(grid - last, axis=1).min() <= 0.1 * math.sqrt(3) / 2


@pytest.mark.parametrize("heatmap, field", [
    ({"voxel_m": 0}, "voxel_m"),
    ({"voxel_m": -0.1}, "voxel_m"),
    ({"voxel_m": math.inf}, "voxel_m"),
    ({"voxel_m": "small"}, "voxel_m"),
    ({"cube_m": math.nan}, "cube_m"),
    ({"cube_m": 0.0}, "cube_m"),
    ({"cube_m": True}, "cube_m"),
    ({"cube_m": 0.1, "voxel_m": 0.2}, "voxel_m"),
    ({"enabled": "yes"}, "enabled"),
    ({"enabled": 1}, "enabled"),
    ({"cube_m": 1.0, "voxel_m": 0.3}, "voxel_m"),   # not a whole number of voxels
    # 10^15 voxels, and 101^3 just past the cap: refused before any allocation.
    ({"cube_m": 1.0, "voxel_m": 1.0e-5}, "voxel_m"),
    ({"cube_m": 1.01, "voxel_m": 0.01}, "voxel_m"),
])
def test_bad_heatmap_exits_2_naming_the_field(tmp_path, capsys, heatmap, field):
    doc = dict(MINIMAL, heatmap=dict({"enabled": True}, **heatmap))
    with pytest.raises(ConfigError, match=f"heatmap.{field}"):
        parse_config(doc)
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"heatmap.{field}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("heatmap", [{"cube_m": 0.1, "voxel_m": 0.1},
                                     {"cube_m": 2, "voxel_m": 1},
                                     {"enabled": False, "voxel_m": 0.01},   # 10^6, the cap
                                     # Used to be refused, while the scenario
                                     # section read PyYAML's string 5e-2.
                                     {"voxel_m": "5e-2"}])
def test_good_heatmap_is_accepted(heatmap):
    read = {k: float(v) if isinstance(v, str) else v for k, v in heatmap.items()}
    assert parse_config(dict(MINIMAL, heatmap=heatmap))["heatmap"] == dict(
        {"enabled": False, "cube_m": 1.0, "voxel_m": 0.05}, **read)


def _csv_writer_trace(metrics, path):
    """The trace CSV as ``csv.writer`` wrote it: the byte-for-byte reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "y_raw", "y_ref", "phi_deg", "power_percentage"])
        for (rnd, raw, ref, phi), amp in zip(metrics.metric_trace,
                                             metrics.power_trace):
            w.writerow([rnd, f"{raw:.9g}", f"{ref:.9g}", f"{phi:.6f}",
                        f"{amp * amp:.9g}"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_one_writes_the_round_tripped_document(tmp_path, name):
    # The run document as oracles.document_text lays it out, and the trace
    # as the csv module wrote it.
    scn_cfg, seed, _ = SCENARIOS[name]
    cfg = parse_config({"scenario": scn_cfg})
    point = {"speed_m_per_s": 1.0}
    run_one(cfg, cfg["scenario"], seed, str(tmp_path), "t_", point)
    metrics = run_scenario(build_scenario(cfg["scenario"], seed))
    want = document_text({"point": point, "seed": seed,
                          "metrics": json.loads(metrics.to_json())})
    stem = tmp_path / f"run_t_seed{seed}"
    assert stem.with_suffix(".json").read_bytes() == want.encode()
    _csv_writer_trace(metrics, tmp_path / "want.csv")
    trace = tmp_path / f"run_t_seed{seed}_trace.csv"
    assert trace.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_trace_matches_csv_writer_on_extreme_values(tmp_path):
    metrics = run_scenario(build_scenario(parse_config(MINIMAL)["scenario"], 1))
    metrics.metric_trace = [(0, 0.0, -0.0, 180.0), (1, 1e-300, 5e-324, 1e-7),
                            (2, 1e300, math.inf, -360.0), (3, math.nan, 123456789.0, 0.5)]
    metrics.power_trace = [0.0, 1e-160, 1.0, 0.999999999]
    write_trace(metrics, tmp_path / "got.csv")
    _csv_writer_trace(metrics, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_sweep_on_a_pool_writes_the_serial_bytes(tmp_path):
    doc = {"scenario": dict(MINIMAL["scenario"], rounds=20, baseline="random_phase"),
           "seeds": [3, 4], "sweep": {"speed_m_per_s": [0.0, 1.0]},
           "heatmap": {"enabled": True, "cube_m": 0.4, "voxel_m": 0.1}}
    cfg = parse_config(doc)
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    assert cmd_sweep(cfg, str(pooled), 2) == 0
    assert cmd_sweep(cfg, str(serial), 1) == 0
    names = sorted(os.listdir(serial))
    assert names == sorted(os.listdir(pooled))
    assert len(names) == 2 + 4 * 3     # config, summary; json, trace, heatmap per run
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


@pytest.mark.parametrize("speeds, jobs, pools", [([0.0, 1.0], 500, [2]),
                                                ([0.0], 500, []),
                                                ([0.0, 1.0], 1, [])])
def test_sweep_asks_for_no_more_workers_than_jobs(tmp_path, monkeypatch, speeds, jobs,
                                                  pools):
    # --jobs 500 on a two-job sweep used to ask for 500 processes.
    sizes = []

    class RecordingPool:
        """Records its process count and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(w) for w in work]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    cfg = parse_config(dict(MINIMAL, sweep={"speed_m_per_s": speeds}))
    assert cmd_sweep(cfg, str(tmp_path / "o"), jobs) == 0
    assert sizes == pools
    assert len(os.listdir(tmp_path / "o")) == 2 + 2 * len(speeds)


def test_run_is_reproducible(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg_path, "--out", str(out1)])
    main(["run", "--config", cfg_path, "--out", str(out2)])
    assert (out1 / "run_seed1.json").read_bytes() == \
        (out2 / "run_seed1.json").read_bytes()


def test_seeds_flag_overrides_config(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    main(["run", "--config", cfg_path, "--out", str(out), "--seeds", "7,8"])
    assert (out / "run_seed7.json").exists()
    assert (out / "run_seed8.json").exists()
    assert not (out / "run_seed1.json").exists()


def test_sweep_and_report(tmp_path, capsys):
    doc = dict(MINIMAL, sweep={"sigma_deg": [30.0, 60.0]}, seeds=[1, 2])
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # 2 sweep points x 2 seeds
    assert main(["report", "--out", str(out)]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    data_rows = [l for l in table if "sigma_deg" in l]
    assert len(data_rows) == 2


@pytest.mark.parametrize("text", [
    "{}",                       # used to escape as KeyError: 'point'
    "[1, 2]",                   # used to escape as a TypeError
    "not json",                 # used to exit 2 naming no file
    '{"point": {}, "metrics": {}}',
    '{"point": [], "metrics": {"power_percentage": 0.5}}',
    '{"point": {}, "metrics": {"power_percentage": "0.5"}}',
])
def test_report_refuses_a_file_that_is_not_a_run_document(tmp_path, capsys, text):
    out = tmp_path / "o"
    out.mkdir()
    (out / "run_bad.json").write_text(text)
    assert main(["report", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(out / "run_bad.json") in captured.err and captured.out == ""


def test_report_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 1
    assert "no runs found" in capsys.readouterr().err


@pytest.mark.parametrize("make", [None, "file"])
def test_report_on_a_path_that_is_no_directory_exits_2_naming_it(tmp_path, capsys, make):
    # Used to read as an empty directory: "no runs found", exit 1.
    out = tmp_path / "missing"
    if make == "file":
        out.write_text("")
    assert main(["report", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"cannot list run directory {out}" in captured.err
    assert "no runs found" not in captured.err and captured.out == ""


def test_malformed_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [not, a, mapping\n")
    assert main(["run", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_nan_bound_exits_nonzero(tmp_path, capsys):
    # A NaN bound (YAML ".nan") used to escape main as an OverflowError.
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], bound_deg=math.nan))
    cfg_path = write_cfg(tmp_path, doc)
    assert ".nan" in pathlib.Path(cfg_path).read_text()
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "bound" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("sync_offset_range", -5),
                                        ("sync_residual_jitter", -1),
                                        ("noise_floor_dbm", math.nan),
                                        # Two symbols of the default chirp or more
                                        # used to end in a silent sync failure.
                                        ("sync_offset_range", 20000)])
def test_bad_number_exits_2_naming_the_field(tmp_path, capsys, key, value):
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], sync_enabled=True, **{key: value}))
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert key.removeprefix("sync_") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_oversized_fine_sync_table_exits_2_before_anything_is_written(tmp_path, capsys):
    # On the README chirp, jitter 10,000 would need two 2.6 GB tables.
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], sync_enabled=True,
                                      sync_residual_jitter=10_000))
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scenario.sync_residual_jitter must keep fine sync's table within 256 MiB" in err
    assert "5,004 MiB" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    # Whole-number fields used to be truncated: 2.7 slaves ran 2, 20.5
    # rounds ran 20, an offset range of 10.5 drew offsets up to 10.
    ("slave_count", 2.7),
    ("slave_count", True),
    ("rounds", 20.5),
    ("sync_offset_range", 10.5),
    ("sync_residual_jitter", 1.5),
    # A negative or NaN speed used to run a static node.
    ("speed_m_per_s", -1.0),
    ("speed_m_per_s", math.nan),
    ("speed_m_per_s", math.inf),
    ("speed_m_per_s", None),
    ("speed_m_per_s", "fast"),
    # NaN power, gain or depth used to fail in the aligner as "measurement
    # must be finite"; a NaN wake threshold exited 0 with the node asleep.
    ("tx_power_dbm", math.nan),
    ("tx_gain_dbi", math.inf),
    ("wake_threshold_dbm", math.nan),
    ("muscle_depth_m", math.nan),
    ("freq_hz", 0.0),
    ("freq_hz", -915e6),
    ("freq_hz", math.nan),
    ("freq_hz", math.inf),
    # A negative latency used to report "trajectory times must be strictly
    # increasing".
    ("feedback_latency_s", -1e-3),
    ("feedback_latency_s", math.nan),
    # A zero bandwidth used to escape as a ZeroDivisionError; NaN chirp
    # values failed with errors that named no field.
    ("chirp_bandwidth_hz", 0),
    ("chirp_bandwidth_hz", math.nan),
    ("chirp_symbol_time_s", math.nan),
    ("chirp_symbol_time_s", -4e-3),
    ("chirp_sample_rate_hz", "abc"),
    # A non-number used to report "could not convert string to float", and
    # a NaN ring radius "position coordinates must be finite".
    ("bound_deg", "wide"),
    ("tx_power_dbm", "hot"),
    # The dead band is gone: a config that still sets it is refused.
    ("deadband_frac", 0.001),
    ("ring_radius_m", math.nan),
    ("ring_height_m", "high"),
    ("sigma_deg", None),
    ("noise_floor_dbm", "loud"),
    # A node 0.1 m below the leader used to fail in the channel, after
    # config.yaml was written, with an error naming no field.
    ("muscle_depth_m", 0.2),
    # Quoted flags used to run with both stages on.
    ("sync_enabled", "false"),
    ("cold_start_enabled", "no"),
    # A band above half the sample rate used to fail in ChirpParams, after
    # config.yaml was written, with an error naming no field.
    ("chirp_bandwidth_hz", 2.0e6),
    # A node on the leader used to blame muscle_depth_m, even at depth 0.
    ("node_position_m", [0, 0, 0]),
    # Each used to name the dataclass's field, "bound", "sync offset_range"
    # or "sync residual_jitter", or no field at all.
    ("bound_deg", 200),
    ("slave_count", 0),
    ("sync_residual_jitter", -1),
    ("slave_layout", "grid"),
])
def test_bad_scenario_value_exits_2_naming_the_field(tmp_path, capsys, key, value):
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], **{key: value}))
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unsyncable_offset_range_exits_2_naming_the_field(tmp_path, capsys):
    # An offset range of two symbols or more, which only sync reads, used to
    # print "scenario: sync offset_range must be ...".
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], sync_enabled=True,
                                      sync_offset_range=20000))
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "scenario.sync_offset_range must be below" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    # Each used to write config.yaml, then die with an OverflowError
    # traceback and exit 1...
    ("tx_power_dbm", 4000),
    ("noise_floor_dbm", 4000),
    ("wake_threshold_dbm", 4000),
    ("tx_gain_dbi", 7000),
    # ...or print a numpy overflow warning and "measurement must be
    # finite", naming no field.
    ("freq_hz", 1.0e-300),
])
def test_overflowing_power_or_frequency_exits_2_naming_the_field(tmp_path, capsys, key,
                                                                  value):
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], cold_start_enabled=True,
                                      **{key: value}))
    cfg_path = write_cfg(tmp_path, doc)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"scenario.{key}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("verb, doc", [
    ("run", dict(MINIMAL, scenario=dict(MINIMAL["scenario"], chirp_bandwidth_hz=2.0e6))),
    ("sweep", dict(MINIMAL, sweep={"chirp_bandwidth_hz": [10e3, 2.0e6]})),
])
def test_band_above_half_the_sample_rate_names_both_fields(tmp_path, capsys, verb, doc):
    cfg_path = write_cfg(tmp_path, doc)
    assert main([verb, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scenario.chirp_bandwidth_hz" in err and "scenario.chirp_sample_rate_hz" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds, option", [
    # [1.5, true] used to run seeds [1, 1]; a negative seed failed in numpy
    # after the outputs were written.
    ([1.5, True], None),
    ([-3], None),
    ([1], "1,-2"),
    # An empty --seeds used to run the config's seeds and exit 0.
    ([1], ""),
])
def test_bad_seeds_exit_2_before_anything_is_written(tmp_path, capsys, seeds, option):
    cfg_path = write_cfg(tmp_path, dict(MINIMAL, seeds=seeds))
    extra = [] if option is None else ["--seeds", option]
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), *extra]) == 2
    assert ("seeds must" if option is None else "--seeds must") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Each used to run on one worker, without a word.
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_exits_2_before_anything_is_written(tmp_path, capsys, jobs):
    cfg_path = write_cfg(tmp_path, dict(MINIMAL, sweep={"speed_m_per_s": [0.0]}))
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 2
    assert f"--jobs must be a whole number >= 1, not {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seeds_option_exits_2_naming_it(tmp_path, capsys):
    # Used to report "invalid literal for int()".
    cfg_path = write_cfg(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"),
                 "--seeds", "1,x"]) == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("verb, doc, option, field", [
    # Each used to run the repeated value twice and write its files twice.
    ("run", dict(MINIMAL, seeds=[1, 1]), None, "seeds repeats 1"),
    ("run", dict(MINIMAL, seeds=[2, 1, 2.0]), None, "seeds repeats 2"),
    ("run", MINIMAL, "3,1,3", "--seeds repeats 3"),
    ("sweep", dict(MINIMAL, seeds=[1, 1], sweep={"speed_m_per_s": [0.0]}), None,
     "seeds repeats 1"),
    ("sweep", dict(MINIMAL, sweep={"speed_m_per_s": [0.0, 0.0, 5e-2, 0.05]}), None,
     "sweep.speed_m_per_s repeats 0.0"),
    ("sweep", dict(MINIMAL, sweep={"speed_m_per_s": [0.05, "5e-2"]}), None,
     "sweep.speed_m_per_s repeats 0.05"),
    ("sweep", dict(MINIMAL, sweep={"slave_count": [3, 2, 3.0]}), None,
     "sweep.slave_count repeats 3"),
    ("sweep", dict(MINIMAL, sweep={"leader_node_distance_m": [0.5, 0.5]}), None,
     "sweep.leader_node_distance_m repeats 0.5"),
])
def test_repeated_seed_or_sweep_value_exits_2_naming_the_field(tmp_path, capsys, verb, doc,
                                                               option, field):
    cfg_path = write_cfg(tmp_path, doc)
    extra = ["--seeds", option] if option else []
    out = tmp_path / "o"
    assert main([verb, "--config", cfg_path, "--out", str(out), *extra]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("slave_count", [3, 2.5]),
                                          ("slave_count", [False]),
                                          ("speed_m_per_s", [0.0, -1.0]),
                                          ("speed_m_per_s", [math.nan]),
                                          # None used to escape as a TypeError.
                                          ("sigma_deg", [None]),
                                          ("speed_m_per_s", ["fast"]),
                                          # Used to escape as a ZeroDivisionError.
                                          ("chirp_bandwidth_hz", [10e3, 0]),
                                          ("chirp_bandwidth_hz", [math.nan]),
                                          # -0.5 used to run with the node above
                                          # the leader; 0 and the muscle depth
                                          # failed with errors naming no axis.
                                          ("leader_node_distance_m", [0.5, -0.5]),
                                          ("leader_node_distance_m", [0]),
                                          ("leader_node_distance_m", [0.05]),
                                          ("leader_node_distance_m", [0.03])])
def test_bad_sweep_value_exits_2_naming_the_axis(tmp_path, capsys, axis, values):
    doc = dict(MINIMAL, sweep={axis: values})
    with pytest.raises(ConfigError, match=f"sweep.{axis}"):
        parse_config(doc)
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert f"sweep.{axis}" in capsys.readouterr().err


@pytest.mark.parametrize("axis, values", [("sigma_deg", [30, 200]),
                                          ("slave_count", [3, 0])])
def test_bad_sweep_point_exits_2_before_anything_is_written(tmp_path, capsys, axis,
                                                            values):
    # The first point's runs used to be on disk before the bad point failed.
    cfg_path = write_cfg(tmp_path, dict(MINIMAL, sweep={axis: values}))
    out = tmp_path / "o"
    out.mkdir()
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert f"sweep.{axis}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("key, value", [("slave_count", 4), ("slave_count", 4.0),
                                        ("rounds", 12), ("sync_offset_range", 0),
                                        ("speed_m_per_s", 0), ("speed_m_per_s", 0.5),
                                        ("tx_power_dbm", -10), ("feedback_latency_s", 0.0),
                                        ("muscle_depth_m", 0.0), ("freq_hz", 2.4e9),
                                        # Used to crash in ring_positions with a
                                        # TypeError.
                                        ("ring_radius_m", "1e0"),
                                        ("sync_offset_range", 16383)])
def test_good_scenario_value_is_accepted(key, value):
    cfg = parse_config(dict(MINIMAL, scenario=dict(MINIMAL["scenario"], **{key: value})))
    # PyYAML reads an exponent without a dot, such as 1e0, as a string.
    assert cfg["scenario"][key] == (float(value) if isinstance(value, str) else value)
    build_scenario(cfg["scenario"], 1)


def _exponent_string(x) -> str:
    """``x`` as an exponent without a dot, such as 5e-2."""
    sign, digits, exp = Decimal(repr(float(x))).as_tuple()
    return f"{'-' * sign}{''.join(map(str, digits))}e{exp}"


@pytest.mark.parametrize("layout", ["ring", "linear"])
@pytest.mark.parametrize("key", sorted(
    k for k, (default, _) in SCENARIO_DEFAULTS.items()
    if isinstance(default, (int, float)) and not isinstance(default, bool)) + ["bound_deg"])
def test_numeric_field_is_read_once(key, layout):
    # Each value is read where it enters, so a number PyYAML hands over as a
    # string builds the same scenario as the number.  A linear layout with
    # freq_hz: 915e6 used to crash in linear_positions with a TypeError.
    base = dict(MINIMAL["scenario"], slave_layout=layout, bound_deg=15.0)
    text = _exponent_string(base.get(key, SCENARIO_DEFAULTS[key][0]))
    assert isinstance(yaml.safe_load(f"x: {text}")["x"], str)
    want = build_scenario(parse_config({"scenario": base})["scenario"], 1)
    got = parse_config({"scenario": dict(base, **{key: text})})["scenario"]
    assert build_scenario(got, 1) == want


_EXPLICIT = {"slave_layout": "explicit",
             "slave_positions_m": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]}


@pytest.mark.parametrize("field, scenario", [
    # A NaN position used to fail in Position, whose error names no field.
    ("scenario.leader_position_m", {"leader_position_m": [0.0, math.nan, 0.0]}),
    ("scenario.leader_position_m", {"leader_position_m": [math.inf, 0.0, 0.0]}),
    ("scenario.node_position_m", {"node_position_m": [0.0, math.nan, -0.1]}),
    ("scenario.node_position_m", {"node_position_m": [0.0, 0.0, -math.inf]}),
    ("scenario.node_position_m", {"node_position_m": [0.0, "deep", -0.1]}),
    ("scenario.node_position_m", {"node_position_m": [0.0, 0.0]}),
    ("scenario.slave_positions_m[1]",
     dict(_EXPLICIT, slave_positions_m=[[1.0, 0.0, 0.0], [0.0, math.nan, 0.0]])),
    ("scenario.slave_positions_m[0]",
     dict(_EXPLICIT, slave_positions_m=[[-math.inf, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    ("scenario.slave_positions_m[2]",
     dict(_EXPLICIT, slave_positions_m=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 2.0]])),
    ("scenario.slave_positions_m", dict(_EXPLICIT, slave_positions_m={"a": 1})),
    # A slave on the leader used to write config.yaml, then fail in cold
    # start's slave -> leader link with an error naming no field.
    ("scenario.leader_position_m",
     dict(_EXPLICIT, cold_start_enabled=True,
          slave_positions_m=[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])),
    # A linear layout spaced its slaves by c / f / 2 before the frequency's
    # range was checked: "position coordinates must be finite".
    ("scenario.freq_hz", {"slave_layout": "linear", "slave_count": 24, "freq_hz": 1.0e-300}),
])
def test_bad_position_exits_2_naming_the_field(tmp_path, capsys, field, scenario):
    doc = dict(MINIMAL, scenario=dict(MINIMAL["scenario"], **scenario))
    with pytest.raises(ConfigError, match=re.escape(field) + " must be"):
        parse_config(doc)
    cfg_path = write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert field + " must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, doc, field", [
    ("run", [MINIMAL], "config root"),
    ("run", dict(MINIMAL, scenario=[1, 2]), "'scenario' must be a mapping"),
    ("run", dict(MINIMAL, heatmap="on"), "'heatmap' must be a mapping"),
    ("run", dict(MINIMAL, scenario={"slave_layout": "explicit"}),
     "scenario.slave_positions_m"),
    ("sweep", dict(MINIMAL, sweep=[0.0, 1.0]), "'sweep' must be a mapping"),
    ("sweep", dict(MINIMAL, sweep={"speed_m_per_s": []}), "sweep.speed_m_per_s"),
    ("sweep", dict(MINIMAL, scenario=dict(MINIMAL["scenario"], **_EXPLICIT),
                   sweep={"slave_count": [2]}), "sweep.slave_count"),
    # Used to write config.yaml before it was refused.
    ("sweep", MINIMAL, "'sweep' section"),
])
def test_bad_config_shape_exits_2_before_anything_is_written(tmp_path, capsys, verb, doc,
                                                              field):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=re.escape(field)):
        sweep_jobs(parse_config(doc), str(out))
    cfg_path = write_cfg(tmp_path, doc)
    assert main([verb, "--config", cfg_path, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_explicit_positions_are_accepted():
    cfg = parse_config(dict(MINIMAL, scenario=dict(MINIMAL["scenario"], **_EXPLICIT,
                                                   leader_position_m=[0, 0, 1])))
    assert cfg["scenario"]["leader_position_m"] == [0.0, 0.0, 1.0]
    assert build_scenario(cfg["scenario"], 1).n_slaves == 3


def test_exponent_without_a_dot_is_a_speed(tmp_path):
    # PyYAML reads 5e-2 as a string; the config reads it once, as 0.05, and
    # keeps and records the number.
    path = tmp_path / "cfg.yaml"
    path.write_text("scenario: {speed_m_per_s: 5e-2}\nsweep: {speed_m_per_s: [0, 1e-1]}\n")
    cfg = load_config(str(path))
    assert cfg["scenario"]["speed_m_per_s"] == 0.05
    assert cfg["sweep"]["speed_m_per_s"] == [0.0, 0.1]
    assert "speed_m_per_s: 0.05\n" in serialize_config(cfg)
    assert build_scenario(cfg["scenario"], 0).speed_m_per_s == 0.05


def test_good_sweep_values_are_accepted():
    sweep = {"slave_count": [2, 3.0], "speed_m_per_s": [0, 0.05, 1]}
    cfg = parse_config(dict(MINIMAL, sweep=sweep))
    assert cfg["sweep"] == sweep
    assert len(sweep_jobs(cfg, "unused")) == 5


def test_jobs_is_a_sweep_option(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg_path, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


def test_load_config_reports_unknown_key(tmp_path):
    path = write_cfg(tmp_path, {"scenarioo": {}})
    with pytest.raises(ConfigError, match="scenarioo"):
        load_config(path)


def test_import_loads_no_scipy():
    # scipy is a test dependency: the analyses that use it live in
    # tests/oracles.py, and a run needs only numpy and pyyaml.
    src = os.path.dirname(os.path.dirname(os.path.abspath(wptsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wptsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_no_module_of_the_package_imports_scipy():
    # Unlike the import above, this sees imports inside functions too,
    # which only run when the function is called.
    found = []
    for path in sorted(pathlib.Path(wptsim.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
