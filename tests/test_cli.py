import csv
import json
import os
import subprocess
import sys

import pytest
import yaml

import wptsim
from wptsim.cli import (
    ConfigError,
    apply_axis,
    build_scenario,
    load_config,
    main,
    parse_config,
    serialize_config,
)

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


def test_unknown_field_is_named_in_error():
    doc = {"scenario": {"slave_countt": 3}}
    with pytest.raises(ConfigError, match="slave_countt"):
        parse_config(doc)


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
    assert rows[0] == ["round", "y_raw", "y_smoothed", "phi_deg",
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


def test_report_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 1
    assert "no runs found" in capsys.readouterr().err


def test_malformed_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [not, a, mapping\n")
    assert main(["run", "--config", str(bad), "--out",
                 str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_load_config_reports_unknown_key(tmp_path):
    path = write_cfg(tmp_path, {"scenarioo": {}})
    with pytest.raises(ConfigError, match="scenarioo"):
        load_config(path)


def test_import_loads_no_scipy():
    # scipy serves only the density-evolution and heat-map region analyses,
    # which import it on first use; the run path must not pay for it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(wptsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wptsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
