"""Command-line front end: run scenarios, parameter sweeps and reports.

Configs are YAML with units spelled out in the field names (meters, hz,
dbm, degrees) so a value can never be mistaken for the wrong unit.  Seeds
are listed explicitly; nothing reads wall-clock entropy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from multiprocessing import Pool

import numpy as np
import yaml

from . import coldstart as cs
from .channel import MediumMap, Position
from .chirp import ChirpParams
from .engine import (
    Metrics,
    Scenario,
    SyncSettings,
    heatmap,
    linear_positions,
    ring_positions,
    run_scenario,
)


class ConfigError(ValueError):
    pass


# Canonical scenario fields and their defaults.  Unknown keys are rejected
# so a typoed field name fails loudly instead of silently using a default.
SCENARIO_DEFAULTS = {
    "slave_layout": "ring",           # ring | linear | explicit
    "slave_count": 24,
    "ring_radius_m": 6.0,
    "ring_height_m": 3.0,
    "slave_positions_m": None,        # [[x, y, z], ...] for explicit layout
    "leader_position_m": [0.0, 0.0, 0.0],
    "node_position_m": [0.0, 0.0, -0.1],
    "muscle_depth_m": 0.05,
    "tx_power_dbm": 30.0,
    "tx_gain_dbi": 4.0,
    "freq_hz": 915e6,
    "noise_floor_dbm": -70.0,         # null disables receiver noise
    "rounds": 300,
    "bound_deg": "adaptive",          # "adaptive" or a fixed bound in degrees
    "baseline": "none",               # none | random_phase
    "sync_enabled": True,
    "sync_offset_range": 8000,
    "sync_residual_jitter": 60,
    "cold_start_enabled": True,
    "sigma_deg": 55.0,
    "wake_threshold_dbm": -20.0,
    "chirp_bandwidth_hz": 40e3,
    "chirp_symbol_time_s": 4e-3,
    "chirp_sample_rate_hz": 2.048e6,
    "speed_m_per_s": 0.0,             # node drift speed; 0 keeps it static
    "feedback_latency_s": 1e-3,
    "deadband_frac": 0.001,
}

SWEEP_AXES = (
    "slave_count",
    "sigma_deg",
    "chirp_bandwidth_hz",
    "leader_node_distance_m",
    "speed_m_per_s",
)

HEATMAP_DEFAULTS = {"enabled": False, "cube_m": 1.0, "voxel_m": 0.05}


def _is_whole(v) -> bool:
    """An int or an integral float; YAML's true and false are not numbers here."""
    return not isinstance(v, bool) and (isinstance(v, int) or
                                        isinstance(v, float) and v.is_integer())


def _to_float(v) -> float:
    """float(v), which reads PyYAML's string ``1e-3``; NaN for bools and non-numbers."""
    try:
        return math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        return math.nan


def _number(v, name: str, low: float = -math.inf, strict: bool = False) -> float:
    """``v`` as a float; ConfigError naming ``name`` unless it is a finite
    number >= ``low``, or > ``low`` when ``strict``."""
    x = _to_float(v)
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ConfigError(f"{name} must be a finite number{bound}, not {v!r}")
    return x


def _coordinates(v, name: str) -> list:
    """``v`` as three floats; ConfigError naming ``name`` unless it is three
    finite numbers."""
    xyz = [_to_float(c) for c in v] if isinstance(v, (list, tuple)) and len(v) == 3 else []
    if not (xyz and all(map(math.isfinite, xyz))):
        raise ConfigError(f"{name} must be [x, y, z] of finite numbers, not {v!r}")
    return xyz


def _merge_section(raw, defaults, section):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{section}' must be a mapping")
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown field '{key}' in '{section}'")
    out = dict(defaults)
    out.update(raw)
    return out


def parse_config(doc) -> dict:
    """Validate a raw YAML document into the canonical config dict."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    for key in doc:
        if key not in ("scenario", "seeds", "sweep", "heatmap"):
            raise ConfigError(f"unknown top-level section '{key}'")

    scenario = _merge_section(doc.get("scenario"), SCENARIO_DEFAULTS, "scenario")
    if scenario["slave_layout"] not in ("ring", "linear", "explicit"):
        raise ConfigError("scenario.slave_layout must be ring, linear or explicit")
    if scenario["slave_layout"] == "explicit" and not scenario["slave_positions_m"]:
        raise ConfigError("explicit layout requires scenario.slave_positions_m")
    for vec_field in ("leader_position_m", "node_position_m"):
        scenario[vec_field] = _coordinates(scenario[vec_field], f"scenario.{vec_field}")
    slaves = scenario["slave_positions_m"]
    if slaves is not None:
        if not isinstance(slaves, list):
            raise ConfigError(f"scenario.slave_positions_m must be a list, not {slaves!r}")
        for i, p in enumerate(slaves):
            _coordinates(p, f"scenario.slave_positions_m[{i}]")
    if scenario["bound_deg"] != "adaptive":
        scenario["bound_deg"] = _number(scenario["bound_deg"], "scenario.bound_deg")
    for key in ("slave_count", "rounds", "sync_offset_range", "sync_residual_jitter"):
        if not _is_whole(scenario[key]):
            raise ConfigError(
                f"scenario.{key} must be a whole number, not {scenario[key]!r}")
    # Every other number is read here, so that its error names its field;
    # the scenario's own checks then apply the ranges not given here.
    for key in ("ring_radius_m", "ring_height_m", "muscle_depth_m", "tx_power_dbm",
                "tx_gain_dbi", "freq_hz", "sigma_deg", "wake_threshold_dbm",
                "feedback_latency_s", "deadband_frac"):
        _number(scenario[key], f"scenario.{key}")
    if scenario["noise_floor_dbm"] is not None:
        _number(scenario["noise_floor_dbm"], "scenario.noise_floor_dbm")
    for key in ("chirp_bandwidth_hz", "chirp_symbol_time_s", "chirp_sample_rate_hz"):
        _number(scenario[key], f"scenario.{key}", 0.0, strict=True)
    _number(scenario["speed_m_per_s"], "scenario.speed_m_per_s", 0.0)

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("'seeds' must be a non-empty list of integers")
    try:
        seeds = [int(s) for s in seeds]
    except (TypeError, ValueError):
        raise ConfigError("'seeds' must be a non-empty list of integers")

    sweep = doc.get("sweep") or {}
    if not isinstance(sweep, dict):
        raise ConfigError("'sweep' must be a mapping of axis -> value list")
    for axis, values in sweep.items():
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis '{axis}' (expected one of {', '.join(SWEEP_AXES)})"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a non-empty list")
        low, strict = {"speed_m_per_s": (0.0, False),
                       "chirp_bandwidth_hz": (0.0, True)}.get(axis, (-math.inf, False))
        for v in values:
            _number(v, f"sweep.{axis}", low, strict)
        if axis == "slave_count" and not all(map(_is_whole, values)):
            raise ConfigError(
                f"sweep.slave_count values must be whole numbers, not {values!r}")
        if axis == "leader_node_distance_m":
            # The swept node sits on the leader's bearing to it, past the tissue.
            depth = _to_float(scenario["muscle_depth_m"])
            if any(_to_float(v) <= depth for v in values):
                raise ConfigError("sweep.leader_node_distance_m values must exceed "
                                  f"scenario.muscle_depth_m ({depth:g}), not {values!r}")

    hm = _merge_section(doc.get("heatmap"), HEATMAP_DEFAULTS, "heatmap")
    if not isinstance(hm["enabled"], bool):
        raise ConfigError("heatmap.enabled must be true or false")
    for key in ("cube_m", "voxel_m"):
        v = hm[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
                math.isfinite(v) and v > 0):
            raise ConfigError(f"heatmap.{key} must be a finite number > 0, not {v!r}")
    if hm["voxel_m"] > hm["cube_m"]:
        raise ConfigError("heatmap.voxel_m must not exceed heatmap.cube_m")
    return {"scenario": scenario, "seeds": seeds, "sweep": dict(sweep), "heatmap": hm}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return parse_config(doc)


def serialize_config(cfg: dict) -> str:
    """YAML form of a canonical config; parse(serialize(cfg)) == cfg."""
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


def _positions(scn_cfg: dict) -> list:
    layout = scn_cfg["slave_layout"]
    n = int(scn_cfg["slave_count"])
    if layout == "ring":
        return ring_positions(n, scn_cfg["ring_radius_m"], scn_cfg["ring_height_m"])
    if layout == "linear":
        return linear_positions(n, freq_hz=scn_cfg["freq_hz"])
    return [Position(*map(float, p)) for p in scn_cfg["slave_positions_m"]]


def build_scenario(scn_cfg: dict, seed: int) -> Scenario:
    node = Position(*scn_cfg["node_position_m"])
    chirp = ChirpParams(
        bandwidth_hz=float(scn_cfg["chirp_bandwidth_hz"]),
        symbol_time_s=float(scn_cfg["chirp_symbol_time_s"]),
        sample_rate_hz=float(scn_cfg["chirp_sample_rate_hz"]),
    )
    speed = float(scn_cfg["speed_m_per_s"])
    trajectory = []
    if speed > 0:
        round_s = chirp.symbol_time_s + float(scn_cfg["feedback_latency_s"])
        total_s = int(scn_cfg["rounds"]) * round_s
        end = Position(node.x + speed * total_s, node.y, node.z)
        trajectory = [(0.0, node), (total_s, end)]
    cold = cs.ColdStartConfig(sigma_deg=float(scn_cfg["sigma_deg"]))
    return Scenario(
        slave_positions=_positions(scn_cfg),
        leader_position=Position(*scn_cfg["leader_position_m"]),
        node_position=node,
        medium=MediumMap(muscle_depth_m=float(scn_cfg["muscle_depth_m"])),
        chirp=chirp,
        seed=seed,
        tx_power_dbm=float(scn_cfg["tx_power_dbm"]),
        tx_gain_dbi=float(scn_cfg["tx_gain_dbi"]),
        freq_hz=float(scn_cfg["freq_hz"]),
        noise_floor_dbm=None if scn_cfg["noise_floor_dbm"] is None
        else float(scn_cfg["noise_floor_dbm"]),
        rounds=int(scn_cfg["rounds"]),
        bound=scn_cfg["bound_deg"],
        baseline=scn_cfg["baseline"],
        trajectory=trajectory,
        feedback_latency_s=float(scn_cfg["feedback_latency_s"]),
        sync=SyncSettings(
            enabled=bool(scn_cfg["sync_enabled"]),
            offset_range=int(scn_cfg["sync_offset_range"]),
            residual_jitter=int(scn_cfg["sync_residual_jitter"]),
        ),
        cold_start=cold,
        wake_threshold_dbm=float(scn_cfg["wake_threshold_dbm"]),
        deadband_frac=float(scn_cfg["deadband_frac"]),
        cold_start_enabled=bool(scn_cfg["cold_start_enabled"]),
    )


def apply_axis(scn_cfg: dict, axis: str, value) -> dict:
    """Scenario config with one sweep axis overridden."""
    out = dict(scn_cfg)
    if axis == "leader_node_distance_m":
        lead = np.array(scn_cfg["leader_position_m"], dtype=float)
        node = np.array(scn_cfg["node_position_m"], dtype=float)
        direction = node - lead
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.array([0.0, 0.0, -1.0])
        out["node_position_m"] = [float(c) for c in lead + float(value) * direction]
    elif axis == "slave_count":
        if scn_cfg["slave_layout"] == "explicit":
            raise ConfigError("cannot sweep slave_count over an explicit layout")
        out["slave_count"] = int(value)
    else:
        out[axis] = float(value)
    return out


# ---------------------------------------------------------------------------
# Artifact writers.

def write_trace(metrics: Metrics, path) -> None:
    """Per-round CSV with ``csv.writer``'s CRLF line ends, in one write."""
    lines = ["round,y_raw,y_smoothed,phi_deg,power_percentage"]
    lines += [f"{rnd},{raw:.9g},{smoothed:.9g},{phi:.6f},{amp * amp:.9g}"
              for (rnd, raw, smoothed, phi), amp in zip(metrics.metric_trace,
                                                        metrics.power_trace)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_heatmap(scn: Scenario, metrics: Metrics, hm_cfg: dict, path) -> None:
    grid = cs.cube_grid(scn.node_position, hm_cfg["cube_m"], hm_cfg["voxel_m"])
    power = heatmap(scn, metrics.final_phases, grid)
    cs.export_heatmap(grid, power, path)


def run_one(cfg: dict, scn_cfg: dict, seed: int, out_dir: str, tag: str,
            point: dict) -> dict:
    """Run one scenario and write its artifacts; returns the summary row."""
    scn = build_scenario(scn_cfg, seed)
    metrics = run_scenario(scn)
    stem = f"run_{tag}seed{seed}"
    doc = {"point": point, "seed": seed, "metrics": metrics.as_dict()}
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1))
    if metrics.metric_trace:
        write_trace(metrics, os.path.join(out_dir, stem + "_trace.csv"))
    if cfg["heatmap"]["enabled"] and metrics.final_phases:
        write_heatmap(scn, metrics, cfg["heatmap"],
                      os.path.join(out_dir, stem + "_heatmap.csv"))
    return {"point": point, "seed": seed,
            "power_percentage": metrics.power_percentage,
            "rounds_to_converge": metrics.rounds_to_converge}


def _run_point(args):
    return run_one(*args)


# ---------------------------------------------------------------------------
# Verbs.

def cmd_run(cfg: dict, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        fh.write(serialize_config(cfg))
    for seed in cfg["seeds"]:
        row = run_one(cfg, cfg["scenario"], seed, out_dir, "", {})
        print(f"seed {seed}: power_percentage={row['power_percentage']:.4f} "
              f"rounds_to_converge={row['rounds_to_converge']}")
    return 0


def sweep_jobs(cfg: dict, out_dir: str) -> list:
    if not cfg["sweep"]:
        raise ConfigError("sweep requires a non-empty 'sweep' section")
    jobs = []
    for axis in SWEEP_AXES:
        if axis not in cfg["sweep"]:
            continue
        for value in cfg["sweep"][axis]:
            scn_cfg = apply_axis(cfg["scenario"], axis, value)
            point = {axis: value}
            tag = f"{axis}_{value}_"
            for seed in cfg["seeds"]:
                jobs.append((cfg, scn_cfg, seed, out_dir, tag, point))
    return jobs


def cmd_sweep(cfg: dict, out_dir: str, jobs: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.yaml"), "w") as fh:
        fh.write(serialize_config(cfg))
    work = sweep_jobs(cfg, out_dir)
    if jobs > 1:
        with Pool(jobs) as pool:
            rows = pool.map(_run_point, work)
    else:
        rows = [_run_point(w) for w in work]
    # Merge the per-run outputs into one summary, single-threaded.
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "seed", "power_percentage", "rounds_to_converge"])
        for row in rows:
            w.writerow([json.dumps(row["point"], sort_keys=True), row["seed"],
                        f"{row['power_percentage']:.9g}",
                        row["rounds_to_converge"]])
    print(f"{len(rows)} runs written to {out_dir}")
    return 0


def collect_runs(out_dir: str) -> list:
    rows = []
    try:
        names = sorted(os.listdir(out_dir))
    except OSError:
        return rows
    for name in names:
        if not (name.startswith("run_") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            doc = json.load(fh)
        rows.append(doc)
    return rows


def cmd_report(out_dir: str, stream=None) -> int:
    stream = stream or sys.stdout
    runs = collect_runs(out_dir)
    if not runs:
        print(f"no runs found in {out_dir}", file=sys.stderr)
        return 1
    groups: dict = {}
    for doc in runs:
        key = json.dumps(doc["point"], sort_keys=True)
        groups.setdefault(key, []).append(doc["metrics"]["power_percentage"])
    print(f"{'point':<40} {'n':>4} {'mean':>8} {'ci95':>8}", file=stream)
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        mean = vals.mean()
        # Normal-approximation half width; a single run has no spread estimate.
        ci = 1.96 * vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0
        print(f"{key:<40} {vals.size:>4} {mean:>8.4f} {ci:>8.4f}", file=stream)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="Deterministic simulator of backscatter-assisted "
        "distributed beamforming for wireless power transfer.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seeds", help="comma-separated override of config seeds")
        if verb == "sweep":
            p.add_argument("--jobs", type=int, default=1)
    p = sub.add_parser("report")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "report":
            return cmd_report(args.out)
        cfg = load_config(args.config)
        if args.seeds:
            try:
                cfg["seeds"] = [int(s) for s in args.seeds.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--seeds must be comma-separated integers, not {args.seeds!r}") from None
        if args.verb == "run":
            return cmd_run(cfg, args.out)
        return cmd_sweep(cfg, args.out, max(1, args.jobs))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
