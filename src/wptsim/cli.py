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
from .chirp import ChirpParams, DspError
from .engine import (
    Metrics,
    Scenario,
    SyncSettings,
    document_json,
    heatmap,
    linear_positions,
    node_track,
    ring_positions,
    run_scenario,
)


class ConfigError(ValueError):
    pass


# Readers: each takes a raw config value and the name its error gives, and
# returns the value converted, or raises a ConfigError naming the field.
# Ranges that a dataclass checks are left to it (see _check_scenario).

def _to_float(v) -> float:
    """float(v), which reads PyYAML's string ``1e-3``; NaN for bools and non-numbers."""
    try:
        return math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        return math.nan


def _real(low: float = -math.inf, strict: bool = False):
    """Reader of a finite number >= ``low`` (> ``low`` when ``strict``), as a float."""
    def read(v, name: str) -> float:
        x = _to_float(v)
        if not (math.isfinite(x) and (x > low if strict else x >= low)):
            bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
            raise ConfigError(f"{name} must be a finite number{bound}, not {v!r}")
        return x
    return read


def _whole(low: float = -math.inf):
    """Reader of a whole number >= ``low``, as an int: an int, an integral
    float, or a string of either (``--seeds`` gives strings)."""
    def read(v, name: str) -> int:
        x = _to_float(v)
        if not (math.isfinite(x) and x.is_integer() and x >= low):
            bound = "" if low == -math.inf else f" >= {low:g}"
            raise ConfigError(f"{name} must be a whole number{bound}, not {v!r}")
        try:
            return int(v)        # exact for ints and strings of digits
        except (TypeError, ValueError):
            return int(x)        # "1e0"
    return read


def _flag(v, name: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{name} must be true or false, not {v!r}")
    return v


def _coordinates(v, name: str) -> list:
    """Reader of three finite numbers, as floats."""
    xyz = [_to_float(c) for c in v] if isinstance(v, (list, tuple)) and len(v) == 3 else []
    if not (xyz and all(map(math.isfinite, xyz))):
        raise ConfigError(f"{name} must be [x, y, z] of finite numbers, not {v!r}")
    return xyz


def _slave_positions(v, name: str):
    if v is None:
        return None
    if not isinstance(v, list):
        raise ConfigError(f"{name} must be a list, not {v!r}")
    return [_coordinates(p, f"{name}[{i}]") for i, p in enumerate(v)]


def _distinct(values: list, name: str) -> list:
    """``values``, unless one repeats: it would run and write its files twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{name} repeats {v!r}")
    return values


def _layout(v, name: str) -> str:
    if v not in ("ring", "linear", "explicit"):
        raise ConfigError(f"{name} must be ring, linear or explicit, not {v!r}")
    return v


_REAL = _real()
_WHOLE = _whole()
_SEED = _whole(0)

# Canonical scenario fields: (default, reader).  Unknown keys are rejected
# so a typoed field name fails loudly instead of silently using a default.
# A field that a dataclass defaults takes that default.  The rest are the
# config's own; its node sits in muscle, where a bare MediumMap is air.
SCENARIO_DEFAULTS = {
    "slave_layout": ("ring", _layout),
    "slave_count": (24, _WHOLE),
    "ring_radius_m": (6.0, _REAL),
    "ring_height_m": (3.0, _REAL),
    "slave_positions_m": (None, _slave_positions),  # [[x, y, z], ...], explicit layout
    "leader_position_m": ([0.0, 0.0, 0.0], _coordinates),
    "node_position_m": ([0.0, 0.0, -0.1], _coordinates),
    "muscle_depth_m": (0.05, _REAL),
    "tx_power_dbm": (Scenario.tx_power_dbm, _REAL),
    "tx_gain_dbi": (Scenario.tx_gain_dbi, _REAL),
    "freq_hz": (Scenario.freq_hz, _REAL),
    "noise_floor_dbm": (Scenario.noise_floor_dbm,   # null disables receiver noise
                        lambda v, name: None if v is None else _REAL(v, name)),
    "rounds": (Scenario.rounds, _WHOLE),
    "bound_deg": (Scenario.bound,                   # "adaptive" or a fixed bound in degrees
                  lambda v, name: v if v == "adaptive" else _REAL(v, name)),
    "baseline": (Scenario.baseline, lambda v, name: v),  # none | random_phase
    "sync_enabled": (SyncSettings.enabled, _flag),
    "sync_offset_range": (SyncSettings.offset_range, _WHOLE),
    "sync_residual_jitter": (SyncSettings.residual_jitter, _WHOLE),
    "cold_start_enabled": (Scenario.cold_start_enabled, _flag),
    "sigma_deg": (Scenario.sigma_deg, _REAL),
    "wake_threshold_dbm": (Scenario.wake_threshold_dbm, _REAL),
    "chirp_bandwidth_hz": (ChirpParams.bandwidth_hz, _REAL),
    "chirp_symbol_time_s": (ChirpParams.symbol_time_s, _REAL),
    "chirp_sample_rate_hz": (ChirpParams.sample_rate_hz, _REAL),
    "speed_m_per_s": (Scenario.speed_m_per_s, _real(0.0)),  # node drift; 0 keeps it static
    "feedback_latency_s": (Scenario.feedback_latency_s, _REAL),
}

SWEEP_AXES = (
    "slave_count",
    "sigma_deg",
    "chirp_bandwidth_hz",
    "leader_node_distance_m",
    "speed_m_per_s",
)

# The most heat-map voxels a config may ask for: a 1 m cube at 1 cm, which
# samples the 33 cm free-space wavelength at 915 MHz 33 times per edge.
# Larger grids are refused by name before anything is written, not left to
# fail in numpy's allocator after the run's other files exist.
MAX_HEATMAP_VOXELS = 10 ** 6

HEATMAP_DEFAULTS = {"enabled": (False, _flag), "cube_m": (1.0, _real(0.0, strict=True)),
                    "voxel_m": (0.05, _real(0.0, strict=True))}


def _read_section(raw, table: dict, section: str) -> dict:
    """Every field of ``table`` read once: the value given, or its default."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{section}' must be a mapping")
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown field '{key}' in '{section}'")
    return {key: read(raw.get(key, default), f"{section}.{key}")
            for key, (default, read) in table.items()}


# Dataclass fields, as Scenario's and SyncSettings' errors name them, that
# a config key of another name sets.
_CONFIG_KEYS = {"slave_positions": "slave_count", "bound": "bound_deg",
                "offset_range": "sync_offset_range", "residual_jitter": "sync_residual_jitter"}


def _check_scenario(scn_cfg: dict, where: str = "") -> None:
    """Build ``scn_cfg`` once, so that a value its dataclasses refuse, a node
    on the leader or on a slave, or a muscle depth that reaches past one of
    the node's links, fails before anything is written; ``where`` prefixes
    the error."""
    try:
        scn = build_scenario(scn_cfg, 0)
    except DspError as exc:
        # ChirpParams names its own fields, which lack the config's prefix.
        raise ConfigError(f"{where}scenario.chirp_bandwidth_hz, scenario.chirp_symbol_time_s"
                          f" or scenario.chirp_sample_rate_hz: {exc}") from None
    except ValueError as exc:
        # A message that opens with a config key, or with the dataclass field
        # that a key sets, is about that key.
        first, _, rest = str(exc).partition(" ")
        key = _CONFIG_KEYS.get(first, first)
        if key in SCENARIO_DEFAULTS:
            raise ConfigError(f"{where}scenario.{key} {rest}") from None
        raise ConfigError(f"{where}scenario: {exc}") from None
    ends = np.array([scn.leader_position, *scn.slave_positions], dtype=float)
    nearest = float(np.linalg.norm(node_track(scn)[:, None] - ends, axis=-1).min())
    if nearest == 0.0:
        raise ConfigError(f"{where}scenario.node_position_m puts the node on the leader "
                          f"or on a slave")
    depth = scn.medium.muscle_depth_m
    if depth >= nearest:
        raise ConfigError(f"{where}scenario.muscle_depth_m ({depth:g}) must be smaller than "
                          f"the node's distance to the leader and to each slave ({nearest:g})")


def parse_config(doc) -> dict:
    """Read a raw YAML document into the canonical config dict; the scenario
    and every sweep point are built once, to check them."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    for key in doc:
        if key not in ("scenario", "seeds", "sweep", "heatmap"):
            raise ConfigError(f"unknown top-level section '{key}'")

    scenario = _read_section(doc.get("scenario"), SCENARIO_DEFAULTS, "scenario")
    if scenario["slave_layout"] == "explicit" and not scenario["slave_positions_m"]:
        raise ConfigError("explicit layout requires scenario.slave_positions_m")
    _check_scenario(scenario)

    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("'seeds' must be a non-empty list of whole numbers >= 0")
    seeds = _distinct([_SEED(s, "seeds") for s in seeds], "seeds")

    raw_sweep = doc.get("sweep") or {}
    if not isinstance(raw_sweep, dict):
        raise ConfigError("'sweep' must be a mapping of axis -> value list")
    sweep = {}
    for axis, values in raw_sweep.items():
        if axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis '{axis}' (expected one of {', '.join(SWEEP_AXES)})"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a non-empty list")
        # The swept node sits on the leader's bearing to it, past the leader.
        read = (_real(0.0, strict=True) if axis == "leader_node_distance_m"
                else SCENARIO_DEFAULTS[axis][1])
        sweep[axis] = _distinct([read(v, f"sweep.{axis}") for v in values], f"sweep.{axis}")
        for v in sweep[axis]:
            _check_scenario(apply_axis(scenario, axis, v), f"sweep.{axis} = {v!r}: ")

    hm = _read_section(doc.get("heatmap"), HEATMAP_DEFAULTS, "heatmap")
    if hm["voxel_m"] > hm["cube_m"]:
        raise ConfigError("heatmap.voxel_m must not exceed heatmap.cube_m")
    try:
        voxels = cs.voxels_per_edge(hm["cube_m"], hm["voxel_m"]) ** 3
    except ValueError as exc:
        raise ConfigError(f"heatmap.voxel_m: {exc}") from None
    if voxels > MAX_HEATMAP_VOXELS:
        raise ConfigError(f"heatmap.voxel_m: a {hm['cube_m']:g} m cube of {hm['voxel_m']:g} m "
                          f"voxels has {voxels:,} voxels, above the cap of "
                          f"{MAX_HEATMAP_VOXELS:,}")
    return {"scenario": scenario, "seeds": seeds, "sweep": sweep, "heatmap": hm}


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
    n = scn_cfg["slave_count"]
    if layout == "ring":
        return ring_positions(n, scn_cfg["ring_radius_m"], scn_cfg["ring_height_m"])
    if layout == "linear":
        return linear_positions(n, freq_hz=scn_cfg["freq_hz"])
    return [Position(*p) for p in scn_cfg["slave_positions_m"]]


def build_scenario(scn_cfg: dict, seed: int) -> Scenario:
    """The scenario of a canonical config's ``scenario`` section."""
    return Scenario(
        slave_positions=_positions(scn_cfg),
        leader_position=Position(*scn_cfg["leader_position_m"]),
        node_position=Position(*scn_cfg["node_position_m"]),
        medium=MediumMap(muscle_depth_m=scn_cfg["muscle_depth_m"]),
        chirp=ChirpParams(
            bandwidth_hz=scn_cfg["chirp_bandwidth_hz"],
            symbol_time_s=scn_cfg["chirp_symbol_time_s"],
            sample_rate_hz=scn_cfg["chirp_sample_rate_hz"],
        ),
        seed=seed,
        tx_power_dbm=scn_cfg["tx_power_dbm"],
        tx_gain_dbi=scn_cfg["tx_gain_dbi"],
        freq_hz=scn_cfg["freq_hz"],
        noise_floor_dbm=scn_cfg["noise_floor_dbm"],
        rounds=scn_cfg["rounds"],
        bound=scn_cfg["bound_deg"],
        baseline=scn_cfg["baseline"],
        speed_m_per_s=scn_cfg["speed_m_per_s"],
        feedback_latency_s=scn_cfg["feedback_latency_s"],
        sync=SyncSettings(
            enabled=scn_cfg["sync_enabled"],
            offset_range=scn_cfg["sync_offset_range"],
            residual_jitter=scn_cfg["sync_residual_jitter"],
        ),
        sigma_deg=scn_cfg["sigma_deg"],
        wake_threshold_dbm=scn_cfg["wake_threshold_dbm"],
        cold_start_enabled=scn_cfg["cold_start_enabled"],
    )


def apply_axis(scn_cfg: dict, axis: str, value) -> dict:
    """Scenario config with one sweep axis set to a value read by its reader."""
    out = dict(scn_cfg)
    if axis == "leader_node_distance_m":
        lead = np.array(scn_cfg["leader_position_m"])
        direction = np.array(scn_cfg["node_position_m"]) - lead
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.array([0.0, 0.0, -1.0])
        out["node_position_m"] = (lead + value * direction).tolist()
    elif axis == "slave_count" and scn_cfg["slave_layout"] == "explicit":
        raise ConfigError("sweep.slave_count cannot change an explicit layout")
    else:
        out[axis] = value
    return out


# ---------------------------------------------------------------------------
# Artifact writers.

def write_trace(metrics: Metrics, path) -> None:
    """Per-round CSV with ``csv.writer``'s CRLF line ends, in one write."""
    lines = ["round,y_raw,y_ref,phi_deg,power_percentage"]
    lines += [f"{rnd},{raw:.9g},{ref:.9g},{phi:.6f},{amp * amp:.9g}"
              for (rnd, raw, ref, phi), amp in zip(metrics.metric_trace,
                                                   metrics.power_trace)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_heatmap(scn: Scenario, metrics: Metrics, hm_cfg: dict, path) -> None:
    """Field power on a cube centred on the node's last tracked position."""
    grid = cs.cube_grid(Position(*node_track(scn)[-1]), hm_cfg["cube_m"], hm_cfg["voxel_m"])
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
        fh.write(document_json(doc))
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
    jobs = min(jobs, len(work))
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


def _read_run(path: str) -> tuple[str, float]:
    """(sweep point as sorted JSON, power_percentage) of the run document at
    ``path``; a ConfigError naming ``path`` when it is not one."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:       # not JSON, or not UTF-8
        raise ConfigError(f"{path} is not JSON: {exc}") from None
    try:
        point, pct = doc["point"], doc["metrics"]["power_percentage"]
    except (KeyError, IndexError, TypeError):
        point = pct = None
    if not (isinstance(point, dict) and isinstance(pct, (int, float))
            and not isinstance(pct, bool)):
        raise ConfigError(f"{path} is not a run document: it needs a 'point' mapping "
                          f"and a number at metrics.power_percentage")
    return json.dumps(point, sort_keys=True), float(pct)


def collect_runs(out_dir: str) -> list:
    """(point, power_percentage) of every ``run_*.json`` in ``out_dir``; a
    ConfigError naming ``out_dir`` when it cannot be listed."""
    try:
        names = sorted(os.listdir(out_dir))
    except OSError as exc:
        raise ConfigError(f"cannot list run directory {out_dir}: {exc.strerror}") from None
    return [_read_run(os.path.join(out_dir, name)) for name in names
            if name.startswith("run_") and name.endswith(".json")]


def cmd_report(out_dir: str) -> int:
    runs = collect_runs(out_dir)
    if not runs:
        print(f"no runs found in {out_dir}", file=sys.stderr)
        return 1
    groups: dict = {}
    for key, pct in runs:
        groups.setdefault(key, []).append(pct)
    print(f"{'point':<40} {'n':>4} {'mean':>8} {'ci95':>8}")
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        mean = vals.mean()
        # Normal-approximation half width; a single run has no spread estimate.
        ci = 1.96 * vals.std(ddof=1) / math.sqrt(vals.size) if vals.size > 1 else 0.0
        print(f"{key:<40} {vals.size:>4} {mean:>8.4f} {ci:>8.4f}")
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
        if args.seeds is not None:
            cfg["seeds"] = _distinct([_SEED(s, "--seeds") for s in args.seeds.split(",")],
                                     "--seeds")
        if args.verb == "run":
            return cmd_run(cfg, args.out)
        return cmd_sweep(cfg, args.out, max(1, args.jobs))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
