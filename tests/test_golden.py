"""Golden metrics documents for four short scenarios.

Each scenario's metrics document (plus, for the moving node, a small field
heatmap) is compared with a committed copy in ``tests/golden/``.  Ints,
bools, strings and list lengths must match exactly; floats must agree to a
relative 1e-12, which admits last-bit differences between numpy's vectorized
and libm's scalar ``log10``/``power`` but nothing a change of model or of
random stream would produce.

Regenerate the files only for a change that is meant to move the outputs:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import math
import pathlib
import sys

import pytest

from wptsim import coldstart as cs
from wptsim.cli import build_scenario, parse_config
from wptsim.engine import heatmap, run_scenario

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
REL_TOL = 1e-12

_BENCH = {
    "ring_radius_m": 1.0, "ring_height_m": 0.0, "node_position_m": [0.0, 0.0, -0.1],
    "muscle_depth_m": 0.05, "rounds": 100, "sync_enabled": False,
    "cold_start_enabled": False,
}

# name -> (scenario config, seed, heatmap cube edge and voxel in m or None)
SCENARIOS = {
    "bench_3": (dict(_BENCH, slave_count=3), 5, None),
    "bench_24": (dict(_BENCH, slave_count=24), 6, None),
    "mobile_1mps": (dict(_BENCH, slave_count=24, speed_m_per_s=1.0, bound_deg=15.0,
                         baseline="random_phase"), 7, (0.4, 0.1)),
    # The README scenario on a 1 ms, 512 kHz, 10 kHz chirp.
    "readme_fast": ({"slave_count": 24, "ring_radius_m": 6.0, "ring_height_m": 3.0,
                     "node_position_m": [0.0, 0.0, -0.1], "muscle_depth_m": 0.05,
                     "tx_power_dbm": 30.0, "rounds": 100,
                     "chirp_bandwidth_hz": 10e3, "chirp_symbol_time_s": 1e-3,
                     "chirp_sample_rate_hz": 512e3, "sync_offset_range": 500,
                     "sync_residual_jitter": 20}, 3, None),
}


def document(name: str) -> dict:
    scn_cfg, seed, hm = SCENARIOS[name]
    scn = build_scenario(parse_config({"scenario": scn_cfg})["scenario"], seed)
    metrics = run_scenario(scn)
    doc = {"metrics": json.loads(metrics.to_json())}
    if hm is not None:
        grid = cs.cube_grid(scn.node_position, *hm)
        doc["heatmap_power_w"] = heatmap(scn, metrics.final_phases, grid).tolist()
    return doc


def mismatches(got, want, path="$") -> list:
    """Where ``got`` departs from ``want`` beyond the golden tolerance."""
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_document(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    bad = mismatches(document(name), want)
    assert not bad, f"{len(bad)} mismatches, first: {bad[:5]}"


def test_mismatches_checks_types_lengths_and_tolerance():
    assert mismatches({"a": [1, 2.0, "x", True]}, {"a": [1, 2.0, "x", True]}) == []
    assert mismatches(1.0 + 1e-13, 1.0) == []
    assert mismatches(1.0 + 1e-11, 1.0)
    assert mismatches(0.0, 1e-300)
    assert mismatches(1, 1.0)
    assert mismatches(True, 1)
    assert mismatches([1], [1, 2])
    assert mismatches({"a": 1}, {"b": 1})


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENARIOS):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(document(name), sort_keys=True, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
