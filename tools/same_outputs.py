"""Check that the working tree writes the same output bytes as a base revision.

    python3 tools/same_outputs.py --base <rev> [--expect PATTERN ...] [--tiny]

Run from anywhere inside the checkout.  The committed files of ``<rev>`` are
exported (``git archive``) into a temporary directory, and one fixed corpus
is written twice, each time by a fresh interpreter that imports ``wptsim``
from one tree's ``src/``: first the base, then the working tree.  The corpus:

- ``golden/``: the four golden documents of ``tests/test_golden.py``;
- ``sync/``: README-pipeline runs on the 512 kHz readme_fast chirp with sync
  on, over seeds 0-9, residual jitter 0, 20 and 60, with the receiver noise
  floor at -70 dBm and off, and at +30 dBm, where sync fails; and the
  README default scenario, on its 40 kHz, 4 ms chirp at 2.048 MHz, over
  seeds 0-1 with jitter 60, the noise floor at -70 dBm and off, and 20
  alignment rounds;
- ``bench/``: bench-mode runs (sync and cold start off, the criterion-4
  geometry) over seeds 0-19 x N in {1, 2, 3, 24}, with the noise floor at
  -70 dBm and off; at N in {3, 24} over seeds 0-4, fixed bounds of 1 and
  180 degrees, one round, a -50 dBm noise floor, nodes moving at 0.05 and
  1 m/s, and a node in air (muscle depth 0);
- ``readme/``: the README scenario on the readme_fast chirp with cold start
  on and sync off, over seeds 0-19, with the leader on the ring's axis and
  off it at (0.3, 0.2, 0) m, where cold start walks or fails;
- ``run/``: ``wptsim run`` of three seeds, with trace CSVs and config.yaml;
- ``sweep/``: ``wptsim sweep`` over node speed on two workers, with trace
  and heat-map CSVs and summary.csv.

Every file of one tree is compared with the other's byte for byte.  Each
file that differs is printed with its first differing JSON key or text line.
The exit status is 1 when a file differs and no ``--expect`` pattern
(``fnmatch``, relative to the corpus root, e.g. ``sweep/*_heatmap.csv``)
names it, or when either tree fails to write the corpus; 2 when ``<rev>``
cannot be exported; else 0.  Each ``--expect`` adds its patterns to those
of the others.  ``--tiny`` writes a corpus of a few short runs, for the
tests.

The golden scenarios are read from this tree's ``tests/test_golden.py`` for
both runs, so both trees simulate the same inputs.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

# The README scenario on the readme_fast chirp; perfbench/workloads.py and
# the readme_fast golden use the same chirp and sync settings.
README_FAST = {
    "slave_count": 24, "ring_radius_m": 6.0, "ring_height_m": 3.0,
    "node_position_m": [0.0, 0.0, -0.1], "muscle_depth_m": 0.05, "tx_power_dbm": 30.0,
    "chirp_bandwidth_hz": 10e3, "chirp_symbol_time_s": 1e-3,
    "chirp_sample_rate_hz": 512e3, "sync_offset_range": 500, "sync_residual_jitter": 20,
}
# Receiver noise floors of the sync runs: the default, none (fine sync's
# noise-free envelope) and one at which the preamble is lost in the noise.
SYNC_FLOORS = {"floor-70": -70.0, "nofloor": None, "floor+30": 30.0}
# The README default scenario, whose chirp gives fine sync 8,192 blocks per
# window, a table row built in steps and 8192-point batched FFTs.
README_SYNC = {"sync_residual_jitter": 60, "rounds": 20}
README_SYNC_FLOORS = {"floor-70": -70.0, "nofloor": None}
# Bench mode, as criterion 4 runs it: a 1 m ring around a node 10 cm down in
# muscle, which starts awake, with sync off.
BENCH = {"ring_radius_m": 1.0, "ring_height_m": 0.0, "node_position_m": [0.0, 0.0, -0.1],
         "muscle_depth_m": 0.05, "sync_enabled": False, "cold_start_enabled": False}
BENCH_FLOORS = {"floor-70": -70.0, "nofloor": None}
# One change each to a bench run: the extreme fixed bounds, a single round,
# a noise floor at which noise decides many accepts, a moving node, and a
# node in air, whose outbound link to the leader is air alone.
BENCH_VARIANTS = {"bound1": {"bound_deg": 1.0}, "bound180": {"bound_deg": 180.0},
                  "rounds1": {"rounds": 1}, "floor-50": {"noise_floor_dbm": -50.0},
                  "speed0.05": {"speed_m_per_s": 0.05}, "speed1": {"speed_m_per_s": 1.0},
                  "air": {"muscle_depth_m": 0.0}}
# The README scenario with cold start on and sync off, its leader on the
# ring's axis and off it.
README_LEADERS = {"onaxis": [0.0, 0.0, 0.0], "offaxis": [0.3, 0.2, 0.0]}

CORPORA = {
    "full": {"goldens": None, "sync_seeds": range(10), "jitters": (0, 20, 60),
             "readme_sync_seeds": range(2), "rounds": 100, "bench_seeds": range(20),
             "bench_sizes": (1, 2, 3, 24), "variant_seeds": range(5),
             "variant_sizes": (3, 24), "readme_seeds": range(20), "run_seeds": [1, 2, 3],
             "sweep_seeds": [1, 2], "sweep_slaves": 8, "jobs": 2},
    "tiny": {"goldens": ["bench_3"], "sync_seeds": range(2), "jitters": (20,),
             "readme_sync_seeds": range(0), "rounds": 10, "bench_seeds": range(1),
             "bench_sizes": (3,), "variant_seeds": range(0), "variant_sizes": (),
             "readme_seeds": range(0), "run_seeds": [1], "sweep_seeds": [1],
             "sweep_slaves": 3, "jobs": 1},
}


def write_corpus(out: Path, corpus: dict) -> None:
    """Write every corpus file under ``out`` with the ``wptsim`` on sys.path."""
    import wptsim
    from wptsim import cli, engine

    if not Path(wptsim.__file__).resolve().is_relative_to(Path("src").resolve()):
        raise SystemExit(f"imported {wptsim.__file__}, not the tree's src/wptsim")
    sys.path.insert(0, str(ROOT / "tests"))
    import test_golden

    def dump(path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    for name in corpus["goldens"] or sorted(test_golden.SCENARIOS):
        dump(out / "golden" / f"{name}.json",
             json.dumps(test_golden.document(name), sort_keys=True, indent=1) + "\n")

    def documents(path: str, seeds, scenario: dict) -> None:
        scn_cfg = cli.parse_config({"scenario": scenario})["scenario"]
        for seed in seeds:
            metrics = engine.run_scenario(cli.build_scenario(scn_cfg, seed))
            dump(out / f"{path}_seed{seed}.json", metrics.to_json() + "\n")

    rounds = corpus["rounds"]
    for jitter in corpus["jitters"]:
        for label, floor in SYNC_FLOORS.items():
            documents(f"sync/jitter{jitter}_{label}", corpus["sync_seeds"],
                      dict(README_FAST, rounds=rounds, sync_residual_jitter=jitter,
                           noise_floor_dbm=floor))
    for label, floor in README_SYNC_FLOORS.items():
        documents(f"sync/readme_jitter60_{label}", corpus["readme_sync_seeds"],
                  dict(README_SYNC, noise_floor_dbm=floor))
    for n in corpus["bench_sizes"]:
        for label, floor in BENCH_FLOORS.items():
            documents(f"bench/n{n}_{label}", corpus["bench_seeds"],
                      dict(BENCH, slave_count=n, rounds=rounds, noise_floor_dbm=floor))
    for n in corpus["variant_sizes"]:
        for label, change in BENCH_VARIANTS.items():
            documents(f"bench/n{n}_{label}", corpus["variant_seeds"],
                      {**BENCH, "slave_count": n, "rounds": rounds, **change})
    for label, leader in README_LEADERS.items():
        documents(f"readme/{label}", corpus["readme_seeds"],
                  dict(README_FAST, rounds=rounds, leader_position_m=leader,
                       sync_enabled=False))

    def cli_verb(verb: str, cfg: dict, *extra: str) -> None:
        path = out / f"{verb}_config.yaml"
        dump(path, yaml.safe_dump(cfg))
        with redirect_stdout(io.StringIO()):
            status = cli.main([verb, "--config", str(path), "--out", str(out / verb), *extra])
        if status != 0:
            raise SystemExit(f"wptsim {verb} exited {status}")

    cli_verb("run", {"scenario": dict(README_FAST, rounds=rounds),
                     "seeds": corpus["run_seeds"]})
    # A 1 m ring, on which a few slaves wake the node and alignment runs.
    cli_verb("sweep", {"scenario": dict(README_FAST, rounds=rounds, ring_radius_m=1.0,
                                        ring_height_m=0.0,
                                        slave_count=corpus["sweep_slaves"]),
                       "seeds": corpus["sweep_seeds"],
                       "sweep": {"speed_m_per_s": [0.0, 0.05]},
                       "heatmap": {"enabled": True, "cube_m": 0.2, "voxel_m": 0.05}},
             "--jobs", str(corpus["jobs"]))


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_tree(tree: Path, out: Path, tiny: bool) -> bool:
    """Write the corpus with ``tree/src`` first on the path; False on failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--write", str(out)]
    proc = subprocess.run(cmd + (["--tiny"] if tiny else []), env=env, cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"corpus failed in {tree}:\n{proc.stderr[-2000:]}", file=sys.stderr)
    return proc.returncode == 0


def first_json_difference(a, b, path: str = "$"):
    """Path of the first key or index where ``a`` and ``b`` differ, or None."""
    if type(a) is not type(b):
        return f"{path} ({type(a).__name__} vs {type(b).__name__})"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key} (only in {'head' if key in b else 'base'})"
            found = first_json_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_json_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return f"{path} (length {len(a)} vs {len(b)})" if len(a) != len(b) else None
    # repr keeps NaN equal to NaN and -0.0 apart from 0.0.
    return None if repr(a) == repr(b) else f"{path}: {a!r} vs {b!r}"


def first_difference(base: bytes, head: bytes, name: str) -> str:
    """Where two different files first differ: a JSON key, else a line."""
    if name.endswith(".json"):
        try:
            found = first_json_difference(json.loads(base), json.loads(head))
        except ValueError:
            found = None
        return found or "same values, different bytes"
    for i, (x, y) in enumerate(zip(base.splitlines(), head.splitlines()), start=1):
        if x != y:
            for j, (u, v) in enumerate(zip(x.split(b","), y.split(b",")), start=1):
                if u != v:
                    return f"line {i}, field {j}: {u.decode()[:60]!r} vs {v.decode()[:60]!r}"
            return f"line {i}: {x.count(b',') + 1} vs {y.count(b',') + 1} fields"
    return f"{len(base.splitlines())} vs {len(head.splitlines())} lines"


def compare(base: Path, head: Path) -> dict:
    """Relative path -> first difference, for every file that differs."""
    def files(root: Path) -> set:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    diffs = {}
    for name in sorted(files(base) | files(head)):
        a, b = base / name, head / name
        if not (a.exists() and b.exists()):
            diffs[name] = f"only in {'head' if b.exists() else 'base'}"
        elif (x := a.read_bytes()) != (y := b.read_bytes()):
            diffs[name] = first_difference(x, y, name)
    return diffs


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    # extend: each --expect adds its patterns, as CI passes one per trailer.
    parser.add_argument("--expect", nargs="*", action="extend", default=[],
                        help="fnmatch patterns of files that are meant to differ")
    parser.add_argument("--tiny", action="store_true", help="a few short runs only")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.base or args.write):
        parser.error("--base is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    corpus = CORPORA["tiny" if args.tiny else "full"]
    if args.write:
        write_corpus(args.write, corpus)
        return 0

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        try:
            export(args.base, tmp / "tree")
        except subprocess.CalledProcessError as exc:
            print(f"git archive {args.base} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        if not (run_tree(tmp / "tree", tmp / "base", args.tiny)
                and run_tree(ROOT, tmp / "head", args.tiny)):
            return 1
        n_files = sum(1 for p in (tmp / "head").rglob("*") if p.is_file())
        diffs = compare(tmp / "base", tmp / "head")

    unexpected = 0
    for name, where in diffs.items():
        expected = any(fnmatch.fnmatch(name, pat) for pat in args.expect)
        unexpected += not expected
        print(f"{'expected' if expected else 'DIFFERS'} {name}: {where}")
    print(f"{n_files} files, {len(diffs)} differ, {unexpected} unexpectedly "
          f"(base {args.base})")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
