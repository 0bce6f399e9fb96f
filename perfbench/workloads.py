"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop driven from one process: the next operation
starts when the previous one has returned.  The simulator only ever sees the
scenarios and configs generated here from the benchmark seed.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import random
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from wptsim import cli, engine
from wptsim.channel import MediumMap, Position

# Upper bound on operations generated per run; a run stops earlier on time.
MAX_OPS = 2000

# The README's default scenario, as a user would write it.
README_SCENARIO = {
    "slave_count": 24,
    "ring_radius_m": 6.0,
    "ring_height_m": 3.0,
    "node_position_m": [0.0, 0.0, -0.1],
    "muscle_depth_m": 0.05,
    "tx_power_dbm": 30.0,
    "rounds": 300,
}

# readme_fast: the README pipeline on a 1 ms, 512 kHz, 10 kHz chirp.  The
# fine-sync window shrinks 16x, so one run averages over about ten scenarios
# instead of one; 10 kHz keeps the one-sample beat (19.5 Hz) above the stop
# bin (15.6 Hz).  The clock offsets scale with the symbol (README: 8000 of
# 8192 samples) so they stay inside the coarse capture window.  Fine sync
# takes about sum_i |r_i - r_0| rounds for residuals r uniform in +/- jitter;
# by that model the README's 60-sample jitter spreads ten runs' median
# scenario time by about 12% from seed alone, and 20 samples by about 6%,
# while every slave still walks up to 40 samples.
FAST_CHIRP = {
    "chirp_bandwidth_hz": 10e3,
    "chirp_symbol_time_s": 1e-3,
    "chirp_sample_rate_hz": 512e3,
    "sync_offset_range": 500,
    "sync_residual_jitter": 20,
}


@dataclass
class OpResult:
    scenarios: int
    docs: list                     # metrics documents, as written
    powers: list                   # power_percentage per scenario
    problems: list = field(default_factory=list)


def check_doc(text: str) -> tuple[dict, list]:
    """Parse one metrics document; problems if non-finite or power out of range."""
    problems = []
    doc = json.loads(text, parse_constant=float)
    metrics = doc.get("metrics", doc)

    def walk(v):
        if isinstance(v, float) and not math.isfinite(v):
            problems.append("non-finite value in metrics document")
        elif isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)

    walk(metrics)
    if not 0.0 <= metrics["power_percentage"] <= 1.0:
        problems.append(f"power_percentage {metrics['power_percentage']} outside [0, 1]")
    return metrics, problems


def _csv_rows(path: str) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _check_run_file(path: str, rounds: int, sync_on: bool) -> tuple[str, float, list]:
    """Checks on one ``wptsim run`` output: document, sync residuals, trace rows."""
    with open(path) as fh:
        text = fh.read()
    metrics, problems = check_doc(text)
    if sync_on:
        if metrics["sync_failed"]:
            problems.append("sync failed")
        elif any(abs(r) > 1 for r in metrics["sync_residuals"]):
            problems.append(f"sync residual above 1 sample: {metrics['sync_residuals']}")
    if "alignment" in metrics["stage_log"]:
        trace = path[: -len(".json")] + "_trace.csv"
        rows = _csv_rows(trace) if os.path.exists(trace) else 0
        if rows != rounds:
            problems.append(f"trace has {rows} rows, expected {rounds}")
    return text, metrics["power_percentage"], problems


class BenchSet:
    """Criterion-4 bench scenarios through ``run_scenario``."""

    jobs = 0

    def __init__(self, rounds: int = 300, sizes=(3, 24), digest_ops: int = 4):
        self.rounds, self.sizes, self.digest_ops = rounds, sizes, digest_ops

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [engine.Scenario(
            slave_positions=engine.ring_positions(self.sizes[i % len(self.sizes)],
                                                  radius_m=1.0, height_m=0.0),
            leader_position=Position(0, 0, 0),
            node_position=Position(0, 0, -0.1),
            medium=MediumMap(muscle_depth_m=0.05),
            seed=rng.randrange(2 ** 31),
            rounds=self.rounds,
            sync=engine.SyncSettings(enabled=False),
            cold_start_enabled=False,
        ) for i in range(MAX_OPS)]

    def run_op(self, scn, work_dir: str) -> OpResult:
        m = engine.run_scenario(scn)
        text = m.to_json()
        _, problems = check_doc(text)
        if len(m.metric_trace) != scn.rounds:
            problems.append(f"{len(m.metric_trace)} trace rows, expected {scn.rounds}")
        return OpResult(1, [text], [m.power_percentage], problems)

    def repeat(self, scn, first: OpResult, work_dir: str) -> bool:
        return engine.run_scenario(scn).to_json() == first.docs[0]


class CliRun:
    """``wptsim run`` (``cli.cmd_run``) of one seed per operation."""

    jobs = 0

    def __init__(self, scenario: dict, digest_ops: int):
        self.cfg = cli.parse_config({"scenario": scenario})
        self.digest_ops = digest_ops

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(MAX_OPS):
            cfg = copy.deepcopy(self.cfg)
            cfg["seeds"] = [rng.randrange(2 ** 31)]
            ops.append(cfg)
        return ops

    def _run(self, cfg: dict, work_dir: str) -> str:
        out = tempfile.mkdtemp(dir=work_dir)
        with redirect_stdout(io.StringIO()):
            cli.cmd_run(cfg, out)
        return os.path.join(out, f"run_seed{cfg['seeds'][0]}.json")

    def run_op(self, cfg: dict, work_dir: str) -> OpResult:
        scn = cfg["scenario"]
        text, power, problems = _check_run_file(
            self._run(cfg, work_dir), scn["rounds"], scn["sync_enabled"])
        return OpResult(1, [text], [power], problems)

    def repeat(self, cfg: dict, first: OpResult, work_dir: str) -> bool:
        with open(self._run(cfg, work_dir)) as fh:
            return fh.read() == first.docs[0]


class Sweep:
    """``wptsim sweep`` (``cli.cmd_sweep``) over node speed on a process pool."""

    def __init__(self, scenario: dict, speeds, seeds_per_op: int, heatmap: dict,
                 jobs: int):
        self.cfg = cli.parse_config({"scenario": scenario, "heatmap": heatmap,
                                     "sweep": {"speed_m_per_s": list(speeds)}})
        self.seeds_per_op, self.jobs, self.digest_ops = seeds_per_op, jobs, 1

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = []
        for _ in range(MAX_OPS):
            cfg = copy.deepcopy(self.cfg)
            cfg["seeds"] = [rng.randrange(2 ** 31) for _ in range(self.seeds_per_op)]
            ops.append(cfg)
        return ops

    def run_op(self, cfg: dict, work_dir: str) -> OpResult:
        out = tempfile.mkdtemp(dir=work_dir)
        with redirect_stdout(io.StringIO()):
            cli.cmd_sweep(cfg, out, self.jobs)
        jobs = cli.sweep_jobs(cfg, out)
        problems = []
        rows = _csv_rows(os.path.join(out, "summary.csv"))
        if rows != len(jobs):
            problems.append(f"summary.csv has {rows} rows, expected {len(jobs)}")
        docs, powers = [], []
        for _, _, seed, _, tag, _ in jobs:
            text, power, found = _check_run_file(
                os.path.join(out, f"run_{tag}seed{seed}.json"),
                cfg["scenario"]["rounds"], False)
            docs.append(text)
            powers.append(power)
            problems.extend(found)
        return OpResult(len(jobs), docs, powers, problems)

    def repeat(self, cfg: dict, first: OpResult, work_dir: str) -> bool:
        """Re-run the sweep's first job alone and compare its document."""
        out = tempfile.mkdtemp(dir=work_dir)
        job = cli.sweep_jobs(cfg, out)[0]
        cli.run_one(*job)
        _, _, seed, _, tag, _ = job
        with open(os.path.join(out, f"run_{tag}seed{seed}.json")) as fh:
            return fh.read() == first.docs[0]


def make_workloads(tiny: bool = False) -> dict:
    """Workload name -> workload; ``tiny`` shrinks every size for the self-test."""
    rounds = 20 if tiny else 300
    readme = dict(README_SCENARIO, rounds=rounds)
    if tiny:
        readme.update(slave_count=3, **FAST_CHIRP)
    mobile = dict(
        slave_count=3 if tiny else 24, rounds=rounds, bound_deg=15.0,
        baseline="random_phase", sync_enabled=False, cold_start_enabled=False,
    )
    heatmap = {"enabled": True, "cube_m": 0.2 if tiny else 1.0,
               "voxel_m": 0.1 if tiny else 0.05}
    return {
        "bench_set": BenchSet(rounds, (3, 4) if tiny else (3, 24),
                              digest_ops=2 if tiny else 4),
        "mobile_sweep": Sweep(mobile, (0.0, 0.05, 1.0), 1 if tiny else 2, heatmap,
                              os.cpu_count() or 1),
        "readme_fast": CliRun(dict(readme, **FAST_CHIRP), digest_ops=2),
        "readme_full": CliRun(readme, digest_ops=1),
    }
