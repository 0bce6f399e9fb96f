"""wptsim benchmark: one workload, end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload bench_set --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a table of every metric with its unit and an ``info`` line with the
version stamps, output checks and the digest of the metrics documents.  The
same record is written to ``perfbench/out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
OVERHEAD_OPS = 3      # operations timed both untraced and traced, at least

# Units of every printed metric.  Only the metrics listed in BENCHMARK.json
# go into the JSON line; the rest are in the table and the results file.
END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "op_s_p50": "s",
    "scenarios_per_ref": "1/ref",
    "op_ref_p50": "ref",
    "ref_s_p50": "s",
    "peak_rss_mb": "MB",
    "power_pct_mean": "ratio",
    "error_rate": "ratio",
}

# Per-layer busy time per operation: span and leaf names summed, inclusive
# of nested calls into other modules.  engine.run_scenario_s is self time.
LAYER_TIMES = {
    "beamform.schedule_s": ["beamform.compute_bound_schedule"],
    "chirp.awgn_s": ["chirp.awgn", "chirp.awgn_power"],
    "chirp.fluctuation_rate_s": ["chirp.fluctuation_rate"],
    "chirp.correlate_s": ["chirp.p_ccs0", "chirp.ccs_correlate"],
    "sync.run_sync_s": ["sync.run_sync"],
    "sync.coarse_s": ["sync.coarse_sync"],
    "backscatter.reflect_s": ["backscatter.reflect"],
    "channel.busy_s": ["channel.channel"],
    "coldstart.run_s": ["coldstart.run"],
    "coldstart.heatmap_s": ["coldstart.field_matrix", "coldstart.field_power"],
    "cli.write_s": ["cli.write_trace", "coldstart.export_heatmap"],
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "engine.run_scenario_s": "s",
    "beamform.schedule_calls": "count",
    "chirp.awgn_samples": "count",
    "sync.fine_rounds": "count",
    "backscatter.reflect_calls": "count",
    "engine.rounds": "count",
    "channel.calls": "count",
    "coldstart.rounds_used": "count",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_pct": "%",
}


def stamps() -> dict:
    """What a result was measured on: versions, cores, CPU, code."""
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "wptsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": commit or "unknown", "src_sha256": src.hexdigest(),
    }


def measure_setup(workload, seed: int) -> tuple[float, list]:
    """Median over repeats of: import in a fresh interpreter, input generation,
    and, for pooled workloads, starting the pool and reaching every worker."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wptsim.cli"], env=env,
                       check=True, timeout=120)
        inputs = workload.inputs(seed)
        if workload.jobs > 1:
            # The same default-context pool that cli.cmd_sweep starts.
            with multiprocessing.Pool(workload.jobs) as pool:
                pool.map(abs, range(workload.jobs))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


def reference_s(pool=None, jobs: int = 0) -> float:
    """Host seconds of a fixed kernel, about equal parts interpreter loop
    and numpy FFT work (~30 ms); it never calls the simulator.

    On a shared 2-vCPU VM the host's speed was measured drifting by up to
    2x within a minute.  Timed on both sides of every operation, the reference turns an operation's time into
    a ratio from which most of that drift cancels.  A pooled workload's
    operation runs on every core, so with ``pool`` the kernel runs once per
    worker at the same time and the mean of their times is returned."""
    if pool is not None:
        return statistics.mean(pool.map(_kernel_s, range(jobs), chunksize=1))
    return _kernel_s()


def _kernel_s(_=None) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(120000):
        acc += math.sin(i * 1e-3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14)
    for _ in range(12):
        x = np.fft.ifft(np.fft.fft(x) * np.exp(-1j * np.angle(x)))
    return time.perf_counter() - t0


def run_ops(workload, ops, seconds: float, work_dir: str, min_ops: int, tracer=None):
    """Closed loop: operations back to back until ``seconds`` pass (at least
    ``min_ops``), with the reference kernel timed between them.  Returns
    (results, per-op seconds, per-op reference seconds)."""
    from workloads import OpResult

    with contextlib.ExitStack() as stack:
        reference = reference_s
        if workload.jobs > 1:
            pool = stack.enter_context(multiprocessing.Pool(workload.jobs))
            reference = functools.partial(reference_s, pool, workload.jobs)
        results, times, refs = [], [], [reference()]
        start = time.perf_counter()
        for spec in ops:
            if len(results) >= min_ops and time.perf_counter() - start >= seconds:
                break
            span = tracer.open("bench.op") if tracer else None
            t0 = time.perf_counter()
            try:
                res = workload.run_op(spec, work_dir)
            except Exception as exc:  # a failed operation is counted, not fatal
                res = OpResult(1, [], [], [f"{type(exc).__name__}: {exc}"])
            times.append(time.perf_counter() - t0)
            if span:
                tracer.close(span)
            results.append(res)
            refs.append(reference())
    return results, times, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def digest(results, k: int) -> str:
    """sha256 of the sorted metrics documents of the first ``k`` operations."""
    h = hashlib.sha256()
    for doc in sorted(d for r in results[:k] for d in r.docs):
        h.update(doc.encode())
    return h.hexdigest()


def peak_rss_mb(jobs: int) -> float:
    """Own peak RSS plus, with a pool, workers x the largest child's peak
    (an upper bound on the pool's concurrent peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * child) / 1024.0


def layer_metrics(spans, leaves, op_ids: list, k: int) -> tuple[dict, dict]:
    """Per-layer metrics: times per operation over every traced op, counts
    over the first ``k`` ops only so that they repeat exactly for a seed."""
    n_ops = len(op_ids)
    counted = set(op_ids[:k])
    by_id = {s.id: s for s in spans}
    leaf_op = {key: by_id[key[0]].op if key[0] in by_id else None for key in leaves}
    out = {}
    for metric, names in LAYER_TIMES.items():
        total = sum(s.duration_s for s in spans if s.name in names)
        total += sum(v[1] for key, v in leaves.items() if key[1] in names)
        out[metric] = total / n_ops
    out["engine.run_scenario_s"] = sum(
        s.self_s for s in spans if s.name == "engine.run_scenario") / n_ops

    def leaf_sum(names, col):
        return sum(v[col] for key, v in leaves.items()
                   if key[1] in names and leaf_op[key] in counted)

    def span_list(name):
        return [s for s in spans if s.name == name and s.op in counted]

    out["beamform.schedule_calls"] = len(span_list("beamform.compute_bound_schedule"))
    out["chirp.awgn_samples"] = leaf_sum(("chirp.awgn", "chirp.awgn_power"), 2)
    out["sync.fine_rounds"] = leaf_sum(("chirp.fluctuation_rate",), 0)
    out["backscatter.reflect_calls"] = leaf_sum(("backscatter.reflect",), 0)
    out["engine.rounds"] = sum(s.info["rounds"] for s in span_list("engine.run_scenario"))
    out["channel.calls"] = leaf_sum(("channel.channel",), 0)
    out["coldstart.rounds_used"] = sum(s.info["rounds_used"]
                                       for s in span_list("coldstart.run"))

    # Pool efficiency: job seconds / (workers x sweep wall seconds), where a
    # sweep's workers are the processes that ran its jobs.
    job_s, capacity_s = 0.0, 0.0
    for sweep in (s for s in spans if s.name == "cli.cmd_sweep"):
        jobs = [s for s in spans if s.name == "cli.job" and s.parent == sweep.id]
        job_s += sum(s.duration_s for s in jobs)
        capacity_s += len({s.id.split(":")[0] for s in jobs}) * sweep.duration_s
    out["cli.pool_efficiency"] = job_s / capacity_s if capacity_s > 0 else 0.0

    # Where the time went: channel calls per alignment round, static vs mobile.
    per_round = {"static": [], "mobile": []}
    for s in spans:
        if s.name == "engine.run_scenario" and s.info.get("rounds"):
            calls = sum(v[0] for key, v in leaves.items()
                        if key == (s.id, "channel.channel"))
            per_round["mobile" if s.info["mobile"] else "static"].append(
                calls / s.info["rounds"])
    times = {m: out[m] for m in list(LAYER_TIMES) + ["engine.run_scenario_s"]}
    placement = {
        "largest_layer_time": max(times, key=times.get),
        "channel_calls_per_round": {kind: (statistics.mean(v) if v else None)
                                    for kind, v in per_round.items()},
    }
    return out, placement


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    args = parse_args(argv)
    if not (SRC / "wptsim" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_workloads

    workloads = make_workloads(tiny=tiny)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads)})", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        setup_s, ops = measure_setup(wl, args.seed)
        k = wl.digest_ops
        tracer = None
        if args.trace:
            from tracer import Tracer

            m = max(k, OVERHEAD_OPS)
            _, base_times, base_refs = run_ops(wl, ops[:m], 0.0, work_dir, m)
            tracer = Tracer(os.path.join(work_dir, "spans"))
            tracer.install()
            try:
                results, times, refs = run_ops(wl, ops, args.seconds, work_dir, m, tracer)
            finally:
                tracer.restore()
        else:
            results, times, refs = run_ops(wl, ops, args.seconds, work_dir, k)
        repeat_ok = results[0].docs != [] and wl.repeat(ops[0], results[0], work_dir)

        attempted = sum(r.scenarios for r in results) + 1
        failed = sum(1 for r in results if r.problems) + (0 if repeat_ok else 1)
        powers = [p for r in results for p in r.powers]
        ratios = [t / r for t, r in zip(times, refs)]
        if args.trace:
            spans, leaves = tracer.collect()
            op_ids = [s.id for s in spans if s.name == "bench.op"]
            values, placement = layer_metrics(spans, leaves, op_ids, k)
            # The same m operations untraced, then traced; reference-normalized.
            base = [t / r for t, r in zip(base_times, base_refs)]
            values["trace.overhead_pct"] = 100.0 * (
                statistics.median(ratios[:m]) / statistics.median(base) - 1.0)
            units = PER_LAYER_UNITS
        else:
            placement = None
            scenarios = sum(r.scenarios for r in results)
            values = {
                "setup_s": setup_s,
                "scenarios_per_s": scenarios / sum(times),
                "op_s_p50": statistics.median(times),
                "scenarios_per_ref": scenarios / sum(ratios),
                "op_ref_p50": statistics.median(ratios),
                "ref_s_p50": statistics.median(refs),
                "peak_rss_mb": peak_rss_mb(wl.jobs),
                "power_pct_mean": statistics.mean(powers) if powers else 0.0,
                "error_rate": failed / attempted,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(times), "op_s_quartiles": statistics.quantiles(times, n=4)
        if len(times) > 1 else times, "jobs": wl.jobs,
        "repeat_identical": repeat_ok,
        "problems": sorted({p for r in results for p in r.problems}),
        "digest_ops": k, "metrics_sha256": digest(results, k),
        "placement": placement, "stamps": stamps(),
    }
    for name, value in values.items():
        print(f"{args.workload:<13} {name:<26} {value:>16.6g} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    record = {"info": info, "metrics": {n: {"value": v, "unit": units[n]}
                                        for n, v in values.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{'tiny-' if tiny else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
