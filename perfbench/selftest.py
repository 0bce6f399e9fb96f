"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the tracer puts back every attribute it patches, and that the seed
argument changes the scenario seeds while a repeated seed repeats the
outputs.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def tiny_run(workload: str, seed: int, trace: int) -> tuple[list, dict, dict]:
    """(table lines, info record, final JSON) of one tiny run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0", "--trace", str(trace)], tiny=True)
    check(code == 0, f"{workload} seed {seed} trace {trace} exits 0")
    lines = buf.getvalue().splitlines()
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    return lines[:-1], info, json.loads(lines[-1])


def test_names_and_units() -> None:
    for w in BENCH["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            table, _, last = tiny_run(w["name"], 1, trace)
            check(last["correct"] and last["failed"] == 0,
                  f"{w['name']} trace {trace}: outputs pass the checks")
            for m in BENCH[key]:
                got = last["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                      f"{w['name']}: {m['name']} in the JSON line with unit {m['unit']}")
                check(any(ln.split()[1:2] == [m["name"]] and ln.split()[-1] == m["unit"]
                          for ln in table),
                      f"{w['name']}: {m['name']} in the table with unit {m['unit']}")


def test_tracer_restores() -> None:
    from tracer import PROBES, Tracer
    from workloads import make_workloads

    bench = make_workloads(tiny=True)["bench_set"]
    scn = bench.inputs(3)[0]
    before = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in PROBES}
    untraced = bench.run_op(scn, "").docs
    tracer = Tracer(dump_dir="")
    tracer.install()
    try:
        check(all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items()),
              "tracer patches every probe")
        traced = bench.run_op(scn, "").docs
    finally:
        tracer.restore()
    check(all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items()),
          "tracer restores every patched attribute")
    check(traced == untraced == bench.run_op(scn, "").docs,
          "traced and untraced runs give identical documents")


def test_seed() -> None:
    from workloads import make_workloads

    for name, wl in make_workloads(tiny=True).items():
        a, b, c = wl.inputs(1)[:3], wl.inputs(1)[:3], wl.inputs(2)[:3]
        check(a == b, f"{name}: same seed, same inputs")
        check(a != c, f"{name}: another seed, other scenario seeds")
    for w in BENCH["workloads"]:
        digests = [tiny_run(w["name"], seed, 0)[1]["metrics_sha256"] for seed in (5, 5, 6)]
        check(digests[0] == digests[1], f"{w['name']}: repeated seed repeats the outputs")
        check(digests[0] != digests[2], f"{w['name']}: another seed changes the outputs")


if __name__ == "__main__":
    if not (run.SRC / "wptsim" / "__init__.py").is_file():
        sys.exit(f"error: no simulator sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    test_tracer_restores()
    test_seed()
    test_names_and_units()
    print("selftest passed")
