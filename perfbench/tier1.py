"""Time the tier-1 test command once and record its wall time and counts.

    python3 perfbench/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
PYTHONPATH from the checkout root, prints one JSON record and writes it to
``perfbench/out/tier1.json``.  Meant once per change, not per benchmark run:
it takes minutes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import run


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(run.SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True,
                          timeout=3600)
    wall_s = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    record = {"command": cmd[1:], "wall_s": wall_s, "exit_code": proc.returncode,
              "summary": summary, "counts": counts, "stamps": run.stamps()}
    run.OUT.mkdir(parents=True, exist_ok=True)
    (run.OUT / "tier1.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
