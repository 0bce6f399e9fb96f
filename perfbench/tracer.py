"""In-memory span tracer that wraps the simulator's public calls from outside.

Spans (name, start, end, parent, op) go around calls that happen a few times
per scenario.  Calls made thousands of times per scenario (a channel
coefficient, one noise draw, one correlation) are folded into one leaf
record per (parent span, name) holding the call count, the busy seconds and
a summed value such as samples drawn; this keeps memory flat while the
parents' self time still subtracts them exactly.

Pool workers forked while a span is open inherit the tracer.  A worker keeps
only what it records itself and writes it to ``dump_dir`` whenever its
outermost span closes; :meth:`Tracer.collect` merges those files back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

from wptsim import backscatter, chirp, cli, coldstart, engine, sync

# (owner, attribute, span name, kind, info).  ``owner`` is the namespace the
# caller looks the name up in: engine imported ``channel`` by name, so
# ``engine.channel`` is patched, not ``channel.channel``.
# ``info(args, result)`` returns a number (leaves) or a dict (spans).
def _scenario_info(args, metrics) -> dict:
    return {"rounds": len(metrics.power_trace), "mobile": len(args[0].trajectory) >= 2}


PROBES = [
    (engine, "run_scenario", "engine.run_scenario", "span", _scenario_info),
    (cli, "run_scenario", "engine.run_scenario", "span", _scenario_info),
    (engine, "compute_bound_schedule", "beamform.compute_bound_schedule", "span", None),
    (engine, "run_sync", "sync.run_sync", "span", None),
    (sync, "coarse_sync", "sync.coarse_sync", "span", None),
    (coldstart.ColdStartRunner, "run", "coldstart.run", "span",
     lambda a, r: {"rounds_used": r.rounds_used}),
    (cli, "cmd_run", "cli.cmd_run", "span", None),
    (cli, "cmd_sweep", "cli.cmd_sweep", "span", None),
    (cli, "_run_point", "cli.job", "span", None),
    (cli, "write_trace", "cli.write_trace", "span", None),
    (cli, "write_heatmap", "cli.write_heatmap", "span", None),
    (coldstart, "export_heatmap", "coldstart.export_heatmap", "span", None),
    (coldstart, "field_matrix", "coldstart.field_matrix", "span", None),
    (coldstart, "field_power", "coldstart.field_power", "leaf", None),
    (engine, "channel", "channel.channel", "leaf", None),
    (engine, "awgn", "chirp.awgn", "leaf", lambda a, r: a[0]),
    (sync, "awgn_power", "chirp.awgn_power", "leaf", lambda a, r: a[0]),
    (sync, "fluctuation_rate", "chirp.fluctuation_rate", "leaf", None),
    (engine, "p_ccs0", "chirp.p_ccs0", "leaf", None),
    (chirp, "ccs_correlate", "chirp.ccs_correlate", "leaf", None),
    (backscatter.BackscatterNode, "reflect", "backscatter.reflect", "leaf", None),
]


@dataclass
class Span:
    id: str
    parent: str | None
    op: str | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    def __init__(self, dump_dir: str):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.leaves: dict = {}        # (parent id, name) -> [calls, seconds, value]
        self.stack: list[Span] = []
        self._base_depth = 0
        self._next = 0
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _adopt_fork(self) -> None:
        """First record in a forked worker: drop what the parent recorded."""
        self.pid = os.getpid()
        self.spans, self.leaves = [], {}
        self._base_depth = len(self.stack)

    def open(self, name: str) -> Span:
        if os.getpid() != self.pid:
            self._adopt_fork()
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        span = Span(f"{self.pid}:{self._next}", parent and parent.id,
                    parent.op if parent else None, name, time.perf_counter())
        if span.op is None:
            span.op = span.id
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration_s
        self.spans.append(span)
        if self._base_depth and len(self.stack) == self._base_depth:
            self._dump()

    def _leaf(self, name: str, seconds: float, value) -> None:
        if os.getpid() != self.pid:
            self._adopt_fork()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child_s += seconds
        rec = self.leaves.setdefault((parent and parent.id, name), [0, 0.0, 0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += value

    def _dump(self) -> None:
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(self.dump_dir, f"{self.pid}-{self._next}.json")
        with open(path, "w") as fh:
            json.dump({"spans": [s.__dict__ for s in self.spans],
                       "leaves": [[k[0], k[1], *v] for k, v in self.leaves.items()]}, fh)
        self.spans, self.leaves = [], {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str, info):
        if kind == "span":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                    if info is not None:
                        span.info = info(args, result)
                    return result
                finally:
                    self.close(span)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self._leaf(name, time.perf_counter() - t0,
                           0 if info is None else info(args, result))
                return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name, kind, info in PROBES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind, info))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- merging -----------------------------------------------------------

    def collect(self) -> tuple[list, dict]:
        """All spans and leaves, this process's and every worker's."""
        spans, leaves = list(self.spans), {k: list(v) for k, v in self.leaves.items()}
        names = sorted(os.listdir(self.dump_dir)) if os.path.isdir(self.dump_dir) else []
        for fname in names:
            with open(os.path.join(self.dump_dir, fname)) as fh:
                doc = json.load(fh)
            spans.extend(Span(**s) for s in doc["spans"])
            for parent, name, calls, seconds, value in doc["leaves"]:
                rec = leaves.setdefault((parent, name), [0, 0.0, 0])
                rec[0] += calls
                rec[1] += seconds
                rec[2] += value
        return spans, leaves
