"""In-memory span tracing around the public entry points of each layer.

The wrappers live here, in the benchmark, and are installed by patching
module and class attributes for the length of a traced pass; nothing in
``src/`` knows about them.  A span is ``[name, start, end, parent, op]``:
``parent`` is the index of the enclosing span in the same process (-1 for
a root) and ``op`` the key of the benchmark operation it belongs to.

Campaign workers are forked after the wrappers are installed, so they
inherit them; :func:`traced_run_job` flushes each worker's spans to a
per-process file that the parent merges after the campaign.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: The tracer the installed wrappers record into (None when not tracing).
CURRENT: Optional["Tracer"] = None


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.stack: List[int] = []
        self.op: Optional[str] = None
        self._undo: List[tuple] = []
        self._gc_start = 0.0

    # -- recording -----------------------------------------------------

    def _forked_check(self) -> None:
        # A forked worker starts with a copy of the parent's spans.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.counts = defaultdict(int)
            self.stack = []

    def open(self, name: str) -> list:
        self._forked_check()
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if count is not None:
                tracer.counts[name + ".records"] += count(out)
            return out

        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        # Cyclic collections run inside whichever span allocates; their
        # total is reported on its own so self times can be read net of it.
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["python.gc_s"] += time.perf_counter() - self._gc_start

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, name: str,
               count: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        global CURRENT
        from repro.cpu import mmu
        from repro.native import build, marshal
        from repro.runner import journal, worker
        from repro.simulator import engine, multicore
        from repro.workloads import catalog, mixes

        def suite_records(traces):
            return sum(len(t) for t in traces)

        self._patch(catalog, "resolve_trace", "workloads.resolve_trace", len)
        # run_job imported the catalog function by name; patch its alias.
        self._patch(worker, "resolve_trace", "workloads.resolve_trace", len)
        self._patch(mixes, "random_mixes", "workloads.random_mixes")
        self._patch(mixes, "spec17_suite", "workloads.suite", suite_records)
        self._patch(mixes, "gap_suite", "workloads.suite", suite_records)
        self._patch(engine, "simulate", "simulator.simulate")
        self._patch(worker, "simulate", "simulator.simulate")
        self._patch(engine, "build_hierarchy", "simulator.build_hierarchy")
        self._patch(multicore, "build_hierarchy",
                    "simulator.build_hierarchy")
        self._patch(multicore, "simulate_multicore",
                    "simulator.simulate_multicore")
        self._patch(mmu.MMU, "prewarm", "cpu.prewarm")
        self._patch(marshal.NativeState, "begin_span", "native.begin_span")
        self._patch(marshal.NativeState, "end_span", "native.end_span")
        self._patch(build, "call_span", "native.call_span")
        self._patch(worker, "run_job", "runner.run_job")
        self._patch(journal.Journal, "append", "runner.journal_append")
        gc.callbacks.append(self._gc_callback)
        CURRENT = self

    def uninstall(self) -> None:
        global CURRENT
        gc.callbacks.remove(self._gc_callback)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        CURRENT = None

    # -- worker-side flush ---------------------------------------------

    def dump(self, path: Path) -> None:
        """Append this process's finished spans to ``path`` and forget them."""
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = defaultdict(int)


def traced_run_job(span_dir: str, spec, attempt: int = 1):
    """Campaign ``run_fn`` for traced passes: the wrapped ``run_job``,
    with the worker's spans flushed after every job.

    Module-level so the process pool can pickle it by reference.
    """
    from repro.runner import worker

    tracer = CURRENT
    tracer._forked_check()
    tracer.op = spec.key
    try:
        return worker.run_job(spec, attempt)
    finally:
        tracer.dump(Path(span_dir) / f"spans-{os.getpid()}.jsonl")


def load_dumps(span_dir: Path):
    """Spans and counts written by worker processes, one list per file."""
    groups, counts = [], defaultdict(int)
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        spans: List[list] = []
        base = 0
        for line in path.read_text(encoding="utf-8").splitlines():
            item = json.loads(line)
            if isinstance(item, dict):
                for k, v in item["counts"].items():
                    counts[k] += v
                base = len(spans)
                continue
            if item[3] >= 0:
                item[3] += base  # parents index within one dump
            spans.append(item)
        groups.append(spans)
    return groups, counts


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out
