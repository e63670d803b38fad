"""Per-layer metrics of a traced run, computed from its spans.

Times are per pass: the mean over the traced passes, plus the traced
set-up once for the ``workloads`` layer (trace generation is set-up on
the serial workloads and per job on the campaign).  Counts of modelled
events come from the SimResults of the first traced pass, so they are
exact for a given seed.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

from spans import self_times

#: (metric, unit, span name, "busy" | "calls") read off the spans.
SPAN_METRICS = [
    ("simulator.build_s", "s", "simulator.build_hierarchy", "busy"),
    ("cpu.prewarm_s", "s", "cpu.prewarm", "busy"),
    ("native.export_s", "s", "native.begin_span", "busy"),
    ("native.kernel_s", "s", "native.call_span", "busy"),
    ("native.import_s", "s", "native.end_span", "busy"),
    ("simulator.multicore_s", "s", "simulator.simulate_multicore", "busy"),
    ("runner.journal_s", "s", "runner.journal_append", "busy"),
    ("runner.journal_appends", "count", "runner.journal_append", "calls"),
]
SIMULATOR_SPANS = ("simulator.simulate", "simulator.simulate_multicore")
GEN_SPANS = ("workloads.resolve_trace", "workloads.random_mixes")
GEN_COUNTS = ("workloads.resolve_trace.records", "workloads.suite.records")


def _tally(groups):
    busy, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for spans in groups:
        for rec, self_s in zip(spans, self_times(spans)):
            busy[rec[0]] += rec[2] - rec[1]
            own[rec[0]] += self_s
            calls[rec[0]] += 1
    return busy, own, calls


def _sim_counts(info):
    results = [r for o in info.outcomes if o.results for r in o.results]
    instructions = sum(r.instructions for r in results)
    useful = sum(r.pf_l1d.useful for r in results)
    resolved = sum(r.pf_l1d.resolved for r in results)
    return {
        "sim.cycles": (math.fsum(r.cycles for r in results), "cycles"),
        "memory.l1d_mpki": (
            sum(r.l1d_demand_misses for r in results) * 1000.0 / instructions
            if instructions else 0.0, "1/kinstr"),
        "memory.dram_reads": (sum(r.dram_reads for r in results), "count"),
        "core.pf_issued": (sum(r.pf_l1d.issued for r in results), "count"),
        "core.pf_useful": (useful, "count"),
        "core.pf_late": (sum(r.pf_l1d.late for r in results), "count"),
        "core.pf_accuracy": (useful / resolved if resolved else 0.0,
                             "ratio"),
    }


def per_layer(setup_trace, plain, traced, build_cold_s):
    n = len(traced)
    busy, own, calls = _tally(g for info in traced for g in info.span_groups)
    counts = defaultdict(int)
    for info in traced:
        for k, v in info.span_counts.items():
            counts[k] += v
    s_busy, _, _ = _tally([setup_trace[0]])
    s_counts = setup_trace[1]

    values = {}
    values["workloads.gen_s"] = (
        sum(s_busy[s] for s in GEN_SPANS)
        + sum(busy[s] for s in GEN_SPANS) / n, "s")
    values["workloads.records"] = (
        sum(s_counts.get(c, 0) for c in GEN_COUNTS)
        + sum(counts[c] for c in GEN_COUNTS) / n, "count")
    values["simulator.calls"] = (sum(calls[s] for s in SIMULATOR_SPANS) / n,
                                 "count")
    values["simulator.self_s"] = (sum(own[s] for s in SIMULATOR_SPANS) / n,
                                  "s")
    values["python.gc_s"] = (counts["python.gc_s"] / n, "s")
    for name, unit, span, kind in SPAN_METRICS:
        table = busy if kind == "busy" else calls
        values[name] = (table[span] / n, unit)

    first = traced[0]
    spans_done = sum(r.extra.get("native_spans", 0.0)
                     for o in first.outcomes if o.results for r in o.results)
    demoted = sum(r.extra.get("native_demoted_spans", 0.0)
                  for o in first.outcomes if o.results for r in o.results)
    values["native.spans"] = (spans_done, "count")
    values["native.demoted_spans"] = (demoted, "count")
    values["native.span_frac"] = (
        spans_done / (spans_done + demoted) if spans_done + demoted else 0.0,
        "ratio")
    values["native.build_cold_s"] = (build_cold_s, "s")

    for key in ("jobs", "attempts", "failed", "job_busy_s", "idle_s"):
        unit = "s" if key.endswith("_s") else "count"
        values[f"runner.{key}"] = (
            sum(info.runner.get(key, 0.0) for info in traced) / n, unit)
    values.update(_sim_counts(first))

    plain_wall = statistics.median(info.wall for info in plain)
    traced_wall = statistics.median(info.wall for info in traced)
    values["trace.overhead_pct"] = (
        (traced_wall / plain_wall - 1.0) * 100.0, "%")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, _report(busy, own, calls, plain, traced)


def _report(busy, own, calls, plain, traced):
    """Human-readable lines: where the time under each simulation went."""
    n = len(traced)
    lines = []
    for root in SIMULATOR_SPANS + ("runner.run_job",):
        if not calls[root]:
            continue
        lines.append(f"{root}: {calls[root] / n:.0f} calls, "
                     f"{busy[root] / n:.4f} s per pass = self "
                     f"{own[root] / n:.4f} s + traced children "
                     f"{(busy[root] - own[root]) / n:.4f} s")
    children = [name for name in sorted(busy)
                if calls[name] and name not in SIMULATOR_SPANS]
    for name in children:
        lines.append(f"  {name:<32} busy {busy[name] / n:9.4f} s  "
                     f"self {own[name] / n:9.4f} s  calls {calls[name] / n:.0f}")
    # The span that covers one operation: the job on the campaign, the
    # simulation call elsewhere.
    op_spans = ([s for s in ("runner.run_job",) if calls[s]]
                or [s for s in SIMULATOR_SPANS if calls[s]])
    op_busy = sum(busy[s] for s in op_spans)
    plain_ops = statistics.median(
        sum(o.seconds for o in info.outcomes) for info in plain)
    lines.append(
        f"{' + '.join(op_spans)} spans per traced pass {op_busy / n:.4f} s "
        f"vs untraced operation time per pass {plain_ops:.4f} s")
    if any(info.runner for info in traced):
        lines.append("campaign workers are real pool processes; their "
                     "spans were flushed to per-process files and merged")
    return lines


def write_spans(path: Path, setup_trace, traced) -> None:
    """All spans of the traced run: [name, start, end, parent, op] rows,
    one list per process and pass (parents index within their list)."""
    doc = {
        "fields": ["name", "start", "end", "parent", "op"],
        "setup": setup_trace[0],
        "passes": [info.span_groups for info in traced],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
