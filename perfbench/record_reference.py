"""Record the classic-engine reference digest of every benchmark operation.

Run from the repository root (about three minutes for all workloads)::

    python3 perfbench/record_reference.py

Rerun only when a change is meant to alter simulation results; the
benchmark counts every operation whose result differs as failed.  Every
workload is re-recorded from scratch.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import suite  # noqa: E402


def record(name: str) -> dict:
    from repro.analysis.metrics import geomean_speedup

    work = suite.WORKLOADS[name]()
    work.setup(0)
    entry = {"ops": {}}
    results_by_key = {}
    for op in sorted(getattr(work, "all_ops", work.ops), key=lambda o: o.key):
        results = op.reference()
        records = op.records or int(results[0].extra["trace_records"])
        entry["ops"][op.key] = {"records": records,
                                "digest": reference.digest(results)}
        results_by_key[op.key] = results
    if name == "campaign-fig8":
        grouped = {}
        for job in work.canonical:
            grouped.setdefault(job.trace, {})[job.l1d] = \
                results_by_key[job.key][0]
        entry["geomean_speedup"] = geomean_speedup(
            grouped, baseline_name=suite.FIG8_BASELINE)
    if name == "mix4-shared-llc":
        entry["mix_pool"] = work.pool_names
    return entry


def main() -> int:
    doc = {"engine": "classic", "regenerate": reference.REGENERATE,
           "workloads": {}}
    for name in suite.WORKLOADS:
        start = time.perf_counter()
        doc["workloads"][name] = record(name)
        print(f"{name}: {len(doc['workloads'][name]['ops'])} operations in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    reference.PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
