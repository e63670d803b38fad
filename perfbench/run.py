"""Repository benchmark: host time of the simulator on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload native-long --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``perfbench/README.md``).  Every
operation's SimResult is checked against the classic-engine digests in
``perfbench/reference.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Everything the benchmark writes (native kernel cache, campaign journals,
span dumps) goes under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT = 150
#: Set-ups per run, each in a fresh process (the last in this one);
#: setup_s is their median.
SETUP_SAMPLES = 3
#: Host-speed bursts before and after each set-up.
SETUP_BURSTS = 3


def parse_args(argv):
    import suite

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("run", "setup", "warm"), default="run",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up


def warm_native_cache() -> int:
    """Child phase: compile the kernel into the benchmark's cache if absent."""
    from repro.native.build import kernel_available

    fn, diag = kernel_available()
    if fn is None:
        print(f"native kernel unavailable: {diag}", file=sys.stderr)
        return 1
    return 0


def timed_setup(work, seed: int) -> float:
    """Set-up time at reference host speed, sampled just before, just
    after, and between traces."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample(SETUP_BURSTS)
    start = time.perf_counter()
    spent = host.spent
    work.setup(seed, host)
    seconds = time.perf_counter() - start - (host.spent - spent)
    host.sample(SETUP_BURSTS)
    return seconds * host.speed()


def child(args, phase: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase]
    return subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def setup_samples(args, count: int) -> list:
    """Set-up times of ``count`` fresh child processes (imports included)."""
    samples = []
    for _ in range(count):
        proc = child(args, "setup")
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# Host memory


def _pss_kb(pid) -> int:
    """Proportional set size: shared pages (a forked worker's copy-on-write
    pages) are split between the processes that map them."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid) -> list:
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            for task in os.listdir(f"/proc/{parent}/task"):
                with open(f"/proc/{parent}/task/{task}/children",
                          encoding="ascii") as fh:
                    kids = fh.read().split()
                found.extend(kids)
                todo.extend(kids)
        except OSError:
            pass
    return found


class PeakRSS:
    """Host memory high-water mark: the larger of this process's own peak
    RSS and the largest total PSS of this process and its live descendants
    (the campaign's pool workers), sampled every 0.1 s."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_total_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            total = sum(_pss_kb(p) for p in [pid] + _descendants(pid))
            self.peak_total_kb = max(self.peak_total_kb, total)
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_total_kb) / 1024.0


# ----------------------------------------------------------------------
# Output check


class Checker:
    def __init__(self, work) -> None:
        import reference

        self.work = work
        self.digest = reference.digest
        self.ref = reference.load()["workloads"][work.name]
        self.attempted = 0
        self.failures = []

    def check(self, info) -> None:
        for o in info.outcomes:
            self.attempted += 1
            problem = self._problem(o)
            if problem:
                self.failures.append(f"{o.key}: {problem}")
        if info.speeds is not None and info.speeds != self.ref.get(
                "geomean_speedup"):
            self.failures.append(
                f"campaign geomean_speedup {info.speeds} differs from the "
                f"reference {self.ref.get('geomean_speedup')}")

    def _problem(self, o):
        if o.error:
            return o.error
        want = self.ref["ops"].get(o.key)
        if want is None:
            return "no reference digest"
        if self.digest(o.results) != want["digest"]:
            return "SimResult differs from the classic reference"
        if self.work.native:
            for res in o.results:
                if res.extra.get("native_demoted_spans", 1) or not \
                        res.extra.get("native_spans"):
                    return (f"native spans demoted ({res.extra}); the "
                            f"kernel did not run the whole call")
        return None

    def result(self, metrics: dict) -> dict:
        for msg in self.failures[:20]:
            print(f"FAILED {msg}", file=sys.stderr)
        # The campaign's geomean check is not an operation of its own: a
        # mismatch makes the run incorrect without adding to `failed`.
        failed = sum(1 for m in self.failures
                     if not m.startswith("campaign geomean"))
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Runs


def run_passes(pass_fn, seconds: float, min_calls: int) -> list:
    """Whole passes until ``min_calls`` calls are made and another pass
    would overrun ``seconds``."""
    infos, calls = [], 0
    start = time.perf_counter()
    while True:
        infos.append(pass_fn())
        calls += len(infos[-1].outcomes)
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed + elapsed / len(infos) > seconds:
            return infos


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm(args, work) -> None:
    """Fill the benchmark's native kernel cache before anything is timed.
    A failure is reported here and shows again as failed operations."""
    if work.native:
        proc = child(args, "warm")
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")


def timed_pass(work):
    """One pass, with the host speed sampled while it runs."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample()
    info = work.run_pass(STATE, host=host)
    info.speed = host.speed()
    return info


def end_to_end(args, work) -> dict:
    warm(args, work)
    samples = setup_samples(args, SETUP_SAMPLES - 1)
    samples.append(timed_setup(work, args.seed))
    checker = Checker(work)
    checker.check(work.run_ops(work.warmup_ops()))
    with PeakRSS() as rss:
        infos = run_passes(lambda: timed_pass(work), args.seconds,
                           work.min_calls)
    for info in infos:
        checker.check(info)
    # Host times at reference host speed (see hostspeed.py).
    ms = [o.seconds * info.speed * 1000.0
          for info in infos for o in info.outcomes]
    records = sum(o.records for info in infos for o in info.outcomes
                  if o.error is None)
    raw_wall = sum(info.wall for info in infos)
    wall = sum(info.wall * info.speed for info in infos)
    metrics = {
        "records_per_s": metric(records / wall, "1/s"),
        "setup_s": metric(statistics.median(samples), "s"),
        "run_ms_p50": metric(statistics.median(ms), "ms"),
        "run_ms_tail": metric(percentile(ms, work.tail_pct), "ms"),
        "peak_rss_mb": metric(rss.peak_mb(), "MB"),
    }
    print(f"{work.name}: {len(infos)} passes, {len(ms)} calls, "
          f"{records} records in {raw_wall:.2f} s ({wall:.2f} s at "
          f"reference speed); set-up samples "
          f"{[round(s, 3) for s in samples]}; tail = p{work.tail_pct}")
    print(f"  pass walls {[round(info.wall, 3) for info in infos]} s, "
          f"host speeds {[round(info.speed, 3) for info in infos]}")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:>14.4f} {m['unit']}")
    return checker.result(metrics)


def cold_build_seconds() -> float:
    """Compile the kernel into an empty cache directory (one-off cost)."""
    from repro.native import build

    tmp = tempfile.mkdtemp(prefix="cold-", dir=str(STATE))
    previous = os.environ["REPRO_NATIVE_CACHE"]
    os.environ["REPRO_NATIVE_CACHE"] = tmp
    try:
        start = time.perf_counter()
        build.build_kernel()
        return time.perf_counter() - start
    except build.NativeBuildError as exc:
        print(f"cold native build failed: {exc}", file=sys.stderr)
        return 0.0
    finally:
        os.environ["REPRO_NATIVE_CACHE"] = previous
        shutil.rmtree(tmp, ignore_errors=True)


def traced(args, work) -> dict:
    import layers
    from spans import Tracer

    warm(args, work)
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        work.setup(args.seed)
    finally:
        tracer.uninstall()
    setup_trace = (tracer.spans, dict(tracer.counts))
    build_cold = cold_build_seconds()

    checker = Checker(work)
    checker.check(work.run_ops(work.warmup_ops()))
    plain, traced_passes = [], []

    def pair():
        plain.append(work.run_pass(STATE))
        tr = Tracer()
        tr.install()
        try:
            info = work.run_pass(STATE, tracer=tr)
        finally:
            tr.uninstall()
        info.span_groups.insert(0, tr.spans)
        for k, v in tr.counts.items():
            info.span_counts[k] = info.span_counts.get(k, 0) + v
        traced_passes.append(info)
        return info

    # Pairs of one untraced and one traced pass, at least one pair.
    run_passes(pair, args.seconds, 1)
    for info in plain + traced_passes:
        checker.check(info)

    metrics, report = layers.per_layer(setup_trace, plain, traced_passes,
                                       build_cold)
    dump = STATE / f"spans-{work.name}-seed{args.seed}.json"
    layers.write_spans(dump, setup_trace, traced_passes)
    print(f"{work.name} traced: {len(plain)} untraced + "
          f"{len(traced_passes)} traced passes; spans in {dump}")
    for line in report:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>14.6f} {m['unit']}")
    return checker.result(metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(STATE / "native-cache")
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    if args.phase == "warm":
        return warm_native_cache()
    work = suite.WORKLOADS[args.workload]()
    if args.phase == "setup":
        print(json.dumps({"setup_s": timed_setup(work, args.seed)}))
        return 0
    result = (traced if args.trace else end_to_end)(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
