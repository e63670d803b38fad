"""The benchmark's workloads: their inputs, operations and reference keys.

Catalog traces are fixed by (name, scale), so the seed only draws what
is random in each workload: the call order, the campaign's job order,
and which 4-core mixes of the recorded mix pool run.

Every call goes through a module attribute (``engine.simulate``,
``multicore.simulate_multicore``, ``catalog.resolve_trace``) so the
span wrappers of :mod:`spans` see it in traced passes.
"""

from __future__ import annotations

import functools
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import hostspeed
import spans

#: native-long: five memory-intensive traces at ~200 k records each.
LONG_TRACES = {
    "mcf_s-1554B": 18.5,
    "lbm_s-2676B": 16.0,
    "cactuBSSN_s-2421B": 10.0,
    "bfs-kron": 16.0,
    "pr-urand": 16.0,
}
SHORT_SCALE = 0.25
SWEEP_PREFETCHERS = ("none", "berti")
FIG8_PREFETCHERS = ("none", "ip_stride", "mlop", "ipcp", "berti")
FIG8_BASELINE = "ip_stride"
CAMPAIGN_WORKERS = 2
MIX_PREFETCHERS = ("ip_stride", "berti")
#: The recorded mix pool: ``random_mixes(MIX_POOL, seed=MIX_POOL_SEED)``.
MIX_POOL = 32
MIX_POOL_SEED = 2022
#: The mix pool cut into 20 strata of mixes of similar host cost (pool
#: indices, cheapest first, ranked once by host time on a 2-vCPU VM); a
#: run draws one mix from each.  Fixed here so that host timings never
#: decide which mixes a run simulates.  The 8 costliest mixes are strata
#: of their own, so the slowest calls, which set run_ms_tail, are the same
#: on every seed; the other 24 pair up by rank.  Drawing 20 of the 32
#: mixes uniformly instead made records_per_s spread by 19 % across seeds.
MIX_STRATA = [
    [18, 8], [2, 23], [3, 19], [9, 30], [11, 13], [1, 0], [27, 5],
    [6, 22], [20, 21], [31, 17], [12, 10], [14, 16],
    [26], [4], [29], [28], [25], [7], [24], [15],
]


@dataclass
class Op:
    """One simulation call or one campaign job."""

    key: str
    records: int
    call: Callable[[], list]       # the operation under test -> [SimResult]
    reference: Callable[[], list]  # its classic-engine twin


@dataclass
class Outcome:
    key: str
    records: int
    seconds: float
    results: Optional[list] = None
    error: Optional[str] = None


@dataclass
class PassInfo:
    """What one pass measured besides its per-operation outcomes."""

    wall: float
    outcomes: List[Outcome]
    runner: Dict[str, float] = field(default_factory=dict)
    speeds: Optional[Dict[str, float]] = None
    #: Traced passes: span lists, one per process (this one first, then
    #: each campaign worker), and the record counts taken at the spans.
    span_groups: List[list] = field(default_factory=list)
    span_counts: Dict[str, int] = field(default_factory=dict)
    #: Host speed during the pass (``hostspeed.HostSpeed.speed``).
    speed: float = 1.0


def _simulate_op(trace, scale, pf: str) -> Op:
    """A native-engine call, with the classic engine as its reference."""
    from repro.prefetchers.registry import make_prefetcher
    from repro.simulator import engine

    def call():
        return [engine.simulate(trace, make_prefetcher(pf),
                                engine="native", native="force")]

    def reference():
        return [engine.simulate(trace, make_prefetcher(pf))]

    return Op(f"{trace.name}|{pf}|scale={scale}", len(trace), call,
              reference)


def _resolve(names_scales, host) -> list:
    """Catalog traces, sampling ``host`` between them when due."""
    from repro.workloads import catalog

    traces = []
    for name, scale in names_scales:
        traces.append(catalog.resolve_trace(name, scale))
        if host is not None:
            host.due()
    return traces


class Workload:
    name = ""
    native = False
    #: Tail percentile of run_ms and the calls a run makes at least, so
    #: that ten samples or more lie beyond the percentile.
    tail_pct = 75
    min_calls = 40

    def __init__(self) -> None:
        self.ops: List[Op] = []

    def setup(self, seed: int, host=None) -> None:
        """Build the inputs and calls; a ``HostSpeed`` given here may be
        sampled between traces."""
        raise NotImplementedError

    def warmup_ops(self) -> List[Op]:
        return self.ops

    def run_ops(self, ops: List[Op], tracer=None, host=None) -> PassInfo:
        """Run ``ops`` one after another; with a ``HostSpeed``, sample it
        between them, outside the pass's wall time."""
        outcomes = []
        sampled = host.spent if host is not None else 0.0
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = op.key
            t = time.perf_counter()
            try:
                results = op.call()
            except Exception as exc:  # a failed operation, not a crash
                outcomes.append(Outcome(op.key, op.records,
                                        time.perf_counter() - t,
                                        error=f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(Outcome(op.key, op.records,
                                        time.perf_counter() - t, results))
            if host is not None:
                host.due()
        sampling = host.spent - sampled if host is not None else 0.0
        return PassInfo(time.perf_counter() - start - sampling, outcomes)

    def run_pass(self, state_dir: Path, tracer=None, host=None) -> PassInfo:
        return self.run_ops(self.ops, tracer, host)


class NativeLong(Workload):
    name = "native-long"
    native = True
    tail_pct, min_calls = 75, 40

    def setup(self, seed: int, host=None) -> None:
        from repro.native.build import kernel_available

        kernel_available()  # load the kernel from the warm cache
        names = list(LONG_TRACES)
        random.Random(seed).shuffle(names)
        traces = _resolve([(n, LONG_TRACES[n]) for n in names], host)
        self.ops = [_simulate_op(t, LONG_TRACES[n], "berti")
                    for n, t in zip(names, traces)]


class NativeSweepShort(Workload):
    name = "native-sweep-short"
    native = True
    tail_pct, min_calls = 95, 200

    def setup(self, seed: int, host=None) -> None:
        from repro.native.build import kernel_available
        from repro.workloads import catalog

        kernel_available()
        traces = _resolve([(n, SHORT_SCALE)
                           for n in catalog.all_trace_names()], host)
        self.ops = [_simulate_op(t, SHORT_SCALE, pf)
                    for t in traces for pf in SWEEP_PREFETCHERS]
        random.Random(seed).shuffle(self.ops)


class CampaignFig8(Workload):
    """The Fig. 8 matrix as ``repro suite --supervise --workers 2`` runs it."""

    name = "campaign-fig8"
    tail_pct, min_calls = 90, 120

    def setup(self, seed: int, host=None) -> None:
        import repro.analysis.metrics  # noqa: F401 - run_pass needs it
        from repro.runner import build_matrix_jobs
        from repro.workloads.catalog import suite_trace_names

        traces = suite_trace_names("spec17") + suite_trace_names("gap")
        self.canonical = build_matrix_jobs(traces, FIG8_PREFETCHERS,
                                           scale=SHORT_SCALE)
        self.jobs = list(self.canonical)
        random.Random(seed).shuffle(self.jobs)
        # Records are known once a job has run (extra["trace_records"]).
        calls = [functools.partial(_run_job_list, job) for job in self.jobs]
        self.ops = [Op(job.key, 0, call, call)
                    for job, call in zip(self.jobs, calls)]

    def warmup_ops(self) -> List[Op]:
        """One inline job per prefetcher: the pool forks from this
        process, so its workers start with these code paths loaded."""
        firsts: Dict[str, Op] = {}
        for job, op in zip(self.jobs, self.ops):
            firsts.setdefault(job.l1d, op)
        return list(firsts.values())

    def run_pass(self, state_dir: Path, tracer=None, host=None) -> PassInfo:
        """One campaign.  Its jobs run in the pool's processes, so a
        ``host`` is sampled from a thread of this one meanwhile."""
        from repro.analysis.metrics import geomean_speedup
        from repro.runner import (CampaignSupervisor, RunnerConfig,
                                  SupervisorConfig, per_trace_results)

        tmp = Path(tempfile.mkdtemp(prefix="campaign-", dir=state_dir))
        try:
            run_fn = None
            if tracer is not None:
                span_dir = tmp / "spans"
                span_dir.mkdir()
                run_fn = functools.partial(spans.traced_run_job,
                                           str(span_dir))
            sup = CampaignSupervisor(
                RunnerConfig(workers=CAMPAIGN_WORKERS,
                             journal_path=str(tmp / "journal.jsonl")),
                SupervisorConfig(heartbeat_dir=str(tmp / "heartbeats")),
                run_fn=run_fn,
            )
            if tracer is not None:
                tracer.op = None
                rec = tracer.open("runner.campaign")
            start = time.perf_counter()
            if host is None:
                suite = sup.run(self.jobs)
            else:
                with hostspeed.Background(host):
                    suite = sup.run(self.jobs)
            speeds = geomean_speedup(
                per_trace_results(self.canonical, suite),
                baseline_name=FIG8_BASELINE,
            )
            wall = time.perf_counter() - start
            span_groups, span_counts = [], {}
            if tracer is not None:
                tracer.close(rec)
                span_groups, span_counts = spans.load_dumps(span_dir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        outcomes, seen = [], set()
        busy = attempts = 0.0
        for o in suite.outcomes:
            seen.add(o.key)
            busy += o.elapsed
            attempts += o.attempts
            if o.ok:
                outcomes.append(Outcome(
                    o.key, int(o.result.extra.get("trace_records", 0)),
                    o.elapsed, [o.result]))
            else:
                outcomes.append(Outcome(o.key, 0, o.elapsed,
                                        error=f"{o.kind}: {o.message}"))
        for job in self.jobs:
            if job.key not in seen:
                outcomes.append(Outcome(job.key, 0, 0.0,
                                        error="no outcome (interrupted)"))
        runner = {
            "jobs": float(len(suite.outcomes)),
            "attempts": attempts,
            "failed": float(len(suite.failures)),
            "job_busy_s": busy,
            "idle_s": CAMPAIGN_WORKERS * wall - busy,
        }
        return PassInfo(wall, outcomes, runner, speeds, span_groups,
                        span_counts)


def _run_job_list(job) -> list:
    from repro.runner import worker

    return [worker.run_job(job)]


class Mix4SharedLLC(Workload):
    name = "mix4-shared-llc"
    tail_pct, min_calls = 75, 40

    def setup(self, seed: int, host=None) -> None:
        from repro.prefetchers.registry import make_prefetcher
        from repro.simulator import multicore
        from repro.workloads import mixes

        pool = mixes.random_mixes(MIX_POOL, cores=4, scale=SHORT_SCALE,
                                  seed=MIX_POOL_SEED)
        self.pool_names = [[t.name for t in mix] for mix in pool]
        rng = random.Random(seed)
        chosen = [rng.choice(stratum) for stratum in MIX_STRATA]

        def op(i: int, pf: str) -> Op:
            mix = pool[i]

            def call():
                return multicore.simulate_multicore(
                    mix, [make_prefetcher(pf) for _ in mix])

            return Op(f"mix{i:02d}|{pf}", sum(len(t) for t in mix),
                      call, call)

        self.ops = [op(i, pf) for i in chosen for pf in MIX_PREFETCHERS]
        rng.shuffle(self.ops)
        self.all_ops = [op(i, pf) for i in range(MIX_POOL)
                        for pf in MIX_PREFETCHERS]

    def warmup_ops(self) -> List[Op]:
        firsts: Dict[str, Op] = {}
        for op in self.ops:
            firsts.setdefault(op.key.split("|")[1], op)
        return list(firsts.values())


WORKLOADS = {w.name: w for w in (NativeLong, NativeSweepShort, CampaignFig8,
                                 Mix4SharedLLC)}
