"""Batched columnar engine: batch-at-a-time execution of the demand path.

The classic engine (``simulate(..., engine="classic")``) crosses the
hierarchy once per record through virtual calls: ``issue_memory`` →
``demand_access`` → ``translate_demand`` → probe → prefetcher hooks.
Each hop is cheap; a hundred of them per record is not — dispatch
overhead, not algorithmic work, dominates the profile (see
docs/performance.md).

This module builds the batched alternative: ``make_batched_runner``
returns a span runner that slices the trace's ``array('q')`` columns
into fixed-size chunks and executes each chunk through one fused loop
in which the core model, the MMU's dTLB-hit path, the L1D probe and
demand touch, the MSHR lookup/merge ladder, the demand L2/LLC descent
and the Berti kernel hooks are all inlined over locals hoisted once per
span.  Pure counters accumulate in span-local integers and are flushed
additively when the span ends; structural state (cache sets, MSHR entry
maps, PQ service times, replacement metadata, Berti rings) is mutated
in place through the very same objects and bound methods the classic
engine uses, in the same order, so the two engines are bit-identical —
the lockstep digest (:mod:`repro.sanitizer.lockstep`) samples state at
span/chunk boundaries, where every delta has been flushed.

Batch hooks
-----------

A kernel prefetcher opts into chunk delivery by declaring
``kernel_batch_hooks = True`` in its own class body (mirroring the
``kernel_hooks`` protocol: subclasses demote unless they re-declare it)
and providing:

``on_access_batch(triples)``
    Called at every chunk boundary with the chunk's training stream —
    one ``(ip, vline, cycle)`` triple per history insert the chunk
    performed (demand misses and prefetch first-hits).  The per-access
    kernels have already consumed these inserts one at a time, so the
    hook MUST NOT mutate prefetcher state: it is an observation window
    (batch-level analyses, logging, future SoA training experiments).
    Snapshots taken after a chunk must remain byte-identical whether or
    not the hook ran.

``on_fill_batch(fills)``
    Batch twin of ``on_fill_kernel``: ``fills`` is a sequence of
    ``(vline, now, latency, ip)`` tuples.  Fill training feeds the very
    next access's prediction, so the engine never defers fills into a
    batch — the hook exists for offline/replay tooling and is pinned
    equivalent to the per-access kernel by test.

Demotion
--------

``batch_mode`` demotes (returns ``""``) whenever anything on the hot
path is not the stock implementation: a wrapped ``demand_access``
(sanitizer, lockstep capture), subclassed hierarchy/caches/MSHRs/PQ/MMU
/core (fault injection, reference engine), a non-kernel L1D prefetcher
without batch hooks, or any L2 prefetcher.  The demoted path is the
classic per-record loop split at the same span boundaries — trivially
bit-identical.  ``simulate_multicore`` always runs demoted: its
round-robin interleave resets shared LLC/DRAM statistics objects and
collects per-core results mid-loop, which is unsound while another
core's span deltas are still unflushed.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.cpu.core_model import CoreModel
from repro.cpu.mmu import MMU
from repro.errors import ReproError, SimulationError
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    LATENCY_FIELD_BITS,
    LINES_PER_PAGE_BITS,
    PAGE_OFFSET_MASK,
    Hierarchy,
    _FIFOQueue,
    same_page,
)
from repro.memory.mshr import MSHR
from repro.prefetchers.base import NoPrefetcher
from repro.core.delta_table import L1D_PREF

#: Records per chunk.  Chunks are cut relative to the span start, so the
#: snapshot/progress machinery (which splits runs into spans) keeps its
#: boundaries aligned with chunk boundaries automatically.
DEFAULT_CHUNK_SIZE = 1024


def batch_mode(hierarchy: Hierarchy, core: CoreModel) -> str:
    """Classify how far ``hierarchy`` can be batch-executed.

    Returns ``"kernel"`` (fused loop incl. Berti kernel hooks),
    ``"plain"`` (fused demand-only loop, no L1D prefetcher), or ``""``
    (demote to the per-record classic loop).  Exact-type checks mirror
    the classic engine's fast-path guards: any subclass — fault
    injectors, the sanitizer's reference engine — keeps full virtual
    dispatch.  Instrumentation that shadows ``demand_access`` with an
    instance attribute (the sanitizer, the lockstep capture) demotes
    too: the fused loop never goes through that method.
    """
    return batch_verdict(hierarchy, core)[0]


def batch_verdict(hierarchy: Hierarchy, core: CoreModel) -> Tuple[str, str]:
    """``(mode, refused)``: ``mode`` as :func:`batch_mode`; when it is
    ``""``, ``refused`` names what demoted — ``"structures"`` (a
    non-stock part or a shadowed ``demand_access``), or the attribute
    holding the prefetcher the fused loops do not cover
    (``"l2_prefetcher"`` / ``"l1d_prefetcher"``)."""
    h = hierarchy
    if type(h) is not Hierarchy or "demand_access" in h.__dict__:
        return ("", "structures")
    if (
        type(h.mmu) is not MMU
        or type(h.l1d) is not Cache
        or type(h.l2) is not Cache
        or type(h.llc) is not Cache
        or type(h.l1d_mshr) is not MSHR
        or type(h.l2_mshr) is not MSHR
        or type(h.pq) is not _FIFOQueue
        or type(core) is not CoreModel
    ):
        return ("", "structures")
    if type(h.l2_prefetcher) is not NoPrefetcher:
        return ("", "l2_prefetcher")
    pf = h.l1d_prefetcher
    if type(pf) is NoPrefetcher:
        return ("plain", "")
    kern = h._l1d_kernel
    if (
        kern is not None
        and kern is pf
        and type(pf).__dict__.get("kernel_batch_hooks")
    ):
        return ("kernel", "")
    return ("", "l1d_prefetcher")


def make_batched_runner(
    trace,
    hierarchy: Hierarchy,
    core: CoreModel,
    chunk_size: int = 0,
) -> Callable[[int, int], None]:
    """Build the batched span runner for one (trace, hierarchy, core).

    The returned ``run_span(lo, hi)`` re-validates :func:`batch_mode`
    per span (instrumentation may attach between spans — e.g. a
    sanitizer installed on resume) and dispatches to the fused loop or
    the demoted classic loop.  All statistics are fully flushed when it
    returns, so snapshots taken between spans are consistent.
    """
    chunk = chunk_size if chunk_size > 0 else DEFAULT_CHUNK_SIZE
    ips, addrs, writes, gaps, deps = trace.columns()
    # Vectorized pre-decode: line/page derived columns computed once for
    # the whole trace (numpy, cached on the trace) instead of two shifts
    # per record in the fused loop.  The native span kernel shares the
    # very same arrays by pointer.
    vlines, vpages = trace.decoded_columns()
    h = hierarchy
    trace_name = trace.name

    def _crash(exc: BaseException, lo: int, hi: int, done: int) -> SimulationError:
        return SimulationError(
            f"simulation crashed at record ~{lo + done} "
            f"({done} accesses into span [{lo}, {hi})): "
            f"{type(exc).__name__}: {exc}",
            trace=trace_name,
            prefetcher=h.l1d_prefetcher.name,
            field="record_index",
        )

    def _run_demoted(lo: int, hi: int) -> None:
        # Classic per-record loop over the same span: identical calls in
        # identical order, hence trivially bit-identical.
        demand = h.demand_access
        issue = core.issue_memory
        advance = core.advance_nonmem
        l1d_stats = h.l1d.stats
        base = l1d_stats.demand_accesses
        try:
            for ip, vaddr, is_write, gap, dep in zip(
                ips[lo:hi], addrs[lo:hi], writes[lo:hi], gaps[lo:hi],
                deps[lo:hi],
            ):
                if gap:
                    advance(gap)
                issue(demand, ip, vaddr, is_write, dep)
        except ReproError:
            raise
        except Exception as exc:
            done = l1d_stats.demand_accesses - base
            raise _crash(exc, lo, hi, done) from exc

    def _run_fused(lo: int, hi: int, kernel: bool) -> None:
        # ------------------------------------------------------------------
        # Span-level hoists.  Object identities are stable across a span:
        # `_where` dicts, set lists (mutated in place, incl. their lazy
        # materialisation), MSHR entry maps, the PQ deque, replacement
        # metadata and the Berti tables all keep their identity; only
        # plain counters are rebound, and those live in span-locals.
        # ------------------------------------------------------------------
        mmu = h.mmu
        dtlb = mmu.dtlb
        stlb = mmu.stlb
        dtlb_map = dtlb._map
        dtlb_sets = dtlb._sets
        dtlb_nsets = dtlb.num_sets
        dtlb_latency = dtlb.latency
        miss_trans_latency = dtlb_latency + stlb.latency
        stlb_lookup = stlb.lookup
        stlb_insert = stlb.insert
        dtlb_insert = dtlb.insert
        stlb_map = stlb._map
        stlb_stats = stlb.stats
        physical_page = mmu._physical_page
        mmu_stats = mmu.stats
        page_walk_latency = mmu.page_walk_latency
        translate_cold = mmu._translate_prefetch_cold
        LPB = LINES_PER_PAGE_BITS
        POM = PAGE_OFFSET_MASK

        l1d = h.l1d
        l2 = h.l2
        llc = h.llc
        l1s = l1d.stats
        l2s = l2.stats
        llcs = llc.stats
        l1d_where = l1d._where
        l2_where = l2._where
        llc_where = llc._where
        l1d_sets = l1d.sets
        l2_sets = l2.sets
        llc_sets = llc.sets
        l1d_set_mask = l1d._set_mask
        l2_set_mask = l2._set_mask
        llc_set_mask = llc._set_mask
        l1d_latency = l1d.latency
        l2_latency = l2.latency
        llc_latency = llc.latency
        l1d_lru = l1d._lru
        l2_lru = l2._lru
        llc_lru = llc._lru
        if l1d_lru is not None:
            l1d_lru_clock = l1d_lru._clock
            l1d_lru_age = l1d_lru._age
        if l2_lru is not None:
            l2_lru_clock = l2_lru._clock
            l2_lru_age = l2_lru._age
        if llc_lru is not None:
            llc_lru_clock = llc_lru._clock
            llc_lru_age = llc_lru._age
        l1d_srrip_hit = l1d._srrip_hit
        l2_srrip_hit = l2._srrip_hit
        llc_srrip_hit = llc._srrip_hit
        l1d_drrip = l1d._drrip
        l2_drrip = l2._drrip
        llc_drrip = llc._drrip
        l1d_on_hit = l1d.policy.on_hit
        l2_on_hit = l2.policy.on_hit
        llc_on_hit = llc.policy.on_hit
        l1d_fill = l1d.fill
        l2_fill = l2.fill
        llc_fill = llc.fill
        l1d_mark_dirty = l1d.mark_dirty
        handle_wb = h._handle_writeback
        credit = h._credit_useful
        dram_read = h.dram.read

        m1 = h.l1d_mshr
        m2 = h.l2_mshr
        m1_entries = m1._entries
        m2_entries = m2._entries
        m1_size = m1.size
        m2_size = m2.size
        m1_expire = m1._expire
        m2_expire = m2._expire
        m1_allocate = m1.allocate
        m2_allocate = m2.allocate
        m1_reserve = m1_size - 2

        pq = h.pq
        st = pq._service_times
        st_popleft = st.popleft
        st_append = st.append
        pq_size = pq.size
        period = 1.0 / pq.rate
        latency_cap = 1 << LATENCY_FIELD_BITS

        # Core model scalars go span-local; deques stay shared objects.
        c_instr = core._instr
        c_frontend = core._frontend
        c_retire = core._retire_frontier
        c_rob_head = core._rob_head_retire
        c_window = core._window
        c_loads = core._load_completions
        w_pop = c_window.popleft
        w_app = c_window.append
        loads_app = c_loads.append
        issue_incr = core._issue_incr
        retire_incr = core._retire_incr
        rob_size = core._rob_size
        issue_width = core.config.issue_width
        retire_width = core.config.retire_width

        if kernel:
            kern = h._l1d_kernel
            hist_insert = kern.history.insert
            delta_pfd = kern.deltas.prefetch_deltas
            search_into = kern.history.search_timely_into
            record_search = kern.deltas.record_search
            scratch = kern._scratch
            latency_mask = kern._latency_mask
            watermark = h._l1d_kern_watermark
            cross_ok = h._l1d_kern_cross_page
            key_is_ip = getattr(type(kern), "kernel_batch_key", "ip") != "page"
            on_batch = kern.on_access_batch

        # Span-local statistic deltas, flushed additively at span end.
        # Called code (fills, allocate, writebacks, eviction hooks, DRAM)
        # keeps bumping its counters directly; the two never touch the
        # same field, and nothing reads statistics mid-span in fused mode.
        d_dt_acc = d_dt_hit = 0
        d_l1_acc = d_l1_hit = d_l1_miss = d_l1_useful = d_l1_late = 0
        d_l2_acc = d_l2_hit = d_l2_miss = d_l2_useful = 0
        d_llc_acc = d_llc_hit = d_llc_miss = d_llc_useful = 0
        d_h_llc_acc = d_h_llc_miss = d_h_dram = 0
        d_t12_dem = d_t12_pf = d_t2l_dem = d_t2l_pf = 0
        d_tld_dem = d_tld_pf = 0
        d_pf_sugg = d_pf_issued = d_pf_fills = 0
        d_pf_useful = d_pf_late = d_pf_promoted = 0
        d_pf_dtrans = d_pf_ddup = d_pf_dq = d_pf_dm = 0
        d_pf2_useful = d_pf2_late = d_pf2_promoted = 0
        d_stlb_probes = d_stlb_hits = 0
        d_m1_merges = d_m2_merges = 0
        d_cross = 0

        def run_ladder(selected, ip, vline, now, mshr_below):
            # _kernel_issue_selected transcribed: translate → dedup → PQ →
            # MSHR-reserve → fill, with the prefetch-specialised
            # _access_l2/_access_llc descents inlined (the is_prefetch
            # branches are pruned).  Side effects run in the classic
            # order; counter batches flush into the span deltas.
            nonlocal d_pf_sugg, d_pf_dtrans, d_pf_ddup, d_pf_dq, d_pf_dm
            nonlocal d_pf_fills, d_pf_issued, d_stlb_probes, d_stlb_hits
            nonlocal d_t12_pf, d_t2l_pf, d_tld_pf, d_m2_merges, d_cross
            suggested = 0
            dropped_translation = 0
            dropped_duplicate = 0
            dropped_queue_full = 0
            dropped_mshr_full = 0
            fills = 0
            issued = 0
            stlb_probes = 0
            stlb_hits = 0
            tr_l1d_l2 = 0
            tr_l2_llc = 0
            pq_full = False

            for delta, status in selected:
                target = vline + delta
                if target < 0:
                    continue
                if not cross_ok and not same_page(vline, target):
                    d_cross += 1
                    continue
                fill_l1 = status == L1D_PREF and mshr_below
                suggested += 1
                # translate_prefetch, STLB-hit path inlined.
                vpage = target >> LPB
                stlb_probes += 1
                ppage = stlb_map.get(vpage)
                if ppage is None:
                    pline = translate_cold(target, vpage)
                    if pline is None:
                        dropped_translation += 1
                        continue
                else:
                    stlb_hits += 1
                    pline = (ppage << LPB) | (target & POM)
                if fill_l1:
                    if pline in l1d_where:
                        dropped_duplicate += 1
                        continue
                    # MSHR.lookup inlined, expire memoised per cycle.
                    if now != m1._last_expire:
                        if m1_entries and now >= m1._min_ready:
                            m1_expire(now)
                        else:
                            m1._last_expire = now
                    if pline in m1_entries:
                        dropped_duplicate += 1
                        continue
                    if pq_full:
                        dropped_queue_full += 1
                        continue
                    # _FIFOQueue.push inlined.
                    while st and st[0] <= now:
                        st_popleft()
                    if len(st) >= pq_size:
                        pq_full = True
                        dropped_queue_full += 1
                        continue
                    start = now
                    if st and st[-1] > start:
                        start = st[-1]
                    service = start + period
                    st_append(service)
                    issue_time = now + int(service - now)
                    # Demand-reserve check at issue time.
                    if issue_time != m1._last_expire:
                        if m1_entries and issue_time >= m1._min_ready:
                            m1_expire(issue_time)
                        else:
                            m1._last_expire = issue_time
                    if len(m1_entries) >= m1_reserve:
                        dropped_mshr_full += 1
                        continue
                    # _access_l2(is_prefetch=True) inlined.
                    way2 = l2_where.get(pline)
                    if way2 is not None:
                        sidx2 = pline & l2_set_mask
                        if l2_lru is not None:
                            clock = l2_lru_clock[sidx2] + 1
                            l2_lru_clock[sidx2] = clock
                            l2_lru_age[sidx2][way2] = clock
                        elif l2_srrip_hit is not None:
                            l2_srrip_hit[sidx2][way2] = 0
                        else:
                            l2_on_hit(sidx2, way2)
                        cl2 = l2_sets[sidx2][way2]
                        ready = issue_time + l2_latency
                        if cl2.arrival_cycle > ready:
                            ready = cl2.arrival_cycle
                    else:
                        if issue_time != m2._last_expire:
                            if m2_entries and issue_time >= m2._min_ready:
                                m2_expire(issue_time)
                            else:
                                m2._last_expire = issue_time
                        inflight2 = m2_entries.get(pline)
                        if inflight2 is not None:
                            d_m2_merges += 1
                            inflight2.merged_demands += 1
                            wait2 = inflight2.ready_cycle - issue_time
                            if wait2 < 0:
                                wait2 = 0
                            ready = issue_time + l2_latency + wait2
                        else:
                            mt2 = issue_time + l2_latency
                            tr_l2_llc += 1
                            # _access_llc(is_prefetch=True) inlined.
                            way3 = llc_where.get(pline)
                            if way3 is not None:
                                sidx3 = pline & llc_set_mask
                                if llc_lru is not None:
                                    clock = llc_lru_clock[sidx3] + 1
                                    llc_lru_clock[sidx3] = clock
                                    llc_lru_age[sidx3][way3] = clock
                                elif llc_srrip_hit is not None:
                                    llc_srrip_hit[sidx3][way3] = 0
                                else:
                                    llc_on_hit(sidx3, way3)
                                cl3 = llc_sets[sidx3][way3]
                                ready = mt2 + llc_latency
                                if cl3.arrival_cycle > ready:
                                    ready = cl3.arrival_cycle
                            else:
                                mt3 = mt2 + llc_latency
                                d_tld_pf += 1
                                ready = dram_read(pline, mt3)
                                victim3 = llc_fill(
                                    pline, now=mt3, arrival_cycle=ready,
                                    is_prefetch=True,
                                )
                                if victim3 is not None:
                                    handle_wb(llc, victim3, ready)
                            if mt2 != m2._last_expire:
                                if m2_entries and mt2 >= m2._min_ready:
                                    m2_expire(mt2)
                                else:
                                    m2._last_expire = mt2
                            if len(m2_entries) < m2_size:
                                m2_allocate(pline, mt2, ready, True, ip=ip)
                            victim2 = l2_fill(
                                pline, now=mt2, arrival_cycle=ready,
                                is_prefetch=True, ip=ip,
                            )
                            if victim2 is not None:
                                handle_wb(l2, victim2, ready)
                    latency = ready - now
                    m1_allocate(
                        pline, issue_time, ready, is_prefetch=True, ip=ip,
                        vline=target,
                    )
                    l1d_fill(
                        pline,
                        now=issue_time,
                        arrival_cycle=ready,
                        is_prefetch=True,
                        ip=ip,
                        vline=target,
                        pf_latency=(
                            latency if 0 < latency < latency_cap else 0
                        ),
                        pf_origin="l1d",
                    )
                    tr_l1d_l2 += 1
                    fills += 1
                    issued += 1
                else:
                    if pline in l2_where:
                        dropped_duplicate += 1
                        continue
                    if pq_full:
                        dropped_queue_full += 1
                        continue
                    while st and st[0] <= now:
                        st_popleft()
                    if len(st) >= pq_size:
                        pq_full = True
                        dropped_queue_full += 1
                        continue
                    start = now
                    if st and st[-1] > start:
                        start = st[-1]
                    service = start + period
                    st_append(service)
                    issue_time = now + int(service - now)
                    # L2 dedup probe after the PQ slot is consumed (same
                    # order as the call-based path).
                    if now != m2._last_expire:
                        if m2_entries and now >= m2._min_ready:
                            m2_expire(now)
                        else:
                            m2._last_expire = now
                    if pline in l2_where or pline in m2_entries:
                        dropped_duplicate += 1
                        continue
                    if issue_time != m2._last_expire:
                        if m2_entries and issue_time >= m2._min_ready:
                            m2_expire(issue_time)
                        else:
                            m2._last_expire = issue_time
                    if len(m2_entries) >= m2_size:
                        dropped_mshr_full += 1
                        continue
                    # _access_llc(is_prefetch=True) inlined.
                    now3 = issue_time + l2_latency
                    way3 = llc_where.get(pline)
                    if way3 is not None:
                        sidx3 = pline & llc_set_mask
                        if llc_lru is not None:
                            clock = llc_lru_clock[sidx3] + 1
                            llc_lru_clock[sidx3] = clock
                            llc_lru_age[sidx3][way3] = clock
                        elif llc_srrip_hit is not None:
                            llc_srrip_hit[sidx3][way3] = 0
                        else:
                            llc_on_hit(sidx3, way3)
                        cl3 = llc_sets[sidx3][way3]
                        ready = now3 + llc_latency
                        if cl3.arrival_cycle > ready:
                            ready = cl3.arrival_cycle
                    else:
                        mt3 = now3 + llc_latency
                        d_tld_pf += 1
                        ready = dram_read(pline, mt3)
                        victim3 = llc_fill(
                            pline, now=mt3, arrival_cycle=ready,
                            is_prefetch=True,
                        )
                        if victim3 is not None:
                            handle_wb(llc, victim3, ready)
                    m2_allocate(pline, issue_time, ready, True, ip=ip)
                    latency = ready - now
                    l2_fill(
                        pline,
                        now=issue_time,
                        arrival_cycle=ready,
                        is_prefetch=True,
                        ip=ip,
                        vline=target,
                        pf_latency=(
                            latency if 0 < latency < latency_cap else 0
                        ),
                        pf_origin="l1d",
                    )
                    tr_l1d_l2 += 1
                    tr_l2_llc += 1
                    fills += 1
                    issued += 1

            d_pf_sugg += suggested
            d_pf_dtrans += dropped_translation
            d_pf_ddup += dropped_duplicate
            d_pf_dq += dropped_queue_full
            d_pf_dm += dropped_mshr_full
            d_pf_fills += fills
            d_pf_issued += issued
            d_stlb_probes += stlb_probes
            d_stlb_hits += stlb_hits
            d_t12_pf += tr_l1d_l2
            d_t2l_pf += tr_l2_llc

        # ------------------------------------------------------------------
        # Fused record loop, cut into chunks for batch-hook delivery.
        # ------------------------------------------------------------------
        triples: list = []
        tri_app = triples.append
        try:
            i = lo
            while i < hi:
                j = i + chunk
                if j > hi:
                    j = hi
                for ip, vline, vpage, is_write, gap, dep in zip(
                    ips[i:j], vlines[i:j], vpages[i:j], writes[i:j],
                    gaps[i:j], deps[i:j],
                ):
                    # -- CoreModel.advance_nonmem
                    if gap > 0:
                        c_instr += gap
                        c_frontend += gap / issue_width
                        floor = c_instr / retire_width
                        if floor > c_retire:
                            c_retire = floor
                    # -- CoreModel.issue_memory (front half)
                    k_i = c_instr
                    c_instr = k_i + 1
                    c_frontend = frontend = c_frontend + issue_incr
                    horizon = k_i - rob_size
                    while c_window and c_window[0][0] <= horizon:
                        __, retired = w_pop()
                        if retired > c_rob_head:
                            c_rob_head = retired
                    issue_t = frontend if frontend > c_rob_head else c_rob_head
                    if dep > 0 and dep <= len(c_loads):
                        dep_ready = c_loads[-dep]
                        if dep_ready > issue_t:
                            issue_t = dep_ready
                    now = int(issue_t)

                    # -- Hierarchy.demand_access / MMU.translate_demand
                    # (vline/vpage arrive pre-decoded from the trace)
                    d_dt_acc += 1
                    ppage = dtlb_map.get(vpage)
                    if ppage is not None:
                        entries_d = dtlb_sets[vpage % dtlb_nsets]
                        for di, pair in enumerate(entries_d):
                            if pair[0] == vpage:
                                entries_d.append(entries_d.pop(di))
                                break
                        d_dt_hit += 1
                        pline = (ppage << LPB) | (vline & POM)
                        trans_latency = dtlb_latency
                    else:
                        trans_latency = miss_trans_latency
                        ppage = stlb_lookup(vpage)
                        if ppage is None:
                            ppage = physical_page(vpage)
                            mmu_stats.walks += 1
                            trans_latency += page_walk_latency
                            stlb_insert(vpage, ppage)
                        dtlb_insert(vpage, ppage)
                        pline = (ppage << LPB) | (vline & POM)
                    t = now + trans_latency

                    # -- L1D probe (Cache.lookup inlined)
                    d_l1_acc += 1
                    way = l1d_where.get(pline)
                    if way is not None:
                        # ------------------------------ L1D hit
                        d_l1_hit += 1
                        sidx = pline & l1d_set_mask
                        if l1d_lru is not None:
                            clock = l1d_lru_clock[sidx] + 1
                            l1d_lru_clock[sidx] = clock
                            l1d_lru_age[sidx][way] = clock
                        elif l1d_srrip_hit is not None:
                            l1d_srrip_hit[sidx][way] = 0
                        else:
                            l1d_on_hit(sidx, way)
                        cl = l1d_sets[sidx][way]
                        latency = trans_latency + l1d_latency
                        # Cache.demand_touch at t + l1d_latency.
                        residual = cl.arrival_cycle - (t + l1d_latency)
                        if residual < 0:
                            residual = 0
                        latency += residual
                        if cl.prefetched:
                            was_late = residual > 0
                            d_l1_useful += 1
                            if was_late:
                                d_l1_late += 1
                            cl.prefetched = False
                            # _credit_useful, "l1d" fast path.
                            if cl.pf_origin != "l2":
                                d_pf_useful += 1
                                if was_late:
                                    d_pf_late += 1
                            else:
                                credit("l2", was_late)
                            pf_lat_v = cl.pf_latency
                            cl.pf_latency = 0
                            if kernel:
                                # _notify_l1d_prefetch_hit: MSHR sampling
                                # (lazy-expiry side effect) + kernel.
                                if t != m1._last_expire:
                                    if m1_entries and t >= m1._min_ready:
                                        m1_expire(t)
                                    else:
                                        m1._last_expire = t
                                # on_prefetch_hit_kernel inlined.
                                key = ip if key_is_ip else vpage
                                hist_insert(key, vline, t)
                                tri_app((ip, vline, t))
                                if 0 < pf_lat_v <= latency_mask:
                                    scratch.clear()
                                    search_into(
                                        key, vline, t, pf_lat_v, scratch
                                    )
                                    record_search(key, scratch)
                        if is_write:
                            cl.dirty = True
                        if kernel:
                            # _run_l1d_prefetcher_on_access, hit=True.
                            if t != m1._last_expire:
                                if m1_entries and t >= m1._min_ready:
                                    m1_expire(t)
                                else:
                                    m1._last_expire = t
                            mshr_occ = (
                                len(m1_entries) / m1_size if m1_size else 0.0
                            )
                            while st and st[0] <= t:
                                st_popleft()
                            # on_access_kernel, hit → no insert.
                            key = ip if key_is_ip else vpage
                            selected = delta_pfd(key)
                            if selected:
                                run_ladder(
                                    selected, ip, vline, t,
                                    mshr_occ < watermark,
                                )
                    else:
                        # ------------------------------ L1D miss
                        d_l1_miss += 1
                        if l1d_drrip is not None:
                            l1d_drrip.record_miss(pline & l1d_set_mask)
                        # MSHR.lookup inlined (expire memoised).
                        if t != m1._last_expire:
                            if m1_entries and t >= m1._min_ready:
                                m1_expire(t)
                            else:
                                m1._last_expire = t
                        inflight = m1_entries.get(pline)
                        if inflight is not None:
                            # In-flight fetch of the same line: merge.
                            d_m1_merges += 1
                            inflight.merged_demands += 1
                            wait = inflight.ready_cycle - t
                            if wait < 0:
                                wait = 0
                            if inflight.is_prefetch:
                                inflight.is_prefetch = False
                                d_pf_useful += 1
                                d_pf_late += 1
                                d_pf_promoted += 1
                                if kernel:
                                    # _notify_l1d_prefetch_hit.
                                    pf_lat_v = (
                                        inflight.ready_cycle
                                        - inflight.alloc_cycle
                                    )
                                    if pf_lat_v < 1:
                                        pf_lat_v = 1
                                    if t != m1._last_expire:
                                        if m1_entries and t >= m1._min_ready:
                                            m1_expire(t)
                                        else:
                                            m1._last_expire = t
                                    key = ip if key_is_ip else vpage
                                    hist_insert(key, vline, t)
                                    tri_app((ip, vline, t))
                                    if 0 < pf_lat_v <= latency_mask:
                                        scratch.clear()
                                        search_into(
                                            key, vline, t, pf_lat_v, scratch
                                        )
                                        record_search(key, scratch)
                            if kernel:
                                # _run_l1d_prefetcher_on_access, hit=False.
                                if t != m1._last_expire:
                                    if m1_entries and t >= m1._min_ready:
                                        m1_expire(t)
                                    else:
                                        m1._last_expire = t
                                mshr_occ = (
                                    len(m1_entries) / m1_size
                                    if m1_size else 0.0
                                )
                                while st and st[0] <= t:
                                    st_popleft()
                                key = ip if key_is_ip else vpage
                                hist_insert(key, vline, t)
                                tri_app((ip, vline, t))
                                selected = delta_pfd(key)
                                if selected:
                                    run_ladder(
                                        selected, ip, vline, t,
                                        mshr_occ < watermark,
                                    )
                            latency = trans_latency + l1d_latency + wait
                        else:
                            # True miss: fetch from L2 (and below).  A
                            # full MSHR stalls the demand until an entry
                            # frees (the stall is part of the latency).
                            detect_time = t + l1d_latency
                            miss_time = detect_time
                            if miss_time != m1._last_expire:
                                if m1_entries and miss_time >= m1._min_ready:
                                    m1_expire(miss_time)
                                else:
                                    m1._last_expire = miss_time
                            if len(m1_entries) >= m1_size:
                                earliest = (
                                    m1._min_ready if m1_entries else miss_time
                                )
                                if earliest > miss_time:
                                    miss_time = earliest
                            d_t12_dem += 1
                            # _access_l2(is_prefetch=False) inlined.
                            way2 = l2_where.get(pline)
                            if way2 is not None:
                                d_l2_acc += 1
                                d_l2_hit += 1
                                sidx2 = pline & l2_set_mask
                                if l2_lru is not None:
                                    clock = l2_lru_clock[sidx2] + 1
                                    l2_lru_clock[sidx2] = clock
                                    l2_lru_age[sidx2][way2] = clock
                                elif l2_srrip_hit is not None:
                                    l2_srrip_hit[sidx2][way2] = 0
                                else:
                                    l2_on_hit(sidx2, way2)
                                cl2 = l2_sets[sidx2][way2]
                                ready = miss_time + l2_latency
                                if cl2.arrival_cycle > ready:
                                    ready = cl2.arrival_cycle
                                # L2 demand_touch (residual ≤ 0 by
                                # construction, so never late).
                                if cl2.prefetched:
                                    d_l2_useful += 1
                                    cl2.prefetched = False
                                    po = cl2.pf_origin
                                    if po == "l1d":
                                        d_pf_useful += 1
                                    elif po == "l2":
                                        credit("l2", False)
                            else:
                                d_l2_acc += 1
                                d_l2_miss += 1
                                if l2_drrip is not None:
                                    l2_drrip.record_miss(pline & l2_set_mask)
                                if miss_time != m2._last_expire:
                                    if (
                                        m2_entries
                                        and miss_time >= m2._min_ready
                                    ):
                                        m2_expire(miss_time)
                                    else:
                                        m2._last_expire = miss_time
                                inflight2 = m2_entries.get(pline)
                                if inflight2 is not None:
                                    d_m2_merges += 1
                                    inflight2.merged_demands += 1
                                    wait2 = inflight2.ready_cycle - miss_time
                                    if wait2 < 0:
                                        wait2 = 0
                                    if inflight2.is_prefetch:
                                        inflight2.is_prefetch = False
                                        d_pf2_useful += 1
                                        d_pf2_late += 1
                                        d_pf2_promoted += 1
                                    ready = miss_time + l2_latency + wait2
                                else:
                                    mt2 = miss_time + l2_latency
                                    d_t2l_dem += 1
                                    # _access_llc(is_prefetch=False).
                                    d_h_llc_acc += 1
                                    way3 = llc_where.get(pline)
                                    if way3 is not None:
                                        d_llc_acc += 1
                                        d_llc_hit += 1
                                        sidx3 = pline & llc_set_mask
                                        if llc_lru is not None:
                                            clock = llc_lru_clock[sidx3] + 1
                                            llc_lru_clock[sidx3] = clock
                                            llc_lru_age[sidx3][way3] = clock
                                        elif llc_srrip_hit is not None:
                                            llc_srrip_hit[sidx3][way3] = 0
                                        else:
                                            llc_on_hit(sidx3, way3)
                                        cl3 = llc_sets[sidx3][way3]
                                        ready = mt2 + llc_latency
                                        if cl3.arrival_cycle > ready:
                                            ready = cl3.arrival_cycle
                                        # LLC demand_touch (never late).
                                        if cl3.prefetched:
                                            d_llc_useful += 1
                                            cl3.prefetched = False
                                            po = cl3.pf_origin
                                            if po == "l1d":
                                                d_pf_useful += 1
                                            elif po == "l2":
                                                credit("l2", False)
                                    else:
                                        d_llc_acc += 1
                                        d_llc_miss += 1
                                        if llc_drrip is not None:
                                            llc_drrip.record_miss(
                                                pline & llc_set_mask
                                            )
                                        mt3 = mt2 + llc_latency
                                        d_h_llc_miss += 1
                                        d_h_dram += 1
                                        d_tld_dem += 1
                                        ready = dram_read(pline, mt3)
                                        victim3 = llc_fill(
                                            pline, now=mt3,
                                            arrival_cycle=ready,
                                            is_prefetch=False,
                                        )
                                        if victim3 is not None:
                                            handle_wb(llc, victim3, ready)
                                    if mt2 != m2._last_expire:
                                        if (
                                            m2_entries
                                            and mt2 >= m2._min_ready
                                        ):
                                            m2_expire(mt2)
                                        else:
                                            m2._last_expire = mt2
                                    if len(m2_entries) < m2_size:
                                        m2_allocate(
                                            pline, mt2, ready, False,
                                            ip=ip,
                                        )
                                    victim2 = l2_fill(
                                        pline, now=mt2,
                                        arrival_cycle=ready,
                                        is_prefetch=False, ip=ip,
                                    )
                                    if victim2 is not None:
                                        handle_wb(l2, victim2, ready)
                            m1_allocate(
                                pline, miss_time, ready, is_prefetch=False,
                                ip=ip, vline=vline,
                            )
                            victim = l1d_fill(
                                pline,
                                now=miss_time,
                                arrival_cycle=ready,
                                is_prefetch=False,
                                ip=ip,
                                vline=vline,
                            )
                            if victim is not None:
                                handle_wb(l1d, victim, ready)
                            if is_write:
                                l1d_mark_dirty(pline)
                            if kernel:
                                # _run_l1d_prefetcher_on_access, hit=False.
                                if t != m1._last_expire:
                                    if m1_entries and t >= m1._min_ready:
                                        m1_expire(t)
                                    else:
                                        m1._last_expire = t
                                mshr_occ = (
                                    len(m1_entries) / m1_size
                                    if m1_size else 0.0
                                )
                                while st and st[0] <= t:
                                    st_popleft()
                                key = ip if key_is_ip else vpage
                                hist_insert(key, vline, t)
                                tri_app((ip, vline, t))
                                selected = delta_pfd(key)
                                if selected:
                                    run_ladder(
                                        selected, ip, vline, t,
                                        mshr_occ < watermark,
                                    )
                                # on_fill_kernel inlined (demand fill).
                                fl = ready - miss_time
                                if 0 < fl <= latency_mask:
                                    scratch.clear()
                                    search_into(
                                        key, vline, miss_time, fl, scratch
                                    )
                                    record_search(key, scratch)
                            latency = (
                                trans_latency + l1d_latency
                                + (ready - detect_time)
                            )

                    # -- CoreModel.issue_memory (back half)
                    if is_write:
                        completion = issue_t + 1
                    else:
                        completion = issue_t + latency
                        loads_app(completion)
                    retire = c_retire + retire_incr
                    if completion > retire:
                        retire = completion
                    c_retire = retire
                    w_app((k_i, retire))

                # Chunk boundary: deliver the training stream.
                if kernel and triples:
                    on_batch(triples)
                    triples = []
                    tri_app = triples.append
                i = j
        except ReproError:
            raise
        except Exception as exc:
            # Span deltas are deliberately not flushed: a crashed run's
            # statistics are discarded, and stock structures never raise
            # here (fault injectors demote to the classic loop).
            raise _crash(exc, lo, hi, d_l1_acc) from exc

        # ------------------------------------------------------------------
        # Flush span deltas (additive) and write back core scalars.
        # ------------------------------------------------------------------
        dtlb_stats2 = dtlb.stats
        dtlb_stats2.accesses += d_dt_acc
        dtlb_stats2.hits += d_dt_hit
        l1s.demand_accesses += d_l1_acc
        l1s.demand_hits += d_l1_hit
        l1s.demand_misses += d_l1_miss
        l1s.useful_prefetches += d_l1_useful
        l1s.late_prefetches += d_l1_late
        l2s.demand_accesses += d_l2_acc
        l2s.demand_hits += d_l2_hit
        l2s.demand_misses += d_l2_miss
        l2s.useful_prefetches += d_l2_useful
        llcs.demand_accesses += d_llc_acc
        llcs.demand_hits += d_llc_hit
        llcs.demand_misses += d_llc_miss
        llcs.useful_prefetches += d_llc_useful
        h.llc_demand_accesses += d_h_llc_acc
        h.llc_demand_misses += d_h_llc_miss
        h.dram_demand_reads += d_h_dram
        tr12 = h.traffic_l1d_l2
        tr12.demand += d_t12_dem
        tr12.prefetch += d_t12_pf
        tr2l = h.traffic_l2_llc
        tr2l.demand += d_t2l_dem
        tr2l.prefetch += d_t2l_pf
        trld = h.traffic_llc_dram
        trld.demand += d_tld_dem
        trld.prefetch += d_tld_pf
        pfs1 = h._pf_l1d_stats
        pfs1.suggested += d_pf_sugg
        pfs1.issued += d_pf_issued
        pfs1.fills += d_pf_fills
        pfs1.useful += d_pf_useful
        pfs1.late += d_pf_late
        pfs1.promoted += d_pf_promoted
        pfs1.dropped_translation += d_pf_dtrans
        pfs1.dropped_duplicate += d_pf_ddup
        pfs1.dropped_queue_full += d_pf_dq
        pfs1.dropped_mshr_full += d_pf_dm
        pfs2 = h.pf_stats["l2"]
        pfs2.useful += d_pf2_useful
        pfs2.late += d_pf2_late
        pfs2.promoted += d_pf2_promoted
        stlb_stats.prefetch_probes += d_stlb_probes
        stlb_stats.prefetch_probe_hits += d_stlb_hits
        m1.merges += d_m1_merges
        m2.merges += d_m2_merges
        if kernel:
            kern.cross_page_suppressed += d_cross
        core._instr = c_instr
        core._frontend = c_frontend
        core._retire_frontier = c_retire
        core._rob_head_retire = c_rob_head

    def run_span(lo: int, hi: int) -> None:
        mode = batch_mode(h, core)
        if mode:
            _run_fused(lo, hi, mode == "kernel")
        else:
            _run_demoted(lo, hi)

    return run_span
