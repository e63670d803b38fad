"""State marshalling between the Python simulator objects and the C kernel.

The native backend runs one *span* at a time over flat ``int64``/``double``
buffers owned by :class:`NativeState`.  Between spans the buffers, not
the Python objects, hold the simulated *structures*: cache sets and
replacement rows, TLB sets, the MMU page table, MSHR entries, DRAM banks
and pending writes, the core window and load ring, the prefetch queue,
and the Berti delta table, heaps and history chains.  The Python objects
are rebuilt from the buffers only when something reads them, through the
one import entry point :meth:`NativeState.sync`.

Stale-side rule
---------------

``NativeState.stale_side`` names the side whose copy of the structures
is out of date:

* ``"buffers"`` — the Python objects are newer: a fresh binding, or a
  demoted span ran on them.  The next :meth:`~NativeState.begin_span`
  exports every structure (and the configuration registers).
* ``"python"`` — a native span ran since the last export or sync.  The
  hierarchy carries ``_native_stale = True`` so that pickling it raises
  :class:`~repro.errors.SnapshotError` instead of writing stale state.
  :meth:`~NativeState.sync` imports; within a cache it re-reads only
  the sets the kernel flagged touched (``MAT`` = 2).
  ``sync(prefetcher_only=True)`` imports just the Berti tables and
  leaves the side ``"python"``: the engines do this at the end of every
  run, because the caller owns the prefetcher object.
* ``None`` — both sides agree.

Scalar statistics counters are not structures: they round-trip on every
span (:meth:`~NativeState.begin_span` exports them,
:meth:`~NativeState.end_span` imports them), so the warmup reset and
result collection read plain Python counters.  Registers that describe a
structure (MSHR count, window and load-ring positions, PQ length, heap
capacity, FIFO pointers, walk-log length) stay with the buffers.  The
warmup boundary reads the buffers directly through
:meth:`~NativeState.prefetched_line_counts`.

Layout contract
---------------

``REGISTERS`` (int64 scalars), ``FREGS`` (double scalars) and ``BUFS``
(buffer pointers) are the *single* authoritative layout definition:
:mod:`repro.native.build` generates a C header mapping each name to its
index (``R_<NAME>``, ``FR_<NAME>``, ``B_<NAME>``), so Python and C can
never disagree on an offset — adding a field here re-keys the kernel
hash and forces a rebuild.

Four marshalling classes of state:

* **zero-copy** — the trace columns and the Berti history-table rings
  (``array('q')`` columns) are passed by pointer and mutated in place;
  the per-set chains derived from the rings are rebuilt by ``sync``;
* **span-delta counters** — exactly the batched engine's flush list
  accumulates in registers zeroed at span start and added back on
  success only (a crashed span discards them, like the batched loop);
* **round-trip counters** — absolute statistics, exported at span start
  and imported at span end (even on error, matching the batched loop's
  in-place mutations);
* **structures** — everything else, moved by the stale-side rule.

Dict-shaped indexes (``Cache._where``, ``MSHR._entries``, TLB ``_map``,
history ``_chains``, delta-table ``_by_delta``/``_by_tag``) are rebuilt
from the flat columns by ``sync``; their *insertion order* differs from
the classic engine's, which is why those classes canonicalise dict
order in ``__getstate__`` — snapshot bytes stay backend-independent.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from repro.cpu.core_model import CoreModel
from repro.memory.cache import CacheLine
from repro.memory.hierarchy import LATENCY_FIELD_BITS, Hierarchy
from repro.memory.mshr import MSHREntry
from repro.memory.replacement import DRRIPPolicy, LRUPolicy

__all__ = ["REGISTERS", "FREGS", "BUFS", "NativeState", "layout_digest"]

# Replacement-policy kinds understood by the kernel.
POL_LRU = 0
POL_SRRIP = 1
POL_DRRIP = 2

# CacheLine.pf_origin encoding.
ORIGINS = ("", "l1d", "l2")
_ORIGIN_CODE = {"": 0, "l1d": 1, "l2": 2}

_CACHE_PREFIXES = ("L1", "L2", "LL")
_MSHR_PREFIXES = ("M1", "M2")
_TLB_PREFIXES = ("DT", "ST")


def _cache_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SETS", f"{p}_WAYS", f"{p}_LAT", f"{p}_POL", f"{p}_PSEL",
        f"{p}_PF_FILLS", f"{p}_DEM_FILLS", f"{p}_USELESS", f"{p}_WB",
    )


def _mshr_regs(p: str) -> Tuple[str, ...]:
    return (
        f"{p}_SIZE", f"{p}_COUNT", f"{p}_MINREADY", f"{p}_LASTEXP",
        f"{p}_ALLOCS", f"{p}_FULLREJ",
    )


def _tlb_regs(p: str) -> Tuple[str, ...]:
    return (f"{p}_NSETS", f"{p}_WAYS")


#: Span-delta counters: EXACTLY the batched engine's additive flush
#: list, in its order.  Zeroed at span start; added on success only.
DELTA_REGS = (
    "D_DT_ACC", "D_DT_HIT",
    "D_L1_ACC", "D_L1_HIT", "D_L1_MISS", "D_L1_USEFUL", "D_L1_LATE",
    "D_L2_ACC", "D_L2_HIT", "D_L2_MISS", "D_L2_USEFUL",
    "D_LLC_ACC", "D_LLC_HIT", "D_LLC_MISS", "D_LLC_USEFUL",
    "D_H_LLC_ACC", "D_H_LLC_MISS", "D_H_DRAM",
    "D_T12_DEM", "D_T12_PF", "D_T2L_DEM", "D_T2L_PF",
    "D_TLD_DEM", "D_TLD_PF",
    "D_PF_SUGG", "D_PF_ISSUED", "D_PF_FILLS",
    "D_PF_USEFUL", "D_PF_LATE", "D_PF_PROMOTED",
    "D_PF_DTRANS", "D_PF_DDUP", "D_PF_DQ", "D_PF_DM",
    "D_PF2_USEFUL", "D_PF2_LATE", "D_PF2_PROMOTED",
    "D_STLB_PROBES", "D_STLB_HITS",
    "D_M1_MERGES", "D_M2_MERGES",
    "D_CROSS",
)

REGISTERS: Tuple[str, ...] = (
    # Span arguments and error channel.
    "LO", "HI", "KERNEL",
    "ERR", "ERR_A", "ERR_B", "ERR_C", "ERR_D",
    # Caches.
    *(_cache_regs(p)[i] for p in _CACHE_PREFIXES
      for i in range(len(_cache_regs(p)))),
    # MSHRs.
    *(_mshr_regs(p)[i] for p in _MSHR_PREFIXES
      for i in range(len(_mshr_regs(p)))),
    # TLBs + translation.
    *(_tlb_regs(p)[i] for p in _TLB_PREFIXES
      for i in range(len(_tlb_regs(p)))),
    "DT_LAT", "MISS_TRANS_LAT", "WALK_LAT",
    "DT_PPROBES", "DT_PPROBE_HITS", "ST_ACC", "ST_HITS",
    # MMU.
    "MMU_NEXT_PPAGE", "MMU_WALKS", "MMU_DROPPED",
    "HASH_CAP", "WALKLOG_LEN",
    # DRAM.
    "DR_BANKS", "DR_LPR", "DR_TRP", "DR_TRCD", "DR_TCAS",
    "DR_WQ_SIZE", "DR_PENDW_LEN",
    "DR_READS", "DR_WRITES", "DR_ROWH", "DR_ROWM", "DR_ROWC",
    "DR_LAT_TOTAL",
    # Core model.
    "C_INSTR", "ROB_SIZE", "ISSUE_WIDTH", "RETIRE_WIDTH",
    "DEP_WINDOW", "WIN_LEN", "LOADS_LEN", "LOADS_POS",
    # PQ.
    "PQ_SIZE", "PQ_LEN",
    # Dual-channel pf_stats["l2"] useful/late (see _flush_deltas) and
    # the absolute counters bumped by fills/evictions/writebacks.
    "CREDIT2_USEFUL", "CREDIT2_LATE",
    "PF1_USELESS", "PF2_USELESS",
    "T12_WB", "T2L_WB", "TLD_WB",
    # Berti history table.
    "H_SETS", "H_WAYS", "H_INSERTS", "H_SEARCHES",
    "TS_MASK", "LINE_MASK", "HTAG_MASK",
    # Berti delta table + config.
    "E_COUNT", "E_PER", "COUNTER_MAX", "MAX_DSEARCH", "MAX_PF_DELTAS",
    "LAT_MASK", "COV_CAP", "DTAG_MASK", "WARM_MIN", "CROSS_OK",
    "DELTA_LO", "DELTA_HI",
    "HEAP_CAP", "DT_FIFO_CLOCK", "DT_FIFO_PTR",
    "DT_PHASES", "DT_DISCARDED",
    *DELTA_REGS,
)

FREGS: Tuple[str, ...] = (
    "F_FRONTEND", "F_RETIRE", "F_ROB_HEAD",
    "F_ISSUE_INCR", "F_RETIRE_INCR", "F_ISSUE_W", "F_RETIRE_W",
    "F_BUSFREE", "F_BURST", "F_WQ_THRESH",
    "F_PERIOD", "F_WATERMARK",
    "F_HIGH", "F_MEDIUM", "F_REPL", "F_WARM_WM",
)

_CACHE_BUF_FIELDS = (
    "TAG", "VALID", "DIRTY", "PREF", "ARR", "PFLAT", "IP", "VLINE",
    "ORG", "MAT", "POLC", "POLA", "MT",
)
_MSHR_BUF_FIELDS = ("LINE", "ALLOC", "READY", "ISPF", "IP", "VLINE", "MERGED")
_TLB_BUF_FIELDS = ("VP", "PP", "LEN")

BUFS: Tuple[str, ...] = (
    "T_IPS", "T_ADDRS", "T_WRITES", "T_GAPS", "T_DEPS",
    "T_VLINES", "T_VPAGES",
    *(f"{p}_{f}" for p in _CACHE_PREFIXES for f in _CACHE_BUF_FIELDS),
    *(f"{p}_{f}" for p in _MSHR_PREFIXES for f in _MSHR_BUF_FIELDS),
    *(f"{p}_{f}" for p in _TLB_PREFIXES for f in _TLB_BUF_FIELDS),
    "HASH_K", "HASH_V", "WALK_VP", "WALK_PP",
    "BANK_ROW", "BANK_BUSY", "PENDW",
    "WIN_K", "WIN_RET", "LOADS",
    "PQ_ST",
    "H_TAGS", "H_LINES", "H_TSS", "H_ORDERS", "H_CLOCK", "H_PTR",
    "E_VALID", "E_TAG", "E_CTR", "E_ORDER", "E_WARMED", "E_SCOUNT",
    "S_DELTA", "S_COV", "S_STATUS", "HEAP", "HEAP_LEN",
    "SCRATCH",
)

RIX: Dict[str, int] = {name: i for i, name in enumerate(REGISTERS)}
FIX: Dict[str, int] = {name: i for i, name in enumerate(FREGS)}
BIX: Dict[str, int] = {name: i for i, name in enumerate(BUFS)}

#: Values of ``NativeState.stale_side``.
STALE_BUFFERS = "buffers"
STALE_PYTHON = "python"

_HASH_MUL = 0x9E3779B97F4A7C15


def layout_digest() -> str:
    """A short hash of the layout, folded into the kernel cache key."""
    import hashlib

    blob = "|".join(REGISTERS) + "#" + "|".join(FREGS) + "#" + "|".join(BUFS)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def decoded_columns(trace) -> Tuple[Any, Any]:
    """addr→(vline, vpage) derived columns for the whole trace.

    Delegates to :meth:`repro.workloads.trace.Trace.decoded_columns`
    (numpy-vectorized, cached on the trace), so the batched fused loop
    and the native span kernel share one decode by pointer.
    """
    return trace.decoded_columns()


def _ptr_of(buf: Any) -> int:
    """Raw data pointer of an array('q'/'d'), a numpy array, or a
    read-only ``memoryview`` (a mapped trace store's columns, which the
    kernel only reads); 0 if empty."""
    if buf is None:
        return 0
    if isinstance(buf, _np.ndarray):
        return buf.ctypes.data if buf.size else 0
    if isinstance(buf, memoryview):
        if not len(buf):
            return 0
        return _np.frombuffer(buf, dtype=_np.int64).ctypes.data
    return buf.buffer_info()[0] if len(buf) else 0


def _zeros(code: str, n: int) -> array:
    # Repetition fills in C; array(code, bytes(...)) is ~25x slower.
    return array(code, [0]) * n


def _grow(buf: array, n: int) -> None:
    """Extend ``buf`` in place to at least ``n`` items, keeping its data."""
    if len(buf) < n:
        buf.extend(_zeros(buf.typecode, n - len(buf)))


def _hash_capacity(entries: int) -> int:
    """Power-of-two open-addressing capacity at load factor <= 1/2."""
    need = 2 * (entries + 16)
    cap = 64
    while cap < need:
        cap <<= 1
    return cap


class NativeState:
    """Owns the flat buffers for one (trace, hierarchy, core) binding."""

    def __init__(self, trace, hierarchy: Hierarchy, core: CoreModel) -> None:
        self.h = hierarchy
        self.core = core
        self.trace = trace
        self.R = _zeros("q", len(REGISTERS))
        self.F = _zeros("d", len(FREGS))
        # Buffer objects by name; pointers are refreshed per span (the
        # history arrays are rebound by HistoryTable.reset()).
        self.bufs: Dict[str, Any] = {name: None for name in BUFS}
        self._kern = hierarchy._l1d_kernel
        #: Which side's copy of the structures is out of date (see the
        #: module docstring); a fresh binding exports on its first span.
        self.stale_side: Optional[str] = STALE_BUFFERS
        # Page-table entries held by the hash besides the walk log, and
        # the history insert count the Python chains were built at.
        self._hash_base = 0
        self._chain_inserts = 0

        ips, addrs, writes, gaps, deps = trace.columns()
        vlines, vpages = decoded_columns(trace)
        b = self.bufs
        b["T_IPS"], b["T_ADDRS"], b["T_WRITES"] = ips, addrs, writes
        b["T_GAPS"], b["T_DEPS"] = gaps, deps
        b["T_VLINES"], b["T_VPAGES"] = vlines, vpages

        assert LATENCY_FIELD_BITS == 12, "kernel hardcodes the latency field"

        self._alloc_static()
        self._bind_counters()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def _alloc_static(self) -> None:
        h, b = self.h, self.bufs
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            n = cache.num_sets * cache.ways
            for f in ("TAG", "VALID", "DIRTY", "PREF", "ARR", "PFLAT",
                      "IP", "VLINE", "ORG", "POLA"):
                b[f"{p}_{f}"] = _zeros("q", n)
            b[f"{p}_MAT"] = _zeros("q", cache.num_sets)
            b[f"{p}_POLC"] = _zeros("q", cache.num_sets)
            if type(cache.policy) is DRRIPPolicy:
                b[f"{p}_MT"] = _zeros("q", 625)
        for p, mshr in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            for f in _MSHR_BUF_FIELDS:
                b[f"{p}_{f}"] = _zeros("q", max(1, mshr.size))
        for p, tlb in zip(_TLB_PREFIXES, (h.mmu.dtlb, h.mmu.stlb)):
            row = tlb.ways + 1  # insert transiently exceeds ways
            n = tlb.num_sets * row
            b[f"{p}_VP"] = _zeros("q", n)
            b[f"{p}_PP"] = _zeros("q", n)
            b[f"{p}_LEN"] = _zeros("q", tlb.num_sets)
        cfg = h.dram.config
        b["BANK_ROW"] = _zeros("q", cfg.banks)
        b["BANK_BUSY"] = _zeros("q", cfg.banks)
        b["PENDW"] = _zeros("q", cfg.write_queue + 2)
        b["LOADS"] = _zeros("d", self.core.config.dependency_window)
        b["PQ_ST"] = _zeros("d", max(1, h.pq.size))

        kern = self._kern
        if kern is not None:
            kcfg = kern.config
            e = kcfg.delta_table_entries
            per = kcfg.deltas_per_entry
            for f in ("E_VALID", "E_TAG", "E_CTR", "E_ORDER", "E_WARMED",
                      "E_SCOUNT", "HEAP_LEN"):
                b[f] = _zeros("q", e)
            for f in ("S_DELTA", "S_COV", "S_STATUS"):
                b[f] = _zeros("q", e * per)
            b["SCRATCH"] = _zeros("q", max(1, kcfg.max_deltas_per_search))
            # A phase close leaves an entry's heap at <= per_entry pairs,
            # and until the next close it gains at most counter_max *
            # max_deltas_per_search more; the heap is sized once at
            # export on top of its current length.
            self._heap_slack = (kcfg.counter_max * kcfg.max_deltas_per_search
                                + per + 8)

    def _bind_counters(self) -> None:
        """The round-trip counters as (register, owner, attribute)."""
        h, core = self.h, self.core
        mmu, pfs2 = h.mmu, h.pf_stats["l2"]
        dst = h.dram.stats
        table = []
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            st = cache.stats
            table += [
                (f"{p}_PF_FILLS", st, "prefetch_fills"),
                (f"{p}_DEM_FILLS", st, "demand_fills"),
                (f"{p}_USELESS", st, "useless_prefetches"),
                (f"{p}_WB", st, "writebacks"),
            ]
        for p, m in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            table += [(f"{p}_ALLOCS", m, "allocations"),
                      (f"{p}_FULLREJ", m, "full_rejections")]
        table += [
            ("DT_PPROBES", mmu.dtlb.stats, "prefetch_probes"),
            ("DT_PPROBE_HITS", mmu.dtlb.stats, "prefetch_probe_hits"),
            ("ST_ACC", mmu.stlb.stats, "accesses"),
            ("ST_HITS", mmu.stlb.stats, "hits"),
            ("MMU_WALKS", mmu.stats, "walks"),
            ("MMU_DROPPED", mmu.stats, "dropped_prefetch_translations"),
            ("DR_READS", dst, "reads"),
            ("DR_WRITES", dst, "writes"),
            ("DR_ROWH", dst, "row_hits"),
            ("DR_ROWM", dst, "row_misses"),
            ("DR_ROWC", dst, "row_conflicts"),
            ("DR_LAT_TOTAL", dst, "total_read_latency"),
            ("C_INSTR", core, "_instr"),
            ("CREDIT2_USEFUL", pfs2, "useful"),
            ("CREDIT2_LATE", pfs2, "late"),
            ("PF1_USELESS", h._pf_l1d_stats, "useless"),
            ("PF2_USELESS", pfs2, "useless"),
            ("T12_WB", h.traffic_l1d_l2, "writeback"),
            ("T2L_WB", h.traffic_l2_llc, "writeback"),
            ("TLD_WB", h.traffic_llc_dram, "writeback"),
        ]
        kern = self._kern
        if kern is not None:
            table += [
                ("H_INSERTS", kern.history, "inserts"),
                ("H_SEARCHES", kern.history, "searches"),
                ("DT_PHASES", kern.deltas, "phase_completions"),
                ("DT_DISCARDED", kern.deltas, "discarded_deltas"),
            ]
        self._counters = tuple((RIX[n], obj, attr) for n, obj, attr in table)
        self._fcounters = (
            (FIX["F_FRONTEND"], core, "_frontend"),
            (FIX["F_RETIRE"], core, "_retire_frontier"),
            (FIX["F_ROB_HEAD"], core, "_rob_head_retire"),
        )

    # ------------------------------------------------------------------
    # Span boundary
    # ------------------------------------------------------------------

    def begin_span(self, lo: int, hi: int) -> None:
        """Export the counters, plus the structures if Python is newer."""
        R, F, b = self.R, self.F, self.bufs
        for name in DELTA_REGS:
            R[RIX[name]] = 0
        R[RIX["LO"]], R[RIX["HI"]] = lo, hi
        R[RIX["ERR"]] = 0
        R[RIX["KERNEL"]] = 0 if self._kern is None else 1
        for i, obj, attr in self._counters:
            R[i] = getattr(obj, attr)
        for i, obj, attr in self._fcounters:
            F[i] = getattr(obj, attr)
        if self._kern is not None:
            # History rings: zero-copy — refresh pointers each span
            # (reset() rebinds new arrays).
            hist = self._kern.history
            b["H_TAGS"], b["H_LINES"] = hist._tags, hist._lines
            b["H_TSS"], b["H_ORDERS"] = hist._tss, hist._orders
            b["H_CLOCK"], b["H_PTR"] = hist._fifo_clock, hist._fifo_ptr
        if self.stale_side == STALE_BUFFERS:
            self._export_structures(len(self.trace) - lo)
        self._reserve(hi - lo)
        # From here until sync() the buffers hold the newer structures.
        self.stale_side = STALE_PYTHON
        self.h._native_stale = True

    def end_span(self, ok: bool) -> None:
        """Import the counters; ``ok=False`` skips the span-delta flush."""
        R, F = self.R, self.F
        for i, obj, attr in self._counters:
            setattr(obj, attr, R[i])
        for i, obj, attr in self._fcounters:
            setattr(obj, attr, F[i])
        # A crashed span keeps its in-place counter mutations (the
        # batched loop's immediate _credit_useful calls) but not the
        # deltas.
        if ok:
            self._flush_deltas()

    def sync(self, prefetcher_only: bool = False) -> None:
        """Rebuild the Python structures from the buffers if they are newer.

        The only import path for structures: the runner calls it before a
        demoted span, the lockstep oracle before each state digest, the
        snapshot writer before pickling, the engines at the end of every
        run — and anything else that must read cache, TLB, MSHR, DRAM,
        core-window, PQ or Berti structure.

        ``prefetcher_only`` imports just the Berti tables, which belong
        to the caller's prefetcher object; the buffers stay the newer
        side for everything else.
        """
        if self.stale_side != STALE_PYTHON:
            return
        if self._kern is not None:
            self._import_berti()
        if prefetcher_only:
            return
        self._import_caches()
        self._import_mshrs()
        self._import_tlbs()
        self._import_mmu()
        self._import_dram()
        self._import_core()
        self._import_pq()
        self.stale_side = None
        self.h._native_stale = False

    def _reserve(self, span_len: int) -> None:
        """Grow the span-length-bound buffers (walk log, page-table hash,
        core window) so one more span of ``span_len`` records fits."""
        R, b = self.R, self.bufs
        walked = R[RIX["WALKLOG_LEN"]]
        _grow(b["WALK_VP"], walked + span_len + 1)
        _grow(b["WALK_PP"], walked + span_len + 1)
        entries = self._hash_base + walked + span_len
        if _hash_capacity(entries) > R[RIX["HASH_CAP"]]:
            hk, hv = b["HASH_K"], b["HASH_V"]
            self._build_hash(
                [(hk[i], hv[i]) for i in range(len(hk)) if hk[i] != -1],
                _hash_capacity(entries),
            )
        need = R[RIX["WIN_LEN"]] + span_len + 1
        _grow(b["WIN_K"], need)
        _grow(b["WIN_RET"], need)

    def _build_hash(self, items, cap: int) -> None:
        """Open-addressed page-table hash, the kernel's probe sequence."""
        hk = array("q", [-1]) * cap
        hv = _zeros("q", cap)
        mask = cap - 1
        for vp, ppage in items:
            i = (vp * _HASH_MUL >> 32) & mask
            while hk[i] != -1:
                i = (i + 1) & mask
            hk[i] = vp
            hv[i] = ppage
        self.bufs["HASH_K"], self.bufs["HASH_V"] = hk, hv
        self.R[RIX["HASH_CAP"]] = cap

    # ------------------------------------------------------------------
    # Export (Python -> flat buffers), when the buffers are stale
    # ------------------------------------------------------------------

    def _export_structures(self, remaining: int) -> None:
        """Full export; ``remaining`` records of the trace are left, which
        bounds the walk log, the page-table hash and the core window."""
        h, R, F = self.h, self.R, self.F
        self._export_caches()
        self._export_mshrs()
        self._export_tlbs()
        self._export_mmu(remaining)
        self._export_dram()
        self._export_core(remaining)
        self._export_pq()
        if self._kern is not None:
            self._export_berti()
        F[FIX["F_WATERMARK"]] = h._l1d_kern_watermark
        R[RIX["CROSS_OK"]] = 1 if h._l1d_kern_cross_page else 0

    def _export_caches(self) -> None:
        R, b = self.R, self.bufs
        h = self.h
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            ways = cache.ways
            R[RIX[f"{p}_SETS"]] = cache.num_sets
            R[RIX[f"{p}_WAYS"]] = ways
            R[RIX[f"{p}_LAT"]] = cache.latency
            pol = cache.policy
            if type(pol) is LRUPolicy:
                R[RIX[f"{p}_POL"]] = POL_LRU
                pol_clock, pol_rows = pol._clock, pol._age
            else:
                R[RIX[f"{p}_POL"]] = (
                    POL_DRRIP if type(pol) is DRRIPPolicy else POL_SRRIP
                )
                pol_clock, pol_rows = None, pol._rrpv
            if type(pol) is DRRIPPolicy:
                R[RIX[f"{p}_PSEL"]] = pol._psel
                mt = b[f"{p}_MT"]
                state = pol._rng.getstate()[1]
                for i in range(625):
                    mt[i] = state[i]
            tags = b[f"{p}_TAG"]
            valid = b[f"{p}_VALID"]
            dirty = b[f"{p}_DIRTY"]
            pref = b[f"{p}_PREF"]
            arr = b[f"{p}_ARR"]
            pflat = b[f"{p}_PFLAT"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            org = b[f"{p}_ORG"]
            mat = b[f"{p}_MAT"]
            polc = b[f"{p}_POLC"]
            pola = b[f"{p}_POLA"]
            ocode = _ORIGIN_CODE
            for s, row in enumerate(cache.sets):
                if not row:
                    mat[s] = 0
                    continue
                mat[s] = 1
                base = s * ways
                for w, cl in enumerate(row):
                    i = base + w
                    tags[i] = cl.tag
                    valid[i] = 1 if cl.valid else 0
                    dirty[i] = 1 if cl.dirty else 0
                    pref[i] = 1 if cl.prefetched else 0
                    arr[i] = cl.arrival_cycle
                    pflat[i] = cl.pf_latency
                    ipc[i] = cl.ip
                    vlc[i] = cl.vline
                    org[i] = ocode[cl.pf_origin]
                prow = pol_rows[s]
                for w in range(ways):
                    pola[base + w] = prow[w]
                if pol_clock is not None:
                    polc[s] = pol_clock[s]

    def _export_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, m in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            R[RIX[f"{p}_SIZE"]] = m.size
            R[RIX[f"{p}_COUNT"]] = len(m._entries)
            R[RIX[f"{p}_MINREADY"]] = m._min_ready
            R[RIX[f"{p}_LASTEXP"]] = m._last_expire
            line = b[f"{p}_LINE"]
            alloc = b[f"{p}_ALLOC"]
            ready = b[f"{p}_READY"]
            ispf = b[f"{p}_ISPF"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            merged = b[f"{p}_MERGED"]
            for i, e in enumerate(m._entries.values()):
                line[i] = e.line
                alloc[i] = e.alloc_cycle
                ready[i] = e.ready_cycle
                ispf[i] = 1 if e.is_prefetch else 0
                ipc[i] = e.ip
                vlc[i] = e.vline
                merged[i] = e.merged_demands

    def _export_tlbs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        mmu = h.mmu
        for p, tlb in zip(_TLB_PREFIXES, (mmu.dtlb, mmu.stlb)):
            R[RIX[f"{p}_NSETS"]] = tlb.num_sets
            R[RIX[f"{p}_WAYS"]] = tlb.ways
            row = tlb.ways + 1
            vp, pp, ln = b[f"{p}_VP"], b[f"{p}_PP"], b[f"{p}_LEN"]
            for s, entries in enumerate(tlb._sets):
                ln[s] = len(entries)
                base = s * row
                for i, (v, ph) in enumerate(entries):
                    vp[base + i] = v
                    pp[base + i] = ph
        R[RIX["DT_LAT"]] = mmu.dtlb.latency
        R[RIX["MISS_TRANS_LAT"]] = mmu.dtlb.latency + mmu.stlb.latency
        R[RIX["WALK_LAT"]] = mmu.page_walk_latency

    def _export_mmu(self, remaining: int) -> None:
        R, b, mmu = self.R, self.bufs, self.h.mmu
        table = mmu._page_table
        # Walks happen only on demand translations, so the hash needs
        # room for at most one new page per remaining record.
        self._build_hash(table.items(), _hash_capacity(len(table) + remaining))
        self._hash_base = len(table)
        b["WALK_VP"] = _zeros("q", remaining + 1)
        b["WALK_PP"] = _zeros("q", remaining + 1)
        R[RIX["WALKLOG_LEN"]] = 0
        R[RIX["MMU_NEXT_PPAGE"]] = mmu._next_ppage

    def _export_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        cfg = dram.config
        R[RIX["DR_BANKS"]] = cfg.banks
        R[RIX["DR_LPR"]] = dram._lines_per_row
        R[RIX["DR_TRP"]] = cfg.trp_cycles
        R[RIX["DR_TRCD"]] = cfg.trcd_cycles
        R[RIX["DR_TCAS"]] = cfg.tcas_cycles
        R[RIX["DR_WQ_SIZE"]] = cfg.write_queue
        F[FIX["F_WQ_THRESH"]] = cfg.write_queue * cfg.write_watermark
        F[FIX["F_BURST"]] = dram._burst
        F[FIX["F_BUSFREE"]] = dram._bus_free
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            brow[i] = bank.open_row
            bbusy[i] = bank.busy_until
        pendw = b["PENDW"]
        for i, pl in enumerate(dram._pending_writes):
            pendw[i] = pl
        R[RIX["DR_PENDW_LEN"]] = len(dram._pending_writes)

    def _export_core(self, remaining: int) -> None:
        R, F, b = self.R, self.F, self.bufs
        core = self.core
        R[RIX["ROB_SIZE"]] = core._rob_size
        R[RIX["ISSUE_WIDTH"]] = core.config.issue_width
        R[RIX["RETIRE_WIDTH"]] = core.config.retire_width
        R[RIX["DEP_WINDOW"]] = core.config.dependency_window
        F[FIX["F_ISSUE_INCR"]] = core._issue_incr
        F[FIX["F_RETIRE_INCR"]] = core._retire_incr
        F[FIX["F_ISSUE_W"]] = float(core.config.issue_width)
        F[FIX["F_RETIRE_W"]] = float(core.config.retire_width)
        # The kernel appends a span's window entries after the live ones
        # and compacts to offset 0 on return.
        win = core._window
        cap = len(win) + remaining + 1
        b["WIN_K"] = wk = _zeros("q", cap)
        b["WIN_RET"] = wr = _zeros("d", cap)
        for i, (k, ret) in enumerate(win):
            wk[i] = k
            wr[i] = ret
        R[RIX["WIN_LEN"]] = len(win)
        loads = b["LOADS"]
        lc = core._load_completions
        for i, v in enumerate(lc):
            loads[i] = v
        R[RIX["LOADS_LEN"]] = len(lc)
        R[RIX["LOADS_POS"]] = 0

    def _export_pq(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        pq = h.pq
        R[RIX["PQ_SIZE"]] = pq.size
        F[FIX["F_PERIOD"]] = 1.0 / pq.rate
        st = b["PQ_ST"]
        for i, v in enumerate(pq._service_times):
            st[i] = v
        R[RIX["PQ_LEN"]] = len(pq._service_times)

    def _export_berti(self) -> None:
        R, F, b = self.R, self.F, self.bufs
        kern = self._kern
        hist = kern.history
        cfg = kern.config
        R[RIX["H_SETS"]] = cfg.history_sets
        R[RIX["H_WAYS"]] = cfg.history_ways
        R[RIX["TS_MASK"]] = hist._ts_mask
        R[RIX["LINE_MASK"]] = hist._line_mask
        R[RIX["HTAG_MASK"]] = hist._tag_mask
        self._chain_inserts = hist.inserts

        dt = kern.deltas
        entries = cfg.delta_table_entries
        per = cfg.deltas_per_entry
        R[RIX["E_COUNT"]] = entries
        R[RIX["E_PER"]] = per
        R[RIX["COUNTER_MAX"]] = cfg.counter_max
        R[RIX["MAX_DSEARCH"]] = cfg.max_deltas_per_search
        R[RIX["MAX_PF_DELTAS"]] = cfg.max_prefetch_deltas
        R[RIX["LAT_MASK"]] = kern._latency_mask
        R[RIX["COV_CAP"]] = dt._coverage_cap
        R[RIX["DTAG_MASK"]] = dt._tag_mask
        R[RIX["WARM_MIN"]] = cfg.warmup_min_searches
        R[RIX["DELTA_LO"]] = -(1 << (cfg.delta_bits - 1))
        R[RIX["DELTA_HI"]] = (1 << (cfg.delta_bits - 1)) - 1
        R[RIX["DT_FIFO_CLOCK"]] = dt._fifo_clock
        R[RIX["DT_FIFO_PTR"]] = dt._fifo_ptr
        F[FIX["F_HIGH"]] = cfg.high_watermark * cfg.counter_max
        F[FIX["F_MEDIUM"]] = cfg.medium_watermark * cfg.counter_max
        F[FIX["F_REPL"]] = cfg.repl_watermark * cfg.counter_max
        F[FIX["F_WARM_WM"]] = cfg.warmup_watermark

        ev, et = b["E_VALID"], b["E_TAG"]
        ec, eo = b["E_CTR"], b["E_ORDER"]
        ew, es = b["E_WARMED"], b["E_SCOUNT"]
        sd, sc, ss = b["S_DELTA"], b["S_COV"], b["S_STATUS"]
        for e in range(entries):
            ev[e] = 1 if dt._valid[e] else 0
            et[e] = dt._tags[e]
            ec[e] = dt._counters[e]
            eo[e] = dt._orders[e]
            ew[e] = 1 if dt._warmed[e] else 0
            es[e] = dt._slot_count[e]
            base = e * per
            drow, crow, strow = (dt._slot_delta[e], dt._slot_cov[e],
                                 dt._slot_status[e])
            for i in range(per):
                sd[base + i] = drow[i]
                sc[base + i] = crow[i]
                ss[base + i] = strow[i]
        # Heaps: verbatim pair arrays (the kernel implements CPython's
        # heapq algorithms, so the final array layout round-trips).
        heap_cap = (max((len(hp) for hp in dt._evict_heap), default=0)
                    + self._heap_slack)
        b["HEAP"] = hb = _zeros("q", entries * heap_cap * 2)
        R[RIX["HEAP_CAP"]] = heap_cap
        hl = b["HEAP_LEN"]
        for e in range(entries):
            heap = dt._evict_heap[e]
            hl[e] = len(heap)
            base = e * heap_cap * 2
            for i, (c, s) in enumerate(heap):
                hb[base + 2 * i] = c
                hb[base + 2 * i + 1] = s

    # ------------------------------------------------------------------
    # Import (flat buffers -> Python), only through sync()
    # ------------------------------------------------------------------

    def _import_caches(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            ways = cache.ways
            tags = b[f"{p}_TAG"]
            valid = b[f"{p}_VALID"]
            dirty = b[f"{p}_DIRTY"]
            pref = b[f"{p}_PREF"]
            arr = b[f"{p}_ARR"]
            pflat = b[f"{p}_PFLAT"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            org = b[f"{p}_ORG"]
            mat = b[f"{p}_MAT"]
            polc = b[f"{p}_POLC"]
            pola = b[f"{p}_POLA"]
            pol = cache.policy
            if type(pol) is LRUPolicy:
                pol_clock, pol_rows = pol._clock, pol._age
            else:
                pol_clock, pol_rows = None, pol._rrpv
            if type(pol) is DRRIPPolicy:
                pol._psel = R[RIX[f"{p}_PSEL"]]
                mt = b[f"{p}_MT"]
                pol._rng.setstate(
                    (3, tuple(mt[i] for i in range(625)), None)
                )
            where = cache._where
            vcount = cache._valid_count
            sets = cache.sets
            for s in range(cache.num_sets):
                if mat[s] != 2:  # untouched since the last export/sync
                    continue
                mat[s] = 1
                row = sets[s]
                if not row:
                    row += [CacheLine() for _ in range(ways)]
                else:
                    # Tags are full line numbers (they encode the set),
                    # so evicting this set's old keys cannot collide
                    # with entries belonging to other sets.
                    for cl in row:
                        if cl.valid:
                            where.pop(cl.tag, None)
                base = s * ways
                nvalid = 0
                for w in range(ways):
                    i = base + w
                    cl = row[w]
                    t = tags[i]
                    cl.tag = t
                    v = valid[i] != 0
                    cl.valid = v
                    cl.dirty = dirty[i] != 0
                    cl.prefetched = pref[i] != 0
                    cl.arrival_cycle = arr[i]
                    cl.pf_latency = pflat[i]
                    cl.ip = ipc[i]
                    cl.vline = vlc[i]
                    cl.pf_origin = ORIGINS[org[i]]
                    if v:
                        nvalid += 1
                        where[t] = w
                vcount[s] = nvalid
                prow = pol_rows[s]
                for w in range(ways):
                    prow[w] = pola[base + w]
                if pol_clock is not None:
                    pol_clock[s] = polc[s]

    def _import_mshrs(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        for p, m in zip(_MSHR_PREFIXES, (h.l1d_mshr, h.l2_mshr)):
            count = R[RIX[f"{p}_COUNT"]]
            line = b[f"{p}_LINE"]
            alloc = b[f"{p}_ALLOC"]
            ready = b[f"{p}_READY"]
            ispf = b[f"{p}_ISPF"]
            ipc = b[f"{p}_IP"]
            vlc = b[f"{p}_VLINE"]
            merged = b[f"{p}_MERGED"]
            entries: dict = {}
            for i in range(count):
                entries[line[i]] = MSHREntry(
                    line=line[i], alloc_cycle=alloc[i],
                    ready_cycle=ready[i], is_prefetch=ispf[i] != 0,
                    ip=ipc[i], vline=vlc[i], merged_demands=merged[i],
                )
            m._entries = entries
            m._min_ready = R[RIX[f"{p}_MINREADY"]]
            m._last_expire = R[RIX[f"{p}_LASTEXP"]]

    def _import_tlbs(self) -> None:
        b, mmu = self.bufs, self.h.mmu
        for p, tlb in zip(_TLB_PREFIXES, (mmu.dtlb, mmu.stlb)):
            row = tlb.ways + 1
            vp, pp, ln = b[f"{p}_VP"], b[f"{p}_PP"], b[f"{p}_LEN"]
            tmap: dict = {}
            sets = tlb._sets
            for s in range(tlb.num_sets):
                base = s * row
                n = ln[s]
                entries = [(vp[base + i], pp[base + i]) for i in range(n)]
                sets[s] = entries
                for v, ph in entries:
                    tmap[v] = ph
            tlb._map = tmap

    def _import_mmu(self) -> None:
        R, b, mmu = self.R, self.bufs, self.h.mmu
        n = R[RIX["WALKLOG_LEN"]]
        wvp, wpp = b["WALK_VP"], b["WALK_PP"]
        table = mmu._page_table
        for i in range(n):
            # Walk order == the classic engine's dict insertion order.
            table[wvp[i]] = wpp[i]
        # The walked pages now live in the table; the hash keeps them.
        self._hash_base += n
        R[RIX["WALKLOG_LEN"]] = 0
        mmu._next_ppage = R[RIX["MMU_NEXT_PPAGE"]]

    def _import_dram(self) -> None:
        R, F, b, h = self.R, self.F, self.bufs, self.h
        dram = h.dram
        brow, bbusy = b["BANK_ROW"], b["BANK_BUSY"]
        for i, bank in enumerate(dram._banks):
            bank.open_row = brow[i]
            bank.busy_until = bbusy[i]
        dram._bus_free = F[FIX["F_BUSFREE"]]
        pendw = b["PENDW"]
        dram._pending_writes = [
            pendw[i] for i in range(R[RIX["DR_PENDW_LEN"]])
        ]

    def _import_core(self) -> None:
        R, b = self.R, self.bufs
        core = self.core
        wk, wr = b["WIN_K"], b["WIN_RET"]
        win = core._window
        win.clear()
        # The kernel compacts the window to offset 0 before returning.
        for i in range(R[RIX["WIN_LEN"]]):
            win.append((wk[i], wr[i]))
        loads = core._load_completions
        loads.clear()
        lbuf = b["LOADS"]
        pos = R[RIX["LOADS_POS"]]
        cap = core.config.dependency_window
        for i in range(R[RIX["LOADS_LEN"]]):
            loads.append(lbuf[(pos + i) % cap])

    def _import_pq(self) -> None:
        R, b, h = self.R, self.bufs, self.h
        st = h.pq._service_times
        st.clear()
        buf = b["PQ_ST"]
        for i in range(R[RIX["PQ_LEN"]]):
            st.append(buf[i])

    def _import_berti(self) -> None:
        R, b = self.R, self.bufs
        kern = self._kern
        hist = kern.history
        inserts = R[RIX["H_INSERTS"]]
        if inserts != self._chain_inserts:
            # Forward walk from the FIFO pointer visits oldest->youngest,
            # reproducing the incremental chain maintenance exactly.
            self._chain_inserts = inserts
            cfg = kern.config
            sets, ways = cfg.history_sets, cfg.history_ways
            tags, lines, tss = hist._tags, hist._lines, hist._tss
            ptrs = hist._fifo_ptr
            chains = hist._chains
            for s in range(sets):
                chain: dict = {}
                base = s * ways
                ptr = ptrs[s]
                for j in range(ways):
                    w = base + (ptr + j) % ways
                    t = tags[w]
                    if t < 0:
                        continue
                    dq = chain.get(t)
                    if dq is None:
                        chain[t] = dq = deque()
                    dq.append((lines[w], tss[w]))
                chains[s] = chain

        dt = kern.deltas
        entries = len(dt._valid)
        per = kern.config.deltas_per_entry
        ev, et = b["E_VALID"], b["E_TAG"]
        ec, eo = b["E_CTR"], b["E_ORDER"]
        ew, es = b["E_WARMED"], b["E_SCOUNT"]
        sd, sc, ss = b["S_DELTA"], b["S_COV"], b["S_STATUS"]
        by_tag: dict = {}
        for e in range(entries):
            v = ev[e] != 0
            dt._valid[e] = v
            dt._tags[e] = et[e]
            dt._counters[e] = ec[e]
            dt._orders[e] = eo[e]
            dt._warmed[e] = ew[e] != 0
            count = es[e]
            dt._slot_count[e] = count
            base = e * per
            drow, crow, strow = (dt._slot_delta[e], dt._slot_cov[e],
                                 dt._slot_status[e])
            for i in range(per):
                drow[i] = sd[base + i]
                crow[i] = sc[base + i]
                strow[i] = ss[base + i]
            dt._by_delta[e] = {drow[i]: i for i in range(count)}
            dt._pf_cache[e] = None
            dt._warm_cache[e] = None
            if v:
                by_tag[et[e]] = e
        dt._by_tag = by_tag
        heap_cap = R[RIX["HEAP_CAP"]]
        hb, hl = b["HEAP"], b["HEAP_LEN"]
        for e in range(entries):
            base = e * heap_cap * 2
            dt._evict_heap[e] = [
                (hb[base + 2 * i], hb[base + 2 * i + 1])
                for i in range(hl[e])
            ]
        dt._fifo_clock = R[RIX["DT_FIFO_CLOCK"]]
        dt._fifo_ptr = R[RIX["DT_FIFO_PTR"]]

    def _flush_deltas(self) -> None:
        R, h = self.R, self.h
        g = lambda name: R[RIX[name]]
        dtlb_stats = h.mmu.dtlb.stats
        dtlb_stats.accesses += g("D_DT_ACC")
        dtlb_stats.hits += g("D_DT_HIT")
        l1s, l2s, llcs = h.l1d.stats, h.l2.stats, h.llc.stats
        l1s.demand_accesses += g("D_L1_ACC")
        l1s.demand_hits += g("D_L1_HIT")
        l1s.demand_misses += g("D_L1_MISS")
        l1s.useful_prefetches += g("D_L1_USEFUL")
        l1s.late_prefetches += g("D_L1_LATE")
        l2s.demand_accesses += g("D_L2_ACC")
        l2s.demand_hits += g("D_L2_HIT")
        l2s.demand_misses += g("D_L2_MISS")
        l2s.useful_prefetches += g("D_L2_USEFUL")
        llcs.demand_accesses += g("D_LLC_ACC")
        llcs.demand_hits += g("D_LLC_HIT")
        llcs.demand_misses += g("D_LLC_MISS")
        llcs.useful_prefetches += g("D_LLC_USEFUL")
        h.llc_demand_accesses += g("D_H_LLC_ACC")
        h.llc_demand_misses += g("D_H_LLC_MISS")
        h.dram_demand_reads += g("D_H_DRAM")
        tr12 = h.traffic_l1d_l2
        tr12.demand += g("D_T12_DEM")
        tr12.prefetch += g("D_T12_PF")
        tr2l = h.traffic_l2_llc
        tr2l.demand += g("D_T2L_DEM")
        tr2l.prefetch += g("D_T2L_PF")
        trld = h.traffic_llc_dram
        trld.demand += g("D_TLD_DEM")
        trld.prefetch += g("D_TLD_PF")
        pfs1 = h._pf_l1d_stats
        pfs1.suggested += g("D_PF_SUGG")
        pfs1.issued += g("D_PF_ISSUED")
        pfs1.fills += g("D_PF_FILLS")
        pfs1.useful += g("D_PF_USEFUL")
        pfs1.late += g("D_PF_LATE")
        pfs1.promoted += g("D_PF_PROMOTED")
        pfs1.dropped_translation += g("D_PF_DTRANS")
        pfs1.dropped_duplicate += g("D_PF_DDUP")
        pfs1.dropped_queue_full += g("D_PF_DQ")
        pfs1.dropped_mshr_full += g("D_PF_DM")
        pfs2 = h.pf_stats["l2"]
        # Dual-channel fields: the "credit" channel (the batched loop's
        # immediate _credit_useful calls) round-trips in the CREDIT2
        # registers, already imported by end_span; the delta channel
        # mirrors the flush list.
        pfs2.useful += g("D_PF2_USEFUL")
        pfs2.late += g("D_PF2_LATE")
        pfs2.promoted += g("D_PF2_PROMOTED")
        stlb_stats = h.mmu.stlb.stats
        stlb_stats.prefetch_probes += g("D_STLB_PROBES")
        stlb_stats.prefetch_probe_hits += g("D_STLB_HITS")
        h.l1d_mshr.merges += g("D_M1_MERGES")
        h.l2_mshr.merges += g("D_M2_MERGES")
        kern = self._kern
        if kern is not None:
            kern.cross_page_suppressed += g("D_CROSS")

    # ------------------------------------------------------------------
    # Flat readers
    # ------------------------------------------------------------------

    def prefetched_line_counts(self) -> Dict[str, int]:
        """:meth:`Hierarchy.prefetched_line_counts` read off the buffers.

        Valid, still-prefetched lines of materialised sets counted by
        origin code (1 = ``"l1d"``, 2 = ``"l2"``), plus the in-flight
        prefetch entries of the L1D/L2 MSHRs.  Only meaningful while the
        buffers are not stale.
        """
        b, R, h = self.bufs, self.R, self.h
        l1d = l2 = 0
        for p, cache in zip(_CACHE_PREFIXES, (h.l1d, h.l2, h.llc)):
            valid, pref = b[f"{p}_VALID"], b[f"{p}_PREF"]
            org, mat = b[f"{p}_ORG"], b[f"{p}_MAT"]
            live = ((_np.frombuffer(mat, dtype=_np.int64) != 0)
                    .repeat(cache.ways)
                    & (_np.frombuffer(valid, dtype=_np.int64) != 0)
                    & (_np.frombuffer(pref, dtype=_np.int64) != 0))
            codes = _np.frombuffer(org, dtype=_np.int64)[live]
            l1d += int(_np.count_nonzero(codes == 1))
            l2 += int(_np.count_nonzero(codes == 2))
        m1 = b["M1_ISPF"]
        m2 = b["M2_ISPF"]
        l1d += sum(1 for i in range(R[RIX["M1_COUNT"]]) if m1[i])
        l2 += sum(1 for i in range(R[RIX["M2_COUNT"]]) if m2[i])
        return {"l1d": l1d, "l2": l2}

    # ------------------------------------------------------------------

    def pointers(self) -> List[int]:
        """Current raw buffer pointers in BUFS order."""
        return [_ptr_of(self.bufs[name]) for name in BUFS]
