"""Span runner for the native backend: guards, demotion, error mapping.

``make_native_runner`` wraps :func:`repro.simulator.batched.make_batched_runner`
so every span has a Python twin to demote to.  Guards are re-validated at
each span boundary (like ``batch_mode``): the native kernel must never
engage against fault-injection subclasses, wrapped hooks, non-stock
replacement policies or table geometries the C side did not size for.

Demotion is *sticky for reporting only*: the first reason is recorded in
``runner.demotion_code`` (see :data:`DEMOTION_REASONS`) so the engine can
surface one structured event, but each span still re-checks — a guard
that clears (e.g. a test un-wraps a hook) lets later spans run natively,
exactly like the batched engine's per-span ``batch_mode`` re-validation.

Between native spans the flat buffers hold the simulated structures
(see :mod:`repro.native.marshal`); :meth:`NativeRunner.sync` is the one
way to bring the Python objects up to date.  The runner calls it before
a demoted span; everything else that reads structure calls it too.

Error mapping: the kernel returns 0 on success, 1 for MSHR exhaustion
(registers ``ERR_A..ERR_D`` carry count/size/cycle/line) and any other
value for an internal invariant breach.  On every non-zero return the
counters are imported with ``end_span(ok=False)`` — absolute counters
land, span deltas are discarded — matching the batched loop's behaviour
when ``MSHR full`` propagates mid-record.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.berti import BertiPrefetcher
from repro.errors import SimulationError
from repro.memory.replacement import DRRIPPolicy, LRUPolicy, SRRIPPolicy
from repro.simulator.batched import batch_verdict, make_batched_runner

from . import build as _build
from .marshal import RIX, STALE_BUFFERS, NativeState

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised via monkeypatching
    _np = None

__all__ = ["DEMOTION_REASONS", "native_mode", "make_native_runner", "NativeRunner"]

#: Structured demotion reasons (code -> slug); code 0 means "never demoted".
DEMOTION_REASONS = {
    1: "no-compiler",
    2: "non-stock-hierarchy",
    3: "unsupported-prefetcher",
    4: "unsupported-replacement",
    5: "forced",
}

# Exact replacement-policy types the kernel implements.  Subclasses are
# rejected: a policy override changes victim selection and the C side
# would silently diverge.
_STOCK_POLICIES = (LRUPolicy, SRRIPPolicy, DRRIPPolicy)


def native_mode(hierarchy, core) -> Tuple[bool, int, str]:
    """Classify whether the native kernel may run a span.

    Returns ``(ok, demotion_code, detail)``.  Strictly narrower than
    ``batch_mode``: everything the batched engine demotes on, plus the
    kernel's own limits (exact stock replacement policies, the stock
    ``BertiPrefetcher`` when a kernel prefetcher is attached, table
    geometries within the C fast-path bounds, single-ASID MMU).
    """
    h = hierarchy
    mode, refused = batch_verdict(h, core)
    if refused == "structures":
        return (False, 2, "wrapped demand_access or non-stock parts")
    if refused:
        pf = getattr(h, refused)
        level = "L2" if refused == "l2_prefetcher" else "L1D"
        return (
            False,
            3,
            f"{level} prefetcher {type(pf).__name__} has no native support",
        )
    for cache in (h.l1d, h.l2, h.llc):
        if type(cache.policy) not in _STOCK_POLICIES:
            return (
                False,
                4,
                f"{cache.name} replacement {type(cache.policy).__name__} "
                f"is not stock LRU/SRRIP/DRRIP",
            )
    if h.mmu._asid != 0:
        return (False, 2, f"MMU asid {h.mmu._asid} != 0")
    if core.config.dependency_window < 1:
        return (False, 2, "dependency_window < 1")
    if mode == "kernel":
        pf = h.l1d_prefetcher
        if type(pf) is not BertiPrefetcher:
            return (
                False,
                3,
                f"kernel prefetcher {type(pf).__name__} is not the stock "
                f"BertiPrefetcher",
            )
        cfg = pf.config
        if cfg.deltas_per_entry > 64 or cfg.max_prefetch_deltas > 64:
            return (
                False,
                3,
                f"delta geometry ({cfg.deltas_per_entry} slots, "
                f"{cfg.max_prefetch_deltas} pf) exceeds kernel bound 64",
            )
    return (True, 0, "")


def _addresses_nonnegative(trace) -> bool:
    """The kernel's open-addressing page table uses -1 as its empty
    marker, so negative virtual pages must stay on the Python path."""
    addrs = trace.columns()[1]
    if len(addrs) == 0:
        return True
    if _np is not None:
        return not bool((_np.frombuffer(addrs, dtype=_np.int64) < 0).any())
    return min(addrs) >= 0


class NativeRunner:
    """Callable span runner; ``runner(lo, hi)`` executes one span.

    Attributes read by the engine after the run:

    * ``native_spans`` / ``demoted_spans`` — span counts per path;
    * ``demotion_code`` — first demotion reason (``None`` if never
      demoted), indexes :data:`DEMOTION_REASONS`;
    * ``demotion_detail`` — human-readable reason for that first event.

    After a native span the hierarchy's structures live in the flat
    buffers; call :meth:`sync` before reading them.
    """

    def __init__(
        self,
        trace,
        hierarchy,
        core,
        chunk_size: int = 0,
        force_demote_at: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        self.core = core
        self.force_demote_at = force_demote_at
        self.native_spans = 0
        self.demoted_spans = 0
        self.demotion_code: Optional[int] = None
        self.demotion_detail: str = ""
        self._fallback = make_batched_runner(trace, hierarchy, core, chunk_size)
        self._fn, self.compiler_diagnostic = _build.kernel_available()
        self._addrs_ok = _addresses_nonnegative(trace)
        self._state: Optional[NativeState] = None

    def sync(self, prefetcher_only: bool = False) -> None:
        """Bring the hierarchy's and core's Python structures up to date.

        A no-op unless a native span ran since the last export or sync.
        ``prefetcher_only`` imports just the L1D Berti prefetcher's
        tables — what a caller that never saw the hierarchy can reach.
        """
        if self._state is not None:
            self._state.sync(prefetcher_only)

    def prefetched_line_counts(self) -> Dict[str, int]:
        """:meth:`Hierarchy.prefetched_line_counts` without a sync: read
        off the flat buffers unless the Python objects are newer."""
        state = self._state
        if state is None or state.stale_side == STALE_BUFFERS:
            return self.hierarchy.prefetched_line_counts()
        return state.prefetched_line_counts()

    def _demote(self, code: int, detail: str, lo: int, hi: int) -> None:
        if self.demotion_code is None:
            self.demotion_code = code
            self.demotion_detail = detail
        self.demoted_spans += 1
        state = self._state
        if state is not None:
            # The Python span runs on the Python objects: bring them up
            # to date first, and re-export them before the next native
            # span.
            state.sync()
            state.stale_side = STALE_BUFFERS
        self._fallback(lo, hi)

    def __call__(self, lo: int, hi: int) -> None:
        if self.force_demote_at is not None and hi > self.force_demote_at:
            self._demote(5, f"forced demotion at record {self.force_demote_at}",
                         lo, hi)
            return
        if self._fn is None:
            self._demote(1, self.compiler_diagnostic or "no compiler", lo, hi)
            return
        if not self._addrs_ok:
            self._demote(2, "trace contains negative addresses", lo, hi)
            return
        ok, code, detail = native_mode(self.hierarchy, self.core)
        if not ok:
            self._demote(code, detail, lo, hi)
            return
        if self._state is None:
            self._state = NativeState(self.trace, self.hierarchy, self.core)
        state = self._state
        state.begin_span(lo, hi)
        rc = _build.call_span(self._fn, state)
        if rc == 0:
            state.end_span(True)
            self.native_spans += 1
            return
        R = state.R
        err_a = R[RIX["ERR_A"]]
        err_b = R[RIX["ERR_B"]]
        err_c = R[RIX["ERR_C"]]
        err_d = R[RIX["ERR_D"]]
        state.end_span(False)
        if rc == 1:
            # Byte-for-byte the message mshr.MSHR.allocate raises, so the
            # crash-triage fingerprints match across engines.
            raise SimulationError(
                f"MSHR full: {err_a}/{err_b} entries outstanding at cycle "
                f"{err_c} (line {err_d:#x})",
                field="mshr",
            )
        raise SimulationError(
            f"native kernel internal error {rc} in span [{lo}, {hi}) "
            f"(a={err_a} b={err_b} c={err_c} d={err_d})",
            trace=self.trace.name,
            prefetcher=self.hierarchy.l1d_prefetcher.name,
            field="engine",
        )


def make_native_runner(
    trace,
    hierarchy,
    core,
    chunk_size: int = 0,
    force_demote_at: Optional[int] = None,
) -> NativeRunner:
    """Build the native span runner (mirrors ``make_batched_runner``)."""
    return NativeRunner(trace, hierarchy, core, chunk_size, force_demote_at)
