"""Bit-identity, demotion guards, and error mapping for ``repro.native``.

The native backend (``simulate(..., engine="native")``) runs the Berti
kernel hooks and the L1D/L2 demand ladder in a C shared object compiled
at first use.  Its contract is the batched engine's, one level down:
every counter, every structural state, every snapshot byte must match
the classic engine, and anything the C side was not sized for must
demote to the batched Python loop — never engage and silently diverge.

Tests that need the compiled kernel are skipped (not failed) on hosts
without a C compiler; the demotion/fallback tests run everywhere — that
*is* the pure-Python path.
"""

import importlib.util
import pickle
import random
from pathlib import Path

import pytest

from repro.core.berti import BertiPrefetcher
from repro.errors import ConfigError, SimulationError, SnapshotError
from repro.memory.replacement import LRUPolicy
from repro.native import build as native_build
from repro.native import runner as native_runner_mod
from repro.native.marshal import RIX, NativeState
from repro.native.runner import (
    DEMOTION_REASONS,
    NativeRunner,
    make_native_runner,
    native_mode,
)
from repro.prefetchers.registry import make_prefetcher
from repro.sanitizer.lockstep import _state_digest, lockstep_engines, quick_trace
from repro.sanitizer.snapshot import simulate_with_snapshots, snapshot_path
from repro.simulator import engine as engine_mod
from repro.simulator.engine import build_hierarchy, simulate
from repro.workloads.trace import Trace

RECORDS = 1200

_KERNEL_FN, _KERNEL_DIAG = native_build.kernel_available()
needs_kernel = pytest.mark.skipif(
    _KERNEL_FN is None, reason=f"no native kernel: {_KERNEL_DIAG}"
)


@pytest.fixture(scope="module")
def trace():
    return quick_trace(RECORDS, "native_trace")


def run(trace, l1d, engine, chunk_size=0, **kw):
    cap = {}
    res = simulate(
        trace, l1d_prefetcher=make_prefetcher(l1d),
        post_build=lambda h: cap.update(h=h),
        engine=engine, chunk_size=chunk_size, **kw,
    )
    return res, cap["h"]


@needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize("l1d", ["none", "berti"])
    def test_native_matches_classic(self, trace, l1d):
        rc, hc = run(trace, l1d, "classic")
        rn, hn = run(trace, l1d, "native")
        assert rn.extra["native_spans"] > 0
        assert rn.extra["native_demoted_spans"] == 0
        assert rn.to_dict() == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    @pytest.mark.parametrize("chunk_size", [1, 17, 333, 10**9])
    def test_chunk_size_invariant(self, trace, chunk_size):
        rc, hc = run(trace, "berti", "classic")
        rn, hn = run(trace, "berti", "native", chunk_size=chunk_size)
        assert rn.to_dict() == rc.to_dict()
        assert _state_digest(hn) == _state_digest(hc)

    @pytest.mark.parametrize("at", [0, 1, 600, 1199])
    def test_forced_mid_run_demotion_matches(self, trace, at):
        # Spans after `at` fall back to the batched loop: the marshal
        # round-trip at the switch point must be lossless.
        rc, hc = run(trace, "berti", "classic")
        rn, hn = run(trace, "berti", "native", native_demote_at=at)
        assert rn.extra["native_demoted_spans"] > 0
        assert rn.extra["native_demotion_code"] == 5.0
        assert rn.to_dict() == rc.to_dict()
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_concurrent_threads_match_classic(self, trace):
        # The kernel's working state is process-global; spans from
        # several threads (the service daemon's job threads) must not
        # interleave inside it.
        import threading

        expected = run(trace, "berti", "classic")[0].to_dict()
        results = []

        def work():
            for _ in range(3):
                res = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                               engine="native", chunk_size=64)
                results.append(res.to_dict())

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 12
        assert all(r == expected for r in results)

    def test_lockstep_engines_native(self, trace):
        report = lockstep_engines(trace, l1d="berti", engine="native")
        assert report.ok, report.describe()
        assert report.engine == "native"

    def test_lockstep_detects_planted_divergence(self, trace):
        report = lockstep_engines(
            trace, l1d="berti", engine="native", seed_divergence=700
        )
        assert not report.ok
        assert report.diverged_at is not None


@needs_kernel
class TestSnapshots:
    def test_snapshot_files_byte_identical_across_engines(
        self, trace, tmp_path
    ):
        paths = {}
        for engine in ("classic", "native"):
            d = tmp_path / engine
            d.mkdir()
            simulate_with_snapshots(
                trace, l1d_prefetcher=make_prefetcher("berti"),
                snapshot_every=333, snapshot_dir=str(d), engine=engine,
            )
            paths[engine] = sorted(p.name for p in d.iterdir())
        assert paths["native"] == paths["classic"] != []
        for name in paths["classic"]:
            classic = (tmp_path / "classic" / name).read_bytes()
            native = (tmp_path / "native" / name).read_bytes()
            assert native == classic, f"snapshot {name} differs"

    @pytest.mark.parametrize(
        "writer,resumer", [("classic", "native"), ("native", "batched"),
                           ("batched", "native")]
    )
    def test_resume_across_backends(self, trace, tmp_path, writer, resumer):
        baseline = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti")
        ).to_dict()
        d = tmp_path / "ckpts"
        d.mkdir()
        simulate_with_snapshots(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            snapshot_every=333, snapshot_dir=str(d), engine=writer,
        )
        resumed = simulate_with_snapshots(
            trace, l1d_prefetcher=make_prefetcher("berti"),
            resume_from=snapshot_path(str(d), 333), engine=resumer,
        )
        assert resumed.to_dict() == baseline


def _golden_recorder():
    path = Path(__file__).parent / "golden" / "record_golden.py"
    spec = importlib.util.spec_from_file_location("record_golden", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@needs_kernel
class TestLazyState:
    """Between spans the flat buffers hold the structures; the Python
    objects are rebuilt only through ``NativeRunner.sync()``."""

    def test_plain_run_never_syncs(self, trace, monkeypatch):
        syncs = []
        built = []
        real_sync = NativeState.sync
        real_build = engine_mod.build_hierarchy

        def counting_sync(state, prefetcher_only=False):
            syncs.append(prefetcher_only)
            real_sync(state, prefetcher_only)

        def capturing_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(NativeState, "sync", counting_sync)
        monkeypatch.setattr(engine_mod, "build_hierarchy", capturing_build)
        rn = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                      engine="native")
        monkeypatch.undo()
        rc = simulate(trace, l1d_prefetcher=make_prefetcher("berti"))
        assert rn.extra["native_spans"] > 0
        assert rn.to_dict() == rc.to_dict()
        # Only the caller's prefetcher is brought up to date, once, at
        # the end of the run.
        assert syncs == [True]
        (h,) = built
        for cache in (h.l1d, h.l2, h.llc):
            assert all(row == [] for row in cache.sets), cache.name
        # Reading the stale hierarchy is a typed error, not stale bytes.
        with pytest.raises(SnapshotError) as exc:
            pickle.dumps(h)
        assert exc.value.context()["field"] == "native_sync"

    def test_caller_prefetcher_current_after_run(self):
        # The caller keeps the prefetcher it passed in: after a plain
        # native run its tables must match classic, and a second run
        # reusing it must too.
        from repro.core.delta_table import L1D_PREF
        from repro.workloads.spec_like import lbm_2676

        trace = lbm_2676(0.05)
        pf_c, pf_n = BertiPrefetcher(), BertiPrefetcher()
        for _ in range(2):
            rc = simulate(trace, l1d_prefetcher=pf_c)
            rn = simulate(trace, l1d_prefetcher=pf_n, engine="native",
                          native="force")
            assert rn.extra["native_demoted_spans"] == 0
            assert rn.to_dict() == rc.to_dict()
            selected = pf_n.deltas.prefetch_deltas(0x401CB0)
            assert selected == pf_c.deltas.prefetch_deltas(0x401CB0)
            assert any(s == L1D_PREF for _, s in selected)
            assert pickle.dumps(pf_n) == pickle.dumps(pf_c)

    def test_buffers_grow_for_replayed_spans(self):
        # Export sizes the walk log, page-table hash and core window for
        # the rest of the trace; replaying the trace once more overruns
        # that bound, so all three must grow (the hash by a rehash)
        # without losing a page or a window entry.  1000 records put
        # the hash just under a power-of-two capacity; tiny TLBs make
        # the replays walk the page table again.
        from dataclasses import replace

        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        trace = quick_trace(1000, "native_grow")
        cfg = replace(default_config(), dtlb_entries=4, dtlb_ways=2,
                      stlb_entries=8, stlb_ways=2)
        n = len(trace)
        hn = build_hierarchy(cfg, make_prefetcher("berti"), None)
        runner = make_native_runner(trace, hn, CoreModel(cfg.core))
        runner(0, n)
        cap = runner._state.R[RIX["HASH_CAP"]]
        runner.sync()
        runner(0, n)
        runner(0, n)
        assert runner._state.R[RIX["HASH_CAP"]] > cap
        with pytest.raises(SnapshotError):
            pickle.dumps(hn)  # the Python structures are stale here
        runner.sync()
        hc = build_hierarchy(cfg, make_prefetcher("berti"), None)
        cc = CoreModel(cfg.core)
        ips, addrs, writes, gaps, deps = trace.columns()
        for i in list(range(n)) * 3:
            if gaps[i]:
                cc.advance_nonmem(gaps[i])
            cc.issue_memory(hc.demand_access, ips[i], addrs[i],
                            bool(writes[i]), deps[i])
        assert runner.native_spans == 3
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("demote_at", [None, 700])
    def test_sync_invariance(self, trace, monkeypatch, seed, demote_at):
        # sync() at seeded random span boundaries (always including the
        # warmup mark and the boundary right before the forced demotion)
        # must not change the result: it only copies buffers -> Python.
        step = 50
        warmup_end = int(len(trace) * 0.2)
        rng = random.Random(seed)
        marks = set(rng.sample(range(step, len(trace), step), 6))
        marks.add(warmup_end)
        if demote_at is not None:
            marks.add(demote_at // step * step)
        runners = []
        real_make = native_runner_mod.make_native_runner

        def capturing_make(*args, **kwargs):
            runners.append(real_make(*args, **kwargs))
            return runners[-1]

        def progress(done):
            if done in marks:
                runners[0].sync()

        monkeypatch.setattr(native_runner_mod, "make_native_runner",
                            capturing_make)
        synced = simulate(
            trace, l1d_prefetcher=make_prefetcher("berti"), engine="native",
            native_demote_at=demote_at, progress=progress,
            progress_every=step,
        )
        monkeypatch.undo()
        lazy = simulate(trace, l1d_prefetcher=make_prefetcher("berti"),
                        engine="native", native_demote_at=demote_at,
                        progress=lambda done: None, progress_every=step)
        classic = simulate(trace, l1d_prefetcher=make_prefetcher("berti"))
        assert synced.to_dict() == lazy.to_dict()
        # to_dict() leaves out the native_* span and demotion markers;
        # both runs split at the same heartbeats, so syncing between
        # spans must not change them either.
        assert synced.extra == lazy.extra
        assert synced.extra["native_spans"] > 0
        assert synced.to_dict() == classic.to_dict()
        assert runners[0].native_spans > 0
        assert bool(runners[0].demoted_spans) == (demote_at is not None)

    def test_lockstep_syncs_drrip_state(self):
        # The lockstep oracle syncs before every chunk-mark digest; with
        # a DRRIP L2 that round-trips PSEL and the Mersenne Twister state.
        from dataclasses import replace

        from repro.simulator.config import default_config

        cfg = default_config()
        cfg = replace(cfg, l2=replace(cfg.l2, replacement="drrip"))
        report = lockstep_engines(quick_trace(2000, "native_drrip"),
                                  l1d="berti", config=cfg, chunk_size=97,
                                  engine="native")
        assert report.ok, report.describe()
        assert report.engine == "native"

    @pytest.mark.parametrize("pf,l1d_repl", [
        ("berti", "lru"), ("berti", "srrip"), ("none", "lru"),
    ])
    def test_flat_prefetched_line_counts_match_python(self, pf, l1d_repl):
        from dataclasses import replace

        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        recorder = _golden_recorder()
        cfg = default_config()
        cfg = replace(cfg, l1d=replace(cfg.l1d, replacement=l1d_repl))
        counted = 0
        for spec, scale in recorder.GOLDEN_TRACES:
            t = recorder.build_golden_trace(spec, scale)
            h = build_hierarchy(cfg, make_prefetcher(pf), None)
            h.mmu.prewarm(t.line_addresses())
            runner = make_native_runner(t, h, CoreModel(cfg.core))
            n = len(t)
            for lo, hi in ((0, n // 5), (n // 5, n // 2), (n // 2, n)):
                runner(lo, hi)
                flat = runner.prefetched_line_counts()
                runner.sync()
                assert flat == h.prefetched_line_counts(), (spec, hi)
                assert flat == runner.prefetched_line_counts()
                counted += sum(flat.values())
            assert runner.demoted_spans == 0
        assert counted > 0 or pf == "none"


class TestDemotionGuards:
    """The kernel must never engage against anything non-stock."""

    def make_parts(self, l1d="berti", l2=None):
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        cfg = default_config()
        h = build_hierarchy(
            cfg,
            l1d if not isinstance(l1d, str) else make_prefetcher(l1d),
            make_prefetcher(l2) if isinstance(l2, str) else l2,
        )
        return h, CoreModel(cfg.core)

    def test_stock_berti_is_native_ok(self):
        h, core = self.make_parts()
        ok, code, _ = native_mode(h, core)
        assert ok and code == 0

    def test_fault_injection_subclass_demotes(self):
        class SilentSubclass(BertiPrefetcher):
            name = "berti"
            kernel_hooks = True
            kernel_batch_hooks = True
            kernel_batch_key = "ip"

        h, core = self.make_parts(SilentSubclass())
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert DEMOTION_REASONS[code] == "unsupported-prefetcher"
        assert "SilentSubclass" in detail

    def test_wrapped_demand_access_demotes(self):
        h, core = self.make_parts()
        inner = h.demand_access
        h.demand_access = (
            lambda ip, vaddr, now, is_write=False:
            inner(ip, vaddr, now, is_write)
        )
        ok, code, _ = native_mode(h, core)
        assert not ok and code == 2

    def test_wrapped_demand_access_outranks_unsupported_prefetcher(self):
        h, core = self.make_parts("ip_stride")
        inner = h.demand_access
        h.demand_access = (
            lambda ip, vaddr, now, is_write=False:
            inner(ip, vaddr, now, is_write)
        )
        ok, code, _ = native_mode(h, core)
        assert not ok and code == 2

    def test_l2_prefetcher_demotes(self):
        h, core = self.make_parts(l2="spp")
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert "L2 prefetcher SPPPrefetcher" in detail

    @pytest.mark.parametrize("pf", ["ip_stride", "mlop", "ipcp"])
    def test_unsupported_l1d_prefetcher_reports_its_class(self, pf):
        # A fully stock hierarchy whose only refusal is the prefetcher
        # must say so, naming the class — not blame the hierarchy.
        prefetcher = make_prefetcher(pf)
        h, core = self.make_parts(prefetcher)
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert DEMOTION_REASONS[code] == "unsupported-prefetcher"
        assert f"L1D prefetcher {type(prefetcher).__name__}" in detail

    def test_wrapped_prefetcher_reports_the_wrapper(self):
        # A prefetcher wrapper without kernel hooks on stock structures
        # is an unsupported prefetcher, named by the wrapper's class.
        from repro.runner.faultinject import CrashingPrefetcher

        h, core = self.make_parts(CrashingPrefetcher(make_prefetcher("berti")))
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert "L1D prefetcher CrashingPrefetcher" in detail

    @needs_kernel
    @pytest.mark.parametrize("pf", ["ip_stride", "mlop", "ipcp"])
    def test_unsupported_prefetcher_run_reports_code_3(self, pf):
        t = quick_trace(300, f"native_unsupported_{pf}")
        res = simulate(t, l1d_prefetcher=make_prefetcher(pf),
                       engine="native")
        assert res.extra["native_spans"] == 0
        assert res.extra["native_demotion_code"] == 3.0

    @pytest.mark.parametrize("fault", ["mshr_full", "pq_full"])
    def test_fault_injection_structures_stay_non_stock(self, fault):
        from repro.runner.faultinject import FaultSpec, hierarchy_fault_hook

        for pf in ("berti", "ip_stride"):
            h, core = self.make_parts(pf)
            hierarchy_fault_hook(FaultSpec(fault))(h)
            ok, code, _ = native_mode(h, core)
            assert not ok and code == 2, (fault, pf)

    def test_replacement_subclass_demotes(self):
        class TracingLRU(LRUPolicy):
            pass

        h, core = self.make_parts()
        h.l1d.policy = TracingLRU(1, 1)  # only the type is inspected
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 4
        assert "TracingLRU" in detail

    def test_oversized_delta_geometry_demotes(self):
        from repro.core.config import BertiConfig

        pf = BertiPrefetcher(BertiConfig(deltas_per_entry=65,
                                         delta_table_entries=16))
        h, core = self.make_parts(pf)
        ok, code, detail = native_mode(h, core)
        assert not ok and code == 3
        assert "geometry" in detail

    def test_demoted_run_still_matches_classic(self, ):
        # A config the kernel refuses must still produce classic-identical
        # results through the native entry point (via the batched twin).
        t = quick_trace(400, "native_demoted")
        classic = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"),
            l2_prefetcher=make_prefetcher("spp"), engine="classic",
        ).to_dict()
        native = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"),
            l2_prefetcher=make_prefetcher("spp"), engine="native",
        )
        assert native.extra["native_spans"] == 0
        assert native.extra["native_demoted"] == 1.0
        assert native.to_dict() == classic

    def test_guard_clearing_resumes_native_with_full_reexport(self):
        # native span -> demoted span (guard trips) -> native span again.
        # The demoted span mutates the Python cache objects directly, so
        # the third span must re-export the full state (stale buffers)
        # and still land bit-identical with a pure classic run.
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        t = quick_trace(1200, "native_flipflop")
        cfg = default_config()
        hn = build_hierarchy(cfg, make_prefetcher("berti"), None)
        runner = make_native_runner(t, hn, CoreModel(cfg.core))
        if runner._fn is None:
            pytest.skip(f"no native kernel: {runner.compiler_diagnostic}")
        core = runner.core
        runner(0, 400)
        inner = hn.demand_access
        hn.demand_access = (
            lambda ip, vaddr, now, is_write=False:
            inner(ip, vaddr, now, is_write)
        )
        runner(400, 800)
        del hn.demand_access  # restore the class method: guard clears
        runner(800, 1200)
        assert runner.native_spans == 2
        assert runner.demoted_spans == 1
        runner.sync()  # the last span left its structures in the buffers

        hc = build_hierarchy(default_config(), make_prefetcher("berti"), None)
        cc = CoreModel(default_config().core)
        ips, addrs, writes, gaps, deps = t.columns()
        for i in range(1200):
            if gaps[i]:
                cc.advance_nonmem(gaps[i])
            cc.issue_memory(hc.demand_access, ips[i], addrs[i],
                            bool(writes[i]), deps[i])
        assert _state_digest(hn) == _state_digest(hc)
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_negative_addresses_demote(self):
        t = Trace("negative_addrs")
        t.extend([(0x400, -4096 * (i + 1), False, 1, 0)
                  for i in range(64)])
        h, core = self.make_parts()
        runner = make_native_runner(t, h, core)
        runner(0, len(t))
        assert runner.native_spans == 0
        assert runner.demoted_spans == 1
        assert runner.demotion_code == 2


class TestCompilerFallback:
    """The pure-Python path when no compiler exists on the host."""

    @pytest.fixture
    def no_compiler(self, monkeypatch):
        native_build.reset_build_cache()
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        monkeypatch.setattr(native_build, "cache_dir",
                            lambda: native_build.Path("/nonexistent/repro"))
        yield
        native_build.reset_build_cache()

    def test_auto_demotes_with_structured_reason(self, no_compiler):
        t = quick_trace(300, "no_cc_auto")
        classic = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"), engine="classic"
        ).to_dict()
        res = simulate(
            t, l1d_prefetcher=make_prefetcher("berti"), engine="native"
        )
        assert res.extra["native_spans"] == 0
        assert res.extra["native_demotion_code"] == 1.0
        assert DEMOTION_REASONS[1] == "no-compiler"
        assert res.to_dict() == classic

    def test_force_raises_config_error_with_diagnostic(self, no_compiler):
        t = quick_trace(300, "no_cc_force")
        with pytest.raises(ConfigError) as exc:
            simulate(t, l1d_prefetcher=make_prefetcher("berti"),
                     engine="native", native="force")
        assert exc.value.context()["field"] == "engine"
        assert "no C compiler" in str(exc.value)

    def test_off_pins_batched_fallback(self, trace):
        rc, hc = run(trace, "berti", "classic")
        rn, hn = run(trace, "berti", "native", native="off")
        assert rn.extra["native_spans"] == 0.0
        assert rn.extra["native_demoted_spans"] == 0.0
        assert "native_demoted" not in rn.extra
        assert rn.to_dict() == rc.to_dict()
        assert pickle.dumps(hn) == pickle.dumps(hc)

    def test_unknown_native_policy_rejected(self, trace):
        with pytest.raises(ConfigError) as exc:
            simulate(trace, engine="native", native="eventually")
        assert exc.value.context()["field"] == "native"


@needs_kernel
class TestErrorMapping:
    """rc != 0 from the kernel maps to the batched loop's exceptions."""

    def make_runner(self, trace):
        from repro.cpu.core_model import CoreModel
        from repro.simulator.config import default_config

        cfg = default_config()
        h = build_hierarchy(cfg, make_prefetcher("berti"), None)
        return make_native_runner(trace, h, CoreModel(cfg.core))

    def _run_with_rc(self, monkeypatch, rc, a=3, b=3, c=777, d=0x40):
        t = quick_trace(200, "err_map")
        runner = self.make_runner(t)

        def fake_call_span(fn, state):
            R = state.R
            R[RIX["ERR_A"]], R[RIX["ERR_B"]] = a, b
            R[RIX["ERR_C"]], R[RIX["ERR_D"]] = c, d
            return rc

        monkeypatch.setattr(native_build, "call_span", fake_call_span)
        runner(0, len(t))
        return runner

    def test_mshr_full_message_matches_python_engine(self, monkeypatch):
        # Byte-for-byte the message MSHR.allocate raises, so the fuzz
        # triage fingerprints agree across engines.
        from repro.memory.mshr import MSHR

        with pytest.raises(SimulationError) as native_exc:
            self._run_with_rc(monkeypatch, rc=1, a=3, b=3, c=777, d=0x40)
        mshr = MSHR(size=3)
        for i in range(3):
            mshr.allocate(0x100 + i, now=777, ready_cycle=1000,
                          is_prefetch=False)
        with pytest.raises(SimulationError) as python_exc:
            mshr.allocate(0x40, now=777, ready_cycle=1000,
                          is_prefetch=False)
        assert str(native_exc.value) == str(python_exc.value)
        assert native_exc.value.context()["field"] == "mshr"

    def test_internal_error_rc_is_typed(self, monkeypatch):
        with pytest.raises(SimulationError) as exc:
            self._run_with_rc(monkeypatch, rc=9)
        assert exc.value.context()["field"] == "engine"
        assert "internal error 9" in str(exc.value)


@needs_kernel
class TestPredecodeSharing:
    """The NumPy chunk pre-decode feeds both engines from one cache."""

    def test_decoded_columns_cached_and_plain_int(self, trace):
        vlines1, vpages1 = trace.decoded_columns()
        vlines2, vpages2 = trace.decoded_columns()
        assert vpages1 is vpages2  # memoised
        assert len(vlines1) == len(trace)
        assert type(vpages1[0]) is int

    def test_decoded_columns_track_appends(self):
        t = Trace("growing")
        t.extend([(0x400, 0x1000 * i, False, 1, 0) for i in range(8)])
        _, pages = t.decoded_columns()
        assert len(pages) == 8
        t.extend([(0x400, 0x9000, False, 1, 0)])
        _, pages = t.decoded_columns()
        assert len(pages) == 9
        assert pages[-1] == 0x9000 >> 12
