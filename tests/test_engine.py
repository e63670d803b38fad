"""Tests for the single-core simulation engine."""

import gc
import weakref

import pytest

from repro import BertiPrefetcher, SystemConfig, default_config, simulate
from repro.prefetchers.registry import make_prefetcher
from repro.workloads.spec_like import stream_trace
from repro.workloads.synthetic import make_trace, pointer_chase, strided_stream
from repro.workloads.trace import Trace


@pytest.fixture(scope="module")
def stream():
    return stream_trace(0.3)


@pytest.fixture(scope="module")
def chase():
    return make_trace(
        "chase",
        [pointer_chase(0x402, 0x1000000, [-1], 2500, gap=10,
                       region_lines=4096)],
    )


class TestBasics:
    def test_result_fields(self, stream):
        r = simulate(stream)
        assert r.trace_name == "stream"
        assert r.instructions > 0
        assert r.cycles > 0
        assert 0 < r.ipc < 8

    def test_deterministic(self, stream):
        a = simulate(stream)
        b = simulate(stream)
        assert a.ipc == b.ipc
        assert a.l1d_demand_misses == b.l1d_demand_misses

    def test_prefetcher_names_recorded(self, stream):
        r = simulate(stream, l1d_prefetcher=make_prefetcher("berti"),
                     l2_prefetcher=make_prefetcher("bingo"))
        assert r.prefetcher_l1d == "berti"
        assert r.prefetcher_l2 == "bingo"

    def test_warmup_excluded_from_stats(self, stream):
        full = simulate(stream, warmup_fraction=0.0)
        warmed = simulate(stream, warmup_fraction=0.5)
        assert warmed.instructions < full.instructions

    def test_warmup_full_raises(self, stream):
        with pytest.raises(ValueError):
            simulate(stream, warmup_fraction=1.0)

    def test_mpki_definition(self, stream):
        r = simulate(stream)
        assert r.l1d_mpki == pytest.approx(
            r.l1d_demand_misses * 1000 / r.instructions
        )


class TestPrefetchingEffects:
    def test_berti_speeds_up_dependent_chase(self, chase):
        base = simulate(chase)
        berti = simulate(chase, l1d_prefetcher=BertiPrefetcher())
        assert berti.speedup_over(base) > 1.3
        assert berti.pf_l1d.accuracy > 0.8

    def test_berti_reduces_l1d_mpki(self, chase):
        base = simulate(chase)
        berti = simulate(chase, l1d_prefetcher=BertiPrefetcher())
        assert berti.l1d_mpki < base.l1d_mpki

    def test_prefetch_increases_traffic_at_most_modestly(self, chase):
        base = simulate(chase)
        berti = simulate(chase, l1d_prefetcher=BertiPrefetcher())
        # Accurate prefetching shifts traffic, it does not multiply it.
        assert berti.traffic_llc_dram < base.traffic_llc_dram * 1.5

    def test_prewarm_tlb_off_drops_more(self, chase):
        warm = simulate(chase, l1d_prefetcher=BertiPrefetcher())
        cold = simulate(chase, l1d_prefetcher=BertiPrefetcher(),
                        prewarm_tlb=False)
        assert cold.pf_l1d.dropped_translation >= warm.pf_l1d.dropped_translation


class TestConfig:
    def test_dram_bandwidth_knob(self, stream):
        fast = simulate(stream, config=default_config())
        slow = simulate(stream, config=default_config().with_dram_mtps(1600))
        assert slow.ipc <= fast.ipc

    def test_with_dram_mtps_copies(self):
        cfg = default_config()
        cfg2 = cfg.with_dram_mtps(1600)
        assert cfg.dram.mtps == 6400
        assert cfg2.dram.mtps == 1600

    def test_llc_scaling(self):
        cfg = default_config()
        assert cfg.scaled_llc_size() == 2 * 1024 * 1024
        from dataclasses import replace
        cfg4 = replace(cfg, num_cores=4)
        assert cfg4.scaled_llc_size() == 8 * 1024 * 1024

    def test_summary_line(self, stream):
        r = simulate(stream)
        assert "stream" in r.summary_line()


class TestMemory:
    @pytest.mark.parametrize("engine", ["classic", "native"])
    def test_finished_hierarchy_freed_by_refcounting(self, stream, engine):
        # No reference cycle may keep a finished run's hierarchy (and all
        # its cache lines) alive until the next cyclic collection.
        refs = []
        gc.collect()
        gc.disable()
        try:
            simulate(stream, make_prefetcher("berti"), engine=engine,
                     post_build=lambda h: refs.append(weakref.ref(h)))
            assert refs[0]() is None
        finally:
            gc.enable()
