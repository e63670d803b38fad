"""Tests for the workload generators (SPEC-like, GAP-like, CloudSuite-like,
synthetic primitives, multi-core mixes)."""

import pytest

from repro.workloads import (
    cloudsuite_suite,
    gap_suite,
    gap_trace,
    random_mixes,
    spec17_suite,
)
from repro.workloads import gap as gap_mod
from repro.workloads import spec_like
from repro.workloads.synthetic import (
    pattern_stream,
    pointer_chase,
    random_access,
    strided_stream,
    temporal_sequence,
)


class TestPrimitives:
    def test_strided_stream_stride(self):
        recs = strided_stream(0x1, 0, 3, 10, region_lines=1 << 20)
        lines = [r[1] >> 6 for r in recs]
        assert all(b - a == 3 for a, b in zip(lines, lines[1:]))

    def test_strided_stream_wraps_region(self):
        recs = strided_stream(0x1, 0, 2, 100, region_lines=10)
        lines = {r[1] >> 6 for r in recs}
        assert max(lines) < 10

    def test_pattern_stream_follows_pattern(self):
        recs = pattern_stream(0x1, 0, [1, 2], 6, region_lines=1 << 20)
        lines = [r[1] >> 6 for r in recs]
        deltas = [b - a for a, b in zip(lines, lines[1:])]
        assert deltas == [1, 2, 1, 2, 1]

    def test_pointer_chase_is_dependent(self):
        recs = pointer_chase(0x1, 0, [-1], 5, region_lines=100)
        assert all(r[4] == 1 for r in recs)

    def test_pointer_chase_deterministic(self):
        a = pointer_chase(0x1, 0, [-1, -2], 20, seed=3, region_lines=100)
        b = pointer_chase(0x1, 0, [-1, -2], 20, seed=3, region_lines=100)
        assert a == b

    def test_random_access_within_region(self):
        recs = random_access(0x1, 0, 16, 50, seed=1)
        assert all(0 <= (r[1] >> 6) < 16 for r in recs)

    def test_temporal_sequence_repeats(self):
        recs = temporal_sequence(0x1, [5, 9, 2], repetitions=2)
        lines = [r[1] >> 6 for r in recs]
        assert lines == [5, 9, 2, 5, 9, 2]


class TestSpecSuite:
    def test_suite_size(self):
        suite = spec17_suite(0.05)
        assert len(suite) == 14

    def test_names_unique_and_stable(self):
        names = [t.name for t in spec17_suite(0.05)]
        assert len(set(names)) == len(names)
        assert "mcf_s-1554B" in names
        assert "cactuBSSN_s-2421B" in names

    def test_deterministic(self):
        a = spec_like.mcf_s_1554(0.1)
        b = spec_like.mcf_s_1554(0.1)
        assert a.records == b.records

    def test_scale_controls_length(self):
        small = spec_like.lbm_2676(0.1)
        large = spec_like.lbm_2676(0.3)
        assert len(large) > len(small)

    def test_cactu_has_many_ips(self):
        t = spec_like.cactuBSSN(0.2)
        assert t.unique_ips >= 100

    def test_lbm_alternating_strides(self):
        """The headline +1/+2 IP pattern from the paper (§II-B)."""
        t = spec_like.lbm_2676(0.2)
        lines = [r[1] >> 6 for r in t.records if r[0] == 0x401CB0]
        deltas = {b - a for a, b in zip(lines, lines[1:])}
        assert deltas <= {1, 2} or (1 in deltas and 2 in deltas)

    def test_suites_marked(self):
        assert all(t.suite == "spec17" for t in spec17_suite(0.05))


class TestGapSuite:
    def test_csr_graphs_valid(self):
        for name, build in gap_mod.GRAPHS.items():
            offsets, edges = build(0.05)
            assert offsets[0] == 0
            assert offsets[-1] == len(edges)
            assert all(b >= a for a, b in zip(offsets, offsets[1:]))
            n = len(offsets) - 1
            assert all(0 <= v < n for v in edges[:200])

    def test_gap_trace_names(self):
        t = gap_trace("bfs", "kron", 0.05)
        assert t.name == "bfs-kron"
        assert t.suite == "gap"

    def test_record_budget_respected(self):
        t = gap_trace("pr", "urand", 0.05)
        assert len(t) <= 1100  # budget + one node's overshoot

    def test_kernels_have_dependent_gathers(self):
        t = gap_trace("bfs", "urand", 0.05)
        dep_records = [r for r in t.records if r[4] > 0]
        assert len(dep_records) > len(t) // 10

    def test_suite_composition(self):
        traces = gap_suite(0.05, kernels=["bfs", "cc"], graphs=["kron"])
        assert [t.name for t in traces] == ["bfs-kron", "cc-kron"]

    def test_deterministic(self):
        a = gap_trace("sssp", "road", 0.05)
        b = gap_trace("sssp", "road", 0.05)
        assert a.records == b.records

    @pytest.fixture
    def fresh_memo(self):
        gap_mod._graph_memo.cache_clear()
        yield
        gap_mod._graph_memo.cache_clear()

    @pytest.mark.parametrize("scale", [0.25, 1.0])
    def test_memoised_traces_match_fresh_builds(self, scale, fresh_memo):
        budget = max(1000, int(12000 * scale))
        for gname in ("kron", "urand", "road", "web"):
            fresh = gap_mod.GRAPHS[gname](min(1.0, scale))
            for kernel, walk in gap_mod.KERNELS.items():
                memoised = gap_trace(kernel, gname, scale)
                expected = walk(fresh, f"{kernel}-{gname}", budget)
                assert memoised.name == expected.name
                assert ([bytes(c) for c in memoised.columns()]
                        == [bytes(c) for c in expected.columns()]), (
                    kernel, gname)

    def test_graph_built_once_per_process(self, monkeypatch, fresh_memo):
        calls = []
        real = gap_mod.GRAPHS["road"]

        def counting(scale):
            calls.append(scale)
            return real(scale)

        monkeypatch.setitem(gap_mod.GRAPHS, "road", counting)
        first = gap_trace("bfs", "road", 0.05)
        again = gap_trace("bfs", "road", 0.05)
        suite = gap_suite(0.05, kernels=["bfs", "cc"], graphs=["road"])
        assert calls == [0.05]
        assert first.records == again.records == suite[0].records
        # Scales above 1 clamp to the same graph.
        gap_trace("pr", "road", 2.0)
        gap_trace("pr", "road", 3.0)
        assert calls == [0.05, 1.0]

    def test_graph_memo_is_bounded(self, monkeypatch, fresh_memo):
        monkeypatch.setitem(gap_mod.GRAPHS, "road",
                            lambda scale: ([0, 0], []))
        maxsize = gap_mod._graph_memo.cache_info().maxsize
        assert maxsize is not None
        for i in range(3 * maxsize):
            gap_mod.built_graph("road", 0.001 * (i + 1))
        assert gap_mod._graph_memo.cache_info().currsize <= maxsize

    def test_hub_cap_keeps_windows_representative(self):
        t = gap_trace("pr", "kron", 0.05)
        offsets_records = sum(
            1 for r in t.records if r[0] == gap_mod.IP_OFFSETS
        )
        assert offsets_records > 10  # not swallowed by one hub's adjacency


class TestCloudSuite:
    def test_suite(self):
        suite = cloudsuite_suite(0.1)
        assert {t.name for t in suite} == {
            "cassandra", "classification", "cloud9", "nutch",
        }

    def test_low_intensity(self):
        """CloudSuite is frontend-heavy: large gaps between accesses."""
        for t in cloudsuite_suite(0.1):
            avg_gap = sum(r[3] for r in t.records) / len(t)
            assert avg_gap >= 20


class TestMixes:
    def test_mix_shape(self):
        mixes = random_mixes(3, cores=4, scale=0.05, seed=1)
        assert len(mixes) == 3
        assert all(len(m) == 4 for m in mixes)

    def test_mixes_deterministic(self):
        a = random_mixes(2, scale=0.05, seed=7)
        b = random_mixes(2, scale=0.05, seed=7)
        assert [[t.name for t in m] for m in a] == [
            [t.name for t in m] for m in b
        ]

    def test_custom_pool(self):
        pool = spec17_suite(0.05)[:2]
        mixes = random_mixes(2, pool=pool, seed=0)
        names = {t.name for m in mixes for t in m}
        assert names <= {p.name for p in pool}
