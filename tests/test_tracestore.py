"""Trace store: mmap-backed columnar trace files (repro.memory.tracestore).

Covers the format contract end to end: round-trip equivalence against
the legacy catalog loader (including a bit-identical SimResult through
the worker), typed rejection of truncated/corrupt/byte-swapped files,
the read-only mapping contract, pickling-by-path, and journal-backed
resume where the resumed campaign consumes mmapped stores.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.errors import TraceError
from repro.memory.tracestore import (
    ENDIAN_SENTINEL,
    FORMAT_VERSION,
    MAGIC,
    MappedTrace,
    TraceStoreError,
    attach_trace_stores,
    ensure_store,
    load_trace_store,
    store_info,
    store_path,
    write_trace_store,
)
from repro.native.build import kernel_available as native_kernel_available
from repro.runner import ExperimentRunner, JobSpec, RunnerConfig
from repro.runner.worker import run_job
from repro.workloads.catalog import resolve_trace

TRACE = "bfs-kron"
SCALE = 0.2


@pytest.fixture()
def store(tmp_path):
    """One converted store for the canonical (trace, scale) pair."""
    return ensure_store(tmp_path, TRACE, SCALE)


# ----------------------------------------------------------------------
# Round trip vs the legacy loader
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_columns_match_legacy_loader(self, store):
        mapped = load_trace_store(store)
        legacy = resolve_trace(TRACE, SCALE)
        assert len(mapped) == len(legacy)
        assert mapped.name == legacy.name
        assert mapped.suite == legacy.suite
        for got, want in zip(mapped.columns(), legacy.columns()):
            assert list(got) == list(want)
        assert list(mapped.line_addresses()) == list(legacy.line_addresses())
        mapped.close()

    def test_records_view_matches(self, store):
        mapped = load_trace_store(store)
        legacy = resolve_trace(TRACE, SCALE)
        assert list(mapped.records)[:50] == list(legacy.records)[:50]
        mapped.close()

    def test_simresult_bit_identical_through_worker(self, store):
        via_store = run_job(JobSpec(trace=TRACE, scale=SCALE, l1d="berti",
                                    trace_path=str(store)))
        via_catalog = run_job(JobSpec(trace=TRACE, scale=SCALE, l1d="berti"))
        assert via_store.to_dict() == via_catalog.to_dict()

    @pytest.mark.parametrize("engine", ["classic", "batched", "native"])
    def test_every_engine_runs_from_a_store(self, store, engine):
        # The batched loop and the native kernel read the mapped
        # (read-only memoryview) columns and their decode directly.
        via_store = run_job(JobSpec(trace=TRACE, scale=SCALE, l1d="berti",
                                    trace_path=str(store), engine=engine))
        classic = run_job(JobSpec(trace=TRACE, scale=SCALE, l1d="berti",
                                  engine="classic")).to_dict()
        if engine == "native" and native_kernel_available()[0] is not None:
            assert via_store.extra["native_spans"] > 0
            assert via_store.extra["native_demoted_spans"] == 0
        assert via_store.to_dict() == classic

    def test_info_reports_header(self, store):
        info = store_info(store)
        assert info["records"] == len(resolve_trace(TRACE, SCALE))
        assert info["name"] == TRACE
        assert info["version"] == FORMAT_VERSION

    def test_ensure_store_is_idempotent(self, tmp_path):
        first = ensure_store(tmp_path, TRACE, SCALE)
        stamp = first.stat().st_mtime_ns
        again = ensure_store(tmp_path, TRACE, SCALE)
        assert again == first
        assert again.stat().st_mtime_ns == stamp  # no re-conversion

    def test_store_path_is_scale_specific(self, tmp_path):
        assert (store_path(tmp_path, TRACE, 0.2)
                != store_path(tmp_path, TRACE, 0.4))


# ----------------------------------------------------------------------
# Typed rejection of malformed stores
# ----------------------------------------------------------------------


def _mutate(store, tmp_path, offset, payload):
    data = bytearray(store.read_bytes())
    data[offset:offset + len(payload)] = payload
    bad = tmp_path / "bad.trc"
    bad.write_bytes(bytes(data))
    return bad


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceStoreError, match="not found"):
            load_trace_store(tmp_path / "nope.trc")

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "short.trc"
        bad.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TraceStoreError, match="truncated"):
            load_trace_store(bad)

    def test_truncated_columns(self, store, tmp_path):
        data = store.read_bytes()
        bad = tmp_path / "cut.trc"
        bad.write_bytes(data[: len(data) - 64])
        with pytest.raises(TraceStoreError, match="truncated"):
            load_trace_store(bad)

    def test_bad_magic(self, store, tmp_path):
        bad = _mutate(store, tmp_path, 0, b"NOTATRCE")
        with pytest.raises(TraceStoreError, match="magic"):
            load_trace_store(bad)

    def test_unsupported_version(self, store, tmp_path):
        bad = _mutate(store, tmp_path, 8, struct.pack("<I", 99))
        with pytest.raises(TraceStoreError, match="version 99"):
            load_trace_store(bad)

    def test_endianness_pin(self, store, tmp_path):
        # A store written on an opposite-endian host would carry the
        # byte-swapped sentinel; zero-copy casting it would misread every
        # column, so the loader must refuse outright.
        swapped = struct.pack(">Q", ENDIAN_SENTINEL)
        bad = _mutate(store, tmp_path, 16, swapped)
        with pytest.raises(TraceStoreError, match="[Ee]ndian"):
            load_trace_store(bad)

    def test_corrupt_metadata_json(self, store, tmp_path):
        bad = _mutate(store, tmp_path, struct.calcsize("<8sIIQQ"), b"{notjso")
        with pytest.raises(TraceStoreError, match="metadata"):
            load_trace_store(bad)

    def test_error_is_a_trace_error(self, tmp_path):
        # The runner's failure taxonomy classifies TraceError as a
        # permanent "trace" failure — a corrupt store must not be retried.
        with pytest.raises(TraceError):
            load_trace_store(tmp_path / "nope.trc")


# ----------------------------------------------------------------------
# Read-only mapping contract
# ----------------------------------------------------------------------


class TestMappingContract:
    def test_mapped_trace_is_read_only(self, store):
        mapped = load_trace_store(store)
        with pytest.raises(TraceStoreError, match="read-only"):
            mapped.append(1, 2)
        with pytest.raises(TraceStoreError, match="read-only"):
            mapped.extend([(1, 2, False, 0, 0)])
        mapped.close()

    def test_validate_is_structural_only(self, store):
        mapped = load_trace_store(store)
        mapped.validate()  # must not scan or raise
        mapped.close()

    def test_pickle_reopens_by_path(self, store):
        mapped = load_trace_store(store)
        blob = pickle.dumps(mapped)
        # The pickle must carry the path, not the columns: far smaller
        # than the store itself.
        assert len(blob) < 512
        clone = pickle.loads(blob)
        assert isinstance(clone, MappedTrace)
        assert list(clone.columns()[1])[:20] == list(mapped.columns()[1])[:20]
        clone.close()
        mapped.close()

    def test_attach_trace_stores_rewrites_jobs(self, tmp_path):
        jobs = [JobSpec(trace=TRACE, scale=SCALE, l1d=pf)
                for pf in ("none", "berti")]
        rewritten = attach_trace_stores(jobs, tmp_path)
        expected = str(store_path(tmp_path, TRACE, SCALE))
        assert [j.trace_path for j in rewritten] == [expected, expected]
        # trace_path is a transport detail: the journal key is unchanged.
        assert [j.key for j in rewritten] == [j.key for j in jobs]


# ----------------------------------------------------------------------
# Journal resume over mmapped stores
# ----------------------------------------------------------------------


class TestJournalResume:
    def test_resume_replays_store_backed_jobs(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        jobs = attach_trace_stores(
            [JobSpec(trace=TRACE, scale=SCALE, l1d=pf)
             for pf in ("none", "berti")],
            tmp_path / "stores",
        )
        first = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=str(journal))
        ).run(jobs)
        assert not first.failures

        resumed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=str(journal), resume=True)
        ).run(jobs)
        assert not resumed.failures
        assert all(o.from_journal for o in resumed.completed)
        for job in jobs:
            assert (resumed.result(job.key).to_dict()
                    == first.result(job.key).to_dict())

    def test_journal_written_without_store_replays_with_store(self, tmp_path):
        # Campaigns can adopt --trace-store mid-way: keys match either way.
        journal = tmp_path / "campaign.jsonl"
        plain = [JobSpec(trace=TRACE, scale=SCALE, l1d="berti")]
        first = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=str(journal))
        ).run(plain)
        assert not first.failures

        with_store = attach_trace_stores(plain, tmp_path / "stores")
        resumed = ExperimentRunner(
            RunnerConfig(workers=0, journal_path=str(journal), resume=True)
        ).run(with_store)
        assert all(o.from_journal for o in resumed.completed)


# ----------------------------------------------------------------------
# Zero-record refusal + content digests (PR 6)
# ----------------------------------------------------------------------


class TestZeroRecordRefusal:
    """A zero-record store carries no work and is indistinguishable
    from a conversion that died before writing records: refused at
    write *and* open time, always with the typed error."""

    def test_write_refuses_an_empty_trace(self, tmp_path):
        from repro.workloads.synthetic import Trace

        empty = Trace(name="empty", suite="test")
        with pytest.raises(TraceStoreError, match="0 records"):
            write_trace_store(empty, tmp_path / "empty.trc")
        assert not (tmp_path / "empty.trc").exists()

    def test_open_refuses_a_zero_length_file(self, tmp_path):
        hollow = tmp_path / "hollow.trc"
        hollow.touch()
        with pytest.raises(TraceStoreError, match="zero-length"):
            load_trace_store(hollow)

    def test_open_refuses_a_zero_record_header(self, store, tmp_path):
        # Forge a store whose header claims 0 records (written before
        # the write-side guard existed, or truncated by a bad copy).
        header_fmt = "<8sIIQQ"
        raw = store.read_bytes()
        magic, version, meta_len, sentinel, _n = struct.unpack_from(
            header_fmt, raw)
        bad = _mutate(store, tmp_path, 0, struct.pack(
            header_fmt, magic, version, meta_len, sentinel, 0))
        with pytest.raises(TraceStoreError, match="0 records"):
            load_trace_store(bad)


class TestFileDigest:
    def test_digest_matches_hashlib(self, tmp_path):
        import hashlib

        from repro.memory.tracestore import file_digest

        blob = tmp_path / "blob.bin"
        blob.write_bytes(b"x" * 4096 + b"tail")
        expected = hashlib.sha256(blob.read_bytes()).hexdigest()
        assert file_digest(blob) == f"sha256:{expected}"
        # Chunked streaming reads must not change the digest.
        assert file_digest(blob, chunk=7) == f"sha256:{expected}"

    def test_missing_file_raises_typed_error(self, tmp_path):
        from repro.memory.tracestore import file_digest

        with pytest.raises(TraceStoreError, match="cannot digest"):
            file_digest(tmp_path / "nope.trc")

    def test_store_info_reports_the_digest(self, store):
        from repro.memory.tracestore import file_digest

        info = store_info(store)
        assert info["digest"] == file_digest(store)
        assert info["digest"].startswith("sha256:")
