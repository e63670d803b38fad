"""Campaign jobs default to the native engine, bit-identical to classic.

``JobSpec`` and ``build_matrix_jobs`` run on the native C span kernel
unless told otherwise.  Berti and ``none`` jobs run natively; the other
Fig. 8 prefetchers demote span by span to the Python loops.  Either way
every job's result must equal the classic engine's, inline or across a
process pool, and with no compiler the whole campaign must still
complete with one structured ``no-compiler`` event per job.
"""

import json

import pytest

from repro.native import build as native_build
from repro.runner import (
    CampaignSupervisor,
    ExperimentRunner,
    JobSpec,
    RunnerConfig,
    SupervisorConfig,
    build_matrix_jobs,
)
from repro.workloads.catalog import suite_trace_names

TRACES = suite_trace_names("spec17")[:2] + ["bfs-kron", "pr-urand"]
PREFETCHERS = ["none", "ip_stride", "mlop", "ipcp", "berti"]
SCALE = 0.05

needs_kernel = pytest.mark.skipif(
    native_build.kernel_available()[0] is None,
    reason="no native kernel on this host",
)


def run_dicts(jobs, workers=0):
    suite = ExperimentRunner(RunnerConfig(workers=workers)).run(jobs)
    assert not suite.failures, suite.banner()
    return {o.key: o.result for o in suite.outcomes}


@pytest.fixture(scope="module")
def classic():
    jobs = build_matrix_jobs(TRACES, PREFETCHERS, scale=SCALE,
                             engine="classic")
    return {k: r.to_dict() for k, r in run_dicts(jobs).items()}


def test_jobs_default_to_native_auto():
    job = JobSpec(trace=TRACES[0])
    assert (job.engine, job.native) == ("native", "auto")
    jobs = build_matrix_jobs(TRACES, PREFETCHERS, scale=SCALE)
    assert {(j.engine, j.native) for j in jobs} == {("native", "auto")}


@needs_kernel
@pytest.mark.parametrize("workers", [0, 2])
def test_default_campaign_matches_classic(classic, workers):
    jobs = build_matrix_jobs(TRACES, PREFETCHERS, scale=SCALE)
    results = run_dicts(jobs, workers)
    # to_dict() leaves out the native_* bookkeeping, so it compares
    # across engines as is.
    assert {k: r.to_dict() for k, r in results.items()} == classic
    for job in jobs:
        extra = results[job.key].extra
        if job.l1d in ("none", "berti"):
            assert extra["native_spans"] > 0, job.key
            assert extra["native_demoted_spans"] == 0, job.key
            assert "native_demoted" not in extra, job.key
        else:
            assert extra["native_demotion_code"] == 3.0, job.key


@needs_kernel
def test_heartbeat_splits_leave_the_serialised_result_unchanged(tmp_path):
    # A heartbeat splits a run into more native spans; the span counts
    # stay on the object, and the journal/cache form does not move.
    from repro.runner.worker import run_job

    plain = run_job(JobSpec(trace=TRACES[0], l1d="berti", scale=SCALE))
    beating = run_job(JobSpec(trace=TRACES[0], l1d="berti", scale=SCALE,
                              heartbeat_path=str(tmp_path / "hb.json"),
                              heartbeat_every=100))
    assert beating.extra["native_spans"] > plain.extra["native_spans"] > 0
    assert plain.to_dict() == beating.to_dict()
    assert not any(k.startswith("native_") for k in plain.to_dict()["extra"])


def test_no_compiler_campaign_completes_identically(
        classic, monkeypatch, tmp_path):
    monkeypatch.setattr(native_build, "kernel_available",
                        lambda: (None, "no C compiler found"))
    jobs = build_matrix_jobs(TRACES, PREFETCHERS, scale=SCALE)
    journal = tmp_path / "j.jsonl"
    # The supervisor always runs a pool; its workers fork from this
    # process and inherit the patched kernel lookup.
    suite = CampaignSupervisor(
        RunnerConfig(workers=1, journal_path=str(journal)),
        SupervisorConfig(poll_interval=0.05, handle_signals=False),
    ).run(jobs)
    assert not suite.failures, suite.banner()
    results = {o.key: o.result.to_dict() for o in suite.outcomes}
    assert results == classic

    manifest = json.loads(
        (tmp_path / "j.jsonl.manifest.json").read_text())
    events = [e for e in manifest["events"]
              if e["event"] == "native-demotion"]
    assert sorted(e["key"] for e in events) == sorted(j.key for j in jobs)
    assert {(e["code"], e["reason"]) for e in events} == {(1, "no-compiler")}
