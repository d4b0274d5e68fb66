"""Tests of the benchmark itself:  python -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

import measure
import run
import spans
from repo import ROOT, use_repo_src
from workloads import GATEWAY_SHORT, CLUSTER_MIXED, WORKLOADS, Ledger, Request, request_stream

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_generation_is_deterministic_per_seed():
    for workload in (GATEWAY_SHORT, CLUSTER_MIXED):
        first = _take(request_stream(workload, 7, "open", 1), 500)
        assert first == _take(request_stream(workload, 7, "open", 1), 500)
        assert first != _take(request_stream(workload, 8, "open", 1), 500)
        assert first != _take(request_stream(workload, 7, "closed", 1), 500)
    kinds = {r.kind for r in _take(request_stream(CLUSTER_MIXED, 1, "open", 1), 500)}
    assert kinds == {"inc", "read", "batch"}


def _increments(values, session="s00"):
    ledger = Ledger()
    for rid, value in enumerate(values):
        assert ledger.answer(Request(rid, session, "t00", "inc"), str(value))
    return ledger


def test_checker_accepts_every_write_exactly_once():
    ledger = _increments([2, 1, 3])
    assert ledger.answer(Request(9, "s00", "t00", "read"), "3")
    assert ledger.verify({"s00": 3}) == []


def test_checker_rejects_a_lost_write():
    # The second write was lost (say, replayed from a stale snapshot),
    # so the third increment returns 2 again.
    assert _increments([1, 2, 2]).verify({"s00": 2})
    # A lost last write shows only in the final count.
    assert _increments([1, 2]).verify({"s00": 1})


def test_checker_rejects_a_duplicated_write():
    # The second write was applied twice, so the third returns 4.
    assert _increments([1, 2, 4]).verify({"s00": 4})


def test_checker_rejects_wrong_answers():
    ledger = Ledger()
    assert not ledger.answer(Request(1, "s00", "t00", "batch"), "611")
    assert not ledger.answer(Request(2, "s00", "t00", "read"), "#<error>")
    assert ledger.answer(Request(3, "s00", "t00", "batch"), "610")
    assert ledger.wrong == 2


def test_failed_increment_makes_the_session_unchecked():
    ledger = _increments([1, 3])
    ledger.lost(Request(5, "s00", "t00", "inc"))
    assert ledger.verify({"s00": 3}) == []


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 99) == 99
    assert measure.percentile(samples, 100) == 100
    assert measure.percentile([5.0], 99) == 5.0
    assert measure.percentile([], 50) == 0.0
    assert measure.percentile([3, 1, 2], 50) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.supported_tail(9) is None
    assert measure.supported_tail(20) == 50.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(999) == 90.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(10_000) == 99.9


def test_self_time_subtracts_children():
    log = spans.SpanLog()
    parent = log.new_id()
    log.add("child", 1.0, 2.0, 1, parent=parent)
    log.add("child", 2.5, 3.0, 1, parent=parent)
    log.add("parent", 0.0, 4.0, 1, sid=parent)
    times = spans.self_times(log.spans)
    assert times["parent"] == pytest.approx((2.5, 1))
    assert times["child"] == pytest.approx((1.5, 2))


def test_slowdown_is_mean_probe_over_reference():
    ref = measure.REF_PROBE_S
    assert measure.slowdown([ref, 2 * ref]) == pytest.approx(1.5)
    assert measure.slowdown([]) == 1.0
    assert measure.probe_s() > 0


def test_partial_or_missing_span_dump_is_reported_not_read(tmp_path):
    log = spans.SpanLog(str(tmp_path))
    log.add("x", 0.0, 1.0, 1)
    log.dump("server", [])
    # A worker terminated mid-dump leaves only its temporary file.
    (tmp_path / "spans-999.json.tmp").write_text('{"pid": 999, "spa')
    dumps, missing = spans.load_dumps(str(tmp_path), [os.getpid(), 999])
    assert [d["pid"] for d in dumps] == [os.getpid()]
    assert missing == [999]


def test_a_late_load_generator_fails_the_run_only_when_strict():
    r = run.Result()
    r.invalid.append("load generator lag p99 9 ms")
    assert r.correct and r.exit_code(strict=False) == 0
    assert r.exit_code(strict=True) == 3
    r.failed += 1
    assert r.exit_code(strict=False) == 1 and r.exit_code(strict=True) == 1


def test_request_id_rides_in_a_comment():
    assert spans.rid_of(Request(42, "s00", "t00", "inc").source) == 42
    assert spans.rid_of("(define c 0)") is None
    assert spans.rid_of(None) is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run(workload, tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", "5", "--seconds", "2",
         "--trace", "1", "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    report = json.loads(out.read_text())
    use_repo_src()
    from repro.obs.export import validate_chrome_trace

    with open(os.path.join(ROOT, report["detail"]["trace"]["path"]), encoding="utf-8") as handle:
        trace = json.load(handle)
    assert validate_chrome_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert "session.submit" in names
