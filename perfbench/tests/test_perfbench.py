"""Self-tests of the benchmark's own rules.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import pytest

from perfbench import gate, stats, tracing
from perfbench.stream import COLD_STRIDE, RESUBMIT_SHARE, job_stream

ROOT = Path(__file__).resolve().parents[2]

APPS = [(suite, f"app{i}") for suite in ("rodinia", "altis")
        for i in range(10)]
GPUS = ["NVIDIA GTX 1070", "NVIDIA Quadro RTX 4000"]


# -- the percentile rule ----------------------------------------------------

@pytest.mark.parametrize("n", [11, 15, 50, 99, 100, 101, 120, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    values = list(range(n))
    q, value = stats.tail_percentile(values)
    rank = math.ceil(q * n / 100)
    assert value == rank - 1
    assert n - rank >= stats.MIN_BEYOND
    if q < 99:
        assert n - math.ceil((q + 1) * n / 100) < stats.MIN_BEYOND


def test_tail_percentile_needs_more_than_ten_samples():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.p90(list(range(99))) is None
    assert stats.p90(list(range(100))) == 89


# -- the job stream ---------------------------------------------------------

def test_job_stream_is_deterministic_per_seed():
    first = job_stream(7, APPS, GPUS)
    assert first == job_stream(7, APPS, GPUS)
    assert first != job_stream(8, APPS, GPUS)


def _fresh_targets(jobs):
    return sorted((j["kind"], j["spec"]["gpu"], j["spec"]["app"])
                  for j in jobs if j["kind"] != "resubmit")


def test_job_stream_kinds_and_seed_independent_targets():
    jobs = job_stream(3, APPS, GPUS)
    targets = len(APPS) * len(GPUS)
    kinds = [job["kind"] for job in jobs]
    assert kinds.count("warm") == targets
    assert kinds.count("cold") == len(range(0, targets, COLD_STRIDE))
    assert abs(kinds.count("resubmit") / len(jobs) - RESUBMIT_SHARE) < 0.01
    seen = []
    for job in jobs:
        spec = job["spec"]
        if job["kind"] == "resubmit":
            assert spec in seen
        else:
            assert spec not in seen
            assert (spec["seed"] == 0) == (job["kind"] == "warm")
        seen.append(spec)
    assert _fresh_targets(jobs) == _fresh_targets(job_stream(4, APPS, GPUS))


# -- failed_ratio -----------------------------------------------------------

def test_failed_ratio_counts_refusal_and_quarantined_cell():
    ledger = gate.Ledger()
    assert ledger.submission(201, "a")
    assert ledger.submission(200, "a again")
    assert not ledger.submission(429, "b")
    ledger.worker_report({"attempted": 5, "quarantined": ["nn@gtx1070"],
                          "mismatches": []})
    assert ledger.attempted == 8
    assert ledger.failed == 2
    assert ledger.ratio == pytest.approx(2 / 8)
    assert [kind for kind, _ in ledger.failures] == [gate.REFUSED,
                                                     gate.QUARANTINE]
    assert ledger.correct  # refusals are failures, not wrong outputs
    ledger.worker_report({"attempted": 0, "mismatches": ["x: differs"]})
    assert not ledger.correct


# -- the correctness gate ---------------------------------------------------

def test_gate_catches_one_flipped_counter(tmp_path):
    copy = tmp_path / "golden.json"
    shutil.copy(ROOT / gate.GOLDEN, copy)
    golden = json.loads(copy.read_text())
    observed = {
        f"{gpu}|{suite}|{app}": doc
        for gpu, suites in golden["gpus"].items()
        for suite, apps in suites.items()
        for app, doc in apps.items()
    }
    assert gate.counter_mismatches(observed, golden) == []
    flipped = json.loads(copy.read_text())
    flipped["gpus"]["rtx4000"]["altis"]["bfs"]["dram_accesses"] += 1
    assert gate.counter_mismatches(observed, flipped) == [
        "rtx4000|altis|bfs: counters differ (dram_accesses)"]


def _bundle_copy(tmp_path: Path) -> Path:
    copy = tmp_path / "bundle"
    shutil.copytree(ROOT / gate.ARTIFACTS, copy)
    return copy


def test_gate_catches_one_changed_artifact_byte(tmp_path):
    copy = _bundle_copy(tmp_path)
    assert gate.bundle_diff(copy, ROOT / gate.ARTIFACTS, contents=True) == (
        [], [])
    data = bytearray((copy / "fig04.txt").read_bytes())
    data[len(data) // 2] ^= 1
    (copy / "fig04.txt").write_bytes(bytes(data))
    mismatches, _ = gate.bundle_diff(copy, ROOT / gate.ARTIFACTS,
                                     contents=True)
    assert mismatches == ["fig04.txt: bytes differ"]
    # at other seeds only the file set is compared.
    assert gate.bundle_diff(copy, ROOT / gate.ARTIFACTS,
                            contents=False) == ([], [])


def test_gate_names_a_manifest_header_difference(tmp_path):
    copy = _bundle_copy(tmp_path)
    manifest = copy / gate.MANIFEST
    _, files = gate._manifest_parts(manifest.read_text())
    manifest.write_text("\n".join(["generated with seed=0 other"] + files)
                        + "\n")
    mismatches, known = gate.bundle_diff(copy, ROOT / gate.ARTIFACTS,
                                         contents=True)
    assert mismatches == []
    assert len(known) == 1 and known[0].startswith("MANIFEST.txt: header")
    manifest.write_text("\n".join(["generated with seed=0 other"]
                                  + files[1:]) + "\n")
    mismatches, _ = gate.bundle_diff(copy, ROOT / gate.ARTIFACTS,
                                     contents=True)
    assert mismatches == ["MANIFEST.txt: file list differs"]


def test_gate_ignores_runhealth_and_reports_missing_files(tmp_path):
    copy = _bundle_copy(tmp_path)
    (copy / "RUNHEALTH.txt").write_text("elapsed: 1.0s\n")
    (copy / "fig13.csv").unlink()
    mismatches, _ = gate.bundle_diff(copy, ROOT / gate.ARTIFACTS,
                                     contents=True)
    assert mismatches == ["fig13.csv: not written"]


# -- span arithmetic --------------------------------------------------------

def test_self_time_and_unattributed_share(tmp_path):
    # timed [0, 10]: analyze [1, 4] (render [2, 3] inside), loop [5, 9].
    spans = [
        ["render", "render", 2.0, 3.0, 1, True, None, None],
        ["core.analyze", "core", 1.0, 4.0, 3, True, None, None],
        ["loop", "loop", 5.0, 9.0, 3, True, None, [100, 40]],
        [tracing.ROOT_SPAN, None, 0.0, 10.0, -1, True, None, None],
    ]
    doc = {"pid": 1, "engines": [], "spans": spans}
    (tmp_path / "spans-1.json").write_text(json.dumps(doc))
    summary = tracing.summarize(tracing.load_spans(tmp_path), 1, 1)
    assert summary["render.s"] == 1.0
    assert summary["core.analyze_s"] == 2.0
    assert summary["loop.s"] == 4.0
    assert summary["loop.sim_cycles"] == 100
    assert summary["loop.inst_per_s"] == 10.0
    assert summary["trace.unattributed_share"] == pytest.approx(0.3)
    assert summary["loop.share"] == pytest.approx(0.4)
    assert summary["render.share"] == pytest.approx(0.1)
    assert summary["cache.share"] == 0.0


def test_warm_served_share_counts_jobs_that_simulated_nothing(tmp_path):
    # two warm jobs (one simulates a cell) and one cold job.
    spans = [
        ["loop", "loop", 1.0, 2.0, 1, False, "g/a/seed0#1", [10, 5]],
        [tracing.JOB_SPAN, None, 0.0, 3.0, -1, False, "g/a/seed0#1", None],
        [tracing.JOB_SPAN, None, 3.0, 4.0, -1, False, "g/b/seed0#2", None],
        ["loop", "loop", 4.5, 5.0, 3, False, "g/c/seed7#3", [10, 5]],
        [tracing.JOB_SPAN, None, 4.0, 6.0, -1, False, "g/c/seed7#3", None],
        ["service.journal", "service", 6.0, 6.5, -1, False, None, None],
    ]
    doc = {"pid": 1, "engines": [], "spans": spans}
    (tmp_path / "spans-1.json").write_text(json.dumps(doc))
    summary = tracing.service_summary(tracing.load_spans(tmp_path))
    assert summary["service.warm_served_share"] == 0.5
