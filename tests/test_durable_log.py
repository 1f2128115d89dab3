"""Crash safety of the durable log, checked at every byte offset.

``generate_all``'s :class:`RunJournal` and the service daemon's
:class:`ServiceJournal` are both folds over
:class:`repro.fsutil.DurableLog`.  A writer killed at any instant
leaves some prefix of the log's bytes on disk, so these tests record
one session per journal and replay *every* prefix of its file, each
written to a fresh file: replay must yield exactly the writer's state
after the events whose JSON text lies wholly inside the prefix.  After
a cut inside any line, or at any line boundary, the next append must
land on a fresh line.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import threading

import pytest

from repro.fsutil import atomic_write_text
from repro.resilience import RunJournal
from repro.service.journal import ReplayedJob, ServiceJournal

PARAMS = {"seed": 0, "srad_invocations": 8}
SPEC = {"kind": "app", "gpu": "g", "suite": "s", "app": "a", "level": 1,
        "seed": 0}


class RunSession:
    """Four cells of ``generate_all``, artifacts next to the journal."""

    name = "run"
    cells = [
        ("table9", ["table9.txt"]),
        ("fig03", ["fig03.txt", "fig03.csv"]),
        ("fig04", []),
        ("fig05", ["fig05.txt"]),
    ]
    #: the event :meth:`append_new` records.
    new_event = {"cell": "extra", "files": ["extra.txt"]}
    #: a JSON object the fold rejects.
    rejected = {"cell": "extra", "files": "extra.txt"}
    #: the exact bytes a session with no restart writes.
    pinned = (
        b'{"params": {"seed": 0, "srad_invocations": 8}, '
        b'"schema": "repro/run-journal@1"}\n'
        b'{"cell": "table9", "files": ["table9.txt"]}\n'
        b'{"cell": "fig03", "files": ["fig03.txt", "fig03.csv"]}\n'
        b'{"cell": "fig04", "files": []}\n'
        b'{"cell": "fig05", "files": ["fig05.txt"]}\n'
    )

    def record(self, root):
        names = [name for _, files in self.cells for name in files]
        for name in [*names, *self.new_event["files"]]:
            (root / name).write_text(name)
        journal = RunJournal(root / "journal", PARAMS)
        states = [self.state(journal)]
        for cell, files in self.cells:
            journal.record(cell, files)
            states.append(self.state(journal))
        journal.close()
        return root / "journal", states

    @staticmethod
    def state(journal):
        return [(c, list(f)) for c, f in journal.completed.items()]

    def replay(self, path):
        return self.state(RunJournal(path, PARAMS, resume=True))

    def append_new(self, path):
        journal = RunJournal(path, PARAMS, resume=True)
        journal.record(**self.new_event)
        journal.close()

    def plus_new(self, state):
        return [*state, (self.new_event["cell"], self.new_event["files"])]


class ServiceSession:
    """Three jobs' submit/attempt/done events; ``j1`` fails twice."""

    name = "service"
    steps = [
        lambda j: j.record_submit("j1", "alice", SPEC),
        lambda j: j.record_submit("j2", "bob", SPEC | {"seed": 1}),
        lambda j: j.record_attempt("j1", 1, "WorkerCrashError: injected"),
        lambda j: j.record_submit("j3", "alice", SPEC | {"seed": 2}),
        lambda j: j.record_attempt("j1", 2, "WorkerCrashError: injected"),
        lambda j: j.record_done("j1", "quarantined",
                                error="WorkerCrashError: injected",
                                error_kind="WorkerCrashError"),
        lambda j: j.record_done("j2", "done"),
        lambda j: j.record_attempt("j3", 1, "UsageError: bad spec"),
        lambda j: j.record_done("j3", "failed", error="UsageError: bad spec",
                                error_kind="UsageError"),
    ]
    pinned = (
        b'{"schema": "repro/service-journal@1"}\n'
        b'{"event": "submit", "job": "j1", "spec": {"app": "a", '
        b'"gpu": "g", "kind": "app", "level": 1, "seed": 0, "suite": "s"}, '
        b'"tenant": "alice"}\n'
        b'{"event": "submit", "job": "j2", "spec": {"app": "a", '
        b'"gpu": "g", "kind": "app", "level": 1, "seed": 1, "suite": "s"}, '
        b'"tenant": "bob"}\n'
        b'{"attempt": 1, "error": "WorkerCrashError: injected", '
        b'"event": "attempt", "job": "j1"}\n'
        b'{"event": "submit", "job": "j3", "spec": {"app": "a", '
        b'"gpu": "g", "kind": "app", "level": 1, "seed": 2, "suite": "s"}, '
        b'"tenant": "alice"}\n'
        b'{"attempt": 2, "error": "WorkerCrashError: injected", '
        b'"event": "attempt", "job": "j1"}\n'
        b'{"error": "WorkerCrashError: injected", '
        b'"error_kind": "WorkerCrashError", "event": "done", "job": "j1", '
        b'"outcome": "quarantined"}\n'
        b'{"error": null, "error_kind": null, "event": "done", "job": "j2", '
        b'"outcome": "done"}\n'
        b'{"attempt": 1, "error": "UsageError: bad spec", '
        b'"event": "attempt", "job": "j3"}\n'
        b'{"error": "UsageError: bad spec", "error_kind": "UsageError", '
        b'"event": "done", "job": "j3", "outcome": "failed"}\n'
    )
    #: the event :meth:`append_new` records.
    new_event = {"event": "submit", "job": "j9", "tenant": "carol",
                 "spec": SPEC | {"seed": 9}}
    rejected = {"event": "attempt", "job": "j1", "attempt": "three"}

    def record(self, root):
        journal = ServiceJournal(root / "journal.jsonl")
        states = [self.state(journal)]
        for step in self.steps:
            step(journal)
            states.append(self.state(journal))
        journal.close()
        return root / "journal.jsonl", states

    @staticmethod
    def state(journal):
        return [(job, dataclasses.asdict(state))
                for job, state in journal.jobs.items()]

    def replay(self, path):
        return self.state(ServiceJournal(path))

    def append_new(self, path):
        event = self.new_event
        journal = ServiceJournal(path)
        journal.record_submit(event["job"], event["tenant"], event["spec"])
        journal.close()

    def plus_new(self, state):
        event = self.new_event
        new = ReplayedJob(spec_doc=event["spec"], tenant=event["tenant"])
        return [*state, (event["job"], dataclasses.asdict(new))]


@pytest.fixture(params=[RunSession(), ServiceSession()],
                ids=lambda s: s.name)
def session(request):
    return request.param


def _line_spans(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each line's text, newline excluded."""
    spans, start = [], 0
    for line in data.split(b"\n")[:-1]:
        spans.append((start, start + len(line)))
        start += len(line) + 1
    return spans


def _events_within(spans, k: int) -> int:
    """Events (lines after the header) whose text fits in ``k`` bytes."""
    return sum(end <= k for _, end in spans[1:])


def _kept_bytes(data: bytes, spans, events: int) -> bytes:
    """The header plus the first ``events`` event lines of ``data``."""
    return data[:spans[events][1] + 1]


def _new_line(session) -> bytes:
    return (json.dumps(session.new_event, sort_keys=True) + "\n").encode()


def _assert_every_line_parses(path):
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    for line in text.splitlines():
        assert isinstance(json.loads(line), dict)


def test_session_writes_the_pinned_bytes(session, tmp_path):
    path, _ = session.record(tmp_path)
    assert path.read_bytes() == session.pinned


def test_every_prefix_replays_a_prefix_of_the_events(session, tmp_path):
    path, states = session.record(tmp_path)
    data = path.read_bytes()
    spans = _line_spans(data)
    assert len(spans) == len(states)  # the header, then one line per event
    for k in range(len(data) + 1):
        cut = tmp_path / f"cut-{k}"
        cut.write_bytes(data[:k])
        written = _events_within(spans, k)
        assert session.replay(cut) == states[written], f"offset {k}"


def test_append_after_a_cut_lands_on_a_fresh_line(session, tmp_path):
    path, states = session.record(tmp_path)
    data = path.read_bytes()
    spans = _line_spans(data)
    # one offset inside each line, and every line boundary.
    inside = {(start + end) // 2 for start, end in spans}
    for k in sorted({0} | inside | {end + 1 for _, end in spans}):
        cut = tmp_path / f"cut-{k}"
        cut.write_bytes(data[:k])
        session.append_new(cut)
        written = _events_within(spans, k)
        assert session.replay(cut) == session.plus_new(states[written]), \
            f"offset {k}"
        assert cut.read_bytes() == \
            _kept_bytes(data, spans, written) + _new_line(session)
        _assert_every_line_parses(cut)


@pytest.mark.parametrize("tail", [b"\x00" * 64, b"\xff\xfe garbage"],
                         ids=["zeros", "not-utf8"])
def test_garbage_tail_is_a_torn_tail(session, tail, tmp_path):
    path, states = session.record(tmp_path)
    with open(path, "ab") as fh:
        fh.write(tail)
    assert session.replay(path) == states[-1]
    session.append_new(path)
    _assert_every_line_parses(path)
    assert path.read_bytes().endswith(b"\n" + _new_line(session))


def test_a_rejected_event_ends_the_replay(session, tmp_path):
    path, states = session.record(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        for event in (session.rejected, session.new_event):
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    assert session.replay(path) == states[-1]


def test_fsyncs_per_record_and_rewrite(session, tmp_path, monkeypatch):
    fsyncs = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    _, states = session.record(tmp_path)
    # the first append's rewrite syncs the file and its directory; then
    # one fsync per event.
    assert len(fsyncs) == 2 + len(states) - 1


def test_concurrent_atomic_writes_of_one_path(tmp_path, monkeypatch):
    # both writers are held after their temp write, before the rename:
    # a shared temp name would let the first rename take the second
    # writer's file.
    barrier = threading.Barrier(2, timeout=10)
    real_fsync = os.fsync

    def held_fsync(fd):
        if stat.S_ISREG(os.fstat(fd).st_mode):
            barrier.wait()
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", held_fsync)
    path = tmp_path / "out.txt"
    errors = []

    def write(text):
        try:
            atomic_write_text(path, text)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(text,))
               for text in ("a\n", "b\n")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert path.read_text(encoding="utf-8") in ("a\n", "b\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
