"""Checkpoint/resume tests: the run journal and ``generate_all --resume``.

The kill-and-resume scenario is simulated in-process by stubbing the
experiment stages with fast fakes and raising mid-run; the resumed
bundle must be bit-identical to an uninterrupted run (``RUNHEALTH.txt``,
which records wall-clock timings, is the documented exception).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ResilienceError
from repro.experiments import generate_all as gen
from repro.resilience import RunJournal
from repro.resilience.checkpoint import JOURNAL_SCHEMA

PARAMS = {"seed": 0, "srad_invocations": 8}


class TestRunJournal:
    def test_record_then_resume(self, tmp_path):
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        assert not journal.done("stage_a")
        journal.record("stage_a", ["a.txt"])
        journal.close()

        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert resumed.done("stage_a")
        assert resumed.files_of("stage_a") == ["a.txt"]
        assert not resumed.done("stage_b")

    def test_missing_artifact_invalidates_the_cell(self, tmp_path):
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["gone.txt"])
        journal.close()
        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert not resumed.done("stage_a")  # file never written / deleted

    def test_deleted_artifact_can_be_rerecorded(self, tmp_path):
        # the reviewer scenario: entry parses, artifact was deleted.
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["a.txt"])
        journal.close()
        (tmp_path / "a.txt").unlink()

        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert not resumed.done("stage_a")
        # re-running the cell re-records it — no "recorded twice".
        (tmp_path / "a.txt").write_text("a2")
        resumed.record("stage_a", ["a.txt"])
        resumed.close()

        again = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert again.done("stage_a")

    def test_loaded_cell_may_be_superseded(self, tmp_path):
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["a.txt"])
        journal.close()
        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        (tmp_path / "b.txt").write_text("b")
        resumed.record("stage_a", ["b.txt"])  # supersedes: last wins
        resumed.close()
        again = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert again.files_of("stage_a") == ["b.txt"]

    def test_parameter_mismatch_starts_over(self, tmp_path):
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["a.txt"])
        journal.close()
        other = RunJournal(tmp_path / "j", {**PARAMS, "seed": 1},
                           resume=True)
        assert not other.done("stage_a")

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["a.txt"])
        journal.close()
        # simulate a writer killed mid-append: garbage partial line.
        with open(tmp_path / "j", "a") as fh:
            fh.write('{"cell": "stage_b", "files": [')
        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert resumed.done("stage_a")
        assert not resumed.done("stage_b")

    def test_second_resume_keeps_first_resumes_records(self, tmp_path):
        # a torn tail must not corrupt records appended by a resume:
        # resume #1 appends stage_b after garbage; resume #2 must see
        # both cells (previously the append landed on the partial line
        # and resume #2 parsed neither).
        (tmp_path / "a.txt").write_text("a")
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", ["a.txt"])
        journal.close()
        with open(tmp_path / "j", "a") as fh:
            fh.write('{"cell": "stage_x", "files": [')  # no newline

        first = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert first.done("stage_a")
        (tmp_path / "b.txt").write_text("b")
        first.record("stage_b", ["b.txt"])
        first.close()

        second = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert second.done("stage_a")
        assert second.done("stage_b")
        assert not second.done("stage_x")

    def test_torn_header_starts_over(self, tmp_path):
        (tmp_path / "j").write_text('{"schema": ')
        resumed = RunJournal(tmp_path / "j", PARAMS, resume=True)
        assert resumed.completed == {}

    def test_double_record_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", [])
        with pytest.raises(ResilienceError):
            journal.record("stage_a", [])
        journal.close()

    def test_complete_removes_the_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", [])
        journal.complete()
        assert not (tmp_path / "j").exists()

    def test_header_pins_schema(self, tmp_path):
        journal = RunJournal(tmp_path / "j", PARAMS)
        journal.record("stage_a", [])
        journal.close()
        header = json.loads(
            (tmp_path / "j").read_text().splitlines()[0]
        )
        assert header == {"schema": JOURNAL_SCHEMA, "params": PARAMS}


# ---------------------------------------------------------------------------
# generate_all kill-and-resume (with fast fake stages)
# ---------------------------------------------------------------------------

def _fake_stages(calls, *, die_in=None):
    """Deterministic stand-ins for the experiment stages.

    ``calls`` records execution; ``die_in`` names a stage that raises
    (the in-process stand-in for kill -9 mid-run).
    """
    def stage(name, files):
        def run():
            calls.append(name)
            if name == die_in:
                raise KeyboardInterrupt
            return [(fname, f"content of {fname}\n") for fname in files]
        return (name, run)

    return [
        stage("one", ["one.txt"]),
        stage("two", ["two.txt", "two.csv"]),
        stage("three", ["three.txt"]),
    ]


def _bundle(path):
    """name -> bytes for every artifact in a bundle directory."""
    return {
        p.name: p.read_bytes() for p in path.iterdir() if p.is_file()
    }


class TestGenerateAllResume:
    def test_killed_run_resumes_bit_identically(self, tmp_path,
                                                monkeypatch):
        # uninterrupted reference run.
        ref_calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages(ref_calls)
        )
        ref_dir = tmp_path / "ref"
        gen.generate_all(ref_dir, seed=3)
        assert ref_calls == ["one", "two", "three"]
        assert not (ref_dir / gen.JOURNAL_NAME).exists()

        # a run killed inside stage "three"...
        killed_calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages",
            lambda s, n: _fake_stages(killed_calls, die_in="three"),
        )
        out_dir = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            gen.generate_all(out_dir, seed=3)
        assert (out_dir / gen.JOURNAL_NAME).exists()
        assert not (out_dir / "three.txt").exists()

        # ...resumed: completed cells skip, the rest re-run.
        resumed_calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages(resumed_calls)
        )
        written = gen.generate_all(out_dir, seed=3, resume=True)
        assert resumed_calls == ["three"]
        assert not (out_dir / gen.JOURNAL_NAME).exists()
        assert {p.name for p in written} == {
            "one.txt", "two.txt", "two.csv", "three.txt",
            "MANIFEST.txt", "RUNHEALTH.txt",
        }

        ref, out = _bundle(ref_dir), _bundle(out_dir)
        assert set(ref) == set(out)
        for name in ref:
            if name == "RUNHEALTH.txt":  # wall-clock times: may differ
                continue
            assert out[name] == ref[name], f"{name} differs after resume"

    def test_failed_artifact_write_keeps_old_bytes(self, tmp_path,
                                                   monkeypatch):
        """A rewrite that dies midway (here a full disk) must leave the
        artifact's previous bytes, which a journal entry may vouch for,
        whole — and no temp file behind."""
        import builtins
        import errno
        import io

        target = tmp_path / "fig.txt"
        target.write_text("old artifact text\n")
        real_open = io.open

        class HalfWriter:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def flaky_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and str(file).startswith(str(tmp_path)):
                return HalfWriter(fh)
            return fh

        monkeypatch.setattr(io, "open", flaky_open)
        monkeypatch.setattr(builtins, "open", flaky_open)
        with pytest.raises(OSError):
            gen._write(target, "new artifact text, twice as long\n")
        monkeypatch.undo()
        assert target.read_text() == "old artifact text\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fig.txt"]

    def test_resume_after_artifact_deletion_completes(self, tmp_path,
                                                      monkeypatch):
        # kill inside "three", then delete an artifact of the already
        # completed cell "two": --resume must re-run both cells and
        # finish (not crash on re-recording "two").
        ref_dir = tmp_path / "ref"
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages([])
        )
        gen.generate_all(ref_dir, seed=3)

        killed_calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages",
            lambda s, n: _fake_stages(killed_calls, die_in="three"),
        )
        out_dir = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            gen.generate_all(out_dir, seed=3)
        (out_dir / "two.txt").unlink()

        resumed_calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages(resumed_calls)
        )
        gen.generate_all(out_dir, seed=3, resume=True)
        assert resumed_calls == ["two", "three"]
        assert not (out_dir / gen.JOURNAL_NAME).exists()

        ref, out = _bundle(ref_dir), _bundle(out_dir)
        assert set(ref) == set(out)
        for name in ref:
            if name != "RUNHEALTH.txt":
                assert out[name] == ref[name], f"{name} differs"

    def test_resume_with_other_seed_starts_over(self, tmp_path,
                                                monkeypatch):
        calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages",
            lambda s, n: _fake_stages(calls, die_in="two"),
        )
        out_dir = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            gen.generate_all(out_dir, seed=3)
        assert calls == ["one", "two"]

        calls.clear()
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages(calls)
        )
        gen.generate_all(out_dir, seed=4, resume=True)
        # different parameters: nothing may be reused.
        assert calls == ["one", "two", "three"]

    def test_resume_without_journal_runs_everything(self, tmp_path,
                                                    monkeypatch):
        calls: list[str] = []
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages(calls)
        )
        gen.generate_all(tmp_path / "out", seed=0, resume=True)
        assert calls == ["one", "two", "three"]

    def test_manifest_is_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            gen, "_stages", lambda s, n: _fake_stages([])
        )
        gen.generate_all(tmp_path / "a", seed=5)
        gen.generate_all(tmp_path / "b", seed=5)
        assert (tmp_path / "a" / "MANIFEST.txt").read_bytes() == \
            (tmp_path / "b" / "MANIFEST.txt").read_bytes()
        text = (tmp_path / "a" / "MANIFEST.txt").read_text()
        assert "seed=5" in text
        # wall-clock timings belong to RUNHEALTH.txt, not the manifest.
        assert "s\n" not in text.splitlines()[0]
        assert "elapsed" in \
            (tmp_path / "a" / "RUNHEALTH.txt").read_text()
