"""Checkpoint/resume journal for long multi-cell runs.

``generate_all`` regenerates the whole artifact bundle — minutes of
simulation.  A :class:`RunJournal` records each completed cell (one
experiment stage and the files it wrote) in the output directory, so a
run killed at any instant can be relaunched with ``--resume`` and
restart from the first incomplete cell.

The file is a :class:`repro.fsutil.DurableLog`, which owns durability:
an fsync per entry, replay that stops at a torn or non-UTF-8 tail, and
a verbatim rewrite of the replayed entries before the first append.
This module is the fold over its entries:

* the log header pins the run parameters (seed, invocation counts,
  schema); a ``--resume`` against different parameters starts over
  rather than mixing artifacts from two configurations;
* a cell is only trusted if its entry replayed *and* every file it
  claims to have written still exists — an entry whose artifacts were
  deleted is dropped, so the cell re-runs (and re-recording it is
  legal); the last entry of a cell wins;
* the journal is deleted on successful completion, so a finished
  bundle contains exactly the artifact files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.errors import ResilienceError
from repro.fsutil import DurableLog

#: bump when the journal layout changes; old journals re-run everything.
JOURNAL_SCHEMA = "repro/run-journal@1"


class RunJournal:
    """Append-only journal of completed cells of one parameterized run."""

    def __init__(
        self,
        path: str | Path,
        params: Mapping[str, object],
        *,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.params = dict(params)
        #: cell name -> file names written by that cell.
        self.completed: dict[str, list[str]] = {}
        #: cells recorded by *this* process (double-record guard; cells
        #: loaded from a previous run may legitimately be re-recorded).
        self._recorded: set[str] = set()
        self._log = DurableLog(
            self.path,
            {"schema": JOURNAL_SCHEMA, "params": self.params},
            self._apply if resume else None,
        )

    def _apply(self, entry: dict) -> bool:
        """Fold one replayed entry into :attr:`completed`."""
        files = entry.get("files", [])
        if "cell" not in entry or not isinstance(files, list):
            return False
        cell = str(entry["cell"])
        self.completed[cell] = [str(f) for f in files]  # last entry wins
        if not self.done(cell):
            # an artifact was deleted since the entry was written:
            # drop the cell so it re-runs *and* record() accepts it.
            del self.completed[cell]
        return True

    # -- queries ----------------------------------------------------------
    def done(self, cell: str) -> bool:
        """Is ``cell`` recorded complete, with all its files present?"""
        files = self.completed.get(cell)
        if files is None:
            return False
        return all((self.path.parent / name).exists() for name in files)

    def files_of(self, cell: str) -> list[str]:
        return list(self.completed.get(cell, []))

    # -- recording --------------------------------------------------------
    def record(self, cell: str, files: list[str]) -> None:
        """Mark ``cell`` complete (durable before this returns).

        Re-recording a cell loaded from a previous run is legal (the
        new entry supersedes it — last wins on the next load); only a
        cell recorded twice by the *same* process is a caller bug.
        """
        if cell in self._recorded:
            raise ResilienceError(f"cell {cell!r} recorded twice")
        self._log.append({"cell": cell, "files": files})
        self.completed[cell] = list(files)
        self._recorded.add(cell)
        from repro.obs.runtime import active_obs

        active_obs().tracer.instant("journal.record", cat="resilience",
                                    cell=cell, files=len(files))

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._log.close()

    def complete(self) -> None:
        """The run finished: drop the journal."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass


__all__ = ["JOURNAL_SCHEMA", "RunJournal"]
