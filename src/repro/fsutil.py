"""Small filesystem durability helpers (stdlib-only, dependency-free).

The atomic-rename protocol used throughout the tree (result-cache
shards, journal rewrites, metric exports) guarantees *crash*
consistency: a reader sees either the old file or the new one, never a
torn write.  It does **not** by itself guarantee *power-loss*
durability — on most filesystems the rename itself lives in the parent
directory's metadata and is only durable once that directory has been
fsynced.  Writers that promise durability therefore call
:func:`fsync_dir` on the parent after ``os.replace``.

:class:`DurableLog` is the one append-only log of the tree: the run
journal of ``generate_all`` and the service daemon's job journal are
both folds over its events.

This module sits below every other ``repro`` package (it imports only
the stdlib), so the cache, the resilience journals and the service
layer can all share it without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush directory metadata (new names after an atomic rename).

    Best-effort: platforms/filesystems that cannot open a directory for
    reading (some network mounts, Windows) silently skip — the rename
    is still crash-consistent, just not guaranteed power-loss durable.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | os.PathLike,
    text: str,
    *,
    durable: bool = True,
) -> None:
    """Write ``text`` to ``path`` via temp file + atomic rename.

    With ``durable=True`` (the default) the data is fsynced before the
    rename and the parent directory after it, so the new content
    survives power loss, not just a process crash.  A failed write
    removes its temp file and leaves ``path`` as it was.  The temp name
    carries the process and thread id, so concurrent writers of one
    path never share a temp file; the last rename wins.
    """
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        fsync_dir(path.parent)


def atomic_write_json(
    path: str | os.PathLike,
    doc: Any,
    *,
    durable: bool = True,
) -> None:
    """Canonical-JSON variant of :func:`atomic_write_text`."""
    atomic_write_text(
        path,
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        durable=durable,
    )


def _json_object(line: bytes) -> dict | None:
    """``line`` as a JSON object, or ``None`` if it is not one."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    return doc if isinstance(doc, dict) else None


class DurableLog:
    """Append-only JSONL log: a header line, then one event per line.

    * **Header** — the first line pins the layout (schema, run
      parameters); a file with any other header replays nothing.
    * **Replay** — events go to ``apply(event) -> bool`` in file order
      until the first line that is torn, is not UTF-8, is not a JSON
      object or that ``apply`` rejects, so what replays is a prefix of
      what was appended (a last line missing only its newline counts
      as written).  ``apply=None`` replays nothing.
    * **Rewrite** — the first :meth:`append` replaces the file with the
      header plus the accepted lines, verbatim, so a torn tail never
      swallows an append; the accepted lines are held only until then.
    * **Append** — every event is flushed and fsynced before
      :meth:`append` returns.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        header: dict,
        apply: Callable[[dict], bool] | None = None,
    ) -> None:
        self.path = Path(path)
        self._fh = None
        #: header plus accepted event lines; ``None`` after the rewrite.
        self._lines: list[str] | None = [json.dumps(header, sort_keys=True)]
        if apply is None:
            return
        try:
            first, *lines = self.path.read_bytes().split(b"\n")
        except OSError:
            return  # no log yet: nothing to replay
        if _json_object(first) != header:
            return
        for line in lines:
            event = _json_object(line)
            if event is None or not apply(event):
                return
            self._lines.append(line.decode("utf-8"))

    def append(self, event: dict) -> None:
        """Durably append ``event`` (fsynced before this returns)."""
        if self._fh is None:
            if self._lines is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_text(self.path, "\n".join(self._lines) + "\n")
                self._lines = None
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


__all__ = ["DurableLog", "atomic_write_json", "atomic_write_text", "fsync_dir"]
