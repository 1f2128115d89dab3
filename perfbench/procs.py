"""Process-tree facts read from ``/proc`` (Linux)."""

from __future__ import annotations

import os
from pathlib import Path


def _children(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces: fields restart after ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids


def hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one live process, in KiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_hwm_kb(pid: int | None = None) -> int:
    """Sum of the peak resident sets of ``pid`` and every live
    descendant.  Peaks of different processes need not coincide, so
    this bounds the tree's simultaneous peak from above."""
    pid = os.getpid() if pid is None else pid
    total, todo = 0, [pid]
    while todo:
        current = todo.pop()
        total += hwm_kb(current)
        todo.extend(_children(current))
    return total
