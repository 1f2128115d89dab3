"""The correctness gate and the failure ledger behind ``failed_ratio``.

Correctness is the simulator contract of the repository: bit-identity
with the frozen reference scan and with the committed goldens.

* per-app counters of a suite run at seed 0 must equal
  ``tests/data/golden_sim_counters.json``;
* every file a seed-0 bundle writes must equal ``artifacts/`` byte for
  byte, except ``RUNHEALTH.txt`` (wall-clock times by design);
* at other seeds a seeded sample of cells is re-simulated with the
  reference backend and must match counter for counter.

This module only compares; the workers that hold the program's results
call it.  It imports nothing from the program.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path("tests") / "data" / "golden_sim_counters.json"
ARTIFACTS = Path("artifacts")
#: bundle files that hold wall-clock times and are never compared.
VOLATILE = ("RUNHEALTH.txt",)
MANIFEST = "MANIFEST.txt"
#: golden-fixture keys of the two paper GPUs.
GOLDEN_GPU = {
    "NVIDIA GTX 1070": "gtx1070",
    "NVIDIA Quadro RTX 4000": "rtx4000",
}

#: failure kinds; only ``check`` makes a run incorrect.
CHECK, QUARANTINE, REFUSED, JOB = "check", "quarantine", "refused", "job"


class Ledger:
    """Attempted operations and the failures among them.

    A failure is a quarantined cell or app, a failed or quarantined
    job, a refused submission (HTTP 429/503), or an output that fails
    the correctness check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, kind: str, detail: str) -> None:
        self.failures.append((kind, detail))

    def submission(self, status: int, detail: str) -> bool:
        """Record one job submission's HTTP status; ``True`` if the
        job was admitted (201 created, 200 deduplicated)."""
        self.attempt()
        if status in (200, 201):
            return True
        self.fail(REFUSED if status in (429, 503) else JOB,
                  f"submit {detail}: HTTP {status}")
        return False

    def worker_report(self, report: dict) -> None:
        """Fold in what a worker counted and checked."""
        self.attempt(report.get("attempted", 0))
        for cell in report.get("quarantined", []):
            self.fail(QUARANTINE, cell)
        for detail in report.get("mismatches", []):
            self.fail(CHECK, detail)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not any(
            kind == CHECK for kind, _ in self.failures)


def load_golden(root: Path) -> dict:
    return json.loads((root / GOLDEN).read_text())


def counter_mismatches(observed: dict, golden: dict) -> list[str]:
    """Compare per-app counter documents keyed ``gpu|suite|app`` (GPU
    by golden key) with the golden fixture; one line per differing app
    naming the differing counters."""
    out = []
    for key, doc in sorted(observed.items()):
        gpu, suite, app = key.split("|")
        want = golden["gpus"].get(gpu, {}).get(suite, {}).get(app)
        if want is None:
            out.append(f"{key}: not in the golden fixture")
        elif doc != want:
            fields = sorted(k for k in set(doc) | set(want)
                            if doc.get(k) != want.get(k))
            out.append(f"{key}: counters differ ({', '.join(fields)})")
    return out


def _manifest_parts(text: str) -> tuple[list[str], list[str]]:
    """``(header lines, file list)`` of a bundle's ``MANIFEST.txt``."""
    lines = text.splitlines()
    files = [ln for ln in lines[1:] if ln and not ln[0].isspace()]
    header = [ln for ln in lines if ln not in files]
    return header, files


def bundle_diff(written: Path, expected: Path, *, contents: bool
                ) -> tuple[list[str], list[str]]:
    """Compare a generated bundle with the committed one.

    Returns ``(mismatches, known)``.  File sets and the MANIFEST's file
    list must always agree; with ``contents`` every other file must be
    byte-identical.  A MANIFEST whose header differs while its file
    list agrees is reported in ``known`` by name: the committed header
    predates the deterministic one, and ``artifacts/`` is regenerated
    by its own change, not by the benchmark.
    """
    mismatches: list[str] = []
    known: list[str] = []
    have = {p.name for p in written.iterdir() if p.is_file()}
    want = {p.name for p in expected.iterdir() if p.is_file()}
    for name in sorted(want - have - set(VOLATILE)):
        mismatches.append(f"{name}: not written")
    for name in sorted(have - want - set(VOLATILE)):
        mismatches.append(f"{name}: not in {expected.name}/")
    for name in sorted(have & want):
        if name in VOLATILE:
            continue
        new = (written / name).read_bytes()
        old = (expected / name).read_bytes()
        if name == MANIFEST:
            new_head, new_files = _manifest_parts(new.decode())
            old_head, old_files = _manifest_parts(old.decode())
            if new_files != old_files:
                mismatches.append(f"{name}: file list differs")
            elif contents and new_head != old_head:
                known.append(
                    f"{name}: header differs (committed "
                    f"{old_head[0]!r}, written {new_head[0]!r})")
        elif contents and new != old:
            mismatches.append(f"{name}: bytes differ")
    return mismatches, known
