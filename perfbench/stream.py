"""The seeded job stream of the ``service_mixed`` workload.

A stream holds, over the stored (GPU, app) targets, three kinds of app
job, shuffled together by the seed:

* ``warm`` — every target once, at seed 0 and a seed-chosen level: its
  kernels are in the pre-filled store unless evicted;
* ``cold`` — every :data:`COLD_STRIDE`-th target once, at a seed no
  other job uses, so every kernel is simulated and stored;
* ``resubmit`` — :data:`RESUBMIT_SHARE` of the jobs repeat the exact
  spec of an earlier job (the daemon deduplicates them).

The mix is an assumption of the benchmark, not a measured user mix.
Which targets the stream visits does not depend on the seed; their
order, levels and simulation seeds do.  So the amount of work, and
with it the run-to-run spread, stays the same across seeds.  The
stream is a pure function of its arguments.
"""

from __future__ import annotations

import random

LEVELS = (1, 2, 3)
#: cold jobs visit every COLD_STRIDE-th target of the canonical order.
COLD_STRIDE = 6
RESUBMIT_SHARE = 0.3


def cold_seed(seed: int, k: int) -> int:
    """Simulation seed of the ``k``-th cold job of a stream (never 0)."""
    return 1 + seed * 1000 + k


def job_stream(seed: int, apps: list[tuple[str, str]],
               gpus: list[str]) -> list[dict]:
    """The stream's jobs as ``{"kind": ..., "spec": {...}}``."""
    rng = random.Random(f"perfbench/service/{seed}")
    targets = [(gpu, suite, app) for gpu in gpus for suite, app in apps]
    fresh = [("warm", t, rng.choice(LEVELS)) for t in targets]
    fresh += [("cold", t, rng.choice(LEVELS))
              for t in targets[::COLD_STRIDE]]
    rng.shuffle(fresh)
    resubmits = round(len(fresh) * RESUBMIT_SHARE / (1 - RESUBMIT_SHARE))
    kinds = ["fresh"] * len(fresh) + ["resubmit"] * resubmits
    rng.shuffle(kinds)
    # nothing to resubmit yet: put a fresh job first.
    first = kinds.index("fresh")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    jobs: list[dict] = []
    colds = 0
    for kind in kinds:
        if kind == "resubmit":
            jobs.append({"kind": kind,
                         "spec": dict(rng.choice(jobs)["spec"])})
            continue
        kind, (gpu, suite, app), level = fresh.pop()
        if kind == "cold":
            job_seed = cold_seed(seed, colds)
            colds += 1
        else:
            job_seed = 0
        jobs.append({"kind": kind, "spec": {
            "kind": "app", "gpu": gpu, "suite": suite, "app": app,
            "level": level, "seed": job_seed}})
    return jobs
