"""Regenerate the golden EventCounters fixture for the equivalence test.

Runs every kernel invocation of every bundled suite on both paper GPUs
through the simulator (serial, ``SimConfig(seed=0)``, one SM) and
writes the merged per-application counters to
``tests/data/golden_sim_counters.json``.

The committed fixture was produced by the seed revision's per-cycle
scan; ``tests/test_sim_equivalence.py`` asserts the cycle loop
still reproduces it bit for bit.  Regenerate only when the simulated
*semantics* change deliberately — that is a counter-breaking change
and must also retire every persistent result cache (see
docs/PERFORMANCE.md).

``--backend`` selects the cycle-loop implementation (``specialized``,
the table-driven loop, by default; ``reference``, the frozen seed scan,
takes a few minutes).  Since both backends are bit-identical,
regenerating under either must produce a byte-identical file — CI
exploits that as an end-to-end equivalence check of the loop *and*
the oracle.

Usage::

    PYTHONPATH=src python tools/gen_golden_sim.py [--backend NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import get_gpu  # noqa: E402
from repro.io.counters_json import counters_to_doc  # noqa: E402
from repro.lint import bundled_suites  # noqa: E402
from repro.sim import SimConfig  # noqa: E402
from repro.sim.backend import BACKENDS, simulator_class  # noqa: E402
from repro.sim.counters import EventCounters  # noqa: E402

GPUS = ("gtx1070", "rtx4000")
OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / (
    "golden_sim_counters.json"
)


def app_counters(spec, app, config: SimConfig, sim_cls) -> EventCounters:
    """Merged single-SM counters over every invocation of one app."""
    merged = EventCounters()
    for inv in app.invocations:
        sim = sim_cls(spec, inv.program, inv.launch, config)
        merged.merge(sim.run())
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", default="specialized", choices=list(BACKENDS),
        help="cycle-loop implementation to generate with (both are "
             "bit-identical; default: specialized)",
    )
    args = parser.parse_args()
    sim_cls = simulator_class(args.backend)
    config = SimConfig(seed=0)
    doc: dict = {
        "_comment": (
            "Golden per-application EventCounters (merged over kernel "
            "invocations; serial, seed=0, one SM).  Produced by the "
            "pre-event-loop cycle scan; regenerate with "
            "tools/gen_golden_sim.py only on deliberate semantic change."
        ),
        "config": {"seed": 0, "simulated_sms": 1},
        "gpus": {},
    }
    for gpu in GPUS:
        spec = get_gpu(gpu)
        suites_doc: dict = {}
        for suite_name, suite in sorted(bundled_suites().items()):
            apps_doc = {}
            for app in suite.applications:
                apps_doc[app.name] = counters_to_doc(
                    app_counters(spec, app, config, sim_cls)
                )
            suites_doc[suite_name] = apps_doc
        doc["gpus"][gpu] = suites_doc
        print(f"{gpu}: {sum(len(v) for v in suites_doc.values())} apps")
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
