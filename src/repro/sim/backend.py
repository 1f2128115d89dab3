"""Simulator backend selection.

Two implementations of the per-SM cycle loop exist, producing
bit-identical :class:`~repro.sim.counters.EventCounters` (pinned by
``tests/test_sim_equivalence.py`` and the golden fixture):

* ``specialized`` — :class:`~repro.sim.sm.SMSimulator`, whose loop is
  a per-program compiled driver (:mod:`repro.sim.specialize`); the
  default.  Programs the specializer declines run on the reference
  scan transparently.
* ``reference``   — the frozen seed per-cycle scan
  (:class:`~repro.sim.sm_reference.ReferenceSMSimulator`), kept as a
  behavioural oracle.

The selection is a process-global (not part of
:class:`~repro.sim.config.SimConfig`): the backend must not enter the
content fingerprint, because both backends compute the same function —
a cache entry produced by one must hit for the other.  The CLI threads
``--backend`` here via :func:`repro.sim.engine.engine_context`, which
also installs it in pool workers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.errors import UsageError

if TYPE_CHECKING:
    from repro.sim.sm import SMSimulator

#: recognized backend names, in CLI display order.
BACKENDS = ("specialized", "reference")

#: backend used when nothing is selected.  ``specialized`` earned the
#: default by passing the full golden sweep bit-identical (see
#: docs/SIMULATOR.md).
DEFAULT_BACKEND = "specialized"

_current = DEFAULT_BACKEND


def current_backend() -> str:
    """The backend name in effect for new SM simulations."""
    return _current


def set_backend(name: str) -> str:
    """Select the backend process-wide; returns the previous name."""
    global _current
    if name not in BACKENDS:
        raise UsageError(
            f"unknown simulator backend {name!r} "
            f"(choose from {', '.join(BACKENDS)})"
        )
    previous = _current
    _current = name
    return previous


@contextmanager
def backend_context(name: str) -> Iterator[str]:
    """Select ``name`` for the duration of the block."""
    previous = set_backend(name)
    try:
        yield name
    finally:
        set_backend(previous)


def simulator_class(backend: str | None = None) -> "type[SMSimulator]":
    """The :class:`SMSimulator` class implementing ``backend``
    (default: the current selection).  Imports lazily so that
    ``import repro.sim`` loads neither the specializer nor the
    reference scan."""
    name = backend if backend is not None else _current
    if name == "specialized":
        from repro.sim.sm import SMSimulator

        return SMSimulator
    if name == "reference":
        from repro.sim.sm_reference import ReferenceSMSimulator

        return ReferenceSMSimulator
    raise UsageError(
        f"unknown simulator backend {name!r} "
        f"(choose from {', '.join(BACKENDS)})"
    )


def make_sm_simulator(spec, program, launch, config, **kwargs):
    """Construct one SM simulator under the current backend.

    The factory behind every plain simulation:
    :meth:`GPUSimulator.launch_uncached`, which runs each engine cell.
    Instrumented paths — tracing, the sanitizer — run on the reference
    scan whatever the selection.
    """
    return simulator_class()(spec, program, launch, config, **kwargs)


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "backend_context",
    "current_backend",
    "make_sm_simulator",
    "set_backend",
    "simulator_class",
]
