"""Stable content fingerprints for simulation inputs.

A kernel simulation is a pure function of ``(KernelProgram,
LaunchConfig, GPUSpec, SimConfig)`` — the seed lives inside
:class:`~repro.sim.config.SimConfig` — so two launches with equal
*content* always produce bit-identical results.  The fingerprint is a
SHA-256 over a canonical encoding of that tuple, giving a key that is

* **stable across processes and runs** (unlike ``id()``), so it can
  address a persistent on-disk cache;
* **collision-safe for equal-shaped but different programs** (unlike
  ``id()``-keyed memoization, where the interpreter may reuse a freed
  object's address — see the regression test in
  ``tests/test_engine_cache.py``).

The canonical encoding walks dataclasses field by field (in declared
order, with the class name mixed in), lowers enums to ``ClassName.NAME``
and renders the result as compact sorted-key JSON.  Every type the
simulator's input dataclasses use is covered; anything else is a hard
error rather than a silently unstable ``repr``.

Encoding an input is most of a key's cost, and the same long-lived
program/launch/spec/config objects are keyed over and over (once per
replay pass and engine lookup).  So the canonical JSON
fragment of each of those four frozen input types is computed once
per *object* and kept in an identity memo; the payload is the same
bytes ``json.dumps`` would produce for the whole tuple, so keys do not
depend on the memo.  An entry lives exactly as long as its object: a
weak reference's callback drops it, and a lookup also checks that the
reference still points at the object asking, so a recycled ``id()``
can never serve another object's fragment.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import weakref
from functools import partial
from typing import Any

from repro.arch.spec import GPUSpec
from repro.isa.program import KernelProgram, LaunchConfig
from repro.sim.config import SimConfig

#: bump when the encoding (not the simulator) changes incompatibly.
FINGERPRINT_SCHEMA = "repro/sim-fingerprint@1"
_SCHEMA_JSON = json.dumps(FINGERPRINT_SCHEMA)

#: frozen input types whose fragments are memoized per object.
_MEMOIZED_TYPES = (KernelProgram, LaunchConfig, GPUSpec, SimConfig)

#: id(obj) -> (weak reference to obj, canonical JSON fragment of obj).
_FRAGMENTS: dict[int, tuple[weakref.ref, str]] = {}


def canonicalize(obj: Any) -> Any:
    """Lower ``obj`` to JSON-encodable data with a stable layout."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, canonicalize(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        return sorted(
            [canonicalize(k), canonicalize(v)] for k, v in obj.items()
        )
    if isinstance(obj, frozenset):
        return sorted(canonicalize(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for fingerprinting"
    )


def _dumps(data: Any) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def _forget(key: int, ref: weakref.ref) -> None:
    """Weak-reference callback: drop ``key`` if ``ref`` still owns it."""
    entry = _FRAGMENTS.get(key)
    if entry is not None and entry[0] is ref:
        del _FRAGMENTS[key]


def _fragment(part: Any) -> str:
    """Canonical JSON text of one key part, memoized for frozen inputs."""
    if type(part) not in _MEMOIZED_TYPES:
        return _dumps(canonicalize(part))
    key = id(part)
    entry = _FRAGMENTS.get(key)
    if entry is not None and entry[0]() is part:
        return entry[1]
    text = _dumps(canonicalize(part))
    _FRAGMENTS[key] = (weakref.ref(part, partial(_forget, key)), text)
    return text


def content_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``.

    The payload equals ``json.dumps([FINGERPRINT_SCHEMA, [canonicalize(p)
    for p in parts]], separators=(",", ":"), sort_keys=True)`` byte for
    byte: compact JSON of a list is its items' compact JSON joined by
    commas, so it can be assembled from per-part fragments.
    """
    payload = (
        f"[{_SCHEMA_JSON},[{','.join(_fragment(p) for p in parts)}]]"
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sim_fingerprint(program, launch, spec, config) -> str:
    """Content key of one kernel simulation (the unit the caches store)."""
    return content_digest(program, launch, spec, config)


__all__ = [
    "FINGERPRINT_SCHEMA",
    "canonicalize",
    "content_digest",
    "sim_fingerprint",
]
