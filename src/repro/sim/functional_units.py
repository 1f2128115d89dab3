"""Issue-port availability tracking for functional units and memory
instruction queues.

A :class:`PipeSet` tracks, per functional-unit class of one
sub-partition, the earliest cycle at which the pipe can accept another
warp instruction.  A :class:`DrainQueue` models the bounded instruction
queues in front of the LSU/MIO/TEX paths: entries are appended with a
completion (drain) cycle and occupancy is evaluated lazily — a full
queue at issue time produces the corresponding *throttle* stall.
"""

from __future__ import annotations

from collections import deque

from repro.arch.spec import SMSpec


class PipeSet:
    """Next-free-cycle tracker for one sub-partition's FU pipes."""

    __slots__ = ("_interval", "_latency", "_next_free")

    def __init__(self, sm: SMSpec) -> None:
        self._interval: dict[str, int] = {}
        self._latency: dict[str, int] = {}
        self._next_free: dict[str, int] = {}
        for fu in sm.functional_units:
            # `pipes` wider than 1 divides the effective issue interval.
            eff = max(1, fu.issue_interval // fu.pipes)
            self._interval[fu.name] = eff
            self._latency[fu.name] = fu.latency
            self._next_free[fu.name] = 0

    def available(self, unit: str, cycle: int) -> bool:
        return self._next_free[unit] <= cycle

    def issue(self, unit: str, cycle: int) -> int:
        """Occupy the pipe; returns the result latency."""
        self._next_free[unit] = cycle + self._interval[unit]
        return self._latency[unit]

    def next_free(self, unit: str) -> int:
        return self._next_free[unit]

    def latency(self, unit: str) -> int:
        return self._latency[unit]


class DrainQueue:
    """A bounded queue that drains one entry per ``drain_interval`` cycles.

    Used for the LG (local/global), MIO (shared) and TEX instruction
    queues.  ``push`` records the cycles at which entries leave; ``full``
    pops expired entries first, so occupancy is always current.
    """

    __slots__ = ("capacity", "drain_interval", "_completions")

    def __init__(self, capacity: int, drain_interval: int = 1) -> None:
        self.capacity = capacity
        self.drain_interval = drain_interval
        self._completions: deque[int] = deque()

    def _evict(self, cycle: int) -> None:
        comp = self._completions
        while comp and comp[0] <= cycle:
            comp.popleft()

    def full(self, cycle: int, incoming: int = 1) -> bool:
        self._evict(cycle)
        if not self._completions:
            # an empty queue always accepts (even oversized bursts).
            return False
        return len(self._completions) + incoming > self.capacity

    def next_drain(self, cycle: int) -> int:
        """Cycle at which the oldest entry leaves (or ``cycle+1``)."""
        self._evict(cycle)
        return self._completions[0] if self._completions else cycle + 1

    def occupancy(self, cycle: int) -> int:
        self._evict(cycle)
        return len(self._completions)

    def push(self, cycle: int, transactions: int) -> int:
        """Enqueue ``transactions`` back-to-back entries.

        Returns the queue-induced start delay: if the queue already holds
        work, new entries drain after it (pipelined, one per interval).
        """
        self._evict(cycle)
        start = cycle
        if self._completions:
            start = max(start, self._completions[-1])
        done = start
        for _ in range(transactions):
            done += self.drain_interval
            self._completions.append(done)
        return done - cycle

    def reset(self) -> None:
        self._completions.clear()
