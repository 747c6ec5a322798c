"""Synchronization primitives built on the simulation kernel.

These mirror the concurrency primitives the paper's implementation relies
on — most importantly the *condition flag* used between the main thread and
the helper thread in the SC-OBR co-design (Section 4.3), and barriers used
for iteration boundaries between SPMD solvers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .core import Event, Simulator

__all__ = ["Flag", "Semaphore", "Mutex", "Barrier", "Channel"]


class Flag:
    """A level-triggered condition flag (C++ ``condition_variable`` + bool).

    ``wait()`` returns immediately if the flag is already set; otherwise it
    blocks until :meth:`set` is called.  :meth:`clear` re-arms the flag.
    This is exactly the main-thread/helper-thread signalling primitive of
    the SC-OBR design.
    """

    def __init__(self, sim: Simulator, value: bool = False):
        self.sim = sim
        self._value = value
        self._waiters: list[Event] = []

    def set(self, payload: Any = None) -> None:
        """Set the flag and release all current waiters."""
        self._value = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(payload)

    def clear(self) -> None:
        self._value = False

    def wait(self) -> Event:
        """Event that triggers when the flag is (or becomes) set."""
        ev = self.sim.event()
        if self._value:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev


class Semaphore:
    """A counting semaphore with FIFO wakeup order."""

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self.sim = sim
        self._value = value
        self._waiters: deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._value > 0:
            self._value -= 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._value += 1


class Mutex(Semaphore):
    """A binary semaphore."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, value=1)


class Barrier:
    """An N-party reusable barrier.

    Each generation releases all parties once the Nth arrives; the barrier
    then resets for the next generation.  ``arrive()`` returns an event the
    caller yields on.
    """

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self._count = 0
        self._generation = 0
        self._waiters: list[Event] = []
        self._broken: Optional[BaseException] = None

    def abort(self, exc: BaseException) -> None:
        """Break the barrier: fail all current waiters with ``exc`` and
        make every future :meth:`arrive` fail immediately.

        Used by communicator revocation — a dead rank will never arrive,
        so survivors parked on the barrier must be released into their
        recovery path instead of deadlocking.
        """
        self._broken = exc
        self._count = 0
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w.fail(exc)

    def arrive(self) -> Event:
        ev = self.sim.event()
        # Defused: an abort() may fail this event after its waiter was
        # interrupted (a crashed rank parked here) — failure with no
        # listener must not crash the kernel.
        ev._defused = True
        if self._broken is not None:
            ev.fail(self._broken)
            return ev
        self._count += 1
        if self._count == self.parties:
            gen = self._generation
            self._generation += 1
            self._count = 0
            waiters, self._waiters = self._waiters, []
            ev.succeed(gen)
            for w in waiters:
                w.succeed(gen)
        else:
            self._waiters.append(ev)
        return ev


class Channel:
    """An unbounded (or bounded) FIFO message channel between processes.

    ``put`` returns an event that triggers once the item is accepted
    (immediately unless the channel is bounded and full); ``get`` returns
    an event that triggers with the next item.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        if self._getters:
            # Direct hand-off to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(None)
        elif self._putters:
            put_ev, item = self._putters.popleft()
            ev.succeed(item)
            put_ev.succeed(None)
        else:
            self._getters.append(ev)
        return ev
