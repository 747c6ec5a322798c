"""Discrete-event simulation kernel.

This module is the foundation of the whole reproduction: every "GPU",
"MPI rank", "helper thread", and "network link" in the repo is a coroutine
process scheduled on a single simulated clock.  The design follows the
classic event/process model (as popularized by SimPy) but is implemented
from scratch so the repository is self-contained:

- :class:`Event` — a one-shot occurrence with a value (or an exception).
- :class:`Timeout` — an event that triggers after a simulated delay.
- :class:`Process` — wraps a generator; the generator *yields* events and
  is resumed with the event's value once it triggers.  A process is itself
  an event that triggers when the generator returns.
- :class:`Simulator` — the event loop.

Generators compose with ``yield from``, which is how multi-step operations
(e.g. a pipelined chunked-chain reduction) are expressed as reusable
sub-protocols.

Scheduler
---------
Events are totally ordered by ``(time, priority, insertion order)``,
realized with two structures (see ``docs/PERFORMANCE.md``):

- a **zero-delay FIFO lane** for URGENT events (``succeed``/``fail``/
  interrupts/process kicks — always scheduled *at the current instant*),
  so same-instant signalling never touches the heap, and
- one ``heapq`` of ``(time, seq, event)`` for every timed event.
  ``seq`` is the global insertion counter, so events sharing a trigger
  time fire in creation order.

Processed ``Event``/``Timeout`` objects that are no longer referenced
anywhere are recycled through a free list (``sys.getrefcount`` guarded,
so an object some condition or test still holds is never reused).

The test suite keeps a flat ``(time, priority, seq)`` heap with no
lane and no pooling as an oracle (``tests/heap_oracle.py``); seeded
runs on it are event-for-event identical to this scheduler.

Signalling protocol
-------------------
Triggering an event that has **no registered callbacks** completes it
in place — no scheduler turn is consumed, and a later ``add_callback``
(or a process yielding it) observes it as already processed.  Processes
therefore *continue inline* through already-completed events (a resource
grant that was immediately available, a request completed before it was
waited on) via a trampoline in :meth:`Process._resume`.  This removes
the per-hop "schedule URGENT, take a loop turn, resume" round-trip from
every uncontended fast path while leaving all simulated times unchanged.
Failed events are always scheduled so an unhandled failure still
surfaces in the loop.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, out):
...     yield sim.timeout(2.5)
...     out.append(sim.now)
>>> out = []
>>> _ = sim.process(worker(sim, out))
>>> sim.run()
>>> out
[2.5]
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
    "SimulationError",
    "PENDING",
]

#: Sentinel for an event that has not been triggered yet.
PENDING = object()

#: Free-list caps (enough to cover a training iteration's churn without
#: pinning unbounded memory on pathological runs).  Sized above the
#: typical number of simultaneously-live events in a 32-GPU training
#: step so steady state allocates nothing.
_POOL_MAX = 4096


class SimulationError(RuntimeError):
    """Raised for invalid simulator usage (double-trigger, deadlock, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulated timeline.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, at which point all registered callbacks run (waiting
    processes are resumed).  Triggering twice is an error.  An event
    succeeded while nobody is registered completes in place (see the
    module docstring); one with callbacks is scheduled URGENT so its
    waiters resume from the event loop, never from inside the caller.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled",
                 "_defused", "_ctx_span")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._scheduled = False
        self._defused = False
        #: Causal context for profiling: id of the span the triggering
        #: process last recorded (set by the scheduler when a recorder
        #: is installed; always ``None`` otherwise).
        self._ctx_span: Optional[int] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event fully happened)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if still pending."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger this event *now* with ``value``."""
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        if self.callbacks:
            self.sim._push_urgent(self)
        else:
            # Nobody registered: complete in place, no scheduler turn.
            self.callbacks = None
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to trigger *now*, raising in waiters.

        Always takes a scheduler turn (even with no callbacks) so the
        loop's unhandled-failure check can surface orphaned errors.
        """
        if self._scheduled:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.sim._push_urgent(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event happens (immediately if past)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # ``not >=`` rather than ``<``: NaN must fail the check too.
        if not delay >= 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class _EagerKick:
    """Stand-in for the kick event when a process starts inline."""

    _ok = True
    _value = None
    _ctx_span = None


_EAGER_KICK = _EagerKick()


class Process(Event):
    """A running coroutine; also an event that fires when it finishes."""

    __slots__ = ("gen", "name", "_target")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 eager: bool = False):
        if not hasattr(gen, "send"):
            raise TypeError(f"process() requires a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        if eager and sim.recorder is None:
            # Runtime-internal helpers (transfer movers, deferred NBC
            # bodies) opt into starting inline: the generator runs to
            # its first real wait right here, skipping the kick event
            # and a scheduler turn.  Only meaningful for spawn sites
            # whose first segment touches state no other same-instant
            # event races for in a way the caller cares about.  Under a
            # profiler the kick path is kept so ``on_spawn`` registers
            # the parent before any span is recorded.
            prev = sim._active_process
            try:
                self._resume(_EAGER_KICK)
            finally:
                sim._active_process = prev
            return
        # Kick-start on the next event-loop step at the current time.
        init = sim._fresh_event()
        init._value = None
        init.callbacks.append(self._resume)
        sim._push_urgent(init)
        init._scheduled = True

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} already finished")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self.sim._push_interrupt(self._resume, cause)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        gen_send = self.gen.send
        # Loop-invariant within one wakeup: the recorder cannot change
        # while a process is being resumed.
        rec = sim.recorder
        # Trampoline: an already-processed yield target (resource grant
        # that was free, request completed before the wait) is consumed
        # inline rather than through a scheduled turn.
        while True:
            self._target = None
            if rec is not None and event._ctx_span is not None:
                # The event that wakes us carries the triggering
                # process's latest span: note it as a causal predecessor
                # of whatever this process records next.
                rec.note_wakeup(self, event._ctx_span)
            sim._active_process = self
            try:
                if event._ok:
                    result = gen_send(event._value)
                else:
                    result = self.gen.throw(event._value)
            except StopIteration as stop:
                sim._active_process = None
                if rec is not None:
                    # Completion context must be set explicitly — the
                    # active process is already cleared by the time
                    # waiters resume.
                    self._ctx_span = rec.last_span_of(self)
                    rec.on_exit(self)
                if not self._scheduled:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._active_process = None
                if rec is not None:
                    self._ctx_span = rec.last_span_of(self)
                    rec.on_exit(self)
                if not self._scheduled:
                    self.fail(exc)
                    return
                raise
            sim._active_process = None

            if not isinstance(result, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {result!r}; "
                    "processes must yield Event instances")
            if result.sim is not sim:
                raise SimulationError(
                    "yielded event belongs to another Simulator")
            cbs = result.callbacks
            if cbs is None:
                event = result  # already happened: continue inline
                continue
            self._target = result
            cbs.append(self._resume)
            return


class Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_n_done", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        #: Values of components processed so far, accumulated by _check
        #: (one dict store per completion; the final result dict is
        #: assembled once, in declaration order).
        self._values: dict = {}
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _adopt_ctx(self, event: Event) -> None:
        # _check runs as an event callback (no active process), so the
        # profiling context must be relayed from the completing events;
        # the latest completion wins (for AllOf it is the release cause).
        if event._ctx_span is not None:
            self._ctx_span = event._ctx_span

    def _collect(self) -> dict:
        # Component values in declaration order.  Only events that have
        # *happened* by trigger time are present (their _check recorded
        # them); a Timeout is "scheduled" from birth but occurs later.
        values = self._values
        return {ev: values[ev] for ev in self.events if ev in values}


class AllOf(Condition):
    """Triggers once *all* component events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        self._adopt_ctx(event)
        if not event._ok:
            self.fail(event._value)
            return
        self._values[event] = event._value
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers once *any* component event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._scheduled:
            return
        self._adopt_ctx(event)
        if not event._ok:
            self.fail(event._value)
            return
        self._values[event] = event._value
        self.succeed(self._collect())


class Simulator:
    """The event loop: schedules events on a virtual clock.

    Notes
    -----
    Determinism: ties at the same timestamp are broken by scheduling
    priority (the URGENT lane first) and then by insertion order, so
    repeated runs of the same program produce identical traces (a
    property the tests rely on).
    """

    def __init__(self, seed: Optional[int] = None):
        self._now = 0.0
        # URGENT FIFO lane (zero-delay signalling at the current instant)
        # and one heap of (time, seq, event) for every timed event.
        self._lane: deque = deque()
        self._heap: list = []
        self._seq = itertools.count()
        # Free lists for processed, unreferenced Event/Timeout objects.
        self._epool: list = []
        self._tpool: list = []
        self._active_process: Optional[Process] = None
        self._event_count = 0
        #: Optional :class:`repro.prof.SpanRecorder`.  ``None`` (default)
        #: disables all span recording; instrumentation sites throughout
        #: the repo gate on this attribute so the off path costs one
        #: attribute load and simulated times are bit-identical.
        self.recorder = None
        #: Optional :class:`repro.check.InvariantChecker`.  ``None``
        #: (default) disables runtime invariant checking (SPMD lockstep,
        #: tag-space audit, request/buffer leak tracking).  Like the
        #: recorder, a checker is strictly passive — it never schedules
        #: events — so checked and unchecked runs are event-for-event
        #: identical.
        self.checker = None
        #: Optional :class:`repro.telemetry.TelemetrySession`.  ``None``
        #: (default) disables runtime introspection; like the recorder
        #: and checker, a session is strictly passive (hooks never
        #: schedule events), so an instrumented run is event-for-event
        #: identical and the off path costs one attribute load.
        self.telemetry = None
        #: Always-present metrics registry: the single source of truth
        #: for runtime counters (``TransportMetrics`` and the telemetry
        #: PVARs are views over it).  Creating it is one dict; counters
        #: only accumulate when something increments them.
        self.metrics = MetricsRegistry()
        #: Optional noise source for skew modeling.  ``None`` (default)
        #: means a perfectly quiet machine; a seed gives *deterministic*
        #: jitter (runs remain reproducible functions of the seed).
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None)

    def jitter_factor(self, amount: float) -> float:
        """Multiplicative service-time noise: uniform in
        ``[1, 1 + amount)`` when a noise source is armed, else exactly 1.

        Used by links and kernels to model OS noise / DVFS / congestion
        skew — the effect that bounds chain length on real systems
        (Section 5's "skew-tolerant" axis).
        """
        if amount < 0:
            raise ValueError("jitter amount must be >= 0")
        if self.rng is None or amount == 0.0:
            return 1.0
        return 1.0 + amount * self.rng.random()

    def straggler_factor(self, spread: float) -> float:
        """Persistent slow-down factor drawn once per facility at build
        time: uniform in ``[1, 1 + spread)``.

        Unlike per-message jitter (which averages out over a pipeline),
        persistent heterogeneity gates chain throughput by the *slowest*
        member — the skew effect that bounds chain length on real
        clusters.
        """
        return self.jitter_factor(spread)

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total number of events processed (telemetry/tests)."""
        return self._event_count

    # -- event factories -----------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event (manual signalling)."""
        return self._fresh_event()

    def _fresh_event(self) -> Event:
        pool = self._epool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = PENDING
            ev._ok = True
            ev._scheduled = False
            ev._defused = False
            ev._ctx_span = None
            return ev
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        pool = self._tpool
        if not pool:
            return Timeout(self, delay, value)
        if not delay >= 0:
            raise ValueError(f"negative delay {delay!r}")
        t = pool.pop()
        t.callbacks = []
        t._value = value
        t._ok = True
        t._scheduled = True
        t._defused = False
        t._ctx_span = None
        t.delay = delay
        # _schedule() inlined — this is the hottest factory.
        rec = self.recorder
        if rec is not None and self._active_process is not None:
            t._ctx_span = rec.last_span_of(self._active_process)
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), t))
        return t

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event that fires at absolute simulated time ``when``.

        Used by batched schedule fast paths, which precompute exact exit
        instants: round-tripping through a relative delay
        (``now + (when - now)``) could land one float ULP off the
        per-chunk schedule being replicated.
        """
        if not when >= self._now:
            raise ValueError(
                f"timeout_at({when!r}) is in the past (now={self._now!r})")
        pool = self._tpool
        if pool:
            t = pool.pop()
            t.callbacks = []
            t._value = value
            t._ok = True
            t._scheduled = True
            t._defused = False
            t._ctx_span = None
        else:
            t = Timeout.__new__(Timeout)
            Event.__init__(t, self)
            t._value = value
            t._scheduled = True
        t.delay = when - self._now
        rec = self.recorder
        if rec is not None and self._active_process is not None:
            t._ctx_span = rec.last_span_of(self._active_process)
        heapq.heappush(self._heap, (when, next(self._seq), t))
        return t

    def process(self, gen: Generator, name: str = "",
                eager: bool = False) -> Process:
        """Start running ``gen`` as a process.

        ``eager=True`` lets the process begin inline (no kick event)
        when no profiler is installed — see :class:`Process`.
        """
        parent = self._active_process
        proc = Process(self, gen, name=name, eager=eager)
        if self.recorder is not None:
            # Auxiliary processes (movers, staged chunks, helpers)
            # attribute their spans to the rank/phase that spawned them.
            self.recorder.on_spawn(proc, parent)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _push_urgent(self, event: Event) -> None:
        """Enqueue an URGENT event at the current instant (caller sets
        ``_scheduled``).  URGENT events are only ever created *now*, so
        the FIFO lane realizes their ``(now, URGENT, seq)`` order."""
        rec = self.recorder
        if (rec is not None and event._ctx_span is None
                and self._active_process is not None):
            # Capture the scheduling process's latest span so whoever
            # this event wakes knows what it causally waited on.
            event._ctx_span = rec.last_span_of(self._active_process)
        self._lane.append(event)

    def _push_interrupt(self, callback: Callable[[Event], None],
                        cause: Any) -> None:
        """Schedule an URGENT failed event carrying :class:`Interrupt`
        (``cause``) whose only callback is ``callback`` — the one event
        an interrupt costs, for a process or a callback transfer."""
        ev = self._fresh_event()
        ev._ok = False
        ev._value = Interrupt(cause)
        ev.callbacks.append(callback)
        # Interrupts must not trip the unhandled-failure check.
        ev._defused = True
        self._push_urgent(ev)
        ev._scheduled = True

    def _schedule(self, event: Event, delay: float) -> None:
        """Enqueue ``event`` to fire ``delay`` seconds from now."""
        event._scheduled = True
        rec = self.recorder
        if (rec is not None and event._ctx_span is None
                and self._active_process is not None):
            event._ctx_span = rec.last_span_of(self._active_process)
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))

    def _pop(self) -> Event:
        """Remove and return the next event in ``(time, priority, seq)``
        order, advancing the clock."""
        if self._lane:
            return self._lane.popleft()
        if not self._heap:
            raise IndexError("step from an empty schedule")
        self._now, _seq, event = heapq.heappop(self._heap)
        return event

    # -- execution -----------------------------------------------------------
    def step(self) -> Event:
        """Process exactly one event; returns it (trace/debug hook)."""
        event = self._pop()
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
        if not event._ok and not callbacks and not event._defused:
            # A failed event nobody waited on: surface the error rather
            # than silently dropping it.
            raise event._value
        tel = self.telemetry
        if tel is not None and self._now >= tel.next_scrape_at:
            # Sampling happens *between* events rather than as a
            # scheduled process: a periodic process would keep the
            # schedule non-empty (run() would never drain) and would
            # perturb the event stream.  This way instrumented runs stay
            # event-for-event identical and scrapes land on the first
            # event at-or-after each grid instant.
            tel.scrape(self._now)
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule is empty or the clock passes ``until``."""
        if until is not None and not until >= self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        # The hot loop of every benchmark: locals for the lane and the
        # heap, the observers fused into one None-check each, event
        # dispatch inlined (identical to step(), minus call overhead).
        lane = self._lane
        heap = self._heap
        heappop = heapq.heappop
        getrefcount = sys.getrefcount
        epool = self._epool
        tpool = self._tpool
        tel = self.telemetry
        count = self._event_count
        try:
            while True:
                if lane:
                    event = lane.popleft()
                elif heap:
                    if until is not None and heap[0][0] > until:
                        self._now = until
                        return
                    self._now, _seq, event = heappop(heap)
                else:
                    break
                count += 1
                callbacks = event.callbacks
                event.callbacks = None
                for fn in callbacks:
                    fn(event)
                if not event._ok and not callbacks and not event._defused:
                    raise event._value
                if tel is not None and self._now >= tel.next_scrape_at:
                    tel.scrape(self._now)
                # Recycle the drained event if nothing else references
                # it (refcount 2 = the local + getrefcount's argument).
                cls = event.__class__
                if cls is Event:
                    if len(epool) < _POOL_MAX and getrefcount(event) == 2:
                        epool.append(event)
                elif cls is Timeout:
                    if len(tpool) < _POOL_MAX and getrefcount(event) == 2:
                        tpool.append(event)
        finally:
            self._event_count = count
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._lane:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")
