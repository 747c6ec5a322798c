"""Shared-resource models: serialized links, engines, and stores.

Physical resources in the cluster model (PCIe links, NIC ports, GPU copy
engines, LMDB read locks) are contended.  The canonical contention model
used throughout this repo is *FIFO serialization*: a transfer occupies the
resource for its full duration, and queued requests observe the backlog.
This captures the first-order effect the paper's co-designs exploit
(communication serializes on links; overlap hides it behind compute).

The three classes here are the highest-churn objects in the simulation
after the kernel's own events, so they are ``__slots__``-ed, and the
transport's pipelined staged transfers have a batched fast path
(:func:`pipeline_exit_times`) that computes a K-chunk occupancy schedule
as one NumPy recurrence instead of O(K) request/timeout/release
round-trips.  See ``docs/PERFORMANCE.md`` for when the batched path
disables itself.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Generator, Optional, Sequence

import numpy as np

from .core import Event, PENDING, Simulator

__all__ = ["Resource", "BandwidthLink", "Store", "pipeline_exit_times"]


class Resource:
    """A capacity-limited resource with FIFO grant order.

    Usage (inside a process generator)::

        grant = yield resource.request()
        try:
            yield sim.timeout(duration)
        finally:
            resource.release(grant)

    or use :meth:`use` which packages the pattern.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_queue",
                 "_cancelled", "_busy_since", "_grant_seq", "busy_time")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Event] = deque()
        #: Tombstoned (cancelled) requests still physically in _queue;
        #: they are skipped lazily at hand-off time, so cancel() is O(1)
        #: even under interrupt storms (fault injection).
        self._cancelled: set = set()
        # Telemetry: cumulative busy time (integrated over grants).
        self._busy_since: dict[int, float] = {}
        self._grant_seq = 0
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._queue) - len(self._cancelled)

    @property
    def idle(self) -> bool:
        """True when nothing holds or waits for the resource (the
        precondition for batched schedule fast paths)."""
        return self._in_use == 0 and len(self._queue) == len(self._cancelled)

    def request(self) -> Event:
        """Event triggering with a grant token once capacity is available."""
        ev = self.sim.event()
        if self._in_use < self.capacity:
            # Immediate grant, built directly in the completed-in-place
            # state (equivalent to succeed() with no waiters registered,
            # minus the call): the requester's trampoline consumes it
            # without a scheduler turn.
            self._in_use += 1
            ev._value = self._new_grant()
            ev._scheduled = True
            ev.callbacks = None
        else:
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> Optional[int]:
        """Take a free unit's grant now, or return None when a
        :meth:`request` would queue.

        The inline-grant fast path: an immediate grant costs no
        scheduler turn, so it needs no :class:`Event` and no ``yield``
        either (the trampoline would hand an already-granted request
        straight back through every ``yield from`` frame).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            grant = self._grant_seq = self._grant_seq + 1
            self._busy_since[grant] = self.sim._now
            return grant
        return None

    def release(self, grant: int) -> None:
        start = self._busy_since.pop(grant, None)
        if start is None:
            raise ValueError(f"unknown or already-released grant {grant!r}")
        self.busy_time += self.sim._now - start
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            ev = queue.popleft()
            if cancelled and ev in cancelled:
                cancelled.discard(ev)
                continue
            ev.succeed(self._new_grant())
            return
        self._in_use -= 1

    def cancel(self, request: Event) -> None:
        """Withdraw a ``request()`` whose grant will never be consumed.

        Needed for interrupt cleanup: a process interrupted while queued
        would otherwise leave its request in line, and the grant issued
        to it later would never be released (capacity leak).  If the
        grant was already issued, it is handed straight back.  A queued
        request is tombstoned (O(1)) and skipped at hand-off time rather
        than scanned out of the wait queue.
        """
        if request._value is not PENDING:
            self.release(request._value)
            return
        self._cancelled.add(request)

    def use(self, duration: float, *, kind: str = "use", nbytes: int = 0,
            label: str = "") -> Generator[Event, Any, None]:
        """Sub-protocol: acquire, hold for ``duration``, release.

        Interrupt-safe: an interrupt while queued withdraws the request
        (or returns an already-issued grant) instead of leaking capacity.

        When a profiler is installed the *hold* interval (grant to
        release — queueing time excluded) is recorded as a span of
        ``kind`` on this resource.
        """
        grant = self.try_acquire()
        if grant is None:
            req = self.request()
            try:
                grant = yield req
            except BaseException:
                self.cancel(req)
                raise
        rec = self.sim.recorder
        if rec is None:
            try:
                yield self.sim.timeout(duration)
            finally:
                self.release(grant)
            return
        sid = rec.open(kind, resource=self.name or f"res-{id(self):x}",
                       nbytes=nbytes, label=label)
        try:
            yield self.sim.timeout(duration)
        finally:
            # Close before releasing so the next grantee observes a
            # closed predecessor span at the same instant.
            rec.close(sid)
            self.release(grant)

    def _new_grant(self) -> int:
        grant = self._grant_seq = self._grant_seq + 1
        self._busy_since[grant] = self.sim._now
        return grant

    def _absorb_idle(self, gap: float) -> None:
        """Deduct scheduled idle time from the busy-time integral.

        Used by batched schedule fast paths, which hold the resource
        across the whole train (so foreign arrivals queue behind it)
        but must report the same utilization as the per-chunk path.
        """
        self.busy_time -= gap


def pipeline_exit_times(overheads: Sequence[float],
                        occupancies: np.ndarray,
                        start: float = 0.0) -> np.ndarray:
    """Exit times of K chunks flowing through S serial FIFO stages.

    ``overheads[s]`` is the per-chunk transit cost paid *before*
    requesting stage ``s`` (it overlaps across chunks — e.g. a cudaMemcpy
    launch); ``occupancies[s, k]`` is chunk ``k``'s hold time on stage
    ``s``'s resource.  Chunk ``k`` requests stage ``s`` at
    ``E[k, s-1] + overheads[s]`` and is granted FIFO behind chunk
    ``k - 1``, exactly the schedule the per-chunk event model realizes
    when the stages' resources carry no foreign traffic::

        E[k, s] = max(E[k, s-1] + ovh[s], E[k-1, s]) + occ[s, k]

    ``overheads[s]`` may also be a sequence of delays: the per-chunk
    event model pays them as *successive* timeouts, and float addition
    does not associate, so ``(t + a) + b`` must be reproduced literally
    rather than as ``t + (a + b)``.  For the same reason the recurrence
    runs sequentially over chunks in exact event order (the occupancy
    rows are still built vectorized): the schedule must land on the
    per-chunk times to the last ULP, so batched and per-chunk runs are
    bit-identical, not merely close.  Returns the full exit-time matrix
    ``E`` with shape (S, K).
    """
    occupancies = np.asarray(occupancies, dtype=np.float64)
    n_stages, n_chunks = occupancies.shape
    exits = np.empty_like(occupancies)
    prev = [float(start)] * n_chunks
    for s in range(n_stages):
        occ = occupancies[s].tolist()
        ovh = overheads[s]
        steps = ovh if isinstance(ovh, (tuple, list)) else (ovh,)
        row = exits[s]
        tail = -math.inf
        for k in range(n_chunks):
            r = prev[k]
            for d in steps:
                r += d
            if tail > r:
                r = tail
            tail = r + occ[k]
            row[k] = tail
        prev = row.tolist()
    return exits


class BandwidthLink:
    """A point-to-point link with latency + serialized bandwidth.

    A transfer of ``nbytes`` costs ``latency + nbytes / bandwidth`` of link
    occupancy; concurrent transfers queue FIFO.  This is the LogGP-flavored
    model used for PCIe lanes, IB ports, and NVLink-less GPU peer paths.

    ``per_message_overhead`` models fixed software cost per message (e.g.
    a cudaMemcpy launch or an MPI envelope) paid by the transfer but *not*
    occupying the wire — important for the OpenMPI small-segment pathology
    in Fig. 12.
    """

    __slots__ = ("sim", "bandwidth", "latency", "per_message_overhead",
                 "jitter", "name", "_res", "bytes_moved", "messages")

    #: Fault hook: ``None`` on a healthy link; FaultyLink overrides it
    #: with a method that raises when the link is down or dropping.
    #: A class attribute (not a slot) so the hot multi-link path reads
    #: it with a plain attribute load instead of getattr-with-default.
    check_fault = None

    #: Corruption hook, same pattern: ``None`` on a healthy link;
    #: FaultyLink overrides it with a method that consumes one pending
    #: payload corruption and reports whether the delivery is flipped.
    consume_corruption = None

    def __init__(self, sim: Simulator, *, bandwidth: float, latency: float,
                 name: str = "", per_message_overhead: float = 0.0,
                 jitter: float = 0.0):
        # Written so that NaN fails every check.
        if not bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not (latency >= 0 and per_message_overhead >= 0):
            raise ValueError("latency/overhead must be >= 0")
        if not jitter >= 0:
            raise ValueError("jitter must be >= 0")
        self.sim = sim
        self.bandwidth = bandwidth  # bytes / second
        self.latency = latency      # seconds
        self.per_message_overhead = per_message_overhead
        #: Max fractional service-time noise (active only when the
        #: simulator was built with a noise seed).
        self.jitter = jitter
        self.name = name
        self._res = Resource(sim, capacity=1, name=name)
        self.bytes_moved = 0
        self.messages = 0

    @property
    def busy_time(self) -> float:
        return self._res.busy_time

    def occupancy(self, nbytes: int) -> float:
        """Wire time for a message of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency + nbytes / self.bandwidth

    def transfer(self, nbytes: int, *, kind: str = "xfer",
                 ) -> Generator[Event, Any, None]:
        """Sub-protocol: move ``nbytes`` across the link (queues FIFO)."""
        self.messages += 1
        self.bytes_moved += nbytes
        sim = self.sim
        rec = sim.recorder
        if self.per_message_overhead:
            if rec is not None:
                sid = rec.open("overhead", label=self.name)
                yield sim.timeout(self.per_message_overhead)
                rec.close(sid)
            else:
                yield sim.timeout(self.per_message_overhead)
        duration = self.occupancy(nbytes)
        if self.jitter:
            duration *= sim.jitter_factor(self.jitter)
        res = self._res
        grant = res.try_acquire()
        if grant is None:
            req = res.request()
            try:
                grant = yield req
            except BaseException:
                res.cancel(req)
                raise
        if rec is None:
            try:
                yield sim.timeout(duration)
            finally:
                res.release(grant)
            return
        sid = rec.open(kind, resource=res.name or f"res-{id(res):x}",
                       nbytes=nbytes)
        try:
            yield sim.timeout(duration)
        finally:
            rec.close(sid)
            res.release(grant)

    # -- batched schedule fast path -----------------------------------------
    def train_eligible(self) -> bool:
        """True when a chunk train on this link may be collapsed into one
        precomputed hold: no per-chunk observer (profiler spans), no armed
        jitter draws to replay, no fault plan hooked in, and nothing
        currently holding or queued on the link."""
        return (self.sim.recorder is None
                and (self.sim.rng is None or self.jitter == 0.0)
                and self.check_fault is None
                and self._res.idle)


class Store:
    """A bounded FIFO item store (producer/consumer queue).

    Unlike :class:`repro.sim.sync.Channel`, a Store supports non-blocking
    inspection (``peek``/``__len__``) used by the data-reader free queues.
    """

    __slots__ = ("sim", "capacity", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        self.sim = sim
        self.capacity = capacity
        self._items: deque = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> Any:
        if not self._items:
            raise LookupError("store is empty")
        return self._items[0]

    def put(self, item: Any) -> Event:
        ev = self.sim.event()
        if self._getters:
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
                pev, item = self._putters.popleft()
                self._items.append(item)
                pev.succeed(None)
        elif self._putters:
            pev, item = self._putters.popleft()
            ev.succeed(item)
            pev.succeed(None)
        else:
            self._getters.append(ev)
        return ev
