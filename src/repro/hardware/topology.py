"""Link-path composition helpers.

Transfers that traverse several physical links (e.g. a GPUDirect-RDMA
message: source PCIe -> source NIC -> fabric -> dest NIC -> dest PCIe)
hold every link for the duration of the cut-through transfer.  Links are
acquired in a globally consistent order (by name) so concurrent multi-link
transfers cannot deadlock.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from ..sim import BandwidthLink, Event, SimulationError, Simulator

__all__ = ["cut_through_time", "multi_link_transfer", "LinkHold"]


def cut_through_time(links: Sequence[BandwidthLink], nbytes: int) -> float:
    """Cut-through duration: sum of latencies + serialization on the
    narrowest link."""
    if not links:
        raise ValueError("need at least one link")
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    lat = sum(l.latency for l in links)
    bw = min(l.bandwidth for l in links)
    return lat + nbytes / bw


def _unique_by_name(links: Sequence[BandwidthLink]) -> list:
    """The physical links of a path, deduplicated, in the global
    acquisition order (by name)."""
    if len(links) == 2:
        # Dominant case (PCIe pair, NIC tx/rx): dedup + name-sort inline.
        a, b = links
        if a is b:
            return [a]
        return [a, b] if a.name <= b.name else [b, a]
    uniq = []
    seen = set()
    for l in links:
        if id(l) not in seen:
            seen.add(id(l))
            uniq.append(l)
    uniq.sort(key=lambda l: l.name)
    return uniq


def _hold_time(sim: Simulator, links: Sequence[BandwidthLink], nbytes: int,
               extra_time: float) -> float:
    """Cut-through hold duration, jitter drawn (NB the latency sum and
    bottleneck bandwidth are over ``links``, duplicates counted, matching
    :func:`cut_through_time`; jitter is per physical link)."""
    jitter = 0.0
    lat = 0.0
    bw = None
    for l in links:
        lat += l.latency
        lbw = l.bandwidth
        if bw is None or lbw < bw:
            bw = lbw
        if l.jitter > jitter:
            jitter = l.jitter
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    duration = lat + nbytes / bw
    if jitter:
        duration *= sim.jitter_factor(jitter)
    return duration + extra_time


def multi_link_transfer(sim: Simulator, links: Sequence[BandwidthLink],
                        nbytes: int, *, extra_time: float = 0.0,
                        kind: str = "xfer",
                        ) -> Generator[Event, Any, None]:
    """Sub-protocol: hold all ``links`` simultaneously for the cut-through
    duration (+ ``extra_time`` of fixed software overhead on the wire).

    Duplicate links in the path (loopback-style transfers) are collapsed
    to a single acquisition.

    Fault semantics: any :class:`~repro.hardware.faults.FaultyLink` on
    the path is checked up front — a down link or a pending forced drop
    raises before any wire is held, so the transport retry path observes
    a clean failure; a stalled link parks the transfer forever (watchdog
    territory).  Interrupt-safe: an interrupt while queued on a
    link withdraws the pending request instead of leaking the grant.
    A free link's grant is taken inline (no event, no yield).
    """
    if not links:
        raise ValueError("need at least one link")
    uniq = _unique_by_name(links)
    for l in uniq:
        check = l.check_fault
        if check is not None:
            check()
            if l.is_stalled:
                # Stalled link: the transfer parks forever instead of
                # failing fast — only a watchdog interrupt releases it.
                yield from l.stall_transfer(nbytes)
    duration = _hold_time(sim, links, nbytes, extra_time)
    grants = []
    sid = None
    rec = sim.recorder
    try:
        for l in uniq:
            res = l._res
            grant = res.try_acquire()
            if grant is None:
                req = res.request()
                try:
                    grant = yield req
                except BaseException:
                    res.cancel(req)
                    raise
            grants.append((l, grant))
            l.messages += 1
            l.bytes_moved += nbytes
        if rec is not None:
            # One span holding every link, led by the bottleneck link so
            # class attribution (ib vs pcie) follows the narrowest hop.
            narrow = min(uniq, key=lambda l: (l.bandwidth, l.name))
            names = [narrow.name] + [l.name for l in uniq if l is not narrow]
            sid = rec.open(kind, resources=tuple(names), nbytes=nbytes)
        yield sim.timeout(duration)
    finally:
        if sid is not None:
            # Close before releasing: successors granted at this instant
            # must see a closed predecessor.
            rec.close(sid)
        for l, grant in grants:
            l._res.release(grant)


class LinkHold:
    """One cut-through hold driven by event callbacks, not a process.

    Does what ``yield from multi_link_transfer(...)`` does inside a
    process, step for step: draw the hold duration, acquire the path's
    links in name order (inline when free, else from a callback on the
    queued request), hold them, release the grants in acquisition order,
    then call ``on_done(self)``.  Same events, same sequence numbers,
    same link counters — minus the process, its generator stack and its
    trampoline.  ``links=()`` is a plain timed hold of ``extra_time``
    (a same-device copy).

    Only for paths :meth:`eligible` accepts: no profiler (no span to
    open) and no fault hook on any link (nothing to check, nothing to
    retry).  :meth:`interrupt` mirrors
    :meth:`repro.sim.Process.interrupt`: one URGENT interrupt event,
    which withdraws a queued request and releases the held grants.
    """

    __slots__ = ("sim", "_links", "_nbytes", "_duration", "_on_done",
                 "_grants", "_wait", "_alive")

    def __init__(self, sim: Simulator, links: Sequence[BandwidthLink],
                 nbytes: int, extra_time: float,
                 on_done: Callable[["LinkHold"], None]):
        self.sim = sim
        self._links = _unique_by_name(links)
        self._nbytes = nbytes
        self._duration = (_hold_time(sim, links, nbytes, extra_time)
                          if links else extra_time)
        self._on_done = on_done
        self._grants: list = []
        #: The event this hold waits on (a queued request, then the hold
        #: timeout); None once its callback ran.
        self._wait: Optional[Event] = None
        self._alive = True
        self._acquire()

    @staticmethod
    def eligible(sim: Simulator, links: Sequence[BandwidthLink]) -> bool:
        """True when a hold over ``links`` may run as a LinkHold."""
        if sim.recorder is not None:
            return False
        for l in links:
            if l.check_fault is not None:
                return False
        return True

    @property
    def is_alive(self) -> bool:
        return self._alive

    def _acquire(self) -> None:
        """Take the links not yet held, in order, then post the hold."""
        grants = self._grants
        nbytes = self._nbytes
        for l in self._links[len(grants):]:
            res = l._res
            grant = res.try_acquire()
            if grant is None:
                req = res.request()
                req.callbacks.append(self._granted)
                self._wait = req
                return
            grants.append((l, grant))
            l.messages += 1
            l.bytes_moved += nbytes
        t = self.sim.timeout(self._duration)
        t.callbacks.append(self._expire)
        self._wait = t

    def _granted(self, req: Event) -> None:
        self._wait = None
        l = self._links[len(self._grants)]
        self._grants.append((l, req._value))
        l.messages += 1
        l.bytes_moved += self._nbytes
        self._acquire()

    def _expire(self, _t: Event) -> None:
        self._wait = None
        self._alive = False
        for l, grant in self._grants:
            l._res.release(grant)
        self._on_done(self)

    def interrupt(self, cause: Any = None) -> None:
        """Abort the hold at the current time (communicator revocation)."""
        if not self._alive:
            raise SimulationError(f"{self!r} already finished")
        # The waited-on event carries only this hold's callback.
        self._wait.callbacks.clear()
        self.sim._push_interrupt(self._interrupted, cause)

    def _interrupted(self, _ev: Event) -> None:
        self._alive = False
        grants = self._grants
        if len(grants) < len(self._links):
            # Queued on the next link: withdraw the request (or hand
            # back a grant issued since).
            self._links[len(grants)]._res.cancel(self._wait)
        self._wait = None
        for l, grant in grants:
            l._res.release(grant)
