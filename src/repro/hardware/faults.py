"""Fault-capable hardware: degradable/flappable links.

Real fabrics are not quiet: PCIe lanes retrain at lower widths, IB links
flap, switches drop packets under congestion, and a device can throttle
permanently.  :class:`FaultyLink` is a drop-in :class:`BandwidthLink`
whose effective bandwidth and liveness can be changed *while the
simulation runs*; the fault injector (:mod:`repro.faults`) swaps it in
for the links a :class:`~repro.faults.FaultPlan` targets, so an unarmed
cluster carries zero overhead and byte-identical timing.

Fault delivery is exception-based: a transfer attempted on a dead link
(or one with a pending forced drop) raises a :class:`TransportFault`
subclass.  The transport layer (:mod:`repro.mpi.transport`) catches
these and drives the timeout/backoff/retry path; exhausted retries
surface as :class:`~repro.mpi.transport.TransportTimeout`.
"""

from __future__ import annotations

from ..sim import BandwidthLink

__all__ = ["TransportFault", "LinkDownError", "MessageDropped",
           "FaultyLink"]


class TransportFault(RuntimeError):
    """Base for transient link-level faults (retryable by the transport)."""


class LinkDownError(TransportFault):
    """The link is administratively or physically down (flap window)."""


class MessageDropped(TransportFault):
    """The message was lost on the wire (transient drop)."""


class FaultyLink(BandwidthLink):
    """A :class:`BandwidthLink` with runtime-mutable fault state.

    - :meth:`degrade` divides the effective bandwidth by a factor for as
      long as it stays applied (link retraining / congestion window).
    - :meth:`set_down` makes every new transfer raise
      :class:`LinkDownError` until the link comes back up (link flap).
    - :meth:`drop_next` makes the next *k* transfers raise
      :class:`MessageDropped` (transient packet loss).

    In the pristine state (``slowdown == 1``, up, no pending drops) the
    behaviour and timing are bit-identical to the wrapped link.
    """

    def __init__(self, *args, **kwargs):
        self._slowdown = 1.0
        self._down = False
        self._drops_pending = 0
        self._corrupt_pending = 0
        self._stalled = False
        #: Telemetry: faults actually *hit* by traffic on this link.
        self.drops_served = 0
        self.down_hits = 0
        self.corruptions_served = 0
        self.stall_hits = 0
        super().__init__(*args, **kwargs)

    @classmethod
    def from_link(cls, link: BandwidthLink) -> "FaultyLink":
        """A fresh fault-capable clone of ``link`` (same parameters).

        Intended for arm-time swapping, before any traffic has queued on
        the original; in-flight state is not migrated.
        """
        return cls(link.sim, bandwidth=link.bandwidth, latency=link.latency,
                   name=link.name,
                   per_message_overhead=link.per_message_overhead,
                   jitter=link.jitter)

    # ``BandwidthLink.__init__`` assigns ``self.bandwidth``; routing the
    # assignment through this property keeps the base bandwidth separate
    # from the (mutable) degradation factor.
    @property
    def bandwidth(self) -> float:
        return self._base_bandwidth / self._slowdown

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        self._base_bandwidth = value

    # -- fault controls ----------------------------------------------------
    @property
    def slowdown(self) -> float:
        return self._slowdown

    def degrade(self, factor: float) -> None:
        """Divide effective bandwidth by ``factor`` (>= 1) until restored."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self._slowdown = factor

    def restore(self) -> None:
        """End a degradation window (full bandwidth again)."""
        self._slowdown = 1.0

    def set_down(self, down: bool = True) -> None:
        self._down = bool(down)

    def drop_next(self, count: int = 1) -> None:
        """Force the next ``count`` transfers to be lost on the wire."""
        if count < 0:
            raise ValueError("drop count must be >= 0")
        self._drops_pending += count

    def corrupt_next(self, count: int = 1) -> None:
        """Bit-flip the payload of the next ``count`` transfers.

        Unlike drops, corruption is *not* exception-based: the transfer
        completes normally and delivers flipped bytes — the whole point
        is that only the receive-side checksum can tell.
        """
        if count < 0:
            raise ValueError("corrupt count must be >= 0")
        self._corrupt_pending += count

    @property
    def is_stalled(self) -> bool:
        return self._stalled

    def set_stalled(self, stalled: bool = True) -> None:
        """Stall the link: new transfers park forever (until a watchdog
        breaks the collective).  A cleared stall only affects transfers
        that have not started yet."""
        self._stalled = bool(stalled)

    # -- fault delivery ----------------------------------------------------
    def check_fault(self) -> None:
        """Raise the pending fault, if any (called at transfer start)."""
        if self._down:
            self.down_hits += 1
            raise LinkDownError(f"link {self.name} is down")
        if self._drops_pending:
            self._drops_pending -= 1
            self.drops_served += 1
            raise MessageDropped(f"message dropped on {self.name}")

    def consume_corruption(self) -> bool:
        """Consume one pending payload corruption (no sim time, no
        events).  Called synchronously by the transport at the start of
        each attempt, so a concurrent transfer on another link cannot be
        mis-attributed the flip."""
        if self._corrupt_pending:
            self._corrupt_pending -= 1
            self.corruptions_served += 1
            return True
        return False

    def stall_transfer(self, nbytes: int):
        """Sub-protocol for a transfer hitting a stalled link: park
        forever (until a watchdog interrupts the collective).  Called by
        :meth:`transfer` and by multi-link paths, which bypass
        :meth:`transfer` and compose link parameters directly."""
        self.stall_hits += 1
        self.messages += 1
        self.bytes_moved += nbytes
        yield self.sim.event()  # never fires: parked until interrupted

    def transfer(self, nbytes: int, **kwargs):
        if self._stalled:
            return self.stall_transfer(nbytes)
        self.check_fault()
        return super().transfer(nbytes, **kwargs)
