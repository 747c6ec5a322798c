"""Communicators, rank contexts, and the point-to-point engine.

Rank programs are SPMD generators: the runtime runs one sim process per
rank, and each process calls ``yield from`` on collective/pt2pt
sub-protocols with its own :class:`RankContext`.  Matching follows MPI
semantics — per-communicator FIFO matching on ``(source, tag)`` with
``ANY_SOURCE``/``ANY_TAG`` wildcards, eager completion for small messages
and rendezvous for large ones.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..cuda import CudaRuntime, DeviceBuffer
from ..hardware.gpu import GPUDevice
from ..hardware.topology import LinkHold
from ..sim import Barrier, Event, Interrupt, Simulator
from .failure import CommRevoked, RankFailure
from .profiles import MPIProfile
from .request import ANY_SOURCE, ANY_TAG, Request
from .transport import TransportTimeout

__all__ = ["Communicator", "RankContext", "MessageStatus"]


class MessageStatus(NamedTuple):
    """Receive-completion status (matched envelope)."""

    source: int
    tag: int
    nbytes: int


class _PendingSend:
    __slots__ = ("src_rank", "tag", "buf", "offset", "nbytes", "request",
                 "eager", "snapshot")

    def __init__(self, src_rank: int, tag: int, buf: DeviceBuffer,
                 offset: int, nbytes: int, request: Request, eager: bool,
                 snapshot: Optional[np.ndarray] = None):
        self.src_rank = src_rank
        self.tag = tag
        self.buf = buf
        self.offset = offset
        self.nbytes = nbytes
        self.request = request
        self.eager = eager
        # Eager sends complete locally before the transfer runs, so the
        # payload must be captured at send time (the caller may legally
        # reuse the buffer once the request completes).
        self.snapshot = snapshot


class _PostedRecv:
    __slots__ = ("source", "tag", "buf", "offset", "max_nbytes", "request")

    def __init__(self, source: int, tag: int, buf: DeviceBuffer,
                 offset: int, max_nbytes: int, request: Request):
        self.source = source
        self.tag = tag
        self.buf = buf
        self.offset = offset
        self.max_nbytes = max_nbytes
        self.request = request


def _complete(send: _PendingSend, recv: _PostedRecv) -> None:
    """Complete a matched pair once its bytes have landed.  Revocation
    may have failed the requests while the bytes were in flight;
    completion is then a no-op."""
    status = MessageStatus(send.src_rank, send.tag, send.nbytes)
    if not send.eager and not send.request.completed:
        send.request.complete(status)
    if not recv.request.completed:
        recv.request.complete(status)


class Communicator:
    """A group of ranks mapped onto GPUs, with its own matching space.

    Sub-communicators created by :meth:`split` translate their local rank
    numbering onto the parent's GPUs; the HR designs build their
    multi-level communicators this way (Section 5).
    """

    _ids = itertools.count()

    def __init__(self, runtime: "MPIRuntime", gpus: List[GPUDevice],
                 name: str = "world"):
        if not gpus:
            raise ValueError("communicator needs at least one rank")
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.gpus = list(gpus)
        self.name = name
        self.id = next(self._ids)
        # Per-destination-rank matching state.
        self._unexpected: Dict[int, deque] = {
            r: deque() for r in range(len(gpus))}
        self._posted: Dict[int, deque] = {
            r: deque() for r in range(len(gpus))}
        self._barrier = Barrier(self.sim, len(gpus))
        # Collective sequence numbers (tag reservations); pre-created so
        # the per-collective hot path skips the lazy-init hasattr.
        self._coll_seq = [0] * len(gpus)
        self._revoked: Optional[BaseException] = None
        self._shrunk: Dict[Tuple[int, ...], "Communicator"] = {}
        # Matched pairs whose transfer is in flight (mover process or
        # callback transfer -> (send, recv)).  Queued operations live in
        # _posted/_unexpected; once matched they exist only here, and
        # revoke() must fail them too — a transfer parked on a stalled link never completes on
        # its own, and ULFM revocation promises *every* pending
        # operation errors out.
        self._inflight: Dict[Any, Tuple[_PendingSend, _PostedRecv]] = {}
        # Member GPU -> rank (first occurrence), and the one cached
        # RankContext per member GPU that sub_context hands out; both
        # built on first use.
        self._rank_of: Optional[Dict[GPUDevice, int]] = None
        self._contexts: Dict[GPUDevice, "RankContext"] = {}
        # tuned_reduce's resolved designs (see collectives.tuning).
        self._reduce_designs: Dict[tuple, tuple] = {}
        runtime.failure_detector.register_comm(self)

    @property
    def size(self) -> int:
        return len(self.gpus)

    @property
    def revoked(self) -> bool:
        return self._revoked is not None

    # -- fault tolerance (ULFM flavour) ------------------------------------
    def revoke(self, exc: BaseException) -> None:
        """Invalidate the communicator after a rank failure.

        Every posted receive and pending (non-eager) send fails with
        :class:`CommRevoked`, the barrier is broken, and all future
        pt2pt entry calls fail fast — survivors blocked on a dead peer
        unwind into their recovery path instead of deadlocking.
        Idempotent.
        """
        if self._revoked is not None:
            return
        wrapped = CommRevoked(f"communicator {self.name} revoked ({exc})")
        wrapped.__cause__ = exc
        self._revoked = wrapped
        for q in self._posted.values():
            for recv in q:
                if not recv.request.completed:
                    recv.request.fail(wrapped)
            q.clear()
        for q in self._unexpected.values():
            for send in q:
                if not send.eager and not send.request.completed:
                    send.request.fail(wrapped)
            q.clear()
        # Matched pairs mid-transfer: fail their requests and interrupt
        # the mover process or callback transfer — a transfer parked on
        # a stalled link would otherwise hold its receiver hostage
        # forever, invisible to the queue sweeps above.
        for xfer, (send, recv) in list(self._inflight.items()):
            if not send.eager and not send.request.completed:
                send.request.fail(wrapped)
            if not recv.request.completed:
                recv.request.fail(wrapped)
            if xfer.is_alive:
                xfer.interrupt(wrapped)
        self._inflight.clear()
        self._barrier.abort(wrapped)

    def shrink(self) -> "Communicator":
        """A communicator over the surviving ranks (MPIX_Comm_shrink).

        Survivor order follows this communicator's rank order, so every
        caller derives the same numbering.  Results are cached by
        membership: concurrent recovery on all survivors agrees on one
        replacement communicator.  Returns ``self`` when nothing died
        and the communicator is not revoked.
        """
        det = self.runtime.failure_detector
        alive = [r for r, g in enumerate(self.gpus) if not det.is_dead(g)]
        if len(alive) == self.size and self._revoked is None:
            return self
        if not alive:
            raise RankFailure(f"communicator {self.name}: no survivors")
        key = tuple(alive)
        cached = self._shrunk.get(key)
        if cached is not None and not cached.revoked:
            return cached
        sub = self.split(alive, name=f"{self.name}~{len(alive)}")
        self._shrunk[key] = sub
        return sub

    def gpu_of(self, rank: int) -> GPUDevice:
        return self.gpus[rank]

    def context(self, rank: int) -> "RankContext":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return RankContext(self, rank)

    def split(self, members: List[int], name: str = "") -> "Communicator":
        """Sub-communicator over ``members`` (parent rank ids, ordered).

        The member at position *i* becomes rank *i* of the new
        communicator (MPI_Comm_split with explicit ordering).
        """
        if len(set(members)) != len(members):
            raise ValueError("duplicate ranks in split")
        gpus = [self.gpus[r] for r in members]
        return Communicator(self.runtime, gpus,
                            name=name or f"{self.name}.split{len(members)}")

    # -- matching engine ------------------------------------------------------
    def _match_recv(self, dst: int, recv: _PostedRecv) -> Optional[_PendingSend]:
        q = self._unexpected[dst]
        for i, send in enumerate(q):
            if ((recv.source in (ANY_SOURCE, send.src_rank))
                    and (recv.tag in (ANY_TAG, send.tag))):
                del q[i]
                return send
        return None

    def _match_send(self, dst: int, send: _PendingSend) -> Optional[_PostedRecv]:
        q = self._posted[dst]
        for i, recv in enumerate(q):
            if ((recv.source in (ANY_SOURCE, send.src_rank))
                    and (recv.tag in (ANY_TAG, send.tag))):
                del q[i]
                return recv
        return None

    def _start_transfer(self, send: _PendingSend, recv: _PostedRecv,
                        dst_rank: int) -> None:
        if send.nbytes > recv.max_nbytes:
            exc = RuntimeError(
                f"message truncation: {send.nbytes} > {recv.max_nbytes} "
                f"(comm {self.name}, {send.src_rank}->{dst_rank}, "
                f"tag {send.tag})")
            recv.request.fail(exc)
            if not send.eager:
                send.request.fail(exc)
            return

        # Single-hold paths come back as a started callback transfer
        # (completed by _transfer_done); everything else as the
        # transport generator, which a mover process drives.  The
        # eager-send snapshot rides down as the transfer's payload so
        # delivery (and the integrity verify) happen in one place,
        # inside the transport.
        xfer = self.runtime.transport.transfer(
            send.buf, recv.buf, send.nbytes, src_offset=send.offset,
            dst_offset=recv.offset, payload=send.snapshot,
            on_done=self._transfer_done)
        if isinstance(xfer, LinkHold):
            self._inflight[xfer] = (send, recv)
            return

        # Registration cell: filled after the (eager) spawn returns, so
        # a mover that somehow finishes inline deregisters a no-op.
        hold: List[Any] = []

        def mover():
            try:
                yield from xfer
            except TransportTimeout as exc:
                # Deliver through the requests instead of crashing the
                # simulation from an unwaited mover process.
                if not send.eager and not send.request.completed:
                    send.request.fail(exc)
                if not recv.request.completed:
                    recv.request.fail(exc)
                return
            except Interrupt:
                # Revocation killed this in-flight transfer (it may be
                # parked on a stalled link and would never finish on its
                # own); revoke() already failed both requests.
                return
            finally:
                if hold:
                    self._inflight.pop(hold[0], None)
            _complete(send, recv)

        # Eager: the mover runs inline to its first link hold / wire
        # timeout, skipping the spawn kick (it touches only the
        # transfer's own links, and completion always crosses at least
        # one timeout, so the caller never observes a finished request
        # out of thin air).
        proc = self.sim.process(mover(), name=f"{self.name}.xfer",
                                eager=True)
        if proc.is_alive:
            hold.append(proc)
            self._inflight[proc] = (send, recv)

    def _transfer_done(self, xfer: LinkHold) -> None:
        """Completion of a callback transfer (registered in _inflight
        before its first timeout could fire; revocation interrupts it
        instead of letting it finish)."""
        send, recv = self._inflight.pop(xfer)
        _complete(send, recv)

    # -- pt2pt entry points ------------------------------------------------------
    def isend(self, src_rank: int, dst_rank: int, buf: DeviceBuffer,
              *, tag: int = 0, offset: int = 0,
              nbytes: Optional[int] = None) -> Request:
        if not 0 <= dst_rank < len(self.gpus):
            raise ValueError(f"bad destination rank {dst_rank}")
        if tag < 0:
            raise ValueError("send tag must be >= 0")
        n = buf.nbytes - offset if nbytes is None else nbytes
        chk = self.sim.checker
        if chk is not None:
            chk.on_send(self, src_rank, dst_rank, tag, n)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_send(self, tag, n)
        # Tuple label: formatted only if an error message needs it.
        req = Request(self.sim, label=("isend", src_rank, dst_rank, tag))
        if self._revoked is not None:
            req.fail(self._revoked)
            return req
        det = self.runtime.failure_detector
        if det.any_dead() and det.is_dead(self.gpus[dst_rank]):
            req.fail(RankFailure(
                f"send to dead rank {dst_rank} on {self.name}"))
            return req
        profile = self.runtime.profile
        eager = n <= profile.eager_threshold
        snapshot = None
        if eager and buf.has_data:
            snapshot = buf.data.view(np.uint8)[offset:offset + n].copy()
        send = _PendingSend(src_rank, tag, buf, offset, n, req, eager,
                            snapshot)
        if eager:
            # Sender-side completion is local: inject-and-forget.  A bare
            # timeout callback (no process) keeps this off the scheduler's
            # hot path — one event instead of a kick + resume pair.
            def eager_complete(_t):
                if not req.completed:  # revocation may beat us here
                    req.complete(MessageStatus(src_rank, tag, n))
            self.sim.timeout(
                self.runtime.cal.mpi_message_overhead
            ).add_callback(eager_complete)
        recv = self._match_send(dst_rank, send)
        if recv is not None:
            self._start_transfer(send, recv, dst_rank)
        else:
            self._unexpected[dst_rank].append(send)
            if tel is not None:
                tel.on_queue_depth("unexpected",
                                   len(self._unexpected[dst_rank]))
        return req

    def irecv(self, dst_rank: int, source: int, buf: DeviceBuffer,
              *, tag: int = ANY_TAG, offset: int = 0,
              nbytes: Optional[int] = None) -> Request:
        if source != ANY_SOURCE and not 0 <= source < len(self.gpus):
            raise ValueError(f"bad source rank {source}")
        n = buf.nbytes - offset if nbytes is None else nbytes
        chk = self.sim.checker
        if chk is not None:
            chk.on_recv_post(self, dst_rank, source, tag, n)
        req = Request(self.sim, label=("irecv", source, dst_rank, tag))
        if self._revoked is not None:
            req.fail(self._revoked)
            return req
        det = self.runtime.failure_detector
        if (source != ANY_SOURCE and det.any_dead()
                and det.is_dead(self.gpus[source])):
            req.fail(RankFailure(
                f"recv from dead rank {source} on {self.name}"))
            return req
        recv = _PostedRecv(source, tag, buf, offset, n, req)
        send = self._match_recv(dst_rank, recv)
        if send is not None:
            self._start_transfer(send, recv, dst_rank)
        else:
            self._posted[dst_rank].append(recv)
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_queue_depth("posted", len(self._posted[dst_rank]))
        return req


class RankContext:
    """Everything a rank program needs: identity, pt2pt, scratch memory."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank
        #: The communicator's size (its membership never changes).
        self.size: int = comm.size
        self.sim: Simulator = comm.sim
        self.gpu: GPUDevice = comm.gpu_of(rank)
        self.runtime: "MPIRuntime" = comm.runtime
        self.cuda: CudaRuntime = comm.runtime.cuda
        self.profile: MPIProfile = comm.runtime.profile

    # -- pt2pt (bound to this rank) --------------------------------------------
    def isend(self, dst: int, buf: DeviceBuffer, *, tag: int = 0,
              offset: int = 0, nbytes: Optional[int] = None) -> Request:
        return self.comm.isend(self.rank, dst, buf, tag=tag, offset=offset,
                               nbytes=nbytes)

    def irecv(self, source: int, buf: DeviceBuffer, *, tag: int = ANY_TAG,
              offset: int = 0, nbytes: Optional[int] = None) -> Request:
        return self.comm.irecv(self.rank, source, buf, tag=tag,
                               offset=offset, nbytes=nbytes)

    def send(self, dst: int, buf: DeviceBuffer, **kw
             ) -> Generator[Event, Any, Any]:
        req = self.isend(dst, buf, **kw)
        result = yield req.wait()
        return result

    def recv(self, source: int, buf: DeviceBuffer, **kw
             ) -> Generator[Event, Any, Any]:
        req = self.irecv(source, buf, **kw)
        result = yield req.wait()
        return result

    def barrier(self) -> Generator[Event, Any, None]:
        """Synchronize all ranks of the communicator.

        Charged a dissemination-style latency of ceil(log2(P)) network
        hops on top of the rendezvous.
        """
        import math
        hops = max(1, math.ceil(math.log2(max(2, self.size))))
        rec = self.sim.recorder
        if rec is None:
            yield self.sim.timeout(hops * self.runtime.cal.ib_latency)
            yield self.comm._barrier.arrive()
            return
        sid = rec.open("overhead", label=f"{self.comm.name}.barrier.hops")
        yield self.sim.timeout(hops * self.runtime.cal.ib_latency)
        rec.close(sid)
        # The wait-for-last-arrival interval is attributed explicitly so
        # barrier skew shows up as "barrier", not an anonymous gap.
        sid = rec.open("barrier", label=self.comm.name)
        try:
            yield self.comm._barrier.arrive()
        finally:
            rec.close(sid)

    # -- scratch device memory -----------------------------------------------------
    def scratch_like(self, buf: DeviceBuffer, name: str = "scratch"
                     ) -> DeviceBuffer:
        """Temporary device buffer shaped like ``buf`` (payload iff buf has
        payload), on this rank's GPU."""
        if buf.has_data:
            out = DeviceBuffer(self.gpu, buf.nbytes,
                               np.zeros_like(buf.data), name=name)
        else:
            out = DeviceBuffer(self.gpu, buf.nbytes, name=name)
        chk = self.sim.checker
        if chk is not None:
            # Scratch must be freed by the collective that allocated it;
            # user buffers (allocated directly) may legitimately outlive
            # the run, so only these are leak-checked.
            chk.on_scratch(out)
        return out

    def sub_context(self, comm: Communicator) -> Optional["RankContext"]:
        """This rank's context in a sub-communicator (None if not a member).

        Membership is by GPU identity, which is unambiguous because a GPU
        hosts exactly one rank in this runtime.  The context is cached
        per (communicator, GPU) and rebuilt only after a profile swap:
        a context snapshots the runtime profile when created, so the
        cached one must still carry the current profile.
        """
        gpu = self.gpu
        ctx = comm._contexts.get(gpu)
        if ctx is not None and ctx.profile is comm.runtime.profile:
            return ctx
        ranks = comm._rank_of
        if ranks is None:
            ranks = comm._rank_of = {}
            for r, g in enumerate(comm.gpus):
                ranks.setdefault(g, r)
        r = ranks.get(gpu)
        if r is None:
            return None
        ctx = comm._contexts[gpu] = RankContext(comm, r)
        return ctx
