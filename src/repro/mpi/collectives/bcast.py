"""Broadcast algorithms (blocking and non-blocking).

S-Caffe's data-propagation phase broadcasts the packed parameter buffer
(or, in the SC-OB co-design, one buffer per layer) from the root solver
to all others (Section 4).  The binomial tree is the flat algorithm both
MVAPICH2 and OpenMPI default to at these message counts.
"""

from __future__ import annotations

from typing import Any, Generator

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext
from ..request import Request
from .base import as_tag_block, coll_tags, traced

__all__ = ["bcast_binomial", "bcast_flat", "bcast_scatter_allgather",
           "bcast", "ibcast"]


@traced("bcast.binomial")
def bcast_binomial(ctx: RankContext, buf: DeviceBuffer, root: int = 0,
                   *, tag_base=None) -> Generator[Event, Any, None]:
    """Binomial-tree broadcast: log2(P) rounds, halving the frontier."""
    P = ctx.size
    tags = (coll_tags(ctx, 1, "bcast.binomial") if tag_base is None
            else as_tag_block(tag_base, 1, "bcast.binomial"))
    tag = tags.tag(0)
    if P == 1:
        return
    vrank = (ctx.rank - root) % P

    # Receive once from the parent (unless root).  For the root, the loop
    # exits with ``mask`` = smallest power of two >= P, which is exactly
    # where its forwarding sweep must start.
    mask = 1
    while mask < P:
        if vrank & mask:
            parent = ((vrank - mask) + root) % P
            yield ctx.irecv(parent, buf, tag=tag).wait()
            break
        mask <<= 1

    # Forward to children below the received bit.
    mask >>= 1
    sends = []
    while mask > 0:
        if vrank & mask == 0 and vrank + mask < P:
            child = ((vrank + mask) + root) % P
            sends.append(ctx.isend(child, buf, tag=tag))
        mask >>= 1
    for req in sends:
        yield req.wait()


@traced("bcast.flat")
def bcast_flat(ctx: RankContext, buf: DeviceBuffer, root: int = 0,
               ) -> Generator[Event, Any, None]:
    """Naive linear broadcast (root sends to everyone) — the pattern a
    parameter-server master exhibits; kept as a baseline/ablation."""
    P = ctx.size
    tag = coll_tags(ctx, 1, "bcast.flat").tag(0)
    if P == 1:
        return
    if ctx.rank == root:
        reqs = [ctx.isend(dst, buf, tag=tag)
                for dst in range(P) if dst != root]
        for r in reqs:
            yield r.wait()
    else:
        yield from ctx.recv(root, buf, tag=tag)


@traced("bcast.sag")
def bcast_scatter_allgather(ctx: RankContext, buf: DeviceBuffer,
                            root: int = 0) -> Generator[Event, Any, None]:
    """van de Geijn broadcast: binomial scatter + ring allgather.

    Moves ~2B bytes per rank instead of the binomial's B*log2(P) — the
    large-message algorithm real MVAPICH2/OpenMPI switch to.  Requires
    a 4-byte-aligned buffer (block partitioning).
    """
    from .gather_scatter import allgather_ring, scatter_binomial
    if ctx.size == 1:
        return
    yield from scatter_binomial(ctx, buf, root)
    yield from allgather_ring(ctx, buf)


_ALGORITHMS = {
    "binomial": bcast_binomial,
    "flat": bcast_flat,
    "scatter_allgather": bcast_scatter_allgather,
}


def bcast(ctx: RankContext, buf: DeviceBuffer, root: int = 0,
          *, algorithm: str = "binomial") -> Generator[Event, Any, None]:
    """Blocking MPI_Bcast."""
    try:
        algo = _ALGORITHMS[algorithm]
    except KeyError:
        raise KeyError(f"unknown bcast algorithm {algorithm!r}")
    yield from algo(ctx, buf, root)


def ibcast(ctx: RankContext, buf: DeviceBuffer, root: int = 0) -> Request:
    """Non-blocking MPI_Ibcast.

    Under runtimes with asynchronous progression the broadcast advances in
    the background immediately (this is the property SC-OB exploits,
    Section 4.2).  Without async progress the work only happens inside
    the matching ``wait()`` — the behaviour that makes naive NBC designs
    degrade.
    """
    req = Request(ctx.sim, label=f"ibcast root={root} r{ctx.rank}")
    # Reserve at call time (all ranks call ibcast in order), then hand the
    # block to the deferred/async body so it skips its own reservation.
    tags = coll_tags(ctx, 1, "bcast.binomial")

    def run():
        try:
            yield from bcast_binomial(ctx, buf, root, tag_base=tags)
        except Exception as exc:
            # Deliver failures (revocation, dead peer, transport
            # timeout) through the request; an unwaited failed process
            # would crash the simulation instead.
            req.fail(exc)
            return
        req.complete(None)

    if ctx.profile.async_progress:
        ctx.sim.process(run(), name=f"ibcast.r{ctx.rank}", eager=True)
    else:
        def deferred():
            ctx.sim.process(run(), name=f"ibcast.r{ctx.rank}", eager=True)
        req._on_wait = deferred
    return req
