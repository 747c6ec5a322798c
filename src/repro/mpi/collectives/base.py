"""Shared helpers for collective algorithms.

Tag discipline
--------------
Collectives allocate tags from a reserved space above user tags.  Every
rank keeps a per-communicator collective sequence number; since MPI
requires all ranks to invoke collectives on a communicator in the same
order, equal sequence numbers across ranks identify the same logical
collective.  Each invocation reserves a :class:`TagBlock` sized for the
number of distinct tags it will actually use (chunk count, 2x ring
steps, ...), rounded up to whole ``TAG_BLOCK`` units — so a 256 MB
buffer cut into tiny chunks reserves several units instead of silently
spilling into the next collective's tag space (the pre-harness overflow
bug).  :meth:`TagBlock.tag` is the only way tags leave a block; an
index outside the reservation raises :class:`ProtocolViolation` instead
of cross-matching at scale.

Reduction arithmetic
--------------------
:func:`apply_reduction` charges the profile-appropriate cost: a GPU
kernel for DL-aware runtimes, or a D2H / CPU-sum / H2D round-trip for
host-based runtimes (the MV2/OpenMPI behaviour the paper identifies as
the large-message bottleneck, Section 3.4).
"""

from __future__ import annotations

import functools
from typing import Any, Generator, List, Tuple

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext

__all__ = ["COLL_TAG_BASE", "TAG_BLOCK", "ProtocolViolation", "TagBlock",
           "coll_tags", "coll_tag_base", "as_tag_block", "segments",
           "apply_reduction", "local_accumulate_copy", "traced",
           "validate_knob"]

#: User pt2pt tags must stay below this value.
COLL_TAG_BASE = 1 << 20
#: Tag-reservation granularity: blocks are sized in whole multiples of
#: this, so sequence numbers advance uniformly across ranks even when a
#: collective needs more than one unit.
TAG_BLOCK = 1 << 12


def validate_knob(value, name: str, minimum: int = 1):
    """Validate an explicitly-passed tuning knob (``chunk_bytes``,
    ``window``, ...).

    ``None`` means "use the profile default" and passes through; an
    explicit value must be an integer ``>= minimum``.  Degenerate values
    raise :class:`ValueError` instead of being silently coerced — a
    tuner emitting ``chunk_bytes=0`` must hear about it, not have the
    knob invisibly replaced by the default (the old ``value or default``
    idiom did exactly that).
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be an int >= {minimum} or None, "
            f"got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


class ProtocolViolation(RuntimeError):
    """A collective broke its own wire contract (tag out of reservation,
    mismatched invocation order, ...).  Raised eagerly at the offending
    call site rather than surfacing later as cross-matched payloads."""


class TagBlock:
    """A contiguous reservation of ``count`` collective tags.

    ``tag(k)`` is the only sanctioned way to mint a tag: it bounds-checks
    ``k`` against the reservation, turning would-be tag-space overflows
    (the historical ``tag0 + k`` arithmetic with k unbounded) into an
    immediate :class:`ProtocolViolation`.
    """

    __slots__ = ("base", "count", "name")

    def __init__(self, base: int, count: int, name: str = ""):
        self.base = base
        self.count = count
        self.name = name

    def tag(self, k: int) -> int:
        if not 0 <= k < self.count:
            raise ProtocolViolation(
                f"tag index {k} outside reservation of {self.count} "
                f"for {self.name or 'collective'} (base {self.base:#x})")
        return self.base + k

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TagBlock {self.name or '?'} base={self.base:#x} "
                f"count={self.count}>")


def coll_tags(ctx: RankContext, count: int, name: str = "") -> TagBlock:
    """Reserve ``count`` tags for this collective invocation.

    All ranks calling collectives on a communicator in the same order —
    and computing the same ``count`` from the same arguments — receive
    the same block.  The per-rank sequence number advances by the number
    of ``TAG_BLOCK`` units consumed, so a single jumbo collective (e.g.
    a chain reduce with >4096 chunks) cannot collide with the next one.
    """
    count = max(1, count)
    comm = ctx.comm
    seq = comm._coll_seq[ctx.rank]
    units = -(-count // TAG_BLOCK)
    comm._coll_seq[ctx.rank] = seq + units
    block = TagBlock(COLL_TAG_BASE + seq * TAG_BLOCK, count, name)
    chk = ctx.sim.checker
    if chk is not None:
        chk.on_collective(comm, ctx.rank, seq, block)
    tel = ctx.sim.telemetry
    if tel is not None:
        tel.on_coll_block(comm, ctx.rank, seq, block)
    return block


def coll_tag_base(ctx: RankContext) -> int:
    """Legacy entry point: reserve one unit and return its base tag.

    Kept for external callers that still do raw ``tag0 + k`` arithmetic;
    in-tree collectives use :func:`coll_tags` so indices are checked.
    """
    return coll_tags(ctx, TAG_BLOCK).base


def as_tag_block(tag_base, count: int, name: str = "") -> TagBlock:
    """Adapt a ``tag_base=`` argument (legacy int or TagBlock) to a
    :class:`TagBlock` covering ``count`` tags.

    Ints come from callers that reserved space themselves (or composite
    collectives passing sub-ranges); they are wrapped without a fresh
    reservation and without lockstep registration.
    """
    if isinstance(tag_base, TagBlock):
        return tag_base
    return TagBlock(int(tag_base), max(1, count), name)


def traced(op_name: str):
    """Decorate a collective sub-protocol so that, when a profiler is
    installed, every span recorded while it runs (including by processes
    it spawns) carries ``op=op_name``.

    Zero-cost when profiling is off: the undecorated generator is
    returned unchanged.  Nested collectives (HR calling flat reduces on
    sub-communicators) stack naturally — the innermost tag wins.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(ctx: RankContext, *args, **kwargs):
            gen = fn(ctx, *args, **kwargs)
            rec = ctx.sim.recorder
            if rec is None:
                return gen
            return _op_scope(rec, op_name, gen)
        return wrapper
    return deco


def _op_scope(rec, op_name: str, gen: Generator
              ) -> Generator[Event, Any, Any]:
    # The body only runs at the first next(), inside the driving process
    # — op_push keys the tag to that process.
    proc = rec.op_push(op_name)
    try:
        return (yield from gen)
    finally:
        rec.op_pop(proc)


def segments(nbytes: int, segment: int) -> List[Tuple[int, int]]:
    """Split ``nbytes`` into (offset, length) segments of at most
    ``segment`` bytes — element-aligned as long as ``segment`` is."""
    if nbytes <= 0:
        return [(0, nbytes)] if nbytes == 0 else []
    segment = max(1, segment)
    out = []
    off = 0
    while off < nbytes:
        out.append((off, min(segment, nbytes - off)))
        off += segment
    return out


def apply_reduction(ctx: RankContext, acc: DeviceBuffer,
                    contrib: DeviceBuffer, nbytes: int, *, offset: int = 0,
                    ) -> Generator[Event, Any, None]:
    """``acc[offset:offset+n] += contrib[offset:offset+n]`` with
    profile-appropriate cost and real payload math when present.
    Returns the reduction's generator (no extra frame per resumption)."""
    if ctx.profile.gpu_reduce:
        return ctx.cuda.reduce_kernel(acc, contrib, nbytes, offset=offset)
    return _host_reduction(ctx, acc, contrib, nbytes, offset)


def _host_reduction(ctx: RankContext, acc: DeviceBuffer,
                    contrib: DeviceBuffer, nbytes: int, offset: int,
                    ) -> Generator[Event, Any, None]:
    # The contribution is already host-resident (it arrived through
    # staged transport), and the runtime keeps the accumulator host-side
    # across the algorithm; the charged cost is the CPU sum plus pushing
    # the updated chunk back to the device.
    yield from ctx.cuda.cpu_reduce(ctx.gpu.node_index, acc, contrib,
                                   nbytes, offset=offset)
    yield from ctx.cuda.memcpy_h2d(acc, None, nbytes)


def local_accumulate_copy(ctx: RankContext, dst: DeviceBuffer,
                          src: DeviceBuffer,
                          ) -> Generator[Event, Any, None]:
    """Seed an accumulator: ``dst[:] = src`` on-device (D2D cost)."""
    if dst.nbytes < src.nbytes:
        raise ValueError("accumulator smaller than operand")
    yield from ctx.cuda.memcpy_d2d(ctx.gpu, src.nbytes)
    dst.copy_payload_from(src, nbytes=src.nbytes)
