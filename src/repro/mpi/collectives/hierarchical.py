"""Hierarchical DL-Aware Reduce (HR) — Section 5.

A two-level communicator design: ranks are grouped into *chains* of
``chain_size`` consecutive ranks (a lower-level communicator may span
nodes — the whole point of the design on 2–4 GPU/node systems); chain
leaders form the upper-level communicator.  The reduction runs the lower
level first (chunked chain, pipelined), then the upper level among
leaders (binomial tree or another chain):

- ``CB-k`` — lower chain of size *k*, upper binomial ("chain-binomial").
- ``CC-k`` — chain at both levels ("chain-of-chains"); scales to ~k*k.

Sub-communicators are cached on the parent communicator: they carry the
matching state shared by all member ranks, so every rank of a given
collective must observe the *same* objects.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import Communicator, RankContext
from .base import local_accumulate_copy, traced, validate_knob
from .reduce import reduce_binomial, reduce_chain

__all__ = ["hierarchical_reduce", "hr_plan", "HRConfig", "parse_hr_config"]


class HRConfig:
    """A parsed HR configuration, e.g. ``CB-8``, ``CC-4``, or ``CCB-8``.

    ``levels`` are algorithm names ("chain"/"binomial") from the bottom
    (intra-group) level upward; ``chain_size`` is the group size at each
    split (the paper's *chain-size* runtime parameter).  Two levels give
    the paper's evaluated designs; three or more realize its stated
    extension: *"in future, we can exploit multi-level combinations like
    chain-of-chain combined with a top level binomial for very large
    scale reductions"* (Section 5) — e.g. ``CCB-8``.
    """

    def __init__(self, levels, chain_size: int):
        levels = tuple(levels)
        if len(levels) < 2:
            raise ValueError("an HR config needs at least two levels")
        for algo in levels:
            if algo not in ("chain", "binomial"):
                raise ValueError(f"bad level algorithm {algo!r}")
        if chain_size < 2:
            raise ValueError("chain_size must be >= 2")
        self.levels = levels
        self.chain_size = chain_size

    @property
    def lower(self) -> str:
        """Bottom-level algorithm (two-level compatibility)."""
        return self.levels[0]

    @property
    def upper(self) -> str:
        """Top-level algorithm (two-level compatibility)."""
        return self.levels[-1]

    @property
    def label(self) -> str:
        code = {"chain": "C", "binomial": "B"}
        return ("".join(code[a] for a in self.levels)
                + f"-{self.chain_size}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"HRConfig({self.label})"


def parse_hr_config(label: str) -> HRConfig:
    """Parse labels: ``CB-8`` (chain lower, binomial upper, chain-size
    8), ``CC-4``, or multi-level ``CCB-8`` (chain-of-chain + binomial
    top)."""
    try:
        algos, size = label.strip().upper().split("-")
        names = {"C": "chain", "B": "binomial"}
        levels = tuple(names[ch] for ch in algos)
        return HRConfig(levels, int(size))
    except (ValueError, KeyError, IndexError):
        raise ValueError(f"cannot parse HR config label {label!r}") from None


def hr_plan(comm: Communicator, root: int, chain_size: int
            ) -> Tuple[List[Communicator], Communicator, List[int]]:
    """Build (and cache) the two-level communicator structure.

    Ranks are rotated so the global root leads group 0; groups are
    consecutive blocks of ``chain_size`` ranks; block leaders form the
    upper communicator with the global root at upper-rank 0.

    Returns ``(lower_comms, upper_comm, leaders)`` where ``leaders`` are
    parent-rank ids.
    """
    cache = getattr(comm, "_hr_cache", None)
    if cache is None:
        cache = comm._hr_cache = {}
    key = (root, chain_size)
    if key in cache:
        return cache[key]

    order = [(root + i) % comm.size for i in range(comm.size)]
    groups = [order[i:i + chain_size]
              for i in range(0, comm.size, chain_size)]
    lower_comms = [comm.split(g, name=f"hr.lower{gi}")
                   for gi, g in enumerate(groups)]
    leaders = [g[0] for g in groups]
    upper_comm = comm.split(leaders, name="hr.upper")
    cache[key] = (lower_comms, upper_comm, leaders)
    return cache[key]


def _flat(ctx: RankContext, algo_name: str, sendbuf, recvbuf, root,
          chunk_bytes) -> Generator[Event, Any, None]:
    # Returns the algorithm's generator: no extra frame per resumption.
    if algo_name == "chain":
        return reduce_chain(ctx, sendbuf, recvbuf, root,
                            chunk_bytes=chunk_bytes)
    return reduce_binomial(ctx, sendbuf, recvbuf, root)


def _multilevel(ctx: RankContext, sendbuf: DeviceBuffer,
                recvbuf: Optional[DeviceBuffer], root: int, levels,
                chain_size: int, chunk_bytes: Optional[int],
                ) -> Generator[Event, Any, None]:
    """One recursion step: split into chains, reduce to leaders, recurse
    over the leader communicator with the remaining levels."""
    comm = ctx.comm
    if comm.size == 1:
        if recvbuf is not None and recvbuf is not sendbuf:
            yield from local_accumulate_copy(ctx, recvbuf, sendbuf)
        return
    if len(levels) == 1 or comm.size <= chain_size:
        # Last level, or too few ranks to split further: run the
        # bottom-most remaining algorithm flat.
        algo = levels[0] if comm.size <= chain_size else levels[-1]
        yield from _flat(ctx, algo, sendbuf, recvbuf, root, chunk_bytes)
        return

    lower_comms, upper_comm, leaders = hr_plan(comm, root, chain_size)

    # --- this level: reduce within my chain to its leader ------------------
    my_lower = None
    for lc in lower_comms:
        sub = ctx.sub_context(lc)
        if sub is not None:
            my_lower = sub
            break
    assert my_lower is not None, "rank missing from HR plan"

    i_am_leader = my_lower.rank == 0
    # Leaders accumulate this level's result into a staging buffer (the
    # global root stages too: the next level needs a *send* buffer
    # distinct from recvbuf).
    lower_out = ctx.scratch_like(sendbuf, "hr.lower_out") if i_am_leader \
        else None
    try:
        yield from _flat(my_lower, levels[0], sendbuf, lower_out, 0,
                         chunk_bytes)
        if not i_am_leader:
            return

        # --- remaining levels among the leaders -----------------------------
        up = ctx.sub_context(upper_comm)
        assert up is not None
        is_global_root = (comm.gpus[root] is ctx.gpu)
        out = recvbuf if is_global_root else None
        yield from _multilevel(up, lower_out, out, 0, levels[1:],
                               chain_size, chunk_bytes)
    finally:
        if lower_out is not None:
            lower_out.free()


@traced("reduce.hr")
def hierarchical_reduce(ctx: RankContext, sendbuf: DeviceBuffer,
                        recvbuf: Optional[DeviceBuffer], root: int = 0, *,
                        config: HRConfig | str,
                        chunk_bytes: Optional[int] = None,
                        ) -> Generator[Event, Any, None]:
    """Multi-level MPI_Reduce (SUM) to ``root``.

    Every rank of ``ctx.comm`` must call this with the same arguments
    (SPMD).  Ranks drop out as soon as they are not leaders of their
    group at some level; the global root supplies ``recvbuf``.
    """
    if isinstance(config, str):
        config = parse_hr_config(config)
    validate_knob(chunk_bytes, "chunk_bytes")
    if ctx.rank == root and recvbuf is None and ctx.comm.size > 1:
        raise ValueError("root must supply recvbuf")
    yield from _multilevel(ctx, sendbuf, recvbuf, root, config.levels,
                           config.chain_size, chunk_bytes)
