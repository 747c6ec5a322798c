"""Algorithm selection — the "HR (Tuned)" design of Section 6.5.

The paper tunes the reduction design over (message size, process count):

- small messages: the flat binomial tree wins (latency-bound);
- "for buffer sizes greater than eight megabytes (8M) ... chunked chain
  (CC) performs much better than the binomial tree";
- "eight is the ideal P for [the] CC approach";
- "two-level chains can only scale to a process count of 64";
- beyond that, chain-binomial (CB) with chain size 8.

:func:`select_reduce_plan` encodes exactly that decision table, and
:func:`tuned_reduce` executes the chosen design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Tuple, Union

from ...cuda import DeviceBuffer
from ...sim import Event
from ..communicator import RankContext
from ..profiles import is_stock_profile
from .hierarchical import HRConfig, hierarchical_reduce, parse_hr_config
from .reduce import reduce_binomial, reduce_chain

__all__ = ["ReducePlan", "select_reduce_plan", "tuned_reduce",
           "reduce_design", "check_design", "DESIGNS", "IDEAL_CHAIN_SIZE",
           "CC_SCALING_LIMIT", "CHAIN_THRESHOLD_BYTES"]

#: Experimentally-ideal chain length (Section 5: "eight is the ideal P").
IDEAL_CHAIN_SIZE = 8
#: Maximum process count two-level chains scale to (Section 5).
CC_SCALING_LIMIT = 64
#: Message size above which chain designs beat binomial (Section 5: 8 MB).
CHAIN_THRESHOLD_BYTES = 8 << 20
#: Beyond this process count two levels are not enough: use the paper's
#: stated extension, chain-of-chain + binomial top (CCB).
THREE_LEVEL_THRESHOLD = 512
#: Named reduction designs :func:`reduce_design` runs besides HR labels.
DESIGNS = ("tuned", "flat", "binomial", "chain")


@dataclass(frozen=True)
class ReducePlan:
    """A tuned reduction decision."""

    kind: str                      # "binomial" | "chain" | "hierarchical"
    hr_label: Optional[str] = None  # e.g. "CB-8" when kind == hierarchical

    @property
    def label(self) -> str:
        return self.hr_label or self.kind


def select_reduce_plan(P: int, nbytes: int,
                       *, chain_size: int = IDEAL_CHAIN_SIZE) -> ReducePlan:
    """The tuned decision table over (process count, message size)."""
    if P <= 1:
        return ReducePlan("binomial")
    if nbytes < CHAIN_THRESHOLD_BYTES:
        if nbytes < (256 << 10) or P <= 2:
            return ReducePlan("binomial")
        # Mid-size messages: hierarchy already pays off, binomial on top.
        if P <= chain_size:
            return ReducePlan("chain")
        return ReducePlan("hierarchical", f"CB-{chain_size}")
    # Large (DL-scale) messages:
    if P <= chain_size:
        return ReducePlan("chain")
    if P <= CC_SCALING_LIMIT:
        return ReducePlan("hierarchical", f"CC-{chain_size}")
    if P <= THREE_LEVEL_THRESHOLD:
        return ReducePlan("hierarchical", f"CB-{chain_size}")
    # "In future, we can exploit multi-level combinations like
    # chain-of-chain combined with a top level binomial for very large
    # scale reductions" (Section 5) — realized here.
    return ReducePlan("hierarchical", f"CCB-{chain_size}")


#: ``repro.tune.tables``, bound on the first dispatch: importing it at
#: module load would import ``repro.tune``'s search (which imports the
#: collectives) while this module is still initializing.
_tables = None


def _table_knobs(ctx: RankContext, nbytes: int):
    """Committed tuning-table consult (``repro tune`` output).

    Stock profiles only: any CVAR write derives a new profile that no
    longer equals its registered original, and an explicit MPI_T write
    must always win over the offline table.
    """
    if not _tables.enabled() or not is_stock_profile(ctx.profile):
        return None
    return _tables.lookup(ctx.profile.name, "reduce",
                          _tables.comm_topology(ctx.comm), ctx.size, nbytes)


def _pick_design(ctx: RankContext, nbytes: int, chain_size: Optional[int]
                 ) -> Tuple[str, Optional[int]]:
    """(design label, chunk_bytes) of the tuned dispatch at this point.

    Committed tuning table first (stock profile, no explicit
    ``chain_size``), then the Section-5 decision table of
    :func:`select_reduce_plan`.
    """
    if chain_size is None:
        knobs = _table_knobs(ctx, nbytes)
        if knobs is not None:
            return knobs["design"], knobs.get("chunk_bytes")
        # Default from the profile so the MPI_T cvar (coll.chain_size)
        # steers the decision table without threading an argument.
        chain_size = ctx.profile.chain_size
    plan = select_reduce_plan(ctx.size, nbytes, chain_size=chain_size)
    return plan.label, None


def _resolved_design(ctx: RankContext, nbytes: int,
                     chain_size: Optional[int]):
    """:func:`_pick_design`, memoized per communicator, with HR labels
    parsed once.

    The pick is a pure function of the communicator (size, placement),
    the point, whether tables are enabled, and the profile.  A CVAR
    write swaps in a new profile object, so the key holds the profile's
    identity (the entry keeps the profile alive, so the id cannot be
    reused) and ``tables_disabled()`` flips the enabled flag in the key.
    """
    global _tables
    if _tables is None:
        from ...tune import tables as _tables
    profile = ctx.profile
    key = (nbytes, chain_size, _tables.enabled(), id(profile))
    memo = ctx.comm._reduce_designs
    hit = memo.get(key)
    if hit is None:
        design, chunk_bytes = _pick_design(ctx, nbytes, chain_size)
        if design not in DESIGNS:
            design = parse_hr_config(design)
        hit = memo[key] = (profile, design, chunk_bytes)
    return hit[1], hit[2]


def tuned_reduce(ctx: RankContext, sendbuf: DeviceBuffer,
                 recvbuf: Optional[DeviceBuffer], root: int = 0, *,
                 chain_size: Optional[int] = None,
                 ) -> Generator[Event, Any, None]:
    """MPI_Reduce using the tuned design for this (P, nbytes) point.

    This is the entry point S-Caffe's gradient aggregation uses when the
    runtime profile advertises ``hierarchical_reduce`` (MVAPICH2-GDR with
    the proposed designs); other profiles fall back to their flat
    algorithm.  The design comes from :func:`_pick_design` (memoized).

    Returns the chosen algorithm's generator (see :func:`reduce_design`).
    """
    if not ctx.profile.hierarchical_reduce:
        return reduce_binomial(ctx, sendbuf, recvbuf, root)
    wd = ctx.runtime.watchdog
    if wd is not None and wd.degraded_mode:
        # A flagged straggler (degraded link / throttled GPU) poisons
        # chain and hierarchical schedules, whose pipelines serialize on
        # the slow hop; the binomial tree touches it in O(log P) rounds
        # at worst.  Degrade gracefully rather than tune for a topology
        # that no longer exists.
        return reduce_binomial(ctx, sendbuf, recvbuf, root)
    design, chunk_bytes = _resolved_design(ctx, sendbuf.nbytes, chain_size)
    return reduce_design(ctx, sendbuf, recvbuf, root, design=design,
                         chunk_bytes=chunk_bytes)


def check_design(design: str) -> None:
    """Raise ValueError unless :func:`reduce_design` can run ``design``."""
    if design not in DESIGNS:
        try:
            parse_hr_config(design)
        except ValueError:
            raise ValueError(
                f"unknown reduce design {design!r}: want one of "
                f"{', '.join(DESIGNS)} or an HR label like 'CB-8'") from None


def reduce_design(ctx: RankContext, sendbuf: DeviceBuffer,
                  recvbuf: Optional[DeviceBuffer], root: int = 0, *,
                  design: Union[str, HRConfig] = "tuned",
                  chunk_bytes: Optional[int] = None,
                  ) -> Generator[Event, Any, None]:
    """MPI_Reduce under a named design: "tuned" (:func:`tuned_reduce`),
    "flat"/"binomial", "chain", or an HR label ("CB-8", "CCB-4", ...)
    or parsed :class:`~repro.mpi.collectives.hierarchical.HRConfig`.
    ``chunk_bytes`` (optional) feeds the chain pipelines and is
    validated by the algorithms themselves.  Tuning-table entries,
    :func:`select_reduce_plan` decisions and every named-design caller
    run through here.

    Returns the chosen algorithm's generator rather than delegating to
    it, so the dispatch adds no frame to every resumption of the
    reduction (``yield from reduce_design(...)`` as with any algorithm).
    """
    if design == "tuned":
        return tuned_reduce(ctx, sendbuf, recvbuf, root)
    if design in ("flat", "binomial"):
        return reduce_binomial(ctx, sendbuf, recvbuf, root)
    if design == "chain":
        return reduce_chain(ctx, sendbuf, recvbuf, root,
                            chunk_bytes=chunk_bytes)
    return hierarchical_reduce(ctx, sendbuf, recvbuf, root, config=design,
                               chunk_bytes=chunk_bytes)
