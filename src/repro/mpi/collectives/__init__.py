"""Collective operations over the simulated CUDA-aware runtime."""

from .allreduce import allreduce, allreduce_reduce_bcast, allreduce_ring
from .base import (
    COLL_TAG_BASE, TAG_BLOCK, ProtocolViolation, TagBlock, apply_reduction,
    coll_tags, segments,
)
from .bcast import (
    bcast, bcast_binomial, bcast_flat, bcast_scatter_allgather, ibcast,
)
from .gather_scatter import (
    allgather_ring, block_partition, gather_binomial, reduce_scatter_ring,
    scatter_binomial,
)
from .hierarchical import (
    HRConfig, hierarchical_reduce, hr_plan, parse_hr_config,
)
from .reduce import ireduce, reduce, reduce_binomial, reduce_chain
from .resilient import resilient_reduce, shrink_context
from .tuning import (
    CC_SCALING_LIMIT, CHAIN_THRESHOLD_BYTES, DESIGNS, IDEAL_CHAIN_SIZE,
    ReducePlan, check_design, reduce_design, select_reduce_plan,
    tuned_reduce,
)

__all__ = [
    "allreduce", "allreduce_reduce_bcast", "allreduce_ring",
    "COLL_TAG_BASE", "TAG_BLOCK", "ProtocolViolation", "TagBlock",
    "apply_reduction", "coll_tags", "segments",
    "bcast", "bcast_binomial", "bcast_flat", "bcast_scatter_allgather",
    "ibcast",
    "allgather_ring", "block_partition", "gather_binomial",
    "reduce_scatter_ring", "scatter_binomial",
    "HRConfig", "hierarchical_reduce", "hr_plan", "parse_hr_config",
    "ireduce", "reduce", "reduce_binomial", "reduce_chain",
    "resilient_reduce", "shrink_context",
    "CC_SCALING_LIMIT", "CHAIN_THRESHOLD_BYTES", "DESIGNS",
    "IDEAL_CHAIN_SIZE", "ReducePlan", "check_design", "reduce_design",
    "select_reduce_plan", "tuned_reduce",
]
