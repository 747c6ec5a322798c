"""OSU Micro-Benchmarks (OMB) suite over the simulated runtime.

The paper's Section 6.5 evaluation is performed "using the OMB suite";
this module is its equivalent for the simulated stack: point-to-point
latency/bandwidth and collective-latency micro-benchmarks, each run on
a fresh cluster with warm-started steady-state semantics (deterministic
simulation makes one measured run exact).

It is also the one place that builds and times a *collective point*:
:data:`ALGORITHMS` names every collective the repo can drive with its
call shape, :data:`MENUS` holds the per-backend algorithm menus of the
crossover study, :func:`spmd_program` is the SPMD rank program for one
call (size-only buffers for timing, real payloads for conformance), and
:func:`time_point` builds a fresh universe for a :class:`CollPoint` and
returns the slowest rank's finish time.  The OSU-style functions, the
crossover sweep, the auto-tuner, the conformance/chaos harnesses and the
benchmarks all run their collectives through here.

All functions return seconds (latency) or bytes/second (bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Mapping, Optional, Sequence, Tuple,
)

from ..cuda import DeviceBuffer
from ..hardware import Cluster, make_cluster
from ..nccl.collectives import (
    nccl_allgather, nccl_allreduce, nccl_allreduce_ring, nccl_allreduce_tree,
    nccl_bcast, nccl_bcast_ring, nccl_bcast_tree, nccl_reduce_scatter,
)
from ..sim import Simulator
from .collectives import (
    allgather_ring, allreduce, allreduce_reduce_bcast, allreduce_ring, bcast,
    bcast_binomial, bcast_flat, bcast_scatter_allgather, gather_binomial,
    hierarchical_reduce, reduce, reduce_binomial, reduce_chain,
    reduce_scatter_ring, scatter_binomial,
)
from .collectives.tuning import reduce_design
from .communicator import Communicator
from .profiles import MPIProfile, MV2GDR
from .runtime import MPIRuntime

__all__ = ["ALGORITHMS", "MENUS", "CollPoint", "spmd_program", "universe",
           "time_point", "osu_latency", "osu_bw", "osu_bcast", "osu_reduce",
           "osu_allreduce", "sweep"]

ClusterFactory = Callable[[], Cluster]

# -- the collective registry ---------------------------------------------------

#: Call shapes.  ``reduce``: (sendbuf, recvbuf at the root only, root);
#: ``allreduce``: (sendbuf, recvbuf); ``allreduce_root``: the same plus
#: ``root``; ``bcast``: one buffer the root fills, plus ``root``;
#: ``gather``: one buffer every rank fills, plus ``root``; ``allgather``:
#: one buffer every rank fills.
_ROOTLESS_SHAPES = ("allreduce", "allgather")

#: Collective name -> (algorithm, call shape).  ``tuned_reduce`` is the
#: reduction design dispatcher (knobs ``design``, ``chunk_bytes``); the
#: other dispatchers (``reduce``, ``allreduce``, ``bcast``,
#: ``nccl_allreduce``, ``nccl_bcast``) take their ``algorithm`` knob.
ALGORITHMS: Dict[str, Tuple[Callable, str]] = {
    "reduce_binomial": (reduce_binomial, "reduce"),
    "reduce_chain": (reduce_chain, "reduce"),
    "hierarchical_reduce": (hierarchical_reduce, "reduce"),
    "allreduce_ring": (allreduce_ring, "allreduce"),
    "allreduce_reduce_bcast": (allreduce_reduce_bcast, "allreduce_root"),
    "bcast_binomial": (bcast_binomial, "bcast"),
    "bcast_flat": (bcast_flat, "bcast"),
    "bcast_scatter_allgather": (bcast_scatter_allgather, "bcast"),
    "gather_binomial": (gather_binomial, "gather"),
    "scatter_binomial": (scatter_binomial, "bcast"),
    "allgather_ring": (allgather_ring, "allgather"),
    "reduce_scatter_ring": (reduce_scatter_ring, "allreduce"),
    "nccl_allreduce_ring": (nccl_allreduce_ring, "allreduce"),
    "nccl_allreduce_tree": (nccl_allreduce_tree, "allreduce"),
    "nccl_bcast_ring": (nccl_bcast_ring, "bcast"),
    "nccl_bcast_tree": (nccl_bcast_tree, "bcast"),
    "nccl_allgather": (nccl_allgather, "allgather"),
    "nccl_reduce_scatter": (nccl_reduce_scatter, "allreduce"),
    "tuned_reduce": (reduce_design, "reduce"),
    "reduce": (reduce, "reduce"),
    "allreduce": (allreduce, "allreduce"),
    "bcast": (bcast, "bcast"),
    "nccl_allreduce": (nccl_allreduce, "allreduce"),
    "nccl_bcast": (nccl_bcast, "bcast"),
}


def rootless(name: str) -> bool:
    """Whether collective ``name``'s result ignores the root."""
    return ALGORITHMS[name][1] in _ROOTLESS_SHAPES


class _Menus(dict):
    def __missing__(self, key):
        known = sorted({collective for _nccl, collective in self})
        raise ValueError(f"no algorithm menu for {key!r}; known "
                         f"collectives: {', '.join(known)}")


#: (backend is NCCL, collective) -> ((label, algorithm), ...): the
#: crossover study's menus.  MPI profiles race ring vs reduce+bcast
#: allreduce and binomial vs scatter-allgather bcast; NCCL its rings vs
#: double binary trees.
MENUS: Mapping[Tuple[bool, str], Tuple[Tuple[str, str], ...]] = _Menus({
    (False, "allreduce"): (("ring", "allreduce_ring"),
                           ("reduce_bcast", "allreduce_reduce_bcast")),
    (False, "bcast"): (("binomial", "bcast_binomial"),
                       ("scatter_allgather", "bcast_scatter_allgather")),
    (True, "allreduce"): (("ring", "nccl_allreduce_ring"),
                          ("tree", "nccl_allreduce_tree")),
    (True, "bcast"): (("ring", "nccl_bcast_ring"),
                      ("tree", "nccl_bcast_tree")),
})


# -- one collective point ------------------------------------------------------

@dataclass(frozen=True)
class CollPoint:
    """One collective call on one fresh universe (fully determines it)."""

    algorithm: str
    P: int
    nbytes: int
    backend: MPIProfile | str = "mv2gdr"
    #: ``make_cluster`` kind and keyword arguments (``n_nodes``, ``cal``).
    cluster: str = "A"
    cluster_kw: Mapping[str, Any] = field(default_factory=dict)
    #: Simulator seed (None: no jitter stream at all).
    seed: Optional[int] = None
    root: int = 0
    #: Keyword arguments of the algorithm call (``chunk_bytes``, ...).
    knobs: Mapping[str, Any] = field(default_factory=dict)


def _buffer(ctx, nbytes: int, payloads: Optional[Sequence],
            owner: Optional[int]) -> DeviceBuffer:
    """A size-only buffer when there are no ``payloads``; otherwise a
    copy of ``payloads[owner]``, or zeros to receive into (owner None)."""
    if payloads is None:
        return DeviceBuffer(ctx.gpu, nbytes)
    if owner is None:
        return DeviceBuffer.zeros(ctx.gpu, nbytes // 4)
    return DeviceBuffer.from_array(ctx.gpu, payloads[owner])


def spmd_program(point: CollPoint, payloads: Optional[Sequence] = None,
                 root_of: Optional[Callable[[int], int]] = None):
    """The SPMD rank program calling ``point.algorithm`` once.

    Without ``payloads`` buffers are size-only and each rank returns its
    finish time.  With ``payloads`` (one float32 array per rank) buffers
    carry real data and each rank returns a copy of its checked output
    (None where it has none, e.g. a reduce's non-roots).  ``root_of``
    maps a rank to the root it believes in (default: ``point.root``).
    """
    algo, shape = ALGORITHMS[point.algorithm]
    knobs = dict(point.knobs)
    nbytes = point.nbytes
    rooted = shape not in _ROOTLESS_SHAPES

    def program(ctx):
        rank = ctx.rank
        root = point.root if root_of is None else root_of(rank)
        if shape in ("bcast", "gather", "allgather"):
            own = shape != "bcast" or rank == root
            out = _buffer(ctx, nbytes, payloads, rank if own else None)
            bufs = (out,)
        else:
            send = _buffer(ctx, nbytes, payloads, rank)
            out = (_buffer(ctx, nbytes, payloads, None)
                   if shape != "reduce" or rank == root else None)
            bufs = (send, out)
        if rooted:
            yield from algo(ctx, *bufs, root=root, **knobs)
        else:
            yield from algo(ctx, *bufs, **knobs)
        if payloads is None:
            return ctx.sim.now
        return out.data.copy() if out is not None else None

    return program


def universe(point: CollPoint, cluster: Optional[Cluster] = None
             ) -> Tuple[MPIRuntime, Communicator]:
    """(runtime, world of ``point.P`` ranks) on ``cluster``, or on a
    fresh ``make_cluster(Simulator(seed), kind, **cluster_kw)``."""
    if cluster is None:
        cluster = make_cluster(Simulator(point.seed), point.cluster,
                               **point.cluster_kw)
    rt = MPIRuntime(cluster, point.backend)
    return rt, rt.world(point.P)


def time_point(point: CollPoint,
               world: Optional[Tuple[MPIRuntime, Communicator]] = None
               ) -> float:
    """OMB-style latency of one collective call: the slowest rank's
    finish time on a fresh universe (or on ``world``, a :func:`universe`
    the caller has attached its own observers to)."""
    rt, comm = world or universe(point)
    return max(rt.execute(comm, spmd_program(point)))


# -- OSU micro-benchmarks ------------------------------------------------------

def _pair(ranks: Sequence[int]) -> Tuple[int, int]:
    """The two distinct world ranks a point-to-point benchmark plays."""
    if len(ranks) != 2 or ranks[0] == ranks[1]:
        raise ValueError(f"needs two distinct ranks, got {tuple(ranks)!r}")
    return ranks[0], ranks[1]


def _pt2pt(cluster_factory: ClusterFactory, profile, a: int, b: int,
           program) -> Any:
    """Run ``program`` on ranks 0..max(a, b); rank ``a``'s result."""
    rt = MPIRuntime(cluster_factory(), profile)
    return rt.execute(rt.world(max(a, b) + 1), program)[a]


def osu_latency(cluster_factory: ClusterFactory, nbytes: int, *,
                profile: MPIProfile | str = MV2GDR,
                ranks: Sequence[int] = (0, 1),
                iterations: int = 4) -> float:
    """osu_latency: mean one-way time of a ping-pong between two GPUs.

    ``ranks`` selects which two world ranks play (e.g. ``(0, 16)`` for a
    cross-node pair on Cluster-A).
    """
    a, b = _pair(ranks)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    def program(ctx):
        if ctx.rank not in (a, b):
            return None
        buf = DeviceBuffer(ctx.gpu, nbytes)
        peer = b if ctx.rank == a else a
        t0 = ctx.sim.now
        for i in range(iterations):
            if ctx.rank == a:
                yield from ctx.send(peer, buf, tag=2 * i)
                yield from ctx.recv(peer, buf, tag=2 * i + 1)
            else:
                yield from ctx.recv(peer, buf, tag=2 * i)
                yield from ctx.send(peer, buf, tag=2 * i + 1)
        if ctx.rank == a:
            return (ctx.sim.now - t0) / (2 * iterations)

    return _pt2pt(cluster_factory, profile, a, b, program)


def osu_bw(cluster_factory: ClusterFactory, nbytes: int, *,
           profile: MPIProfile | str = MV2GDR,
           ranks: Sequence[int] = (0, 1), window: int = 8) -> float:
    """osu_bw: streaming bandwidth with ``window`` messages in flight."""
    a, b = _pair(ranks)
    if window < 1:
        raise ValueError("window must be >= 1")

    def program(ctx):
        if ctx.rank not in (a, b):
            return None
        peer = b if ctx.rank == a else a
        bufs = [DeviceBuffer(ctx.gpu, nbytes) for _ in range(window)]
        t0 = ctx.sim.now
        if ctx.rank == a:
            reqs = [ctx.isend(peer, bufs[i], tag=i)
                    for i in range(window)]
            for r in reqs:
                yield r.wait()
            # Wait for the ack closing the window.
            yield from ctx.recv(peer, bufs[0], tag=999, nbytes=4)
            return window * nbytes / (ctx.sim.now - t0)
        reqs = [ctx.irecv(peer, bufs[i], tag=i) for i in range(window)]
        for r in reqs:
            yield r.wait()
        yield from ctx.send(peer, bufs[0], tag=999, nbytes=4)

    return _pt2pt(cluster_factory, profile, a, b, program)


def osu_bcast(cluster_factory: ClusterFactory, nbytes: int, n_ranks: int,
              *, profile: MPIProfile | str = MV2GDR,
              algorithm: str = "binomial") -> float:
    """osu_bcast: full-communicator broadcast latency."""
    point = CollPoint("bcast", n_ranks, nbytes, profile,
                      knobs={"algorithm": algorithm})
    return time_point(point, universe(point, cluster_factory()))


def osu_reduce(cluster_factory: ClusterFactory, nbytes: int, n_ranks: int,
               *, profile: MPIProfile | str = MV2GDR,
               design: str = "tuned") -> float:
    """osu_reduce: reduce-to-root latency under a named design
    ("tuned" | "flat" | "chain" | HR labels like "CB-8"/"CCB-8")."""
    point = CollPoint("tuned_reduce", n_ranks, nbytes, profile,
                      knobs={"design": design})
    return time_point(point, universe(point, cluster_factory()))


def osu_allreduce(cluster_factory: ClusterFactory, nbytes: int,
                  n_ranks: int, *, profile: MPIProfile | str = MV2GDR,
                  algorithm: str = "ring") -> float:
    """osu_allreduce latency."""
    point = CollPoint("allreduce", n_ranks, nbytes, profile,
                      knobs={"algorithm": algorithm})
    return time_point(point, universe(point, cluster_factory()))


def sweep(bench: Callable[..., float], sizes: Sequence[int],
          **kwargs) -> Dict[int, float]:
    """Run a micro-benchmark across message sizes."""
    return {s: bench(nbytes=s, **kwargs) for s in sizes}
