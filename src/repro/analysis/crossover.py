"""The MPI-vs-NCCL backend crossover study (``repro crossover``).

The follow-up question to the paper's runtime comparison: once a
framework can choose between a co-designed MPI runtime and the NCCL
backend of :mod:`repro.nccl`, *which one should it call, and when?*
This module sweeps message size x GPU density x process count over
every registered backend and reports, per (collective, cluster), where
the winner flips — the crossover point a framework's dispatch table
would encode.

Each backend is timed at its best: MPI profiles pick the faster of
their algorithm menu (ring vs reduce+bcast for allreduce, binomial vs
scatter-allgather for bcast), the NCCL backend the faster of its rings
and double binary trees.  The winning algorithm is recorded next to
the latency so the report can say "nccl/ring" rather than just "nccl".

The GPU-density axis is the paper's own testbed pair: Cluster-A packs
16 CUDA devices per node (deep intra-node chains, where the
topology-aware ring shines), Cluster-B has 2 per node (every hop
crosses the NIC, so algorithm choice is dominated by latency terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .report import format_bytes, format_table, format_time

__all__ = ["SweepPoint", "Crossover", "DEFAULT_SIZES", "DEFAULT_PROCS",
           "DEFAULT_CLUSTERS", "COLLECTIVES", "backend_names",
           "time_backend", "sweep", "find_crossovers", "crossover_report"]

KiB = 1 << 10
MiB = 1 << 20

#: Swept by default: spans the latency-bound to bandwidth-bound regimes.
DEFAULT_SIZES = (4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB)
DEFAULT_PROCS = (8, 32)
DEFAULT_CLUSTERS = ("A", "B")
COLLECTIVES = ("allreduce", "bcast")


def backend_names() -> List[str]:
    """The swept backends — the profile registry, not a hardcoded list."""
    from ..mpi.profiles import profile_names
    return profile_names()


# -- timing one backend at one point -------------------------------------------

def time_backend(cluster_kind: str, backend: str, collective: str,
                 P: int, nbytes: int) -> Tuple[float, str]:
    """(best latency, winning algorithm) for one backend at one point,
    over the backend's menu (:data:`repro.mpi.omb.MENUS`); an unknown
    ``collective`` raises ValueError."""
    from ..mpi.omb import MENUS, CollPoint, time_point

    best, algo = float("inf"), "?"
    for name, algorithm in MENUS[backend == "nccl", collective]:
        t = time_point(CollPoint(algorithm, P, nbytes, backend,
                                 cluster=cluster_kind))
        if t < best:
            best, algo = t, name
    return best, algo


# -- the sweep ----------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """All backends timed at one (collective, cluster, P, size) cell."""

    collective: str
    cluster: str
    P: int
    nbytes: int
    #: backend name -> best latency over its algorithm menu [seconds].
    latency: Dict[str, float]
    #: backend name -> the algorithm that achieved it.
    algorithm: Dict[str, str]

    @property
    def winner(self) -> str:
        return min(self.latency, key=lambda b: self.latency[b])

    def winner_label(self) -> str:
        w = self.winner
        return f"{w}/{self.algorithm[w]}"


def sweep(*, collectives: Sequence[str] = COLLECTIVES,
          clusters: Sequence[str] = DEFAULT_CLUSTERS,
          procs: Sequence[int] = DEFAULT_PROCS,
          sizes: Sequence[int] = DEFAULT_SIZES,
          backends: Sequence[str] = (),
          progress: Callable[[SweepPoint], None] = None,
          ) -> List[SweepPoint]:
    """Time every backend over the full cross product."""
    backends = tuple(backends) or tuple(backend_names())
    points = []
    for coll in collectives:
        for cl in clusters:
            for P in procs:
                for nbytes in sorted(sizes):
                    lat, alg = {}, {}
                    for b in backends:
                        lat[b], alg[b] = time_backend(cl, b, coll, P,
                                                      nbytes)
                    pt = SweepPoint(coll, cl, P, nbytes, lat, alg)
                    points.append(pt)
                    if progress is not None:
                        progress(pt)
    return points


# -- crossover extraction -----------------------------------------------------

@dataclass(frozen=True)
class Crossover:
    """Where the winning backend flips along the message-size axis for
    one (collective, cluster, P) series."""

    collective: str
    cluster: str
    P: int
    #: (size, winner) in ascending size order.
    winners: Tuple[Tuple[int, str], ...]

    def describe(self) -> str:
        head = (f"{self.collective} on Cluster-{self.cluster} "
                f"(P={self.P}): ")
        flips = [f"{w} wins from {format_bytes(s)}"
                 for i, (s, w) in enumerate(self.winners)
                 if i == 0 or w != self.winners[i - 1][1]]
        if len(flips) == 1:
            s, w = self.winners[0]
            return head + f"no crossover — {w} wins at every size"
        return head + "; ".join(flips)


def find_crossovers(points: Sequence[SweepPoint]) -> List[Crossover]:
    series: Dict[Tuple[str, str, int], List[SweepPoint]] = {}
    for pt in points:
        series.setdefault((pt.collective, pt.cluster, pt.P),
                          []).append(pt)
    out = []
    for (coll, cl, P), pts in series.items():
        pts.sort(key=lambda p: p.nbytes)
        out.append(Crossover(coll, cl, P, tuple(
            (p.nbytes, p.winner_label()) for p in pts)))
    return out


def crossover_report(points: Sequence[SweepPoint]) -> str:
    """Tables per (collective, cluster) plus the crossover lines."""
    backends = list(points[0].latency) if points else []
    groups: Dict[Tuple[str, str], List[SweepPoint]] = {}
    for pt in points:
        groups.setdefault((pt.collective, pt.cluster), []).append(pt)
    parts = []
    for (coll, cl), pts in groups.items():
        rows = [[p.P, format_bytes(p.nbytes)]
                + [format_time(p.latency[b]) for b in backends]
                + [p.winner_label()]
                for p in sorted(pts, key=lambda p: (p.P, p.nbytes))]
        density = "dense" if cl == "A" else "sparse"
        parts.append(format_table(
            f"{coll} on Cluster-{cl} ({density} GPUs)",
            ["P", "size"] + backends + ["winner"], rows))
    lines = [c.describe() for c in find_crossovers(points)]
    return "\n\n".join(parts) + "\n\ncrossovers:\n  " + "\n  ".join(lines)
