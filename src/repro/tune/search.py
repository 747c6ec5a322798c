"""Closed-loop auto-tuner over the validated CVAR space.

The search driver behind ``repro tune`` (ROADMAP item 1).  For each
(backend, collective, topology, P, message size) point it

1. measures the *profile-default* dispatch once with the causal
   profiler attached, and uses the frozen-slack what-if projection to
   lower-bound what any communication tuning could achieve — points
   whose default already sits on that floor are skipped outright;
2. builds a candidate grid over the live CVAR space (``coll.chain_size``
   / ``coll.flat_reduce_algorithm`` / ``coll.pipeline_window`` and the
   chain chunk for the MPI reduce designs; ``nccl.tree_threshold`` /
   ``nccl.ring_chunk`` for the NCCL dispatchers) and prunes it with the
   transport's closed-form uncontended estimates
   (:meth:`~repro.mpi.transport.DeviceTransport.estimate`) before
   paying for full simulations;
3. measures the surviving candidates by applying their knobs through
   *real MPI_T CVAR round-trips* (``TelemetrySession.cvar_set`` +
   read-back) on a freshly bound runtime — the same validated path a
   tool would use, so a degenerate candidate fails loudly instead of
   being silently coerced;
4. hill-climbs the winner's chunk knob (double/halve while it
   improves), and
5. records an entry only when the winner beats the default strictly
   (``MIN_GAIN``); everything else keeps the profile-default dispatch.

Everything is seeded and grid-driven, so regenerating the tables is
byte-identical (``repro tune --quick --check`` gates this in CI).

The *quick* plan deliberately tunes communicator shapes (P = 12 on
cluster A, 6 x 2 on cluster B) disjoint from every point the committed
regression baselines exercise (P in {16, 32} on cluster A), so the
smoke tables can never silently shift a gate number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .tables import TunedTable, tables_disabled, topology_key

__all__ = ["PlanPoint", "quick_plan", "full_plan", "run_plan",
           "render_tables", "check_tables", "write_tables",
           "MIN_GAIN", "OBJECTIVES"]

KiB = 1 << 10
MiB = 1 << 20

#: A candidate must beat the profile default by at least this relative
#: margin to earn a table entry (absorbs float jitter in intentional
#: recalibrations; the runs themselves are deterministic).
MIN_GAIN = 0.01

#: Candidates surviving the closed-form prune, per point.
PRUNE_KEEP = 3

#: Hill-climb step budget per direction.
CLIMB_STEPS = 3

OBJECTIVES = ("latency", "critical-path")

#: Search seed — every measurement runs on its own Simulator(seed=0)
#: cluster, so table regeneration is a pure function of the grids.
SEED = 0


@dataclass(frozen=True)
class PlanPoint:
    """One tuning target: a (backend, collective) pair on a concrete
    communicator shape, swept over ``sizes``."""

    backend: str
    collective: str       # "reduce" | "allreduce" | "bcast"
    cluster: str          # make_cluster kind
    P: int
    sizes: Tuple[int, ...]

    def label(self) -> str:
        return (f"{self.backend}.{self.collective} "
                f"Cluster-{self.cluster} P={self.P}")


QUICK_SIZES = (64 * KiB, 1 * MiB, 16 * MiB)
FULL_SIZES = (64 * KiB, 1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB)


def quick_plan() -> Tuple[PlanPoint, ...]:
    return (
        PlanPoint("mv2gdr", "reduce", "A", 12, QUICK_SIZES),
        PlanPoint("mv2gdr", "reduce", "B", 12, QUICK_SIZES),
        PlanPoint("nccl", "allreduce", "A", 12, QUICK_SIZES),
        PlanPoint("nccl", "bcast", "A", 12, QUICK_SIZES),
    )


def full_plan() -> Tuple[PlanPoint, ...]:
    return quick_plan() + (
        PlanPoint("mv2gdr", "reduce", "A", 24, FULL_SIZES),
        PlanPoint("mv2gdr", "reduce", "B", 24, FULL_SIZES),
        PlanPoint("nccl", "allreduce", "A", 24, FULL_SIZES),
        PlanPoint("nccl", "bcast", "B", 12, FULL_SIZES),
    )


# -- measurement harness -------------------------------------------------------

#: The dispatcher each tuned (collective) table steers.
DISPATCHERS = {"reduce": "tuned_reduce", "allreduce": "nccl_allreduce",
               "bcast": "nccl_bcast"}


def _bound(point: PlanPoint, nbytes: int, knobs: Dict[str, Any]):
    """A fresh deterministic same-seed universe for one measurement,
    with a telemetry session attached and the CVAR namespace bound:
    (collective point, (runtime, comm), session)."""
    from ..mpi.omb import CollPoint, universe
    from ..telemetry import TelemetrySession, bind_runtime

    cpoint = CollPoint(DISPATCHERS[point.collective], point.P, nbytes,
                       point.backend, cluster=point.cluster, seed=SEED,
                       knobs=knobs)
    rt, comm = universe(cpoint)
    session = TelemetrySession()
    session.attach(rt.sim)
    bind_runtime(session, rt)
    return cpoint, (rt, comm), session


def _apply_cvars(session, assignments: Dict[str, Any]) -> None:
    """The closed loop: write each knob through the validated MPI_T
    layer and read it back.  A mis-typed, out-of-domain, or
    backend-mis-targeted candidate dies here with a typed error instead
    of silently measuring something else."""
    for name, value in assignments.items():
        session.cvar_set(name, value)
        got = session.cvar_get(name)
        if got != value:
            raise RuntimeError(
                f"cvar round-trip failed: {name}={value!r} read back "
                f"as {got!r}")


@dataclass(frozen=True)
class Candidate:
    """One grid point: the CVAR assignments applied during measurement
    plus the call-level knobs the dispatcher will replay from the
    committed table."""

    label: str
    cvars: Tuple[Tuple[str, Any], ...]
    knobs: Tuple[Tuple[str, Any], ...]

    def knobs_dict(self) -> Dict[str, Any]:
        return dict(self.knobs)


def _measure(point: PlanPoint, nbytes: int, cand: Optional[Candidate],
             objective: str) -> float:
    """One candidate (None: the profile-default dispatch) at one size.

    Reduce candidates replay their table knobs (``design``,
    ``chunk_bytes``) through the design dispatcher.  NCCL algorithm
    selection always flows through the size-based dispatcher —
    candidates steer it via the ``nccl.tree_threshold`` cvar, so the
    dispatcher itself is what gets measured.
    """
    from ..mpi.omb import time_point
    from ..prof import SpanRecorder, build_profile

    knobs = (cand.knobs_dict()
             if cand is not None and point.collective == "reduce" else {})
    cpoint, world, session = _bound(point, nbytes, knobs)
    if cand is not None:
        _apply_cvars(session, dict(cand.cvars))
    recorder = (SpanRecorder(world[0].sim)
                if objective == "critical-path" else None)
    with tables_disabled():
        latency = time_point(cpoint, world)
    if recorder is not None:
        return build_profile(recorder).cp_length
    return latency


def _default_with_floor(point: PlanPoint, nbytes: int,
                        objective: str) -> Tuple[float, float]:
    """Measure the profile-default dispatch with the causal profiler
    attached; return (default, frozen-slack floor).  The floor is the
    projected makespan with every communication class infinitely fast —
    no knob setting can beat it, so it prunes whole points."""
    from ..mpi.omb import time_point
    from ..prof import SpanRecorder, build_profile

    cpoint, world, _session = _bound(point, nbytes, {})
    recorder = SpanRecorder(world[0].sim)
    with tables_disabled():
        latency = time_point(cpoint, world)
    report = build_profile(recorder)
    default = (report.cp_length if objective == "critical-path"
               else latency)
    big = 1e9
    floor = report.what_if({"pcie": big, "ib": big, "host": big})
    return default, floor


# -- candidate grids + closed-form pruning ------------------------------------

def _reduce_candidates(point: PlanPoint, nbytes: int) -> List[Candidate]:
    chunk_grid = [c for c in (512 * KiB, 1 * MiB, 4 * MiB)
                  if c <= max(512 * KiB, nbytes)]
    ks = [k for k in (4, 8) if k < point.P]
    cands = [Candidate("binomial",
                       (("coll.flat_reduce_algorithm", "binomial"),), ())]
    for cb in chunk_grid:
        cands.append(Candidate(
            f"chain/c{cb >> 10}K",
            (("coll.flat_reduce_algorithm", "chain"),),
            (("design", "chain"), ("chunk_bytes", cb))))
        for k in ks:
            for fam in ("CB", "CC"):
                cands.append(Candidate(
                    f"{fam}-{k}/c{cb >> 10}K",
                    (("coll.chain_size", k),),
                    (("design", f"{fam}-{k}"), ("chunk_bytes", cb))))
    return cands


def _nccl_candidates(point: PlanPoint, nbytes: int) -> List[Candidate]:
    # tree_threshold steers the dispatcher: 0 forces the ring for any
    # payload, a huge value forces the trees.
    force_tree = 1 << 40
    cands = [Candidate("tree", (("nccl.tree_threshold", force_tree),),
                       (("algorithm", "tree"),))]
    for rc in (64 * KiB, 256 * KiB, 1 * MiB):
        if rc > max(64 * KiB, nbytes):
            continue
        cands.append(Candidate(
            f"ring/c{rc >> 10}K",
            (("nccl.tree_threshold", 0), ("nccl.ring_chunk", rc)),
            (("algorithm", "ring"), ("chunk_bytes", rc))))
    return cands


def _estimator(point: PlanPoint):
    """Closed-form cost model over the transport's uncontended
    estimates, used to rank candidates before any full simulation."""
    _cpoint, (rt, _comm), _session = _bound(point, 0, {})
    gpus = rt.cluster.gpus[:point.P]
    est = rt.transport.estimate
    P = point.P

    def t_near(n: int) -> float:
        return est(gpus[0], gpus[1], n)

    def t_span(hop: int, n: int) -> float:
        return est(gpus[0], gpus[min(max(hop, 1), P - 1)], n)

    def cost(cand: Candidate, nbytes: int) -> float:
        kd = cand.knobs_dict()
        if point.collective == "reduce":
            design = kd.get("design", "binomial") \
                if cand.knobs else "binomial"
            cb = kd.get("chunk_bytes") or rt.profile.reduce_segment
            n = max(1, -(-nbytes // cb))
            if design == "binomial":
                return math.ceil(math.log2(P)) * t_span(P - 1, nbytes)
            if design == "chain":
                return (n + P - 2) * t_near(cb)
            fam, k = design.split("-")
            k = int(k)
            leaders = -(-P // k)
            lower = (n + k - 2) * t_near(cb)
            if fam == "CB":
                return lower + (math.ceil(math.log2(max(2, leaders)))
                                * t_span(k, nbytes))
            return lower + (n + leaders - 2) * t_span(k, cb)
        # nccl: ring moves 2(P-1) blocks of ~nbytes/P around neighbour
        # hops; trees move two pipelined halves down log2 P levels.
        algo = kd.get("algorithm")
        if algo == "tree":
            half = -(-nbytes // 2)
            return 2 * math.ceil(math.log2(P)) * t_span(P // 2, half)
        rc = kd.get("chunk_bytes") or 256 * KiB
        block = max(1, -(-nbytes // P))
        per_block = -(-block // rc) * t_near(min(block, rc))
        return 2 * (P - 1) * per_block

    return cost


def _prune(cands: List[Candidate], cost: Callable[[Candidate, int], float],
           nbytes: int, keep: int) -> List[Candidate]:
    ranked = sorted(cands, key=lambda c: (cost(c, nbytes), c.label))
    return ranked[:keep]


# -- hill-climb ----------------------------------------------------------------

def _with_chunk(cand: Candidate, chunk: int) -> Candidate:
    cvars = tuple((k, chunk if k == "nccl.ring_chunk" else v)
                  for k, v in cand.cvars)
    knobs = tuple((k, chunk if k == "chunk_bytes" else v)
                  for k, v in cand.knobs)
    return Candidate(f"{cand.label.split('/c')[0]}/c{chunk >> 10}K",
                     cvars, knobs)


def _climb(point: PlanPoint, nbytes: int, cand: Candidate, latency: float,
           objective: str,
           log: Callable[[str], None]) -> Tuple[Candidate, float]:
    """Double/halve the winner's chunk knob while it strictly improves."""
    kd = cand.knobs_dict()
    chunk = kd.get("chunk_bytes")
    if chunk is None:
        return cand, latency
    lo = 4 * KiB if point.backend == "nccl" else 64 * KiB
    hi = max(lo, min(64 * MiB, 2 * nbytes))
    best, best_lat = cand, latency
    for step in (2.0, 0.5):
        cur, cur_lat = best, best_lat
        for _ in range(CLIMB_STEPS):
            nxt = int(cur.knobs_dict()["chunk_bytes"] * step)
            nxt -= nxt % 4
            if not lo <= nxt <= hi:
                break
            trial = _with_chunk(cur, nxt)
            lat = _measure(point, nbytes, trial, objective)
            log(f"    climb {trial.label}: {lat * 1e6:.1f} us")
            if lat >= cur_lat:
                break
            cur, cur_lat = trial, lat
        if cur_lat < best_lat:
            best, best_lat = cur, cur_lat
    return best, best_lat


# -- the driver ----------------------------------------------------------------

def _point_topology(point: PlanPoint) -> str:
    from ..hardware import make_cluster
    from ..sim import Simulator

    cluster = make_cluster(Simulator(seed=SEED), point.cluster)
    return topology_key(cluster.gpus[:point.P])


def tune_point(point: PlanPoint, objective: str,
               log: Callable[[str], None]) -> List[Dict[str, Any]]:
    """Search every size of one plan point; return its table entries."""
    topology = _point_topology(point)
    cost = _estimator(point)
    sizes = sorted(point.sizes)
    entries: List[Dict[str, Any]] = []
    for i, nbytes in enumerate(sizes):
        default, floor = _default_with_floor(point, nbytes, objective)
        log(f"  {point.label()} {_fmt_bytes(nbytes)}: "
            f"default {default * 1e6:.1f} us "
            f"(comm-free floor {floor * 1e6:.1f} us)")
        if floor > (1.0 - MIN_GAIN) * default:
            log("    skipped: default already at the frozen-slack floor")
            continue
        if point.collective == "reduce":
            cands = _reduce_candidates(point, nbytes)
        else:
            cands = _nccl_candidates(point, nbytes)
        survivors = _prune(cands, cost, nbytes, PRUNE_KEEP)
        log("    candidates after closed-form prune: "
            + ", ".join(c.label for c in survivors))
        best: Optional[Candidate] = None
        best_lat = default
        for cand in survivors:
            lat = _measure(point, nbytes, cand, objective)
            log(f"    {cand.label}: {lat * 1e6:.1f} us")
            if lat < best_lat:
                best, best_lat = cand, lat
        if best is not None:
            best, best_lat = _climb(point, nbytes, best, best_lat,
                                    objective, log)
        if best is None or best_lat >= (1.0 - MIN_GAIN) * default:
            log("    winner: profile default (no entry)")
            continue
        log(f"    winner: {best.label} "
            f"({default / best_lat:.2f}x vs default)")
        upper = sizes[i + 1] if i + 1 < len(sizes) else 4 * nbytes
        entries.append({
            "topology": topology,
            "P": point.P,
            "min_nbytes": nbytes,
            "max_nbytes": upper,
            "knobs": best.knobs_dict(),
            "latency": best_lat,
            "default_latency": default,
        })
    return _merge_bands(entries)


def _merge_bands(entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Fuse adjacent size bands that agree on the winning knobs."""
    merged: List[Dict[str, Any]] = []
    for e in entries:
        if (merged
                and merged[-1]["topology"] == e["topology"]
                and merged[-1]["P"] == e["P"]
                and merged[-1]["knobs"] == e["knobs"]
                and merged[-1]["max_nbytes"] == e["min_nbytes"]):
            merged[-1]["max_nbytes"] = e["max_nbytes"]
            merged[-1]["latency"] = e["latency"]
            merged[-1]["default_latency"] = e["default_latency"]
        else:
            merged.append(dict(e))
    return merged


def run_plan(points, objective: str = "latency",
             log: Optional[Callable[[str], None]] = None,
             ) -> Dict[Tuple[str, str], TunedTable]:
    """Run the search over ``points``; returns the tables keyed by
    (backend, collective)."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; "
                         f"choose from {OBJECTIVES}")
    log = log or (lambda _msg: None)
    grouped: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for point in points:
        grouped.setdefault((point.backend, point.collective), [])
        for entry in tune_point(point, objective, log):
            grouped[point.backend, point.collective].append(entry)
    return {key: TunedTable(key[0], key[1], objective, entries)
            for key, entries in grouped.items()}


# -- table I/O for the CLI -----------------------------------------------------

def render_tables(tables: Dict[Tuple[str, str], TunedTable]
                  ) -> Dict[str, str]:
    """Canonical JSON text per table filename."""
    from .tables import table_filename

    return {table_filename(t.backend, t.collective): t.to_json()
            for t in tables.values()}


def write_tables(tables: Dict[Tuple[str, str], TunedTable],
                 dirname: str) -> List[str]:
    import os

    os.makedirs(dirname, exist_ok=True)
    written = []
    for fname, text in sorted(render_tables(tables).items()):
        path = os.path.join(dirname, fname)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written


def check_tables(tables: Dict[Tuple[str, str], TunedTable],
                 dirname: str) -> List[str]:
    """Byte-compare freshly searched tables against the committed ones;
    returns human-readable problems (empty = byte-identical)."""
    import os

    problems = []
    for fname, text in sorted(render_tables(tables).items()):
        path = os.path.join(dirname, fname)
        try:
            with open(path) as fh:
                on_disk = fh.read()
        except OSError:
            problems.append(f"{fname}: missing from {dirname}")
            continue
        if on_disk != text:
            problems.append(
                f"{fname}: committed table differs from regeneration "
                f"(refresh with `repro tune --quick --out {dirname}`)")
    return problems


def _fmt_bytes(n: int) -> str:
    if n >= 1 * MiB:
        return f"{n >> 20}M"
    if n >= KiB:
        return f"{n >> 10}K"
    return str(n)
