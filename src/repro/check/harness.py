"""Differential conformance harness for the collective suite.

Every :class:`Case` runs one collective over real NumPy payloads on a
freshly built simulated cluster, with an
:class:`~repro.check.invariants.InvariantChecker` installed, and
compares the result byte-for-byte against the plain-NumPy reference
semantics in :mod:`repro.check.reference`.  A case fails if

- any rank program raises or never finishes (deadlock),
- any rank's result deviates from the reference by a single byte, or
- the run leaves an invariant violation behind (lockstep break, tag
  outside its reservation, leaked request/scratch/staging buffer,
  queue residue).

Cases are plain frozen dataclasses with a stable one-line ``spec()``
encoding, so any failure is reproducible from its printed spec alone:
``repro check --case '<spec>'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..faults import DropMessages, FaultInjector, FaultPlan
from ..mpi.collectives import block_partition
from ..mpi.omb import CollPoint, rootless, spmd_program, universe
from ..nccl import ring_order
from .invariants import InvariantChecker
from .reference import (
    allgather_reference, gather_reference, rank_payload, reduce_reference,
    reduce_scatter_reference, scatter_reference,
)

__all__ = ["Case", "CaseResult", "COLLECTIVES", "run_case", "parse_case",
           "generate_matrix", "run_matrix"]

#: Collectives the harness can drive, in canonical order.  The
#: ``nccl_*`` entries are the NCCL backend's suite; like the MPI ones
#: they run under every profile on the backend axis (the algorithms are
#: substrate-generic — only ``nccl`` makes them the *native* choice).
COLLECTIVES = (
    "reduce_binomial", "reduce_chain", "hierarchical_reduce",
    "allreduce_ring", "allreduce_reduce_bcast",
    "bcast_binomial", "bcast_flat", "bcast_scatter_allgather",
    "gather_binomial", "scatter_binomial",
    "allgather_ring", "reduce_scatter_ring",
    "nccl_allreduce_ring", "nccl_allreduce_tree",
    "nccl_bcast_ring", "nccl_bcast_tree",
    "nccl_allgather", "nccl_reduce_scatter",
)


@dataclass(frozen=True)
class Case:
    """One conformance-matrix entry (fully determines a run)."""

    collective: str
    P: int
    nbytes: int
    root: int = 0
    chunk_bytes: Optional[int] = None
    window: Optional[int] = None
    profile: str = "mv2gdr"
    hr_config: Optional[str] = None
    seed: int = 0
    fault: Optional[str] = None

    def spec(self) -> str:
        """Stable one-line encoding, accepted by :func:`parse_case`."""
        parts = [f"collective={self.collective}", f"P={self.P}",
                 f"nbytes={self.nbytes}", f"root={self.root}",
                 f"profile={self.profile}", f"seed={self.seed}"]
        if self.chunk_bytes is not None:
            parts.append(f"chunk_bytes={self.chunk_bytes}")
        if self.window is not None:
            parts.append(f"window={self.window}")
        if self.hr_config is not None:
            parts.append(f"hr_config={self.hr_config}")
        if self.fault is not None:
            parts.append(f"fault={self.fault}")
        return ",".join(parts)

    def repro_command(self) -> str:
        return f"PYTHONPATH=src python -m repro.cli check --case '{self.spec()}'"


def parse_case(spec: str) -> Case:
    """Inverse of :meth:`Case.spec`."""
    kv: Dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            k, v = part.split("=", 1)
        except ValueError:
            raise ValueError(f"bad case field {part!r} (expected key=value)")
        kv[k.strip()] = v.strip()
    ints = {"P", "nbytes", "root", "chunk_bytes", "window", "seed"}
    kwargs: Dict[str, object] = {}
    for k, v in kv.items():
        if k in ints:
            kwargs[k] = int(v)
        elif k in ("collective", "profile", "hr_config", "fault"):
            kwargs[k] = v
        else:
            raise ValueError(f"unknown case field {k!r}")
    if "collective" not in kwargs:
        raise ValueError("case spec needs collective=...")
    case = Case(**kwargs)
    if case.collective not in COLLECTIVES:
        raise ValueError(f"unknown collective {case.collective!r}")
    return case


@dataclass
class CaseResult:
    case: Case
    failures: List[str] = field(default_factory=list)
    sim_time: float = 0.0
    n_events: int = 0
    #: Telemetry PVAR snapshot at end of run (cross-validated against
    #: the checker's independent tally before being stored).
    pvars: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = f"{'PASS' if self.ok else 'FAIL'} {self.case.spec()}"
        if self.ok:
            return head
        lines = [head] + [f"    {f}" for f in self.failures]
        lines.append(f"    repro: {self.case.repro_command()}")
        return "\n".join(lines)


def _root_for_rank(case: Case, rank: int) -> int:
    """Seam for the mutation self-test: the root a given rank *believes*
    in.  Correct SPMD code returns ``case.root`` for every rank; the
    wrong-root mutant patches this to desynchronize one rank."""
    return case.root


def case_point(case: Case) -> CollPoint:
    """The collective point ``case`` runs: Cluster-A with enough nodes
    for ``case.P`` ranks, the case's knobs attached to the collectives
    that take them."""
    coll = case.collective
    knobs: Dict[str, object] = {}
    if coll == "reduce_chain":
        knobs = {"chunk_bytes": case.chunk_bytes, "window": case.window}
    elif coll == "hierarchical_reduce":
        knobs = {"config": case.hr_config or "CB-4",
                 "chunk_bytes": case.chunk_bytes}
    elif coll.startswith("nccl_"):
        knobs = {"chunk_bytes": case.chunk_bytes}
    return CollPoint(coll, case.P, case.nbytes, case.profile,
                     cluster_kw={"n_nodes": max(1, (case.P + 15) // 16)},
                     seed=case.seed, root=case.root, knobs=knobs)


def _verify(case: Case, payloads: List[np.ndarray],
            results: List[Optional[np.ndarray]], failures: List[str]) -> None:
    """Byte-exact comparison of per-rank outputs against the reference."""
    coll = case.collective
    root = case.root

    def check(rank: int, got: Optional[np.ndarray], want: np.ndarray,
              what: str) -> None:
        if got is None:
            failures.append(f"rank {rank}: no {what} output")
            return
        if got.shape != want.shape or not np.array_equal(
                got.view(np.uint8), want.view(np.uint8)):
            bad = int(np.sum(got != want)) if got.shape == want.shape else -1
            failures.append(
                f"rank {rank}: {what} deviates from reference "
                f"({bad if bad >= 0 else 'shape'} wrong element(s))")

    if coll in ("reduce_binomial", "reduce_chain", "hierarchical_reduce"):
        check(root, results[root], reduce_reference(payloads), "reduce")
    elif coll in ("allreduce_ring", "allreduce_reduce_bcast",
                  "nccl_allreduce_ring", "nccl_allreduce_tree"):
        want = reduce_reference(payloads)
        for r, got in enumerate(results):
            check(r, got, want, "allreduce")
    elif coll.startswith("bcast") or coll.startswith("nccl_bcast"):
        want = payloads[root]
        for r, got in enumerate(results):
            check(r, got, want, "bcast")
    elif coll == "gather_binomial":
        check(root, results[root], gather_reference(payloads), "gather")
    elif coll == "scatter_binomial":
        for r, got in enumerate(results):
            want = scatter_reference(payloads[root], r, case.P)
            off, n = block_partition(case.nbytes, case.P)[r]
            check(r, got[off // 4:(off + n) // 4], want, "scatter")
    elif coll in ("allgather_ring", "nccl_allgather"):
        want = allgather_reference(payloads)
        for r, got in enumerate(results):
            check(r, got, want, "allgather")
    elif coll == "reduce_scatter_ring":
        for r, got in enumerate(results):
            want = reduce_scatter_reference(payloads, r)
            off, n = block_partition(case.nbytes, case.P)[(r + 1) % case.P]
            check(r, got[off // 4:(off + n) // 4], want, "reduce_scatter")
    elif coll == "nccl_reduce_scatter":
        # Blocks are indexed by ring *position*: the rank at position i
        # ends holding fully-reduced block (i+1) mod P.  Recompute the
        # topology ring from the case geometry (cluster_a block
        # placement: 16 GPUs per node, ranks in global order).
        full = reduce_reference(payloads)
        order = ring_order([r // 16 for r in range(case.P)])
        blocks = block_partition(case.nbytes, case.P)
        for i, r in enumerate(order):
            off, n = blocks[(i + 1) % case.P]
            check(r, results[r][off // 4:(off + n) // 4]
                  if results[r] is not None else None,
                  full[off // 4:(off + n) // 4], "reduce_scatter")


def _fault_plan(case: Case) -> Optional[FaultPlan]:
    if case.fault is None:
        return None
    if case.fault == "drops":
        # Two messages lost on rank 0's PCIe uplink right as the
        # collective starts: the transport retries transparently, so the
        # result must still be byte-exact.
        return FaultPlan("conformance.drops", (
            DropMessages(time=1e-6, target=("pcie", 0, "up"), count=2),))
    raise ValueError(f"unknown fault kind {case.fault!r}")


def run_case(case: Case) -> CaseResult:
    """Run one conformance case; never raises for in-run failures."""
    res = CaseResult(case)
    if case.collective not in COLLECTIVES:
        res.failures.append(f"unknown collective {case.collective!r}")
        return res
    if not 0 <= case.root < case.P:
        res.failures.append(f"root {case.root} out of range for P={case.P}")
        return res
    if case.nbytes % 4:
        res.failures.append("nbytes must be 4-byte aligned (float32)")
        return res

    point = case_point(case)
    runtime, comm = universe(point)
    sim, cluster = runtime.sim, runtime.cluster
    payloads = [rank_payload(case.seed, r, case.nbytes)
                for r in range(case.P)]
    program = spmd_program(point, payloads,
                           lambda rank: _root_for_rank(case, rank))

    plan = _fault_plan(case)
    if plan is not None:
        FaultInjector(cluster, plan).arm()

    chk = InvariantChecker()
    chk.install(sim)
    # Telemetry rides along on every case: its per-collective byte
    # attribution is cross-validated against the checker's independent
    # tally below, so the two ledgers keep each other honest.
    from ..telemetry import TelemetrySession
    tel = TelemetrySession()
    tel.attach(sim)
    tel.install()
    aborted = False
    try:
        procs = runtime.spawn(comm, program)
        try:
            sim.run()
        except Exception as exc:
            aborted = True
            res.failures.append(f"simulation aborted: {exc!r}")
    finally:
        tel.uninstall()
        chk.uninstall()

    res.sim_time = sim.now
    res.n_events = sim.event_count

    if not aborted:
        stuck = [i for i, p in enumerate(procs) if p.is_alive]
        if stuck:
            res.failures.append(f"deadlock: ranks {stuck} never finished")
        else:
            failed = [(i, p.value) for i, p in enumerate(procs) if not p.ok]
            if failed:
                for i, exc in failed:
                    res.failures.append(f"rank {i} raised {exc!r}")
            else:
                _verify(case, payloads, [p.value for p in procs],
                        res.failures)
        if not stuck:
            for v in chk.end_of_run(transport=runtime.transport):
                res.failures.append(str(v))
            got = {k: int(v)
                   for k, v in tel.pvar_read("mpi.coll.bytes").items()}
            want = {k: int(v) for k, v in chk.coll_bytes.items()}
            if got != want:
                res.failures.append(
                    f"telemetry coll-bytes mismatch: pvar {got} "
                    f"vs checker tally {want}")
        res.pvars = tel.pvar_snapshot()
    else:
        # A crashed simulation leaves queues/requests in arbitrary
        # states; the abort itself is the failure.
        res.failures.extend(str(v) for v in chk.violations)
    return res


# -- matrix generation ---------------------------------------------------------

#: Regression configurations for the two fixed tag-space bugs: a chain
#: reduce with >4096 chunks (historically spilled past its TAG_BLOCK
#: into the next collective's space) and rings with P > 513 ranks
#: (historically the allgather phase's hardcoded ``tag0 + 512`` offset
#: collided with reduce-scatter tags).
BOUNDARY_CASES = (
    Case("reduce_chain", P=3, nbytes=4 * 4160, chunk_bytes=4),
    Case("reduce_binomial", P=2, nbytes=4 * 4100, profile="openmpi"),
    Case("allreduce_ring", P=514, nbytes=4),
    Case("allgather_ring", P=515, nbytes=4),
    Case("reduce_scatter_ring", P=515, nbytes=4),
    # NCCL boundary cells: multi-node rings with empty tail blocks, a
    # tiny-chunk ring allreduce whose tag reservation spans multiple
    # TAG_BLOCK units, and the P=3 tree special case.
    Case("nccl_allreduce_ring", P=514, nbytes=4, profile="nccl"),
    Case("nccl_reduce_scatter", P=33, nbytes=4, profile="nccl"),
    Case("nccl_allreduce_ring", P=3, nbytes=4 * 4160, chunk_bytes=4,
         profile="nccl"),
    Case("nccl_allreduce_tree", P=3, nbytes=4096, profile="nccl"),
    Case("nccl_bcast_tree", P=3, nbytes=4096, root=2, profile="nccl"),
)

#: The backend axis of the matrix — derived from the profile registry
#: so a newly registered backend is swept automatically.
from ..mpi.profiles import profile_names as _profile_names  # noqa: E402

_PROFILES = tuple(_profile_names())


def generate_matrix(seed: int = 0, *, quick: bool = False,
                    max_p: Optional[int] = None) -> List[Case]:
    """The randomized-but-seeded conformance matrix.

    Always includes one case per (collective, profile) pair plus the
    :data:`BOUNDARY_CASES`; non-quick mode adds randomized sweeps over
    (P, root, nbytes, chunk_bytes, window) and fault-injected runs.
    """
    rng = np.random.default_rng(seed)
    cases: List[Case] = []

    def rand_p() -> int:
        return int(rng.integers(2, 17))

    def rand_nbytes() -> int:
        return 4 * int(rng.integers(1, 1 << int(rng.integers(1, 13))))

    # Coverage floor: every collective under every profile.
    for profile in _PROFILES:
        for coll in COLLECTIVES:
            P = rand_p()
            kw: Dict[str, object] = {}
            if not rootless(coll):
                kw["root"] = int(rng.integers(0, P))
            if coll == "reduce_chain":
                kw["chunk_bytes"] = int(
                    rng.choice([64, 256, 1024]))
                kw["window"] = int(rng.choice([1, 2, 8]))
            if coll == "hierarchical_reduce":
                kw["hr_config"] = str(rng.choice(
                    ["CB-4", "CC-4", "CCB-4", "CB-8"]))
                P = max(P, 8)
                kw["root"] = int(rng.integers(0, P))
            if coll.startswith("nccl_"):
                kw["chunk_bytes"] = int(rng.choice([64, 256, 4096]))
            cases.append(Case(coll, P=P, nbytes=rand_nbytes(),
                              profile=profile, seed=seed, **kw))

    rounds = 1 if quick else 4
    for _ in range(rounds):
        for coll in COLLECTIVES:
            P = rand_p()
            kw = {}
            if not rootless(coll):
                kw["root"] = int(rng.integers(0, P))
            if coll == "reduce_chain":
                kw["chunk_bytes"] = int(rng.choice([4, 64, 4096]))
                kw["window"] = (None if rng.integers(0, 2)
                                else int(rng.integers(1, 9)))
            if coll == "hierarchical_reduce":
                kw["hr_config"] = str(rng.choice(
                    ["CB-2", "CB-4", "CC-4", "CCB-2", "CCB-4"]))
                P = max(P, 6)
                kw["root"] = int(rng.integers(0, P))
            if coll.startswith("nccl_"):
                kw["chunk_bytes"] = (None if rng.integers(0, 2)
                                     else int(rng.choice([4, 64, 4096])))
            fault = "drops" if rng.integers(0, 4) == 0 else None
            cases.append(Case(coll, P=P, nbytes=rand_nbytes(),
                              profile=str(rng.choice(_PROFILES)),
                              seed=int(rng.integers(0, 1 << 16)),
                              fault=fault, **kw))

    cases.extend(BOUNDARY_CASES)
    if max_p is not None:
        cases = [c for c in cases if c.P <= max_p]
    # Quick mode keeps the big-P boundary rings but drops the heaviest
    # random payloads to stay CI-friendly.
    if quick:
        cases = [c if c.nbytes <= 1 << 14 else replace(c, nbytes=1 << 14)
                 for c in cases]
    return cases


def run_matrix(cases: List[Case], *, stop_on_fail: bool = False,
               progress=None) -> List[CaseResult]:
    results = []
    for case in cases:
        r = run_case(case)
        results.append(r)
        if progress is not None:
            progress(r)
        if stop_on_fail and not r.ok:
            break
    return results
