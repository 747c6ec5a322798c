"""Differential conformance harness for the collective suite.

Every :class:`Case` runs one collective over real NumPy payloads on a
freshly built simulated cluster, with an
:class:`~repro.check.invariants.InvariantChecker` installed, and
compares the result byte-for-byte against the plain-NumPy reference
semantics in :mod:`repro.check.reference`.  A fault-free or
``fault=drops`` case fails if

- any rank program raises or never finishes (deadlock),
- any rank's result deviates from the reference by a single byte, or
- the run leaves an invariant violation behind (lockstep break, tag
  outside its reservation, leaked request/scratch/staging buffer,
  queue residue).

A case whose ``fault`` is one of :data:`FAULT_KINDS` is a chaos cell
(see :mod:`repro.check.chaos`): it may also pass by ending in a clean
*typed* error, and never by silent corruption or a hang.

Cases are plain frozen dataclasses with a stable one-line ``spec()``
encoding, so any failure is reproducible from its printed spec alone:
``repro check --case '<spec>'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from ..faults import (
    CorruptMessages, CrashRank, DropMessages, FaultInjector, FaultPlan,
    LinkDegrade, LinkFlap, StallLink,
)
from ..mpi import (
    CollectiveTimeout, CommRevoked, RankFailure, RequestTimeout,
    TransportTimeout,
)
from ..mpi.collectives import block_partition
from ..mpi.omb import CollPoint, rootless, spmd_program, universe
from ..mpi.profiles import profile_names
from ..nccl import ring_order
from ..sim import Interrupt
from .invariants import InvariantChecker
from .reference import (
    allgather_reference, gather_reference, rank_payload, reduce_reference,
    reduce_scatter_reference, scatter_reference,
)

__all__ = ["Case", "CaseResult", "COLLECTIVES", "FAULT_KINDS", "run_case",
           "parse_case", "generate_matrix", "run_matrix"]

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


#: Chaos fault kinds, in canonical order, each mapped to the event it
#: puts on one PCIe lane of the case's victim rank.  Collectives at the
#: chaos sizes complete within microseconds and many ranks touch a given
#: link exactly once, in the very first round, so every fault arms at
#: t=0 (and the injector is armed before the rank programs spawn).
_CHAOS_EVENTS = {
    # A couple of bit-flipped deliveries: the checksum layer must detect
    # and retransmit within the retry budget.
    "corrupt": lambda lane, seed: CorruptMessages(
        time=0.0, target=lane, count=2),
    # More corruptions than the retransmit budget can absorb on one
    # transfer: must surface as a typed error, never as wrong bytes.
    "corrupt-storm": lambda lane, seed: CorruptMessages(
        time=0.0, target=lane, count=64),
    "stall": lambda lane, seed: StallLink(start=0.0, target=lane),
    "drop": lambda lane, seed: DropMessages(time=0.0, target=lane, count=2),
    # Even seeds flap briefly (retries bridge it: recovered); odd seeds
    # outlast the whole backoff budget (typed timeout).
    "flap": lambda lane, seed: LinkFlap(
        start=0.0, duration=0.004 if seed % 2 == 0 else 0.05, target=lane),
    "degrade": lambda lane, seed: LinkDegrade(
        start=0.0, duration=0.01, target=lane, factor=8.0),
}

#: Fault kinds the chaos matrix sweeps, in canonical order.
FAULT_KINDS = tuple(_CHAOS_EVENTS)

#: Exception types that count as a *clean typed error* outcome.
TYPED_ERRORS = (TransportTimeout, RankFailure, CommRevoked, RequestTimeout,
                CollectiveTimeout)


@dataclass(frozen=True)
class Case:
    """One conformance-matrix entry (fully determines a run).

    ``fault`` is None, ``"drops"`` (two messages lost on rank 0's PCIe
    uplink; the result must stay byte-exact) or one of
    :data:`FAULT_KINDS` (a chaos cell faulting both PCIe lanes of
    :attr:`victim`).
    """

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

    @property
    def victim(self) -> int:
        """The rank whose PCIe lanes a chaos fault targets (never rank
        0, the chaos matrix's root)."""
        return 1 + self.seed % max(1, self.P - 1)


def case_error(case: Case) -> Optional[str]:
    """Why ``case`` cannot run, or None if it can."""
    if case.collective not in COLLECTIVES:
        return f"unknown collective {case.collective!r}"
    if case.profile not in profile_names():
        return (f"unknown profile {case.profile!r} "
                f"(have {', '.join(profile_names())})")
    if case.fault not in (None, "drops") + FAULT_KINDS:
        return (f"unknown fault kind {case.fault!r} "
                f"(have drops, {', '.join(FAULT_KINDS)})")
    if case.P < 1:
        return f"P must be >= 1, got {case.P}"
    if not 0 <= case.root < case.P:
        return f"root {case.root} out of range for P={case.P}"
    if case.nbytes < 0 or case.nbytes % 4:
        return "nbytes must be a non-negative multiple of 4 (float32)"
    if case.fault in FAULT_KINDS and not 2 <= case.P <= 16:
        return f"fault={case.fault} needs 2 <= P <= 16 (single node)"
    return None


def parse_case(spec: str) -> Case:
    """Inverse of :meth:`Case.spec`; raises ValueError on any spec that
    :func:`run_case` could not run."""
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
            try:
                kwargs[k] = int(v)
            except ValueError:
                raise ValueError(f"case field {k}={v!r} is not an integer")
        elif k in ("collective", "profile", "hr_config", "fault"):
            kwargs[k] = v
        else:
            raise ValueError(f"unknown case field {k!r}")
    for need in ("collective", "P", "nbytes"):
        if need not in kwargs:
            raise ValueError(f"case spec needs {need}=...")
    case = Case(**kwargs)
    problem = case_error(case)
    if problem is not None:
        raise ValueError(problem)
    return case


@dataclass
class CaseResult:
    case: Case
    #: ``exact`` | ``recovered`` | ``error`` | ``silent`` | ``hang``
    #: (see :mod:`repro.check.chaos`).
    outcome: str = "exact"
    detail: str = ""
    failures: List[str] = field(default_factory=list)
    sim_time: float = 0.0
    n_events: int = 0
    #: Telemetry PVAR snapshot at end of run (cross-validated against
    #: the checker's independent tally before being stored).
    pvars: Dict[str, object] = field(default_factory=dict)
    #: Integrity / recovery counters at end of a faulted run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Flight-recorder timeline (last-N span events) of a faulted run
    #: that failed or ended in an error, so the cell ships its final
    #: moments alongside the spec.
    flight: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (f"{'PASS' if self.ok else 'FAIL'} "
                f"[{self.outcome:>9}] {self.case.spec()}")
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


def fault_plan(case: Case) -> Optional[FaultPlan]:
    """The seeded fault plan ``case.fault`` names (None if fault-free)."""
    if case.fault is None:
        return None
    if case.fault == "drops":
        # Two messages lost on rank 0's PCIe uplink right as the
        # collective starts: the transport retries transparently, so the
        # result must still be byte-exact.
        return FaultPlan("conformance.drops", (
            DropMessages(time=1e-6, target=("pcie", 0, "up"), count=2),))
    # Both PCIe directions of the victim are targeted so every
    # collective's traffic pattern (send-heavy roots, receive-heavy
    # leaves, rings) crosses a faulted lane.
    make = _CHAOS_EVENTS[case.fault]
    return FaultPlan(f"chaos.{case.fault}", tuple(
        make(("pcie", case.victim, lane), case.seed)
        for lane in ("up", "down")))


def _typed(exc: BaseException) -> bool:
    if isinstance(exc, TYPED_ERRORS):
        return True
    if isinstance(exc, Interrupt):
        return isinstance(exc.cause, (CrashRank,) + TYPED_ERRORS)
    return False


def run_case(case: Case) -> CaseResult:
    """Run one case and classify its outcome; never raises for in-run
    failures."""
    res = CaseResult(case)
    problem = case_error(case)
    if problem is not None:
        res.outcome, res.detail = "error", problem
        res.failures.append(problem)
        return res

    point = case_point(case)
    runtime, comm = universe(point)
    sim, cluster = runtime.sim, runtime.cluster
    payloads = [rank_payload(case.seed, r, case.nbytes)
                for r in range(case.P)]
    program = spmd_program(point, payloads,
                           lambda rank: _root_for_rank(case, rank))

    chk = InvariantChecker()
    chk.install(sim)
    # Telemetry rides along on every case: its per-collective byte
    # attribution is cross-validated against the checker's independent
    # tally below, so the two ledgers keep each other honest.
    from ..telemetry import TelemetrySession
    tel = TelemetrySession()
    tel.attach(sim)
    tel.install()
    plan = fault_plan(case)
    injector = flight = None
    if plan is not None:
        # A span recorder + flight ring (both passive: simulated times
        # are bit-identical either way), so a failing verdict carries
        # its last-N-events timeline.
        from ..obs import FlightRecorder
        from ..prof import SpanRecorder
        flight = FlightRecorder(SpanRecorder(sim), capacity=256)
        # Arm the injector BEFORE spawning ranks: its t=0 drivers are
        # then scheduled ahead of the rank programs, so fault state is
        # in place before the first transfer attempt of the first round.
        injector = FaultInjector(cluster, plan)
        injector.arm(runtime=runtime)
    error: Optional[BaseException] = None
    try:
        procs = runtime.spawn(comm, program)
        if plan is not None and any(isinstance(ev, StallLink)
                                    for ev in plan.events):
            # Stalls are the one fault the retry loop cannot see (no
            # attempt ever fails); the watchdog converts them.
            wd = runtime.ensure_watchdog()
            wd.flight = flight
            wd.arm(procs, comm.gpus, nbytes=case.nbytes)
        try:
            sim.run()
        except Exception as exc:
            error = exc
    finally:
        tel.uninstall()
        chk.uninstall()

    res.sim_time = sim.now
    res.n_events = sim.event_count
    tm = runtime.transport.metrics
    if injector is not None:
        res.counters = {
            "injected": injector.total_injected,
            "retries": tm.retries,
            "timeouts": tm.timeouts,
            "corrupt_detected": tm.corrupt_detected,
            "retransmits": tm.retransmits,
            "integrity_failures": tm.integrity_failures,
            "silent_corruptions": tm.silent_corruptions,
        }
        if runtime.watchdog is not None:
            res.counters["watchdog_timeouts"] = runtime.watchdog.timeouts
            res.counters["watchdog_escalations"] = \
                runtime.watchdog.escalations

    alive = [i for i, p in enumerate(procs) if p.is_alive]
    if error is None and not alive:
        error = next((p.value for p in procs if not p.ok), None)
    if tm.silent_corruptions:
        res.outcome = "silent"
        res.failures.append(
            f"{tm.silent_corruptions} corrupted deliveries passed "
            f"verification (checksum layer broken)")
    elif error is not None:
        res.outcome = "error" if _typed(error) else "hang"
        res.detail = f"{type(error).__name__}: {error}"
        if res.outcome == "hang" or case.fault not in FAULT_KINDS:
            # A crashed simulation leaves queues/requests in arbitrary
            # states; the abort itself is the failure.
            res.failures.append(f"simulation aborted: {error!r}")
            res.failures.extend(str(v) for v in chk.violations)
    elif alive:
        res.outcome = "hang"
        res.failures.append(f"deadlock: ranks {alive} never finished")
    else:
        _verify(case, payloads, [p.value for p in procs], res.failures)
        if res.failures:
            res.outcome = "silent"
            res.failures.append("wrong bytes with no error raised")
        elif (tm.retries or tm.retransmits or tm.corrupt_detected
              or tm.drops_detected or tm.link_down_detected):
            res.outcome = "recovered"
        for v in chk.end_of_run(transport=runtime.transport):
            res.failures.append(str(v))
        got = {k: int(v) for k, v in tel.pvar_read("mpi.coll.bytes").items()}
        want = {k: int(v) for k, v in chk.coll_bytes.items()}
        if got != want:
            res.failures.append(
                f"telemetry coll-bytes mismatch: pvar {got} "
                f"vs checker tally {want}")
        res.pvars = tel.pvar_snapshot()
    if flight is not None and (res.failures or res.outcome == "error"):
        res.flight = flight.snapshot()
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
_PROFILES = tuple(profile_names())


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


def run_matrix(cases: List[Case], *, progress=None) -> List[CaseResult]:
    results = []
    for case in cases:
        r = run_case(case)
        results.append(r)
        if progress is not None:
            progress(r)
    return results
