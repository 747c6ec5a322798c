"""Chaos conformance: the outcome-trichotomy gate (``repro check --chaos``).

The fault-semantics contract this harness enforces: a collective run
under *any* seeded fault plan ends in exactly one of three outcomes —

- ``exact``     — byte-exact result, no recovery machinery engaged
                  (the fault missed the traffic, or only slowed it);
- ``recovered`` — byte-exact result after transparent bounded retry /
                  checksum-triggered retransmit;
- ``error``     — a clean *typed* error (:class:`TransportTimeout`,
                  :class:`IntegrityError`, :class:`RankFailure`,
                  :class:`CommRevoked`, :class:`RequestTimeout`,
                  :class:`CollectiveTimeout`, or an
                  :class:`~repro.sim.Interrupt` carrying one of those /
                  a :class:`~repro.faults.CrashRank`).

Two further buckets must NEVER occur, and fail the gate:

- ``silent``    — wrong bytes with no error raised, or the transport's
                  ``integrity.silent_corruptions`` counter went
                  non-zero (a corrupted delivery survived verify);
- ``hang``      — the event schedule drained while rank processes were
                  still alive (deadlock), or an *untyped* exception
                  escaped.

Every case is a frozen :class:`ChaosCase` with a stable one-line
``spec()``, so any failing cell reproduces from its printed spec alone:
``repro check --chaos-case '<spec>'``.  :func:`run_chaos_selftest`
proves the gate has teeth by disabling the checksum verify (must
classify ``silent``) and the watchdog (must classify ``hang``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..faults import (
    CorruptMessages, DropMessages, FaultInjector, FaultPlan, LinkDegrade,
    LinkFlap, StallLink,
)
from ..faults.plan import CrashRank
from ..mpi import (
    CollectiveTimeout, CommRevoked, IntegrityError, RankFailure,
    RequestTimeout, TransportTimeout,
)
from ..mpi.omb import spmd_program, universe
from ..sim import Interrupt
from . import harness
from .harness import COLLECTIVES, Case, _PROFILES
from .mutation import MutationOutcome
from .reference import rank_payload

__all__ = ["ChaosCase", "ChaosResult", "FAULT_KINDS", "run_chaos_case",
           "parse_chaos_case", "generate_chaos_matrix", "run_chaos",
           "chaos_outcome_tally", "run_chaos_selftest"]

#: Fault kinds the chaos matrix sweeps, in canonical order.
FAULT_KINDS = ("corrupt", "corrupt-storm", "stall", "drop", "flap",
               "degrade")

#: Exception types that count as a *clean typed error* outcome.
TYPED_ERRORS = (TransportTimeout, RankFailure, CommRevoked, RequestTimeout,
                CollectiveTimeout)

#: The three acceptable outcomes (the trichotomy).
GOOD_OUTCOMES = ("exact", "recovered", "error")


@dataclass(frozen=True)
class ChaosCase:
    """One chaos-matrix cell (fully determines a run)."""

    collective: str
    P: int
    nbytes: int
    kind: str
    profile: str = "mv2gdr"
    seed: int = 0

    def spec(self) -> str:
        """Stable one-line encoding, accepted by :func:`parse_chaos_case`."""
        return (f"collective={self.collective},P={self.P},"
                f"nbytes={self.nbytes},kind={self.kind},"
                f"profile={self.profile},seed={self.seed}")

    def repro_command(self) -> str:
        return ("PYTHONPATH=src python -m repro.cli check "
                f"--chaos-case '{self.spec()}'")

    @property
    def victim(self) -> int:
        """The rank whose PCIe lanes the fault targets (never the root,
        which the harness pins at 0)."""
        return 1 + self.seed % max(1, self.P - 1)


def parse_chaos_case(spec: str) -> ChaosCase:
    """Inverse of :meth:`ChaosCase.spec`."""
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
    kwargs: Dict[str, object] = {}
    for k, v in kv.items():
        if k in ("P", "nbytes", "seed"):
            kwargs[k] = int(v)
        elif k in ("collective", "kind", "profile"):
            kwargs[k] = v
        else:
            raise ValueError(f"unknown chaos case field {k!r}")
    for need in ("collective", "kind"):
        if need not in kwargs:
            raise ValueError(f"chaos case spec needs {need}=...")
    case = ChaosCase(**kwargs)
    if case.collective not in COLLECTIVES:
        raise ValueError(f"unknown collective {case.collective!r}")
    if case.kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {case.kind!r} "
                         f"(have {FAULT_KINDS})")
    return case


@dataclass
class ChaosResult:
    case: ChaosCase
    outcome: str = "exact"
    detail: str = ""
    failures: List[str] = field(default_factory=list)
    sim_time: float = 0.0
    #: Integrity / recovery counters at end of run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Flight-recorder timeline (last-N span events) for every verdict
    #: that is not a clean exact/recovered finish, so a hang or
    #: corruption cell ships its final moments alongside the spec.
    flight: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.outcome in GOOD_OUTCOMES and not self.failures

    def describe(self) -> str:
        head = (f"{'PASS' if self.ok else 'FAIL'} "
                f"[{self.outcome:>9}] {self.case.spec()}")
        if self.ok:
            return head
        lines = [head] + [f"    {f}" for f in self.failures]
        lines.append(f"    repro: {self.case.repro_command()}")
        return "\n".join(lines)


def chaos_plan(case: ChaosCase) -> FaultPlan:
    """The seeded fault plan for one cell.

    Both PCIe directions of the victim rank are targeted so every
    collective's traffic pattern (send-heavy roots, receive-heavy
    leaves, rings) crosses a faulted lane.
    """
    up = ("pcie", case.victim, "up")
    down = ("pcie", case.victim, "down")
    kind = case.kind
    # Collectives at these sizes complete within microseconds and many
    # ranks touch a given link exactly once, in the very first round —
    # so every fault arms at t=0 (and the injector is armed before the
    # rank programs spawn) to guarantee the faulted lane sees traffic.
    if kind == "corrupt":
        # A couple of bit-flipped deliveries: the checksum layer must
        # detect and retransmit within the retry budget.
        events = (CorruptMessages(time=0.0, target=up, count=2),
                  CorruptMessages(time=0.0, target=down, count=2))
    elif kind == "corrupt-storm":
        # More corruptions than the retransmit budget can absorb on one
        # transfer: a persistent corruptor, which must surface as a
        # typed IntegrityError rather than wrong bytes.
        events = (CorruptMessages(time=0.0, target=up, count=64),
                  CorruptMessages(time=0.0, target=down, count=64))
    elif kind == "stall":
        events = (StallLink(start=0.0, target=up),
                  StallLink(start=0.0, target=down))
    elif kind == "drop":
        events = (DropMessages(time=0.0, target=up, count=2),
                  DropMessages(time=0.0, target=down, count=2))
    elif kind == "flap":
        # Even seeds flap briefly (retries bridge it: recovered); odd
        # seeds outlast the whole backoff budget (typed timeout).
        duration = 0.004 if case.seed % 2 == 0 else 0.05
        events = (LinkFlap(start=0.0, duration=duration, target=up),
                  LinkFlap(start=0.0, duration=duration, target=down))
    elif kind == "degrade":
        events = (LinkDegrade(start=0.0, duration=0.01, target=up,
                              factor=8.0),
                  LinkDegrade(start=0.0, duration=0.01, target=down,
                              factor=8.0))
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultPlan(name=f"chaos.{kind}", events=events)


def _typed(exc: BaseException) -> bool:
    if isinstance(exc, TYPED_ERRORS):
        return True
    if isinstance(exc, Interrupt):
        return isinstance(exc.cause, (CrashRank,) + TYPED_ERRORS)
    return False


def run_chaos_case(case: ChaosCase) -> ChaosResult:
    """Run one chaos cell and classify its outcome; never raises for
    in-run failures."""
    res = ChaosResult(case)
    if case.collective not in COLLECTIVES:
        res.outcome = "hang"
        res.failures.append(f"unknown collective {case.collective!r}")
        return res
    if case.P < 2 or case.P > 16:
        res.outcome = "hang"
        res.failures.append("chaos cases need 2 <= P <= 16 (single node)")
        return res

    hcase = Case(case.collective, P=case.P, nbytes=case.nbytes,
                 profile=case.profile, seed=case.seed)
    point = harness.case_point(hcase)
    runtime, comm = universe(point)
    sim, cluster = runtime.sim, runtime.cluster
    payloads = [rank_payload(case.seed, r, case.nbytes)
                for r in range(case.P)]
    program = spmd_program(point, payloads)

    # Every cell runs under a span recorder + flight ring (both
    # passive: simulated times are bit-identical either way), so a
    # failing verdict carries its last-N-events timeline.
    from ..obs import FlightRecorder
    from ..prof import SpanRecorder
    flight = FlightRecorder(SpanRecorder(sim), capacity=256)

    # Arm the injector BEFORE spawning ranks: its t=0 drivers are then
    # scheduled ahead of the rank programs, so fault state is in place
    # before the first transfer attempt of the first round.
    injector = FaultInjector(cluster, chaos_plan(case))
    injector.arm(runtime=runtime)
    procs = runtime.spawn(comm, program)
    if case.kind == "stall":
        # Stalls are the one fault the retry loop cannot see (no
        # attempt ever fails); the watchdog converts them.
        wd = runtime.ensure_watchdog()
        wd.flight = flight
        wd.arm(procs, comm.gpus, nbytes=case.nbytes)

    error: Optional[BaseException] = None
    try:
        sim.run()
    except Exception as exc:
        error = exc

    res.sim_time = sim.now
    tm = runtime.transport.metrics
    res.counters = {
        "injected": injector.total_injected,
        "retries": tm.retries,
        "timeouts": tm.timeouts,
        "corrupt_detected": tm.corrupt_detected,
        "retransmits": tm.retransmits,
        "integrity_failures": tm.integrity_failures,
        "silent_corruptions": tm.silent_corruptions,
    }
    wd = runtime.watchdog
    if wd is not None:
        res.counters["watchdog_timeouts"] = wd.timeouts
        res.counters["watchdog_escalations"] = wd.escalations

    if tm.silent_corruptions:
        res.outcome = "silent"
        res.failures.append(
            f"{tm.silent_corruptions} corrupted deliveries passed "
            f"verification (checksum layer broken)")
        res.flight = flight.snapshot()
        return res

    if error is not None:
        if _typed(error):
            res.outcome = "error"
            res.detail = f"{type(error).__name__}: {error}"
        else:
            res.outcome = "hang"
            res.failures.append(f"untyped error escaped: {error!r}")
        res.flight = flight.snapshot()
        return res

    alive = [i for i, p in enumerate(procs) if p.is_alive]
    if alive:
        res.outcome = "hang"
        res.failures.append(
            f"deadlock: ranks {alive} still parked after the event "
            f"schedule drained")
        res.flight = flight.snapshot()
        return res

    # Clean drain, every rank finished: the bytes must be exact.
    byte_failures: List[str] = []
    harness._verify(hcase, payloads, [p.value for p in procs],
                    byte_failures)
    if byte_failures:
        res.outcome = "silent"
        res.failures.extend(byte_failures)
        res.failures.append("wrong bytes with no error raised")
        res.flight = flight.snapshot()
        return res
    recovered = (tm.retries or tm.retransmits or tm.corrupt_detected
                 or tm.drops_detected or tm.link_down_detected)
    res.outcome = "recovered" if recovered else "exact"
    return res


# -- matrix -------------------------------------------------------------------

def generate_chaos_matrix(seed: int = 0, *,
                          quick: bool = False) -> List[ChaosCase]:
    """The seeded chaos matrix: collective x profile x fault kind.

    Full mode sweeps every registered profile; quick mode keeps one MPI
    profile plus the nccl backend for CI.
    """
    rng = np.random.default_rng(seed)
    profiles = (_PROFILES[0], "nccl") if quick else _PROFILES
    cases: List[ChaosCase] = []
    for profile in profiles:
        for coll in COLLECTIVES:
            for kind in FAULT_KINDS:
                P = int(rng.integers(2, 9))
                if coll == "hierarchical_reduce":
                    P = max(P, 8)
                nbytes = 4 * int(rng.integers(8, 1 << 10))
                cases.append(ChaosCase(
                    coll, P=P, nbytes=nbytes, kind=kind, profile=profile,
                    seed=int(rng.integers(0, 1 << 16))))
    return cases


def run_chaos(cases: List[ChaosCase], *, stop_on_fail: bool = False,
              progress=None) -> List[ChaosResult]:
    results = []
    for case in cases:
        r = run_chaos_case(case)
        results.append(r)
        if progress is not None:
            progress(r)
        if stop_on_fail and not r.ok:
            break
    return results


def chaos_outcome_tally(results: List[ChaosResult]) -> Dict[str, int]:
    """Outcome -> count over a result set (all buckets present)."""
    tally = {k: 0 for k in GOOD_OUTCOMES + ("silent", "hang")}
    for r in results:
        tally[r.outcome] = tally.get(r.outcome, 0) + 1
    return tally


# -- mutation self-test --------------------------------------------------------

@contextmanager
def disabled_verify():
    """The checksum verify becomes a no-op: corruption sails through."""
    from ..mpi.transport import DeviceTransport
    orig = DeviceTransport._verify

    def patched(self, *args, **kwargs):
        return None

    DeviceTransport._verify = patched
    try:
        yield
    finally:
        DeviceTransport._verify = orig


@contextmanager
def disabled_watchdog():
    """Arming the watchdog becomes a no-op: stalls hang forever."""
    from ..mpi.watchdog import CollectiveWatchdog
    orig = CollectiveWatchdog.arm

    def patched(self, *args, **kwargs):
        return None

    CollectiveWatchdog.arm = patched
    try:
        yield
    finally:
        CollectiveWatchdog.arm = orig


#: (name, context manager, case, outcome the mutated run must produce).
CHAOS_MUTATIONS = (
    ("disabled_verify", disabled_verify,
     ChaosCase("bcast_binomial", P=4, nbytes=1024, kind="corrupt", seed=3),
     "silent"),
    ("disabled_watchdog", disabled_watchdog,
     ChaosCase("allreduce_ring", P=4, nbytes=1024, kind="stall", seed=5),
     "hang"),
)


def run_chaos_selftest() -> List[MutationOutcome]:
    """Prove the chaos gate has teeth: each sabotaged protection must
    flip its case into the matching BAD outcome, while the unmutated
    case passes."""
    outcomes = []
    for name, mutation, case, want in CHAOS_MUTATIONS:
        clean_ok = run_chaos_case(case).ok
        with mutation():
            mutated = run_chaos_case(case)
        detected = (not mutated.ok) and mutated.outcome == want
        failures = [f"outcome={mutated.outcome} (expected {want})"]
        failures += list(mutated.failures)
        outcomes.append(MutationOutcome(
            name=name, detected=detected, clean_ok=clean_ok,
            failures=failures))
    return outcomes
