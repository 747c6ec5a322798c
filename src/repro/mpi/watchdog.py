"""Collective watchdogs: stalls become typed timeouts, never hangs.

A :class:`~repro.faults.plan.StallLink` fault (or any real-world
analogue: a wedged HCA, a lost completion) parks transfers forever —
the one failure mode the transport's bounded retry loop cannot convert
into an error, because no attempt ever *fails*.  The watchdog closes
that gap: a single monitor process wakes on a deadline derived from the
analytical cost model and, when the simulation has made **zero**
progress across a full window while rank processes are still alive,
escalates:

1. **suspects first** — stall faults flagged with an attributable GPU
   are treated as that rank's death (interrupt + ``mark_dead``), which
   reuses the existing ULFM revoke → shrink → checkpoint-restart path,
   so training completes at n−1 instead of deadlocking;
2. **revoke-all** — with no attributable rank, every communicator is
   revoked with :class:`CollectiveTimeout`, unwinding survivors into a
   clean typed error;
3. **hard interrupt** — if a further full window still shows no
   progress, any process still alive is interrupted with the timeout
   directly.  The run *ends*, with typed errors, unconditionally.

The zero-progress test (an empty event schedule at the instant the
monitor's own wake has been consumed) makes the deadline a
detection-latency knob rather than a correctness knob: a
slow-but-progressing collective always has a future event scheduled and
is never killed, so a conservative window cannot cause false positives.

The watchdog also carries the *degraded-mode* flag consulted by
``tuned_reduce``: once the injector flags a straggler (degraded link or
throttled GPU), plan selection falls back to the topology-avoiding
binomial tree instead of chain/hierarchical schedules whose pipelines
serialize on the slow component.

Quiet-plan neutrality: an unarmed watchdog spawns no process and adds
zero simulated events; :class:`~repro.core.scaffe.SCaffeJob` arms it
only for plans that contain a stall.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Optional, Set

from ..faults.plan import CrashRank
from ..sim import Event

__all__ = ["CollectiveTimeout", "CollectiveWatchdog"]


class CollectiveTimeout(RuntimeError):
    """A collective exceeded its watchdog deadline (stall, not failure)."""


class CollectiveWatchdog:
    """One per-job monitor converting indefinite stalls into typed errors.

    ``multiplier`` scales the model-derived completion estimate;
    ``slack`` absorbs constant overheads the closed form does not see.
    Both err generous: the zero-progress gate does the precise work.
    """

    def __init__(self, runtime, *, multiplier: float = 4.0,
                 slack: float = 0.02):
        self.runtime = runtime
        self.sim = runtime.sim
        self.multiplier = multiplier
        self.slack = slack
        #: Degraded components flagged by the injector (link targets /
        #: GPU indices).  Non-empty => ``tuned_reduce`` degrades to the
        #: topology-avoiding binomial tree.
        self.stragglers: Set = set()
        #: GPUs suspected of owning a stalled link (escalation step 1).
        self.stall_suspects: List = []
        #: Telemetry: deadline windows that fired (zero progress seen).
        self.timeouts = 0
        #: Telemetry: escalation actions taken (suspect kills,
        #: revoke-alls, hard interrupts).
        self.escalations = 0
        self.armed = False
        #: Optional :class:`~repro.obs.FlightRecorder`: every timeout /
        #: escalation step is noted, and escalations dump the ring as a
        #: post-mortem (purely passive — notes never schedule events).
        self.flight = None
        self._procs: List = []
        self._gpus: List = []
        self._window = 0.0
        self._escalated = False

    # -- flags (called by the injector) -------------------------------------
    @property
    def degraded_mode(self) -> bool:
        return bool(self.stragglers)

    def flag_straggler(self, key) -> None:
        """Record a degraded component; collective tuning consults this."""
        self.stragglers.add(key)

    def flag_stalled(self, gpu) -> None:
        """Record a stall suspect (None for NIC stalls, which have no
        single attributable rank)."""
        if gpu is not None:
            self.stall_suspects.append(gpu)

    # -- deadlines -----------------------------------------------------------
    def window_for(self, gpus, nbytes: int) -> float:
        """Watchdog window for a collective over ``gpus`` moving
        ``nbytes``: the analytical binomial-tree bound times a safety
        multiplier, plus the transport's full retry budget, the failure
        detector's latency, and a constant slack.  Deliberately
        generous — the zero-progress gate keeps it from ever killing a
        slow collective that is still moving.
        """
        P = len(gpus)
        n = max(int(nbytes), 1)
        est = 0.0
        if P > 1:
            est = max(self.runtime.transport.estimate(gpus[0], g, n)
                      for g in gpus[1:])
        rounds = max(1, math.ceil(math.log2(max(2, P))))
        tr = self.runtime.transport
        retry_budget = sum(min(tr.RETRY_BASE * (2 ** i), tr.RETRY_MAX)
                           for i in range(tr.RETRY_LIMIT))
        lat = self.runtime.failure_detector.detect_latency
        return (self.multiplier * rounds * est + retry_budget + lat
                + self.slack)

    # -- arming ----------------------------------------------------------------
    def arm(self, procs, gpus, *, window: Optional[float] = None,
            nbytes: int = 0) -> None:
        """Start the monitor over ``procs`` (the rank processes).

        ``window=None`` derives the deadline from :meth:`window_for`.
        """
        self._procs = list(procs)
        self._gpus = list(gpus)
        self._window = (window if window is not None
                        else self.window_for(self._gpus, nbytes))
        if self._window <= 0:
            raise ValueError("watchdog window must be positive")
        self.armed = True
        self.sim.process(self._monitor(), name="watchdog")

    def _rank_of(self, gpu) -> Optional[int]:
        for r, g in enumerate(self._gpus):
            if g is gpu:
                return r
        return None

    def _monitor(self) -> Generator[Event, Any, None]:
        sim = self.sim
        while True:
            yield sim.timeout(self._window)
            alive = [p for p in self._procs if p.is_alive]
            if not alive:
                return
            # Stall gate: at this instant the monitor's own wake has
            # been consumed, so an otherwise-empty schedule means no
            # future event can ever resume the parked processes — a
            # certain deadlock.  Anything still scheduled (a pending
            # fault driver, a live transfer, a backoff timer) means the
            # job can progress: re-arm.
            if sim.peek() != float("inf"):
                continue
            self.timeouts += 1
            if self.flight is not None:
                self.flight.note(
                    "watchdog.timeout",
                    f"zero progress across a {self._window:.6f}s window; "
                    f"{len(alive)} rank(s) still parked")
            if self._escalate(alive):
                continue
            # Suspect kills and revoke-all are exhausted and the job
            # stalled again: end it with typed errors, unconditionally.
            exc = CollectiveTimeout(
                f"no progress within a {self._window:.6f}s window after "
                f"escalation; interrupting survivors")
            if self.flight is not None:
                self.flight.note("watchdog.interrupt", str(exc))
                self.flight.dump(f"watchdog hard interrupt: {exc}")
            for p in alive:
                if p.is_alive:
                    self.escalations += 1
                    p.interrupt(exc)
            return

    def _escalate(self, alive) -> bool:
        """One escalation step; returns False when out of options."""
        fd = self.runtime.failure_detector
        suspects = [g for g in self.stall_suspects if not fd.is_dead(g)]
        if suspects:
            # Treat each stall suspect as a dead rank: interrupt its
            # process (fail-stop semantics free its buffers/grants) and
            # report the death, driving the standard ULFM revoke ->
            # shrink -> checkpoint-restart recovery, so the job
            # completes at n-1 instead of deadlocking.
            for g in suspects:
                r = self._rank_of(g)
                proc = (self._procs[r]
                        if r is not None and r < len(self._procs) else None)
                if proc is not None and proc.is_alive:
                    self.escalations += 1
                    proc.interrupt(CrashRank(time=self.sim.now, rank=r))
                fd.mark_dead(g)
            if self.flight is not None:
                self.flight.note(
                    "watchdog.suspect_kill",
                    f"treated {len(suspects)} stall suspect(s) as dead "
                    f"ranks (ULFM revoke -> shrink -> restart)")
                self.flight.dump(
                    f"watchdog suspect-kill of {len(suspects)} rank(s)")
            return True
        if not self._escalated:
            self._escalated = True
            self.escalations += 1
            exc = CollectiveTimeout(
                f"collective made no progress for {self._window:.6f}s "
                f"(stalled link suspected)")
            if self.flight is not None:
                self.flight.note("watchdog.revoke_all", str(exc))
                self.flight.dump(f"watchdog revoke-all: {exc}")
            fd.revoke_all(exc)
            return True
        return False
