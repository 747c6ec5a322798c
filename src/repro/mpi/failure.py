"""Rank-failure detection and communicator revocation (ULFM flavour).

Real MPI has no fault tolerance in the standard; the User-Level Failure
Mitigation proposal (Bland et al.) adds three primitives this module
mirrors in simulation form:

- a **failure detector** that learns (after a detection latency modeled
  by the injector) that a rank's process died;
- **revocation**: every communicator containing the dead rank fails all
  posted/pending operations and breaks its barrier, so survivors blocked
  inside a collective observe :class:`CommRevoked` instead of
  deadlocking on a peer that will never send;
- **shrink** (on :class:`~repro.mpi.communicator.Communicator`): build a
  replacement communicator over the surviving ranks.

Detection is modeled as *perfect but delayed*: the injector calls
:meth:`FailureDetector.mark_dead` one detection-latency after the crash,
which is the point where in-flight operations start failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from ..hardware.gpu import GPUDevice
from ..sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .communicator import Communicator

__all__ = ["RankFailure", "CommRevoked", "FailureDetector"]


class RankFailure(RuntimeError):
    """A peer rank's process is known dead (MPI_ERR_PROC_FAILED)."""


class CommRevoked(RuntimeError):
    """The communicator was revoked after a failure (MPI_ERR_REVOKED)."""


class FailureDetector:
    """Cluster-wide registry of dead ranks, keyed by GPU identity.

    A GPU hosts exactly one rank in this runtime, so device identity is
    an unambiguous rank name across all (sub-)communicators.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._dead: Set[int] = set()          # id(gpu)
        self._comms: List["Communicator"] = []
        #: Telemetry: number of distinct rank deaths detected.
        self.detections = 0
        #: Live detection latency (heartbeat period + suspicion
        #: threshold).  Settable at runtime via the ``mpi.detect_latency``
        #: CVAR; the fault injector reads it at crash-delivery time.
        from ..faults.injector import DEFAULT_DETECT_LATENCY
        self.detect_latency = DEFAULT_DETECT_LATENCY

    # -- registry ----------------------------------------------------------
    def register_comm(self, comm: "Communicator") -> None:
        self._comms.append(comm)

    def is_dead(self, gpu: GPUDevice) -> bool:
        return id(gpu) in self._dead

    def any_dead(self) -> bool:
        return bool(self._dead)

    # -- detection ---------------------------------------------------------
    def mark_dead(self, gpu: GPUDevice) -> None:
        """Record a rank death and revoke every registered communicator.

        Revocation is job-wide, not limited to communicators containing
        the dead rank: survivors can be parked inside sub-communicators
        (hierarchical-reduce node/leader groups) that exclude the dead
        rank but whose progress depends on a rank that *is* blocked on
        it — exactly why ULFM's MPI_Comm_revoke exists.  Failing every
        pending operation unwinds all survivors into recovery.
        """
        if id(gpu) in self._dead:
            return
        self._dead.add(id(gpu))
        self.detections += 1
        exc = RankFailure(f"rank on {gpu.name} failed")
        for comm in list(self._comms):
            comm.revoke(exc)

    def revoke_all(self, exc: BaseException) -> None:
        """Revoke every registered communicator with ``exc``.

        The watchdog's escalation path for stalls with no attributable
        dead rank: survivors parked on a transfer that will never
        complete observe a typed error instead of hanging forever.
        """
        for comm in list(self._comms):
            comm.revoke(exc)
