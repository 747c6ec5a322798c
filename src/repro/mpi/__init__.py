"""Simulated CUDA-aware MPI runtime (the co-designed communication layer)."""

from . import collectives, omb
from .communicator import Communicator, MessageStatus, RankContext
from .failure import CommRevoked, FailureDetector, RankFailure
from .profiles import (
    MPIProfile, MV2, MV2GDR, NCCL, NCCLProfile, OPENMPI, get_profile,
    profile_names, register_profile,
)
from .request import (
    ANY_SOURCE, ANY_TAG, Request, RequestTimeout, waitall, waitany,
)
from .runtime import MPIRuntime
from .transport import (
    ChecksumError, DeviceTransport, IntegrityError, TransportMetrics,
    TransportTimeout,
)
from .watchdog import CollectiveTimeout, CollectiveWatchdog

__all__ = [
    "collectives", "omb",
    "Communicator", "MessageStatus", "RankContext",
    "CommRevoked", "FailureDetector", "RankFailure",
    "MPIProfile", "MV2", "MV2GDR", "NCCL", "NCCLProfile", "OPENMPI",
    "get_profile", "profile_names", "register_profile",
    "ANY_SOURCE", "ANY_TAG", "Request", "RequestTimeout",
    "waitall", "waitany",
    "MPIRuntime", "DeviceTransport", "TransportMetrics", "TransportTimeout",
    "ChecksumError", "IntegrityError",
    "CollectiveTimeout", "CollectiveWatchdog",
]
