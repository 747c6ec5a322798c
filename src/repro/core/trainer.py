"""Top-level training API: one entry point for all frameworks.

This is the public "run an experiment" surface used by the examples and
benchmarks::

    from repro import train
    report = train("scaffe", cluster="A", n_gpus=64,
                   config=TrainConfig(network="googlenet"))
"""

from __future__ import annotations

from typing import Optional, Union

from ..hardware import Cluster, make_cluster
from ..mpi import MPIProfile, MV2GDR
from ..sim import Simulator
from .caffe import CaffeJob
from .cntk import CNTKJob
from .config import TrainConfig
from .metrics import TrainingReport
from .mpi_caffe import MPICaffeJob
from .param_server import ParameterServerJob
from .scaffe import SCaffeJob
from .workload import RealCompute, Workload

__all__ = ["train", "FRAMEWORK_NAMES"]

#: Framework name -> (job class, fixed constructor arguments).
JOBS = {
    "scaffe": (SCaffeJob, {}),
    "caffe": (CaffeJob, {}),
    "nvcaffe": (CaffeJob, {"optimized": True}),
    "cntk": (CNTKJob, {}),
    "inspur": (ParameterServerJob, {}),
    "mpicaffe": (MPICaffeJob, {}),
}
FRAMEWORK_NAMES = tuple(JOBS)
_ALIASES = {"s": "scaffe", "nvidiacaffe": "nvcaffe", "inspurcaffe": "inspur",
            "paramserver": "inspur", "ps": "inspur",
            "modelparallel": "mpicaffe", "mp": "mpicaffe"}


def train(framework: str, *, n_gpus: int,
          cluster: Union[Cluster, str] = "A",
          config: Optional[TrainConfig] = None,
          profile: MPIProfile | str = MV2GDR,
          workload: Optional[Workload] = None,
          adapter: Optional[RealCompute] = None,
          recorder=None,
          telemetry=None) -> TrainingReport:
    """Train ``config.network`` with the named framework.

    Parameters
    ----------
    framework:
        One of :data:`FRAMEWORK_NAMES`: ``"scaffe"`` (variant chosen by
        ``config.variant``), ``"caffe"`` (BVLC baseline), ``"nvcaffe"``
        (NVIDIA fork), ``"cntk"``, ``"inspur"`` (parameter server), or
        ``"mpicaffe"`` (model parallel).
    cluster:
        A built :class:`~repro.hardware.Cluster`, or ``"A"``/``"B"`` to
        build the paper's testbed on a fresh simulator.
    profile:
        MPI runtime profile (S-Caffe only; comparators pin their own).
    adapter:
        Optional :class:`RealCompute` for payload-carrying runs
        (S-Caffe only; any other framework raises ``ValueError``).
    recorder:
        Optional :class:`~repro.prof.SpanRecorder` for causal profiling;
        must be built on the cluster's simulator.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySession` for MPI_T
        introspection and metrics export.
    """
    key = framework.lower().replace("-", "").replace("_", "")
    key = _ALIASES.get(key, key)
    if key not in JOBS:
        raise KeyError(
            f"unknown framework {framework!r}; choose from {FRAMEWORK_NAMES}")
    job_cls, kwargs = JOBS[key]
    kwargs = dict(kwargs, recorder=recorder, telemetry=telemetry)
    if job_cls is SCaffeJob:
        kwargs.update(profile=profile, adapter=adapter)
    elif adapter is not None:
        raise ValueError(f"adapter= carries real math through S-Caffe "
                         f"only; {framework!r} runs timing-only")
    if isinstance(cluster, str):
        cluster = make_cluster(Simulator(), cluster)
    return job_cls(cluster, n_gpus, workload, config or TrainConfig(),
                   **kwargs).run()
