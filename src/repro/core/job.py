"""The training-job skeleton every framework shares.

A framework here is a per-rank (or per-thread) program — its
aggregation strategy — plus an admission rule, a phase tuple and a
name.  Everything around that is one code path: workload and report
setup, the admission gate, spawn and simulate, the iteration-end
ledger, extrapolation from the measured window, the root-actor phase
breakdown, and the observer wiring (span recorder, telemetry session,
straggler detector).  A profiled comparator therefore runs the same
code as a bare one, and as S-Caffe.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cuda import CudaRuntime
from ..hardware import Cluster, GPUDevice
from ..io import DataLayer, DataReader, get_dataset, make_backend
from ..mpi import MPIProfile, MPIRuntime
from ..sim import Event, Process, Tracer
from .config import TrainConfig
from .metrics import TrainingReport
from .workload import Workload

__all__ = ["TrainingJob"]


class TrainingJob:
    """One training run of some framework on a cluster slice.

    Subclasses set :attr:`name`, :attr:`phases` and :attr:`root_actors`,
    write :meth:`_rank_program` — the framework's aggregation strategy,
    and the place gradient compression or tensor fusion would plug in —
    and may tighten :meth:`refusal`.  ``workload=None`` builds the
    workload from ``cfg.network``.  ``profile`` selects the MPI runtime
    profile (jobs without MPI reject it); ``recorder`` and ``telemetry``
    attach the causal profiler and the MPI_T session.
    """

    #: Framework label on the report.
    name = "?"
    #: Phases of the report's breakdown, in order.
    phases: Tuple[str, ...] = ("propagation", "fwd", "bwd", "aggregation",
                               "update")
    #: Tracer actors whose phase totals make up the breakdown.
    root_actors: Tuple[str, ...] = ("r0",)
    #: Profile of the job's MPI runtime; None for jobs without MPI.
    default_profile: Optional[MPIProfile] = None
    #: Storage the data readers stream from ("lmdb" or "lustre").
    data_backend = "lmdb"
    #: Kernel-time multiplier on the fwd/bwd launches.
    compute_scale = 1.0
    #: Root-solver loss reported to telemetry (real-math runs only).
    _last_loss: Optional[float] = None

    def __init__(self, cluster: Cluster, n_gpus: int,
                 workload: Optional[Workload], cfg: TrainConfig, *,
                 profile: MPIProfile | str | None = None,
                 recorder=None, telemetry=None):
        if workload is None:
            from ..dnn import get_network
            workload = Workload.from_spec(get_network(cfg.network))
        self.cluster = cluster
        self.sim = cluster.sim
        self.cal = cluster.cal
        self.n_gpus = n_gpus
        self.workload = workload
        self.cfg = cfg
        if self.default_profile is None:
            if profile is not None:
                raise ValueError(f"{type(self).__name__} has no MPI "
                                 f"runtime to take profile {profile!r}")
            self.runtime = None
            self.cuda = CudaRuntime(cluster)
        else:
            self.runtime = MPIRuntime(
                cluster, self.default_profile if profile is None
                else profile)
            self.cuda = self.runtime.cuda
        self.tracer = Tracer(self.sim)
        self.local_batch = self._solver_batch()
        self.batch_eff = self.cal.batch_efficiency(max(1, self.local_batch))
        self.sim_iterations = min(cfg.iterations, cfg.measure_iterations + 1)
        self._iter_ends: List[float] = []
        self._attach_observers(recorder, telemetry)

    @classmethod
    def launch(cls, cluster: Cluster, n_gpus: int, cfg: TrainConfig, *,
               workload: Optional[Workload] = None,
               **kwargs) -> TrainingReport:
        """Build the job (keyword arguments as the constructor's) and
        run it."""
        return cls(cluster, n_gpus, workload, cfg, **kwargs).run()

    def _attach_observers(self, recorder, telemetry) -> None:
        if recorder is not None and recorder.sim is not self.sim:
            raise ValueError("recorder belongs to a different simulator")
        self.recorder = recorder
        self.telemetry = telemetry
        self.straggler = None
        if telemetry is None:
            return
        from ..telemetry import bind_cluster, bind_runtime
        if telemetry.sim is None:
            telemetry.attach(self.sim)
        elif telemetry.sim is not self.sim:
            raise ValueError(
                "telemetry session belongs to a different simulator")
        bind_cluster(telemetry, self.cluster)
        if self.runtime is not None:
            bind_runtime(telemetry, self.runtime)
        if recorder is not None:
            # Skew detection needs span timings, so the obs.straggler.*
            # namespace exists only on profiled runs (the PVARs are
            # snapshot-only; unprofiled telemetry output is unchanged).
            from ..obs import StragglerDetector, bind_straggler_pvars
            self.straggler = StragglerDetector(recorder)
            bind_straggler_pvars(telemetry, self.straggler)

    # -- per-framework rules --------------------------------------------------
    def _solver_batch(self) -> int:
        """Samples one solver processes per iteration."""
        return self.cfg.local_batch(self.n_gpus)

    @property
    def global_batch(self) -> int:
        """Samples the whole job consumes per iteration."""
        return self.cfg.global_batch(self.n_gpus)

    def refusal(self) -> Optional[Tuple[str, str]]:
        """``(failure, notes)`` when the run cannot start, else None.

        The default is the memory check: one solver's model state plus
        its local batch must fit on a GPU."""
        need = self.workload.memory_per_solver(self.local_batch)
        if need > self.cluster.gpus[0].spec.memory_bytes:
            return "oom", ""
        return None

    def _spawn(self, backend) -> List[Process]:
        """Start one rank program per GPU on COMM_WORLD."""
        self.comm = self.runtime.world(self.n_gpus)
        return self.runtime.spawn(self.comm, self._rank_program, backend)

    def _rank_program(self, ctx, backend) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def _typed_failure(self, report: TrainingReport,
                       exc: Exception) -> bool:
        """Record ``exc``, raised out of the simulation, as a typed
        failure on ``report``; False lets it propagate."""
        return False

    def _finish(self, report: TrainingReport) -> None:
        """Last word on every report, refused, failed or complete."""

    # -- the run ----------------------------------------------------------------
    def run(self) -> TrainingReport:
        cfg = self.cfg
        report = TrainingReport(
            framework=self.name, network=self.workload.name,
            n_gpus=self.n_gpus, iterations=cfg.iterations, total_time=0.0,
            global_batch=self.global_batch)
        refused = self.refusal()
        if refused is None:
            self._simulate(report)
        else:
            report.failure, report.notes = refused
        self._finish(report)
        return report

    def _simulate(self, report: TrainingReport) -> None:
        backend = make_backend(self.data_backend, self.sim,
                               get_dataset(self.cfg.dataset), self.cal)
        tel = self.telemetry
        if tel is not None:
            tel.install()
        try:
            procs = self._spawn(backend)
            try:
                self.sim.run()
            except Exception as exc:
                if not self._typed_failure(report, exc):
                    raise
                return
        finally:
            if tel is not None:
                tel.uninstall()
        for p in procs:
            if not p.ok:  # pragma: no cover - defensive
                raise p.value

        report.total_time = self._extrapolated_total()
        report.simulated_time = self._iter_ends[-1]
        report.phase_breakdown = self._per_iteration_phases()
        if self.recorder is not None:
            from ..prof import build_profile
            report.profile = build_profile(self.recorder)
        if tel is not None:
            from ..telemetry import training_summary
            tel.finalize(self.sim.now)
            span = report.simulated_time
            samples = self.global_batch * self.sim_iterations
            report.telemetry = training_summary(
                tel, samples_per_second=samples / span if span else 0.0)

    def _record_iter_end(self, it: int) -> None:
        # Index-assigned so iterations replayed after a rollback
        # overwrite their pre-crash timestamps.
        ends = self._iter_ends
        if it < len(ends):
            ends[it] = self.sim.now
        else:
            ends.append(self.sim.now)
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_iteration(it, self.sim.now, self.global_batch,
                             loss=self._last_loss)

    def _extrapolated_total(self) -> float:
        """Total time for cfg.iterations from the simulated window.

        The first iteration carries warmup (cold readers, first bcast);
        steady state is the mean of the remaining simulated iterations.
        """
        ends = self._iter_ends
        assert len(ends) == self.sim_iterations
        if self.cfg.iterations == len(ends):
            return ends[-1]
        first = ends[0]
        steady = ((ends[-1] - ends[0]) / (len(ends) - 1)
                  if len(ends) > 1 else first)
        return first + steady * (self.cfg.iterations - 1)

    def _per_iteration_phases(self) -> Dict[str, float]:
        """Root-actor per-iteration phase times."""
        total = self.tracer.total
        return {phase: sum(total(phase, a) for a in self.root_actors)
                / self.sim_iterations for phase in self.phases}

    # -- shared steps ---------------------------------------------------------------
    def _data_layer(self, backend, name: str,
                    samples: Optional[int] = None) -> DataLayer:
        """A reader thread + prefetch queue of ``samples`` per batch
        (default: the local batch)."""
        return DataLayer(DataReader(
            self.sim, backend,
            batch_samples=max(1, samples or self.local_batch),
            decode_bw=self.cal.decode_bw, name=name))

    def _upload_input(self, gpu: GPUDevice) -> Generator[Event, Any, None]:
        """H2D copy of the local batch's input tensor."""
        yield self.sim.timeout(self.cal.cuda_copy_overhead)
        yield from gpu.pcie_down.transfer(
            self.local_batch * self.workload.input_bytes_per_sample)

    def _compute(self, gpu: GPUDevice, actor: str, phase: str,
                 flops_per_sample: float, *, dispatch: bool = False
                 ) -> Generator[Event, Any, None]:
        """One traced fwd/bwd kernel over the local batch;
        ``dispatch`` charges the per-layer dispatch overhead first."""
        tr = self.tracer
        tr.begin(actor, phase)
        if dispatch:
            yield self.sim.timeout(self.cal.layer_dispatch_overhead)
        yield from self.cuda.launch(
            gpu, flops=flops_per_sample * self.local_batch
            * self.compute_scale / self.batch_eff)
        tr.end(actor, phase)

    def _update(self, gpu: GPUDevice, actor: str,
                param_bytes: Optional[int] = None
                ) -> Generator[Event, Any, None]:
        """Traced solver ApplyUpdate: iteration overhead, then momentum
        SGD touching each parameter a handful of times."""
        tr = self.tracer
        tr.begin(actor, "update")
        yield self.sim.timeout(self.cal.solver_iteration_overhead)
        yield from self.cuda.launch(
            gpu, flops=self.workload.param_bytes if param_bytes is None
            else param_bytes)
        tr.end(actor, "update")
