"""S-Caffe: the co-designed distributed training framework (Section 4).

One SPMD solver process per GPU; the co-design *variants* are schedule
transformations of the same iteration loop:

``SC-B`` (Section 4.1)
    Basic CUDA-Aware MPI: blocking MPI_Bcast of the packed parameter
    buffer, forward, backward, blocking MPI_Reduce of the packed
    gradient buffer.  Clearly marked sequential phases.

``SC-OB`` (Section 4.2, Fig. 5)
    Multi-stage data propagation: all per-layer MPI_Ibcast operations
    posted up front; the Wait for layer *i* is placed immediately before
    layer *i*'s forward pass, hiding propagation under compute.
    ``SC-OB-naive`` (Fig. 4) posts the Ibcast of layer *i+1* only at the
    start of layer *i*'s compute — the design the paper rejects.

``SC-OBR`` (Section 4.3, Fig. 6)
    Adds helper-thread gradient aggregation: a helper thread drives the
    per-layer backward kernels and signals the main thread (condition
    flag -> here a sim channel), which invokes the layer's reduction —
    overlapping the reduce of layer *n* with the compute of layer *n-1*.
    Combined with the runtime-level Hierarchical Reduce (HR).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..cuda import DeviceBuffer
from ..faults import CrashRank, FaultInjector, StallLink
from ..io import CheckpointStore, DataLayer
from ..mpi import (
    CollectiveTimeout, CommRevoked, MV2GDR, RankContext, RankFailure,
    RequestTimeout, TransportTimeout,
)
from ..mpi.collectives import bcast_binomial, ibcast, reduce_design
from ..sim import Channel, Event, Interrupt
from .job import TrainingJob
from .metrics import FaultReport
from .workload import SolverBuffers

__all__ = ["SCaffeJob", "run_scaffe"]

#: Failures a surviving rank recovers from by shrinking + restarting.
_RECOVERABLE = (RankFailure, CommRevoked, TransportTimeout, RequestTimeout)


class SCaffeJob(TrainingJob):
    """One S-Caffe training run on a cluster slice.

    Beyond the skeleton's arguments: ``adapter`` (a
    :class:`~repro.core.workload.RealCompute`) carries real gradients
    through the simulated collectives, and ``fault_plan`` (a
    :class:`~repro.faults.FaultPlan`) injects faults, which the job
    survives by shrink-and-restart or reports as a typed failure.
    """

    phases = ("propagation", "fwd", "bwd", "aggregation", "update", "test")
    root_actors = ("r0", "r0.helper")
    default_profile = MV2GDR

    def __init__(self, *args, adapter=None, fault_plan=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.adapter = adapter
        self.injector = (FaultInjector(self.cluster, fault_plan)
                         if fault_plan is not None else None)
        if self.telemetry is not None and self.injector is not None:
            from ..telemetry import bind_injector
            bind_injector(self.telemetry, self.injector)
        self.checkpoint = CheckpointStore(self.sim, self.cal)
        # Survivor agreement at loop end is only needed when a crash can
        # strand finished ranks; gating it on the plan keeps quiet-plan
        # runs event-for-event identical to uninjected ones.
        self._crash_possible = fault_plan is not None and any(
            isinstance(ev, CrashRank) for ev in fault_plan.events)
        # The watchdog is armed only for plans that can actually stall;
        # every other plan keeps the exact event schedule of PR 6.
        self._stall_possible = fault_plan is not None and any(
            isinstance(ev, StallLink) for ev in fault_plan.events)
        self._root_gpu = None
        self._recoveries = 0
        self._recovery_time = 0.0
        self._io_stalls: List[float] = []
        self._test_results: List = []

    @property
    def name(self) -> str:
        return f"S-Caffe ({self.cfg.variant})"

    @property
    def data_backend(self) -> str:
        return self.cfg.data_backend

    # -- orchestration ------------------------------------------------------
    def refusal(self):
        refused = super().refusal()
        if refused is not None:
            # Fig. 8: "Missing data points are for the cases where
            # solvers ran out of memory" — a too-large effective batch
            # per solver.
            need = self.workload.memory_per_solver(self.local_batch)
            capacity = self.cluster.gpus[0].spec.memory_bytes
            refused = "oom", (f"needs {need >> 20} MiB/GPU, "
                              f"capacity {capacity >> 20} MiB")
        return refused

    def _spawn(self, backend):
        procs = super()._spawn(backend)
        gpus = self.comm.gpus
        self._root_gpu = gpus[0]
        if self.injector is not None:
            if self._stall_possible:
                # A stall can park a collective forever with no failing
                # attempt for the retry loop to convert; the watchdog
                # turns it into a typed outcome.
                wd = self.runtime.ensure_watchdog()
                if self.recorder is not None:
                    wd.flight = self.recorder.flight
                wd.arm(procs, gpus, nbytes=self.workload.param_bytes)
            self.injector.arm(runtime=self.runtime, procs=procs, gpus=gpus,
                              checkpoint=self.checkpoint)
        return procs

    def _typed_failure(self, report, exc) -> bool:
        # Under fault injection a failed rank is an *outcome*, not a
        # harness bug: report it as a typed failure so callers (the
        # chaos gate, the CLI) see the outcome trichotomy, never a hang
        # or an unexplained traceback.
        if self.injector is None:  # pragma: no cover - defensive
            return False
        report.failure = type(exc).__name__
        report.notes = str(exc)
        report.simulated_time = self.sim.now
        fl = self.recorder.flight if self.recorder is not None else None
        if fl is not None:
            # Ship the last-N-events timeline with the typed failure
            # (the watchdog may have dumped already; this refreshes the
            # post-mortem with the final state of the ring).
            fl.dump(f"{type(exc).__name__}: {exc}")
        return True

    def _finish(self, report) -> None:
        if report.ok:
            report.test_results = list(self._test_results)
            if self._io_stalls:
                report.io_stall_per_iteration = (
                    sum(self._io_stalls) / len(self._io_stalls)
                    / self.sim_iterations)
        if self.injector is not None or self.cfg.checkpoint_interval:
            report.faults = self._fault_report()

    def _fault_report(self) -> FaultReport:
        fr = FaultReport()
        tm = self.runtime.transport.metrics
        fr.retries = tm.retries
        fr.timeouts = tm.timeouts
        fr.messages_dropped = tm.drops_detected
        fr.link_down_hits = tm.link_down_detected
        fr.detected_failures = self.runtime.failure_detector.detections
        if self.injector is not None:
            fr.injected = dict(self.injector.injected)
            fr.crashed_ranks = list(self.injector.crashed_ranks)
        fr.recoveries = self._recoveries
        fr.recovery_time = self._recovery_time
        fr.checkpoints = self.checkpoint.saves
        fr.checkpoint_time = self.checkpoint.save_time
        fr.restores = self.checkpoint.restores
        fr.restore_time = self.checkpoint.restore_time
        fr.corrupt_detected = tm.corrupt_detected
        fr.retransmits = tm.retransmits
        fr.integrity_failures = tm.integrity_failures
        fr.silent_corruptions = tm.silent_corruptions
        fr.checksum_failures = self.checkpoint.checksum_failures
        wd = self.runtime.watchdog
        if wd is not None:
            fr.watchdog_timeouts = wd.timeouts
            fr.watchdog_escalations = wd.escalations
        return fr

    # -- the SPMD solver ----------------------------------------------------------
    def _rank_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        cfg = self.cfg
        wl = self.workload
        me = ctx.rank
        actor = f"r{me}"
        # SC-OB/SC-OBR split parameters per layer (multi-stage Ibcast);
        # only SC-OBR also splits gradients (per-layer reduces driven by
        # the helper thread).  SC-B packs both directions.
        per_group_params = cfg.variant != "SC-B"
        per_group_grads = cfg.variant == "SC-OBR"
        with_payload = self.adapter is not None

        buffers = SolverBuffers(wl, ctx.gpu,
                                per_group_params=per_group_params,
                                per_group_grads=per_group_grads,
                                with_payload=with_payload)
        # Activation + input memory accounting for the local batch.
        extra = self.local_batch * (wl.activation_bytes_per_sample
                                    + wl.input_bytes_per_sample)
        ctx.gpu.reserve(extra)

        # Parallel reader design (Fig. 3): one reader + queue per solver.
        layer = self._data_layer(backend, f"{actor}.reader")

        if with_payload and me == 0:
            buffers.write_params(self.adapter.get_params(0))

        pending_exc: Optional[BaseException] = None
        try:
            while True:
                try:
                    if pending_exc is not None:
                        exc, pending_exc = pending_exc, None
                        ctx = yield from self._recover(ctx, exc)
                        actor = f"r{ctx.rank}"
                    # Alignment barrier: start of timing on the first
                    # pass, restart agreement after a recovery.
                    yield from ctx.barrier()
                    yield from self._solve_loop(ctx, actor, buffers, layer)
                    if self._crash_possible:
                        # Completion agreement: nobody returns while a
                        # late death is pulling others into recovery —
                        # revocation breaks this barrier.
                        yield from ctx.barrier()
                    break
                except Interrupt as exc:
                    if isinstance(exc.cause, CrashRank):
                        # Dead: drop half-open phases (a survivor may
                        # inherit this rank number after the shrink).
                        self.tracer.abandon(actor)
                        return  # cleanup below
                    if isinstance(exc.cause, CollectiveTimeout):
                        # Watchdog hard-interrupt: surface the typed
                        # timeout (run() turns it into a failed report).
                        self.tracer.abandon(actor)
                        raise exc.cause from None
                    raise
                except _RECOVERABLE as exc:
                    # The fault unwound us mid-iteration: drop any
                    # half-open trace phases before the replay re-opens
                    # them.
                    self.tracer.abandon(actor)
                    pending_exc = exc
        finally:
            layer.reader.stop()
            self._io_stalls.append(layer.stall_time)
            buffers.free()
            ctx.gpu.unreserve(extra)

    def _solve_loop(self, ctx: RankContext, actor: str,
                    buffers: SolverBuffers, layer: DataLayer
                    ) -> Generator[Event, Any, None]:
        """The iteration loop, resuming after the last persisted state."""
        cfg = self.cfg
        start = self.checkpoint.completed_iterations
        for it in range(start, self.sim_iterations):
            yield from self._iteration(ctx, actor, buffers, layer, it)
            if ctx.gpu is self._root_gpu:
                self._record_iter_end(it)
                if (cfg.checkpoint_interval
                        and (it + 1) % cfg.checkpoint_interval == 0):
                    yield from self._save_checkpoint(ctx, it + 1)

    def _save_checkpoint(self, ctx: RankContext, completed: int
                         ) -> Generator[Event, Any, None]:
        """Root-solver snapshot: parameters + momentum (Caffe's
        ``.solverstate``), D2H + parallel-FS write cost."""
        payload = (self.adapter.get_params(0)
                   if self.adapter is not None else None)
        yield from self.checkpoint.save(
            ctx.gpu, 2 * self.workload.param_bytes, completed,
            payload=payload)

    def _recover(self, ctx: RankContext, exc: BaseException
                 ) -> Generator[Event, Any, RankContext]:
        """Shrink-and-restart after a detected rank failure (survivors).

        The root solver restores the last snapshot (parameters propagate
        to the other survivors through the next iteration's bcast, whose
        modeled cost is identical); every survivor rolls its iteration
        counter back to the persisted count via ``_solve_loop``.
        """
        t0 = self.sim.now
        members = tuple(id(g) for g in ctx.comm.gpus)
        live = ctx.comm.shrink()
        if not any(g is self._root_gpu for g in live.gpus):
            # The root solver owns the checkpoint store and the reduced
            # model; no survivor can take over its state, so its death
            # is job death — a typed failure, never a quiet completion
            # with orphaned bookkeeping.
            raise RuntimeError(
                f"unrecoverable failure on {ctx.comm.name}: root solver "
                f"died ({exc})") from exc
        if tuple(id(g) for g in live.gpus) == members:
            # Nothing died — a bare transport timeout is not survivable
            # by shrinking, and retrying the same membership forever
            # would hang: fail the job loudly instead.
            raise RuntimeError(
                f"unrecoverable failure on {ctx.comm.name}: {exc}") from exc
        new_ctx = ctx.sub_context(live)
        if new_ctx is None:  # pragma: no cover - crashes exit via Interrupt
            raise RuntimeError("dead rank cannot recover") from exc
        if new_ctx.gpu is self._root_gpu:
            snap = yield from self.checkpoint.restore(new_ctx.gpu)
            if (snap is not None and snap.payload is not None
                    and self.adapter is not None):
                self.adapter.set_params(0, snap.payload)
            self._recoveries += 1
            self._recovery_time += self.sim.now - t0
        return new_ctx

    def _iteration(self, ctx: RankContext, actor: str,
                   buffers: SolverBuffers, layer: DataLayer, it: int
                   ) -> Generator[Event, Any, None]:
        cfg = self.cfg
        wl = self.workload
        me = ctx.rank
        groups = wl.groups
        tr = self.tracer

        # ---- data propagation -------------------------------------------------
        bcast_reqs = None
        if cfg.variant == "SC-B":
            tr.begin(actor, "propagation")
            yield from bcast_binomial(ctx, buffers.packed_params, 0)
            tr.end(actor, "propagation")
        elif cfg.variant in ("SC-OB", "SC-OBR"):
            # Multi-stage: start ALL Ibcasts at the beginning (Fig. 5).
            bcast_reqs = [ibcast(ctx, buf, 0) for buf in buffers.param_bufs]
        elif cfg.variant == "SC-OB-naive":
            bcast_reqs = [None] * len(groups)
            bcast_reqs[0] = ibcast(ctx, buffers.param_bufs[0], 0)

        # ---- input batch (reader queue + H2D upload) ----------------------------
        yield from layer.next_batch()
        yield from self._upload_input(ctx.gpu)

        # ---- forward pass ----------------------------------------------------------
        for g, group in enumerate(groups):
            if bcast_reqs is not None:
                if cfg.variant == "SC-OB-naive" and bcast_reqs[g] is None:
                    bcast_reqs[g] = ibcast(ctx, buffers.param_bufs[g], 0)
                tr.begin(actor, "propagation")
                yield bcast_reqs[g].wait()
                tr.end(actor, "propagation")
                if (cfg.variant == "SC-OB-naive"
                        and g + 1 < len(groups)):
                    # Naive design (Fig. 4): layer g+1's Ibcast only
                    # starts alongside layer g's compute.
                    bcast_reqs[g + 1] = ibcast(
                        ctx, buffers.param_bufs[g + 1], 0)
            yield from self._compute(ctx.gpu, actor, "fwd",
                                     group.fwd_flops_per_sample,
                                     dispatch=True)

        # ---- real math (payload mode): params in, gradients out ------------------
        if self.adapter is not None:
            if me != 0:
                self.adapter.set_params(me, buffers.read_params())
            loss = self.adapter.compute_gradients(me, it)
            if me == 0:
                self._last_loss = loss
            buffers.write_grads(self.adapter.local_grads(me))

        # ---- backward + gradient aggregation ------------------------------------
        if cfg.variant == "SC-OBR":
            yield from self._backward_overlapped(ctx, actor, buffers)
        else:
            yield from self._compute(ctx.gpu, actor, "bwd",
                                     wl.bwd_flops_per_sample)
            tr.begin(actor, "aggregation")
            for buf in buffers.grad_bufs:
                yield from self._reduce(ctx, buf)
            tr.end(actor, "aggregation")

        # ---- ApplyUpdate on the root solver -----------------------------------------
        if me == 0:
            yield from self._update(ctx.gpu, actor)
            if self.adapter is not None:
                self.adapter.apply_update(0, buffers.read_grads())
                buffers.write_params(self.adapter.get_params(0))
            # ---- Testing phase (root solver only, Section 6.2) ----------
            if cfg.test_interval and (it + 1) % cfg.test_interval == 0:
                tr.begin(actor, "test")
                eff_t = self.cal.batch_efficiency(cfg.test_batch)
                yield from ctx.cuda.launch(
                    ctx.gpu,
                    flops=wl.fwd_flops_per_sample * cfg.test_batch
                    / eff_t)
                tr.end(actor, "test")
                result = (self.adapter.evaluate(0)
                          if self.adapter is not None else None)
                self._test_results.append((it + 1, result))

    def _backward_overlapped(self, ctx: RankContext, actor: str,
                             buffers: SolverBuffers
                             ) -> Generator[Event, Any, None]:
        """SC-OBR: helper thread drives per-layer backward kernels; the
        main thread reduces layer n while the helper computes layer n-1
        (Section 4.3, Fig. 6)."""
        wl = self.workload
        tr = self.tracer
        done_ch = Channel(self.sim)
        helper_actor = f"{actor}.helper"

        def helper():
            try:
                for g in reversed(range(len(wl.groups))):
                    yield from self._compute(
                        ctx.gpu, helper_actor, "bwd",
                        wl.groups[g].bwd_flops_per_sample, dispatch=True)
                    yield done_ch.put(g)
            except Interrupt:
                return  # main thread died or entered recovery

        # Eager: the helper runs inline to its first dispatch timeout;
        # the main thread only blocks on done_ch afterwards, so spawn
        # order effects cannot reach the compute resource.
        helper_proc = self.sim.process(helper(), name=helper_actor,
                                       eager=True)
        try:
            for _ in range(len(wl.groups)):
                g = yield done_ch.get()
                tr.begin(actor, "aggregation")
                yield from self._reduce(ctx, buffers.grad_bufs[g])
                tr.end(actor, "aggregation")
            yield helper_proc
        except BaseException:
            # Don't leave an orphan helper computing into a dead/recovering
            # iteration (its done_ch puts would never be drained).
            if helper_proc.is_alive:
                helper_proc.interrupt()
            raise

    def _reduce(self, ctx: RankContext, buf: DeviceBuffer
                ) -> Generator[Event, Any, None]:
        """Gradient reduction to the root solver per the configured
        design; the root reduces in place (its contribution included).
        Returns the design's generator (no extra frame per resumption)."""
        recv = buf if ctx.rank == 0 else None
        return reduce_design(ctx, buf, recv, 0, design=self.cfg.reduce_design)


run_scaffe = SCaffeJob.launch
