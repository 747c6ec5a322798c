"""Parameter-server baseline (the Inspur-Caffe design, Sections 3.1, 7).

A classical master-worker data-parallel design: every worker trains a
shard, ships its full gradient buffer to the server (GPU 0), which
aggregates serially as contributions arrive, applies the update, and
ships fresh parameters back to every worker.  The single aggregation
point is the scalability bottleneck the paper argues against.

Fidelity notes, per Section 6.4: Inspur-Caffe "didn't run for less than
2 GPUs", and "the execution hangs after completing a few iterations"
for counts other than 2 and 4; it never ran past 16 processes.  Those
observed behaviours are modeled as capability outcomes so Fig. 10 shows
the same missing bars.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi import MV2, RankContext
from ..mpi.request import ANY_SOURCE
from ..sim import Event
from .job import TrainingJob
from .workload import SolverBuffers

__all__ = ["ParameterServerJob", "run_param_server"]

#: GPU counts the real comparator ran at (Fig. 10).
WORKING_COUNTS = {2, 4}
#: Counts where the real comparator hung after a few iterations.
HANGING_COUNTS = {8, 16}


class ParameterServerJob(TrainingJob):
    """Parameter-server training (Inspur-Caffe-like).

    ``mode="sync"`` is the synchronous master-worker pattern of
    Section 3.1; ``mode="async"`` models Inspur-Caffe's actual design
    per Section 7 — "an MPI-based Caffe fork that exploits [the]
    parameter-server approach with *stale asynchronous gradient
    updates*": rank 0 becomes a dedicated server that applies each
    worker's gradient the moment it arrives (no barrier), so workers
    train on parameters that may be several updates stale.
    """

    phases = ("fwd", "bwd", "aggregation", "update", "propagation")
    default_profile = MV2

    def __init__(self, *args, emulate_limits: bool = True,
                 mode: str = "sync", **kwargs):
        if mode not in ("sync", "async"):
            raise ValueError(f"mode must be sync|async, got {mode!r}")
        self.emulate_limits = emulate_limits
        self.mode = mode
        super().__init__(*args, **kwargs)

    @property
    def name(self) -> str:
        return ("Inspur-Caffe" if self.mode == "sync"
                else "Inspur-Caffe (async)")

    @property
    def global_batch(self) -> int:
        if self.mode == "async":
            # Rank 0 is a dedicated server: only P-1 GPUs train.
            return self.local_batch * (self.n_gpus - 1)
        return super().global_batch

    def refusal(self):
        if self.emulate_limits:
            if self.n_gpus in HANGING_COUNTS:
                return "hang", ("execution hangs after a few iterations "
                                "(Section 6.4)")
            if self.n_gpus not in WORKING_COUNTS:
                return "unsupported", "comparator only ran at 2 and 4 GPUs"
        return super().refusal()

    def _finish(self, report):
        if report.ok and self.mode == "async":
            report.notes = "dedicated server on rank 0; stale updates"

    def _rank_program(self, ctx: RankContext, backend
                      ) -> Generator[Event, Any, None]:
        """Rank 0 doubles as the server (a GPU 'taken away' from
        training is exactly the design critique of Section 3.1 — here
        the server also trains, matching Inspur's synchronous mode, but
        every gradient funnels through its NIC/PCIe)."""
        if self.mode == "async":
            return (yield from self._rank_program_async(ctx, backend))
        wl = self.workload
        me = ctx.rank
        P = ctx.size
        tr = self.tracer
        actor = f"r{me}"

        buffers = SolverBuffers(wl, ctx.gpu, per_group_params=False,
                                per_group_grads=False, with_payload=False)
        scratch = (ctx.scratch_like(buffers.packed_grads, "ps.rx")
                   if me == 0 else None)
        extra = self.local_batch * (wl.activation_bytes_per_sample
                                    + wl.input_bytes_per_sample)
        ctx.gpu.reserve(extra)
        layer = self._data_layer(backend, f"{actor}.reader")
        yield from ctx.barrier()

        try:
            for it in range(self.sim_iterations):
                yield from layer.next_batch()
                yield from self._upload_input(ctx.gpu)
                yield from self._compute(ctx.gpu, actor, "fwd",
                                         wl.fwd_flops_per_sample)
                yield from self._compute(ctx.gpu, actor, "bwd",
                                         wl.bwd_flops_per_sample)

                tag = 100 + it % 100
                if me == 0:
                    tr.begin(actor, "aggregation")
                    # Serial aggregation: the master bottleneck.
                    for src in range(1, P):
                        yield from ctx.recv(src, scratch, tag=tag)
                        yield from ctx.cuda.reduce_kernel(
                            buffers.packed_grads, scratch)
                    tr.end(actor, "aggregation")
                    yield from self._update(ctx.gpu, actor)
                    tr.begin(actor, "propagation")
                    reqs = [ctx.isend(dst, buffers.packed_params,
                                      tag=tag + 1000)
                            for dst in range(1, P)]
                    for r in reqs:
                        yield r.wait()
                    tr.end(actor, "propagation")
                    self._record_iter_end(it)
                else:
                    yield from ctx.send(0, buffers.packed_grads, tag=tag)
                    yield from ctx.recv(0, buffers.packed_params,
                                        tag=tag + 1000)
        finally:
            layer.reader.stop()
            buffers.free()
            if scratch is not None:
                scratch.free()
            ctx.gpu.unreserve(extra)

    def _rank_program_async(self, ctx: RankContext, backend
                            ) -> Generator[Event, Any, None]:
        """Asynchronous mode: rank 0 is a *dedicated* server (one GPU
        taken away from training — the Section 3.1 critique); workers
        never wait for each other, and each gradient is applied on
        arrival (stale updates)."""
        wl = self.workload
        me = ctx.rank
        P = ctx.size
        if P < 2:
            raise ValueError("async parameter server needs >= 2 ranks")
        tr = self.tracer
        actor = f"r{me}"
        GRAD_TAG, PARAM_TAG = 11, 13

        buffers = SolverBuffers(wl, ctx.gpu, per_group_params=False,
                                per_group_grads=False, with_payload=False)
        try:
            if me == 0:
                scratch = ctx.scratch_like(buffers.packed_grads, "ps.rx")
                try:
                    total_updates = (P - 1) * self.sim_iterations
                    replies = []
                    for _ in range(total_updates):
                        st = yield from ctx.recv(ANY_SOURCE, scratch,
                                                 tag=GRAD_TAG)
                        tr.begin(actor, "aggregation")
                        yield from ctx.cuda.reduce_kernel(
                            buffers.packed_grads, scratch)
                        tr.end(actor, "aggregation")
                        tr.begin(actor, "update")
                        yield from ctx.cuda.launch(ctx.gpu,
                                                   flops=wl.param_bytes)
                        tr.end(actor, "update")
                        replies.append(ctx.isend(
                            st.source, buffers.packed_params,
                            tag=PARAM_TAG))
                    for r in replies:
                        yield r.wait()
                finally:
                    scratch.free()
            else:
                layer = self._data_layer(backend, f"{actor}.reader")
                try:
                    for it in range(self.sim_iterations):
                        yield from layer.next_batch()
                        yield from self._upload_input(ctx.gpu)
                        yield from self._compute(ctx.gpu, actor, "fwd",
                                                 wl.fwd_flops_per_sample)
                        yield from self._compute(ctx.gpu, actor, "bwd",
                                                 wl.bwd_flops_per_sample)
                        yield from ctx.send(0, buffers.packed_grads,
                                            tag=GRAD_TAG)
                        yield from ctx.recv(0, buffers.packed_params,
                                            tag=PARAM_TAG)
                        if me == 1:
                            self._record_iter_end(it)
                finally:
                    layer.reader.stop()
        finally:
            buffers.free()


run_param_server = ParameterServerJob.launch
