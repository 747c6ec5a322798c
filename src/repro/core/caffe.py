"""Baseline Caffe: single-process, multi-threaded, multi-GPU (≤ 1 node).

The original BVLC Caffe (and NVIDIA's fork) run one *process* with one
thread per GPU; solvers form a reduction tree over CUDA peer-to-peer
copies, and a single Data Reader thread feeds all solvers through one
shared queue (Sections 2.2, 3.1–3.2).  By construction this design
cannot leave the node — runs asking for more GPUs than one node holds
fail with ``"unsupported"``, the Fig. 8/9 ceiling at 16 GPUs.

``optimized=True`` models NVIDIA's fork (tuned kernels), the comparator
for the abstract's single-node claim — same sequential phase structure,
slightly faster compute.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..cuda import DeviceBuffer
from ..sim import Barrier, Event
from .job import TrainingJob

__all__ = ["CaffeJob", "run_caffe"]

#: NVIDIA-fork kernel speedup over BVLC (cuDNN autotuning era).
NV_COMPUTE_SCALE = 0.93


class CaffeJob(TrainingJob):
    """Single-node multi-GPU Caffe training (threads, not MPI)."""

    root_actors = ("t0",)

    def __init__(self, *args, optimized: bool = False, **kwargs):
        self.optimized = optimized
        if optimized:
            self.compute_scale = NV_COMPUTE_SCALE
        super().__init__(*args, **kwargs)

    @property
    def name(self) -> str:
        return "NV-Caffe" if self.optimized else "Caffe"

    def refusal(self):
        # Shared-address-space design: one node only (Section 3.2).
        if self.n_gpus > self.cluster.gpus_per_node:
            return "unsupported", ("single-process design limited to "
                                   f"{self.cluster.gpus_per_node} GPUs/node")
        return super().refusal()

    def _spawn(self, backend):
        gpus = self.cluster.nodes[0].gpus[:self.n_gpus]
        # Single reader, shared queue: reads the whole global batch.
        self._layer = self._data_layer(backend, "caffe.reader",
                                       self.local_batch * self.n_gpus)
        params = [DeviceBuffer(g, self.workload.param_bytes, name="params")
                  for g in gpus]
        grads = [DeviceBuffer(g, self.workload.param_bytes, name="grads")
                 for g in gpus]
        barrier = Barrier(self.sim, self.n_gpus)
        # Per-round barrier of the P2P trees.
        self._round_bar = Barrier(self.sim, self.n_gpus)
        return [self.sim.process(
            self._solver_thread(t, gpus, params, grads, barrier),
            name=f"caffe.t{t}") for t in range(self.n_gpus)]

    def _simulate(self, report):
        super()._simulate(report)
        # The shared reader outlives the solver threads: stop and drain.
        self._layer.reader.stop()
        self.sim.run()

    # -- P2P tree helpers -----------------------------------------------------
    def _tree_bcast(self, t: int, bufs: List[DeviceBuffer]
                    ) -> Generator[Event, Any, None]:
        """Binomial broadcast over CUDA P2P copies, root thread 0.

        Threads coordinate through shared memory in real Caffe; here the
        schedule is expressed per thread: at round ``mask`` a holder
        copies to its partner.
        """
        P = self.n_gpus
        mask = 1
        while mask < P:
            mask <<= 1
        mask >>= 1
        rounds = []
        while mask:
            rounds.append(mask)
            mask >>= 1
        for mask in rounds:
            if t % mask == 0 and t % (mask << 1) == 0 and t + mask < P:
                yield from self.cuda.memcpy_p2p(bufs[t], bufs[t + mask])
            yield self._round_bar.arrive()

    def _tree_reduce(self, t: int, bufs: List[DeviceBuffer]
                     ) -> Generator[Event, Any, None]:
        """Binomial reduction tree over P2P copies to thread 0."""
        P = self.n_gpus
        mask = 1
        while mask < P:
            partner = t ^ mask
            if t % (mask << 1) == 0 and partner < P:
                scratch = DeviceBuffer(bufs[t].device, bufs[t].nbytes,
                                       name="tree.rx")
                try:
                    yield from self.cuda.memcpy_p2p(bufs[partner], scratch)
                    yield from self.cuda.reduce_kernel(bufs[t], scratch)
                finally:
                    scratch.free()
            yield self._round_bar.arrive()
            mask <<= 1

    def _solver_thread(self, t: int, gpus, params, grads, barrier: Barrier
                       ) -> Generator[Event, Any, None]:
        wl = self.workload
        gpu = gpus[t]
        tr = self.tracer
        actor = f"t{t}"
        yield barrier.arrive()

        for it in range(self.sim_iterations):
            # Parent->child parameter propagation (tree of P2P copies).
            tr.begin(actor, "propagation")
            yield from self._tree_bcast(t, params)
            tr.end(actor, "propagation")

            # Shared queue: thread 0 pops for everyone (single reader).
            if t == 0:
                yield from self._layer.next_batch()
            yield barrier.arrive()
            yield from self._upload_input(gpu)
            yield from self._compute(gpu, actor, "fwd",
                                     wl.fwd_flops_per_sample)
            yield from self._compute(gpu, actor, "bwd",
                                     wl.bwd_flops_per_sample)

            tr.begin(actor, "aggregation")
            yield from self._tree_reduce(t, grads)
            tr.end(actor, "aggregation")

            if t == 0:
                yield from self._update(gpu, actor)
                self._record_iter_end(it)
            yield barrier.arrive()


run_caffe = CaffeJob.launch
