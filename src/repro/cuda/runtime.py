"""Simulated CUDA runtime: copies, peer transfers, kernels.

All operations are *sub-protocols* — generators the caller drives with
``yield from`` inside a sim process.  Timing comes from the calibration
constants attached to the cluster; payload movement (when buffers carry
real arrays) happens at completion time.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..hardware import Cluster, multi_link_transfer
from ..hardware.gpu import GPUDevice
from ..sim import Event
from .memory import DeviceBuffer, HostBuffer

__all__ = ["CudaRuntime"]


class CudaRuntime:
    """Per-cluster CUDA operations with calibrated timing."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.cal = cluster.cal

    # -- copies --------------------------------------------------------------
    def _staging_factor(self, host: Optional[HostBuffer]) -> float:
        if host is not None and not host.pinned:
            return self.cal.unpinned_factor
        return 1.0

    def timed(self, kind: str, duration: float, *, nbytes: int = 0,
               label: str = "") -> Generator[Event, Any, None]:
        """A plain timeout, recorded as a resource-less span when a
        profiler is installed (launch overheads, D2D copies)."""
        rec = self.sim.recorder
        if rec is None:
            yield self.sim.timeout(duration)
            return
        sid = rec.open(kind, nbytes=nbytes, label=label)
        try:
            yield self.sim.timeout(duration)
        finally:
            rec.close(sid)

    def memcpy_d2h(self, src: DeviceBuffer, dst: Optional[HostBuffer] = None,
                   nbytes: Optional[int] = None,
                   ) -> Generator[Event, Any, None]:
        """Device -> host copy over the GPU's PCIe uplink."""
        n = src.nbytes if nbytes is None else nbytes
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_cuda_copy("d2h", n)
        yield from self.timed("overhead", self.cal.cuda_copy_overhead,
                               label="cudaMemcpy")
        factor = self._staging_factor(dst)
        eff = int(n / factor) if factor != 1.0 else n
        yield from src.device.pcie_up.transfer(eff, kind="d2h")
        if dst is not None:
            dst.copy_payload_from(src, nbytes=n)

    def memcpy_h2d(self, dst: DeviceBuffer, src: Optional[HostBuffer] = None,
                   nbytes: Optional[int] = None,
                   ) -> Generator[Event, Any, None]:
        """Host -> device copy over the GPU's PCIe downlink."""
        n = dst.nbytes if nbytes is None else nbytes
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_cuda_copy("h2d", n)
        yield from self.timed("overhead", self.cal.cuda_copy_overhead,
                               label="cudaMemcpy")
        factor = self._staging_factor(src)
        eff = int(n / factor) if factor != 1.0 else n
        yield from dst.device.pcie_down.transfer(eff, kind="h2d")
        if src is not None:
            dst.copy_payload_from(src, nbytes=n)

    def memcpy_d2d(self, device: GPUDevice, nbytes: int,
                   ) -> Generator[Event, Any, None]:
        """Same-device copy at device-memory bandwidth."""
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_cuda_copy("d2d", nbytes)
        yield from self.timed("d2d", self.cal.cuda_copy_overhead
                               + nbytes / device.spec.membw, nbytes=nbytes,
                               label=device.name)

    def memcpy_p2p(self, src: DeviceBuffer, dst: DeviceBuffer,
                   nbytes: Optional[int] = None, *, src_offset: int = 0,
                   dst_offset: int = 0) -> Generator[Event, Any, None]:
        """Peer-to-peer copy between GPUs on the same node (CUDA IPC).

        Holds both devices' PCIe uplinks for the cut-through duration.
        """
        if src.device.node_index != dst.device.node_index:
            raise ValueError(
                f"P2P requires same node: {src.device.name} vs "
                f"{dst.device.name}")
        n = min(src.nbytes, dst.nbytes) if nbytes is None else nbytes
        if src.device is dst.device:
            yield from self.memcpy_d2d(src.device, n)
        else:
            tel = self.sim.telemetry
            if tel is not None:
                tel.on_cuda_copy("p2p", n)
            links = [src.device.pcie_up, dst.device.pcie_down]
            yield from multi_link_transfer(
                self.sim, links, n, extra_time=self.cal.cuda_copy_overhead,
                kind="p2p")
        dst.copy_payload_from(src, nbytes=n, src_offset=src_offset,
                              dst_offset=dst_offset)

    # -- kernels ---------------------------------------------------------------
    def launch(self, device: GPUDevice, *, flops: float = 0.0,
               duration: Optional[float] = None,
               ) -> Generator[Event, Any, None]:
        """Run a compute kernel on ``device`` (serializes on the SM array).

        Returns the SM hold's generator (no extra frame per resumption);
        drive it with ``yield from`` right away, as every sub-protocol.
        """
        dur = (device.spec.compute_time(flops) if duration is None
               else duration)
        if self.cal.compute_jitter:
            dur *= self.sim.jitter_factor(self.cal.compute_jitter)
        dur *= device.compute_slowdown
        return device.compute.use(self.cal.kernel_launch_overhead + dur,
                                  kind="kernel")

    def reduce_kernel(self, acc: DeviceBuffer, contrib: DeviceBuffer,
                      nbytes: Optional[int] = None, *, offset: int = 0,
                      ) -> Generator[Event, Any, None]:
        """On-device elementwise sum ``acc += contrib`` over a byte range.

        Both buffers must live on the same device (the contribution is
        assumed already transferred there by the caller).
        """
        if acc.device is not contrib.device:
            raise ValueError("reduce_kernel operands must be co-resident")
        n = min(acc.nbytes, contrib.nbytes) if nbytes is None else nbytes
        yield from acc.device.compute.use(
            self.cal.kernel_launch_overhead + acc.device.spec.reduce_time(n),
            kind="reduce", nbytes=n)
        acc.accumulate_payload_from(contrib, nbytes=n, offset=offset)

    def cpu_reduce(self, node_index: int, acc, contrib,
                   nbytes: Optional[int] = None, *, offset: int = 0,
                   ) -> Generator[Event, Any, None]:
        """Host-side elementwise sum (used by the OpenMPI/MV2 profiles)."""
        node = self.cluster.nodes[node_index]
        n = min(acc.nbytes, contrib.nbytes) if nbytes is None else nbytes
        yield from node.cpu_reduce.transfer(n, kind="cpu_reduce")
        acc.accumulate_payload_from(contrib, nbytes=n, offset=offset)
