"""Device-buffer transport: the CUDA-aware part of the MPI runtime.

This module decides *how bytes move* between two GPU buffers, as a
function of the runtime profile and the endpoint placement, in one
place (``DeviceTransport._route``):

=====================  ==========================================
endpoint placement      mechanism (by profile)
=====================  ==========================================
same GPU                device-to-device copy
same node, ``ipc``      CUDA IPC peer copy over both PCIe uplinks
same node, no IPC       pipelined D2H -> host -> H2D staging
other node, ``gdr``     GPUDirect RDMA (PCIe + NIC cut-through,
                        capped at the GDR read bandwidth)
other node, no GDR      pipelined D2H -> NIC wire -> H2D staging
=====================  ==========================================

Pipelined staging is modeled faithfully: one sim process per chunk,
contending FIFO on the PCIe/NIC/host links, so stage overlap (and its
absence for tiny chunks, where per-copy overhead dominates) emerges from
the event model rather than a closed-form guess.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Generator, Optional, Union

import numpy as np

from ..cuda import CudaRuntime, DeviceBuffer, HostBuffer
from ..hardware import Cluster, multi_link_transfer
from ..hardware.topology import LinkHold
from ..hardware.faults import LinkDownError, MessageDropped, TransportFault
from ..sim import Event
from ..sim.resources import pipeline_exit_times
from ..telemetry.metrics import MetricsRegistry
from .profiles import MPIProfile

__all__ = ["DeviceTransport", "TransportTimeout", "TransportMetrics",
           "ChecksumError", "IntegrityError"]


#: Span kind of each one-hold path's cut-through.
_HOLD_KIND = {"d2d": "d2d", "ipc": "p2p", "gdr": "rdma"}
#: The CUDA copy a path reports to telemetry (GDR is an RDMA by the
#: NIC; the staged paths report their D2H/H2D copies per chunk).
_CUDA_COPY = {"d2d": "d2d", "ipc": "p2p"}


class TransportTimeout(RuntimeError):
    """A transfer exhausted its retry budget (the link never recovered)."""


class ChecksumError(TransportFault):
    """The delivered payload failed its CRC32 verify (NACK: retransmit).

    A :class:`~repro.hardware.faults.TransportFault` subclass so the
    transport's bounded retry/backoff loop doubles as the retransmit
    machinery — a corrupted delivery is re-sent like a dropped one.
    """


class IntegrityError(TransportTimeout):
    """Every retransmit kept failing its checksum (persistent corruptor).

    A :class:`TransportTimeout` subclass: callers that treat transport
    exhaustion as recoverable (revoke/shrink) handle this identically;
    the distinct type preserves *why* the transfer gave up.
    """


class TransportMetrics:
    """Robustness counters (zero on a quiet fabric), registry-backed.

    This is a *view* over the simulator's metrics registry — the same
    counters the telemetry PVARs read — so each count has exactly one
    source of truth.  The attribute API (``metrics.retries``, ...) is
    preserved for the fault tests and the invariant checker; mutation
    goes through the ``count_*`` / staging methods.
    """

    def __init__(self, registry: MetricsRegistry):
        self._retries = registry.counter(
            "transport.retries",
            "transfer attempts retried after transient link faults")
        self._timeouts = registry.counter(
            "transport.timeouts",
            "transfers that exhausted their retry budget")
        self._drops = registry.counter(
            "transport.drops_detected",
            "forced message drops observed by the transport")
        self._link_down = registry.counter(
            "transport.link_down_detected", "transfers that hit a down link")
        self._stagings = registry.gauge(
            "transport.stagings_live",
            "host staging buffers currently alive (must drain to 0)")
        self._stagings_peak = registry.gauge(
            "transport.stagings_peak",
            "high-water mark of concurrently live staging buffers")
        self._corrupt_detected = registry.counter(
            "integrity.corrupt_detected",
            "deliveries whose CRC32 verify failed (corruption caught)")
        self._retransmits = registry.counter(
            "integrity.retransmits",
            "transfers re-sent after a failed checksum verify")
        self._integrity_failures = registry.counter(
            "integrity.failures",
            "transfers that exhausted retransmits on checksum failures")
        self._silent_corruptions = registry.counter(
            "integrity.silent_corruptions",
            "corrupted deliveries that PASSED verify (must stay 0; "
            "non-zero means the checksum layer is broken)")

    @property
    def retries(self) -> int:
        return int(self._retries.value())

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.value())

    @property
    def drops_detected(self) -> int:
        return int(self._drops.value())

    @property
    def link_down_detected(self) -> int:
        return int(self._link_down.value())

    @property
    def stagings_live(self) -> int:
        """Host staging buffers currently alive (leak detector for the
        interrupt-during-staged-transfer path; must return to 0)."""
        return int(self._stagings.value())

    @property
    def stagings_peak(self) -> int:
        return int(self._stagings_peak.value())

    @property
    def corrupt_detected(self) -> int:
        return int(self._corrupt_detected.value())

    @property
    def retransmits(self) -> int:
        return int(self._retransmits.value())

    @property
    def integrity_failures(self) -> int:
        return int(self._integrity_failures.value())

    @property
    def silent_corruptions(self) -> int:
        return int(self._silent_corruptions.value())

    def count_retry(self) -> None:
        self._retries.inc()

    def count_timeout(self) -> None:
        self._timeouts.inc()

    def count_drop(self) -> None:
        self._drops.inc()

    def count_link_down(self) -> None:
        self._link_down.inc()

    def count_corrupt_detected(self) -> None:
        self._corrupt_detected.inc()

    def count_retransmit(self) -> None:
        self._retransmits.inc()

    def count_integrity_failure(self) -> None:
        self._integrity_failures.inc()

    def count_silent_corruption(self) -> None:
        self._silent_corruptions.inc()

    def enter_staging(self) -> None:
        self._stagings.inc()
        self._stagings_peak.set_max(self._stagings.value())

    def exit_staging(self) -> None:
        self._stagings.dec()


class DeviceTransport:
    """Moves bytes between device buffers according to an MPI profile.

    Transient link faults (:class:`~repro.hardware.faults.TransportFault`)
    raised on the path are retried with bounded exponential backoff; the
    backoff schedule is deterministic (no randomness) so runs stay pure
    functions of the seed.  An exhausted budget raises
    :class:`TransportTimeout`.
    """

    #: Retry policy (deterministic exponential backoff).
    RETRY_LIMIT = 8
    RETRY_BASE = 50e-6     # first backoff, seconds
    RETRY_MAX = 10e-3      # backoff cap, seconds
    # Cumulative backoff = 50u+100u+...+6.4m ~= 12.75 ms: wide enough to
    # bridge a momentary link flap, bounded so a hard outage still fails
    # fast enough for recovery to engage.

    def __init__(self, cluster: Cluster, cuda: CudaRuntime,
                 profile: MPIProfile):
        self.cluster = cluster
        self.cuda = cuda
        self.profile = profile
        self.sim = cluster.sim
        self.cal = cluster.cal
        self.metrics = TransportMetrics(cluster.sim.metrics)

    # -- public API --------------------------------------------------------
    def transfer(self, src: DeviceBuffer, dst: DeviceBuffer,
                 nbytes: Optional[int] = None, *, src_offset: int = 0,
                 dst_offset: int = 0, payload: Optional[np.ndarray] = None,
                 on_done: Optional[Callable[[LinkHold], None]] = None,
                 ) -> Union[Generator[Event, Any, None], LinkHold]:
        """Sub-protocol: move ``nbytes`` from ``src`` to ``dst``.

        Returns the generator to drive with ``yield from``.  A caller
        that passes ``on_done`` also accepts a *callback transfer*: when
        the path is one cut-through hold (same-device copy, IPC peer
        copy, GDR), no profiler is installed and no link on the path has
        a fault hook, the transfer starts right here as a
        :class:`~repro.hardware.topology.LinkHold` (returned) that
        delivers the payload and then calls ``on_done(hold)`` — the
        same events as driving the generator in a process, without the
        process.  Every other case returns the generator.

        Payload bytes (when present) are copied on completion.
        ``payload`` overrides the delivered bytes with a frozen snapshot
        (the communicator's eager-send contract: the bytes captured at
        post time land, not whatever the sender wrote since) — routing
        it through the transport keeps delivery in one place, so the
        integrity layer covers snapshots too.

        When the fault injector has armed corruptible links, every
        delivery is CRC32-verified against the bytes the sender put on
        the wire; a mismatch is NACKed and retransmitted through the
        same bounded backoff schedule as a drop.  Persistent corruption
        surfaces as :class:`IntegrityError` (a typed
        :class:`TransportTimeout`), never as silently wrong bytes.  On a
        quiet fabric the integrity layer costs one attribute load and
        adds zero simulated events.
        """
        if on_done is not None and nbytes is not None:
            hold = self._start_hold(src, dst, nbytes, src_offset,
                                    dst_offset, payload, on_done)
            if hold is not None:
                return hold
        return self._transfer(src, dst, nbytes, src_offset, dst_offset,
                              payload)

    def _start_hold(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                    src_offset: int, dst_offset: int,
                    payload: Optional[np.ndarray],
                    on_done: Callable[[LinkHold], None],
                    ) -> Optional[LinkHold]:
        """The callback transfer of :meth:`transfer`, or None (nothing
        done) when the process path must run.  Telemetry hooks, the
        jitter draw, link counters and delivery happen in the order the
        generator path realizes them."""
        if (self.cluster.fault_links_armed or not (
                0 <= src_offset and 0 <= dst_offset and 0 <= n
                and src_offset + n <= src.nbytes
                and dst_offset + n <= dst.nbytes)):
            return None
        path, links, extra = self._route(src.device, dst.device, n)
        if extra is None or not LinkHold.eligible(self.sim, links):
            return None
        self._announce(path, n)

        def deliver(hold: LinkHold) -> None:
            self._deliver(src, dst, n, src_offset, dst_offset, payload,
                          corrupted=False)
            on_done(hold)

        return LinkHold(self.sim, links, n, extra, deliver)

    def _transfer(self, src: DeviceBuffer, dst: DeviceBuffer,
                  nbytes: Optional[int], src_offset: int, dst_offset: int,
                  payload: Optional[np.ndarray],
                  ) -> Generator[Event, Any, None]:
        """The generator path of :meth:`transfer`."""
        if src_offset < 0 or dst_offset < 0:
            raise ValueError(
                f"negative offset (src_offset={src_offset}, "
                f"dst_offset={dst_offset})")
        if src_offset > src.nbytes or dst_offset > dst.nbytes:
            raise ValueError(
                f"offset beyond buffer: src_offset={src_offset} of "
                f"{src.nbytes}, dst_offset={dst_offset} of {dst.nbytes}")
        n = min(src.nbytes - src_offset,
                dst.nbytes - dst_offset) if nbytes is None else nbytes
        if n < 0:
            raise ValueError("negative transfer size")
        if src_offset + n > src.nbytes or dst_offset + n > dst.nbytes:
            raise ValueError(
                f"transfer of {n} bytes over-reads: src has "
                f"{src.nbytes - src_offset} past offset, dst has "
                f"{dst.nbytes - dst_offset}")
        rec = self.sim.recorder
        if rec is not None:
            # One logical message per transfer call (retries not
            # double-counted) — feeds the (src, dst) comm matrix.
            rec.message(src.device, dst.device, n)
        armed = self.cluster.fault_links_armed
        attempt = 0
        corrupted = False
        while True:
            # Routed per attempt: a retry takes the links and the
            # profile as they are when it starts.
            path, links, extra = self._route(src.device, dst.device, n)
            try:
                if armed and n:
                    corrupted = self._consume_corruption(links)
                self._announce(path, n)
                if extra is None:
                    yield from self._staged(src, dst, n, links[1:-1])
                elif links:
                    yield from multi_link_transfer(
                        self.sim, links, n, extra_time=extra,
                        kind=_HOLD_KIND[path])
                else:
                    yield from self.cuda.timed("d2d", extra, nbytes=n,
                                               label=src.device.name)
                if armed:
                    self._deliver(src, dst, n, src_offset, dst_offset,
                                  payload, corrupted)
                    self._verify(src, dst, n, src_offset, dst_offset,
                                 payload, corrupted)
                break
            except TransportFault as exc:
                if isinstance(exc, MessageDropped):
                    self.metrics.count_drop()
                elif isinstance(exc, LinkDownError):
                    self.metrics.count_link_down()
                elif isinstance(exc, ChecksumError):
                    self.metrics.count_corrupt_detected()
                attempt += 1
                if attempt > self.RETRY_LIMIT:
                    if isinstance(exc, ChecksumError):
                        self.metrics.count_integrity_failure()
                        raise IntegrityError(
                            f"transfer {src.device.name}->{dst.device.name} "
                            f"failed checksum verify {self.RETRY_LIMIT + 1} "
                            f"times") from exc
                    self.metrics.count_timeout()
                    raise TransportTimeout(
                        f"transfer {src.device.name}->{dst.device.name} "
                        f"gave up after {self.RETRY_LIMIT} retries") from exc
                if isinstance(exc, ChecksumError):
                    self.metrics.count_retransmit()
                else:
                    self.metrics.count_retry()
                backoff = min(self.RETRY_BASE * (2 ** (attempt - 1)),
                              self.RETRY_MAX)
                yield self.sim.timeout(backoff)
        if not armed:
            self._deliver(src, dst, n, src_offset, dst_offset, payload,
                          corrupted=False)
        elif corrupted:
            # Reachable only if _verify let a corrupted delivery through
            # (e.g. the mutation self-test disabling it): the exact
            # failure mode the chaos gate exists to keep at zero.
            self.metrics.count_silent_corruption()

    def _route(self, a, b, n: int):
        """The route of an ``n``-byte transfer from GPU ``a`` to GPU
        ``b``: the one placement x profile decision of this module.

        Returns ``(path, links, extra)``: the telemetry path label, the
        links the payload crosses (source side first), and the fixed
        extra hold time of a one-hold path.  ``extra`` is None for the
        staged paths, whose middle stage is ``links[1:-1]``.
        """
        cal = self.cal
        if a is b:
            return "d2d", (), cal.cuda_copy_overhead + n / a.spec.membw
        cluster = self.cluster
        if cluster.same_node(a, b):
            if self.profile.ipc:
                return ("ipc", (a.pcie_up, b.pcie_down),
                        cal.cuda_copy_overhead)
            return ("staged_intra",
                    (a.pcie_up, cluster.node_of(a).host_memcpy, b.pcie_down),
                    None)
        links = (a.pcie_up, cluster.node_of(a).nic_for(a).tx,
                 cluster.node_of(b).nic_for(b).rx, b.pcie_down)
        if not (self.profile.gdr and n <= self.profile.gdr_threshold):
            return "staged_inter", links, None
        # GPUDirect RDMA: one cut-through over PCIe and both NICs, its
        # wire time inflated to the GDR read-bandwidth cap when that is
        # narrower, plus the MPI message overhead.
        raw_bw = min(l.bandwidth for l in links)
        extra = 0.0
        if cal.gdr_read_bw < raw_bw:
            extra = n / cal.gdr_read_bw - n / raw_bw
        return "gdr", links, extra + cal.mpi_message_overhead

    def _announce(self, path: str, n: int) -> None:
        """Telemetry of one attempt: the path, then its CUDA copy."""
        tel = self.sim.telemetry
        if tel is not None:
            tel.on_transfer_path(path, n)
            copy = _CUDA_COPY.get(path)
            if copy is not None:
                tel.on_cuda_copy(copy, n)

    # -- integrity layer ---------------------------------------------------
    def _consume_corruption(self, links) -> bool:
        """Consume at most one pending payload corruption on the route's
        ``links``, walked in route order.

        Runs synchronously at attempt start (no yields between consuming
        the flag and the attempt it applies to), so concurrent transfers
        on other links cannot be mis-attributed the flip.
        """
        for link in links:
            hook = link.consume_corruption
            if hook is not None and hook():
                return True
        return False

    def _deliver(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                 src_offset: int, dst_offset: int,
                 payload: Optional[np.ndarray], corrupted: bool) -> None:
        """Materialize one attempt's delivered bytes into ``dst``: the
        payload snapshot when one was given (it wins over the source
        range), else the source range.

        Idempotent across retransmits: each attempt rewrites the range
        from the source of truth, then applies this attempt's wire
        corruption (a deterministic bit-flip) on top.
        """
        if payload is not None and dst.data is not None:
            dst.data.view(np.uint8)[dst_offset:dst_offset + n] = payload
        else:
            dst.copy_payload_from(src, nbytes=n, src_offset=src_offset,
                                  dst_offset=dst_offset)
        if corrupted and n and dst.data is not None:
            view = dst.data.view(np.uint8)
            view[dst_offset] ^= 0x01

    def _verify(self, src: DeviceBuffer, dst: DeviceBuffer, n: int,
                src_offset: int, dst_offset: int,
                payload: Optional[np.ndarray], corrupted: bool) -> None:
        """Receive-side CRC32 verify; raises :class:`ChecksumError` on a
        mismatch (the NACK that triggers a retransmit).

        With real payloads the sender's CRC is computed over the bytes
        put on the wire and compared against the delivered range.  On
        size-only runs (no arrays to hash) the wire-corruption flag
        stands in for the mismatch — the *semantics* (detected, NACKed,
        retransmitted) are identical.
        """
        if dst.data is not None and (payload is not None
                                     or src.data is not None):
            if payload is not None:
                sent = np.ascontiguousarray(payload[:n])
            else:
                sent = np.ascontiguousarray(
                    src.data.view(np.uint8)[src_offset:src_offset + n])
            got = np.ascontiguousarray(
                dst.data.view(np.uint8)[dst_offset:dst_offset + n])
            if zlib.crc32(sent.tobytes()) != zlib.crc32(got.tobytes()):
                raise ChecksumError(
                    f"CRC32 mismatch on {src.device.name}->"
                    f"{dst.device.name} ({n} bytes)")
            return
        if corrupted:
            raise ChecksumError(
                f"CRC32 mismatch on {src.device.name}->{dst.device.name} "
                f"({n} bytes, modeled)")

    def estimate(self, src_gpu, dst_gpu, nbytes: int) -> float:
        """Closed-form uncontended estimate (used by tuning tables)."""
        path, _links, extra = self._route(src_gpu, dst_gpu, nbytes)
        cal = self.cal
        if path == "d2d":
            return extra  # the copy's fixed hold is its whole cost
        if path == "ipc":
            return (cal.cuda_copy_overhead + 2 * cal.pcie_latency
                    + nbytes / cal.pcie_bw)
        if path == "staged_intra":
            return self._staged_estimate(nbytes, wire_bw=cal.pcie_bw)
        # The NIC's spec bandwidth, not its (possibly slowed) tx link.
        nic_bw = self.cluster.node_of(src_gpu).nic_for(src_gpu).bandwidth
        if path == "gdr":
            bw = min(cal.pcie_bw, nic_bw, cal.gdr_read_bw)
            return (2 * cal.pcie_latency + 2 * cal.ib_latency
                    + nbytes / bw)
        return self._staged_estimate(nbytes, wire_bw=nic_bw)

    # -- mechanisms ------------------------------------------------------------
    def _staged_chunks(self, nbytes: int) -> list:
        chunk = self.profile.pipeline_chunk
        offsets = list(range(0, nbytes, chunk)) or [0]
        return [(off, min(chunk, nbytes - off)) for off in offsets]

    def _staged_train(self, src: DeviceBuffer, dst: DeviceBuffer, chunks,
                      staging: HostBuffer, mid_links, mid_lat: float,
                      mid_bw: float, mid_extra: float, mid_ovh: float,
                      ) -> Generator[Event, Any, bool]:
        """Batched fast path for a pipelined staged transfer.

        When every stage link is :meth:`~repro.sim.resources.BandwidthLink.
        train_eligible` (no profiler spans, no armed jitter, no fault
        plan, nothing queued), the K-chunk software pipeline's schedule
        is a pure function of the chunk sizes — compute it in one
        :func:`pipeline_exit_times` call and post a constant number of
        events (one hold per stage) instead of one process and ~six
        events per chunk.  Counters, telemetry and busy-time integrals
        are replicated exactly; while a stage runs, its link reads as
        continuously busy, so foreign arrivals queue behind the train
        where per-chunk mode would interleave them (the two modes
        diverge under such contention; docs/PERFORMANCE.md §3).

        Returns True if the train was posted, False if the caller must
        run the per-chunk pipeline.
        """
        if not self.profile.segment_pipelining or len(chunks) < 2:
            return False
        up = src.device.pcie_up
        down = dst.device.pcie_down
        stage_links = (up,) + mid_links + (down,)
        for link in stage_links:
            if not link.train_eligible():
                return False
        sim = self.sim
        cal = self.cal
        sizes = [n for _off, n in chunks]
        factor = self.cuda._staging_factor(staging)
        effs = ([int(n / factor) for n in sizes] if factor != 1.0
                else sizes)
        sz = np.asarray(sizes, dtype=np.float64)
        ef = np.asarray(effs, dtype=np.float64)
        occ = np.empty((3, len(sizes)))
        occ[0] = up.latency + ef / up.bandwidth
        occ[1] = mid_lat + sz / mid_bw + mid_extra
        occ[2] = down.latency + ef / down.bandwidth
        # Each stage's pre-request delays, as the *sequence* of timeouts
        # the per-chunk path pays (float addition does not associate).
        overheads = ((cal.cuda_copy_overhead, up.per_message_overhead),
                     (mid_ovh,),
                     (cal.cuda_copy_overhead, down.per_message_overhead))
        now = sim.now
        exits = pipeline_exit_times(overheads, occ, start=now)

        k = len(sizes)
        eff_total = sum(effs)
        up.messages += k
        up.bytes_moved += eff_total
        down.messages += k
        down.bytes_moved += eff_total
        total = sum(sizes)
        for link in mid_links:
            link.messages += k
            link.bytes_moved += total
        tel = sim.telemetry
        if tel is not None:
            for n in sizes:
                tel.on_cuda_copy("d2h", n)
                tel.on_cuda_copy("h2d", n)

        for s, links in enumerate(((up,), mid_links, (down,))):
            end = float(exits[s, -1])
            gap = (end - now) - occ[s].sum()
            for link in links:
                res = link._res
                grant = res.try_acquire()  # train_eligible: idle

                def _done(_t, res=res, grant=grant, gap=gap):
                    res.release(grant)
                    res._absorb_idle(gap)

                sim.timeout_at(end).add_callback(_done)
        # Posted after the release timeouts: at the final instant the
        # stage holds are handed back first, then the caller resumes —
        # the order the per-chunk pipeline realizes.
        yield sim.timeout_at(float(exits[2, -1]))
        return True

    def _staged_pipeline(self, stages, chunks) -> Generator[Event, Any, None]:
        """Run ``stages`` (list of per-chunk sub-protocol factories) over
        ``chunks``, one sim process per chunk, contending on shared links.

        Under ``segment_pipelining`` chunks are all in flight at once and
        the FIFO links produce a software pipeline; without it (the
        OpenMPI profile) chunks run strictly one after another, plus a
        per-segment synchronization charge.
        """
        if self.profile.segment_pipelining:
            procs = []
            for off, n in chunks:
                def chain(n=n):
                    for stage in stages:
                        yield from stage(n)
                procs.append(self.sim.process(chain(), eager=True))
            yield self.sim.all_of(procs)
        else:
            for off, n in chunks:
                for stage in stages:
                    yield from stage(n)
                sync = self.profile.segment_sync_time(n)
                if sync:
                    yield self.sim.timeout(sync)

    def _staged(self, src: DeviceBuffer, dst: DeviceBuffer, nbytes: int,
                mid_links) -> Generator[Event, Any, None]:
        """Pipelined host staging: D2H, the middle stage, H2D.

        Only the middle stage differs by route.  One link is the node's
        host memcpy, a plain link transfer that pays its
        ``per_message_overhead`` as a timeout; two are the NIC pair, one
        cut-through wire hold plus the MPI message overhead.
        """
        staging = HostBuffer(0, pinned=self.profile.pinned_staging)
        self.metrics.enter_staging()
        try:
            if len(mid_links) == 1:
                host, = mid_links
                model = (host.latency, host.bandwidth, 0.0,
                         host.per_message_overhead)

                def mid(n):
                    return host.transfer(n, kind="hostcpy")
            else:
                tx, rx = mid_links
                ovh = self.cal.mpi_message_overhead
                model = (tx.latency + rx.latency,
                         min(tx.bandwidth, rx.bandwidth), ovh, 0.0)

                def mid(n):
                    return multi_link_transfer(self.sim, mid_links, n,
                                               extra_time=ovh, kind="wire")
            chunks = self._staged_chunks(nbytes)
            done = yield from self._staged_train(src, dst, chunks, staging,
                                                 mid_links, *model)
            if done:
                return
            stages = [
                lambda n: self.cuda.memcpy_d2h(src, staging, n),
                mid,
                lambda n: self.cuda.memcpy_h2d(dst, staging, n),
            ]
            yield from self._staged_pipeline(stages, chunks)
        finally:
            self.metrics.exit_staging()

    def _staged_estimate(self, nbytes: int, wire_bw: float) -> float:
        chunk = min(self.profile.pipeline_chunk, max(1, nbytes))
        nchunks = max(1, -(-nbytes // chunk))
        factor = 1.0 if self.profile.pinned_staging else self.cal.unpinned_factor
        d2h = self.cal.cuda_copy_overhead + chunk / (self.cal.pcie_bw * factor)
        wire = self.cal.ib_latency + chunk / wire_bw
        h2d = d2h
        if self.profile.segment_pipelining:
            bottleneck = max(d2h, wire, h2d)
            return d2h + wire + h2d + (nchunks - 1) * bottleneck
        per = (d2h + wire + h2d
               + self.profile.segment_sync_time(chunk))
        return nchunks * per
