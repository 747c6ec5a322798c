"""Tests for the device transport layer: path selection, pipelining,
the GDR size threshold, and estimate-vs-simulation consistency."""

import math

import pytest

from repro.cuda import CudaRuntime, DeviceBuffer
from repro.hardware import cluster_a, cluster_b
from repro.hardware.faults import FaultyLink
from repro.hardware.topology import LinkHold
from repro.mpi import MV2, MV2GDR, OPENMPI
from repro.mpi.transport import DeviceTransport
from repro.sim import Simulator


def setup(kind="b", profile=MV2GDR, n_nodes=2):
    sim = Simulator()
    cluster = (cluster_a(sim, n_nodes=n_nodes) if kind == "a"
               else cluster_b(sim, n_nodes=n_nodes))
    cuda = CudaRuntime(cluster)
    return sim, cluster, DeviceTransport(cluster, cuda, profile)


def timed_transfer(sim, transport, src, dst, nbytes):
    def proc():
        t0 = sim.now
        yield from transport.transfer(src, dst, nbytes)
        return sim.now - t0

    p = sim.process(proc())
    sim.run()
    return p.value


def _link_slots(cluster):
    """Every (owner, attribute) holding a link of ``cluster``."""
    for node in cluster.nodes:
        for g in node.gpus:
            yield g, "pcie_up"
            yield g, "pcie_down"
        for nic in node.nics:
            yield nic, "tx"
            yield nic, "rx"
        yield node, "host_memcpy"
        yield node, "cpu_reduce"


class _PathTap:
    """Telemetry stand-in recording the transport's path/copy hooks."""

    next_scrape_at = math.inf

    def __init__(self):
        self.calls = []

    def on_transfer_path(self, path, nbytes):
        self.calls.append(("path", path))

    def on_cuda_copy(self, kind, nbytes):
        self.calls.append(("copy", kind))


#: route -> (profile, src GPU, dst GPU, bytes, CUDA copies reported);
#: on a 2-node Cluster-B, GPUs 0 and 1 share node 0 and GPU 2 is on
#: node 1.
ROUTES = {
    "d2d": (MV2GDR, 0, 0, 64 << 10, {"d2d"}),
    "ipc": (MV2GDR, 0, 1, 64 << 10, {"p2p"}),
    "staged_intra": (OPENMPI, 0, 1, 2 << 20, {"d2h", "h2d"}),
    "gdr": (MV2GDR, 0, 2, 64 << 10, set()),
    "staged_inter": (MV2GDR, 0, 2, 2 << 20, {"d2h", "h2d"}),
}


class TestPathSelection:
    @staticmethod
    def _route_run(route, callback=False, armed=None):
        """Run ``route``'s transfer on a fresh cluster.  ``armed`` is
        the index of a :func:`_link_slots` slot swapped for a FaultyLink
        with one corruption pending.  Returns (cluster, telemetry calls,
        armed link)."""
        profile, s, d, nbytes, _ = ROUTES[route]
        sim, cluster, tr = setup(profile=profile)
        link = None
        if armed is not None:
            owner, attr = list(_link_slots(cluster))[armed]
            link = FaultyLink.from_link(getattr(owner, attr))
            link.corrupt_next(1)
            setattr(owner, attr, link)
            cluster.fault_links_armed = True
        tap = sim.telemetry = _PathTap()
        a = DeviceBuffer(cluster.gpu(s), nbytes)
        b = DeviceBuffer(cluster.gpu(d), nbytes)
        xfer = tr.transfer(a, b, nbytes,
                           on_done=(lambda hold: None) if callback else None)
        if not isinstance(xfer, LinkHold):
            sim.process(xfer)
        sim.run()
        return cluster, tap.calls, link

    @pytest.mark.parametrize("callback", [False, True])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_route_is_consistent(self, route, callback):
        """One route decides the telemetry label, the links the payload
        moves over and the links a corruption is attributed to."""
        cluster, calls, _ = self._route_run(route, callback)
        assert calls[0] == ("path", route)
        assert {kind for _, kind in calls[1:]} == ROUTES[route][4]
        moved = {getattr(o, a).name for o, a in _link_slots(cluster)
                 if getattr(o, a).messages}
        attributed = set()
        for i in range(len(list(_link_slots(cluster)))):
            _, _, link = self._route_run(route, callback, armed=i)
            if link.corruptions_served:
                attributed.add(link.name)
            else:
                # Off the route: the pending corruption stays pending.
                assert link._corrupt_pending == 1, link.name
        assert attributed == moved
        assert bool(moved) == (route != "d2d")

    def test_same_device_uses_membw(self):
        sim, cluster, tr = setup()
        g = cluster.gpu(0)
        a, b = DeviceBuffer(g, 1 << 20), DeviceBuffer(g, 1 << 20)
        t = timed_transfer(sim, tr, a, b, 1 << 20)
        # Device-memory speed: far faster than any PCIe path.
        assert t < (1 << 20) / cluster.cal.pcie_bw

    def test_intra_node_ipc_uses_no_nic(self):
        sim, cluster, tr = setup(kind="a", n_nodes=1)
        a = DeviceBuffer(cluster.gpu(0), 1 << 20)
        b = DeviceBuffer(cluster.gpu(1), 1 << 20)
        timed_transfer(sim, tr, a, b, 1 << 20)
        for nic in cluster.nodes[0].nics:
            assert nic.tx.messages == 0
            assert nic.rx.messages == 0

    def test_inter_node_small_message_uses_gdr(self):
        """Below the GDR threshold: no host staging, PCIe+NIC cut-through."""
        sim, cluster, tr = setup()
        src, dst = cluster.gpu(0), cluster.gpu(2)
        a, b = DeviceBuffer(src, 64 << 10), DeviceBuffer(dst, 64 << 10)
        timed_transfer(sim, tr, a, b, 64 << 10)
        # GDR path: exactly one message per link in the path.
        assert src.pcie_up.messages == 1
        assert cluster.nodes[0].nic_for(src).tx.messages == 1

    def test_inter_node_large_message_staged(self):
        """Above the GDR threshold: pipelined staging in pipeline_chunk
        pieces (many messages on the NIC)."""
        sim, cluster, tr = setup()
        src, dst = cluster.gpu(0), cluster.gpu(2)
        nbytes = 8 << 20
        a, b = DeviceBuffer(src, nbytes), DeviceBuffer(dst, nbytes)
        timed_transfer(sim, tr, a, b, nbytes)
        expected_chunks = -(-nbytes // MV2GDR.pipeline_chunk)
        assert cluster.nodes[0].nic_for(src).tx.messages == expected_chunks

    def test_negative_size_rejected(self):
        sim, cluster, tr = setup()
        a = DeviceBuffer(cluster.gpu(0), 64)
        b = DeviceBuffer(cluster.gpu(1), 64)

        def proc():
            yield from tr.transfer(a, b, -1)

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run()


class TestPipelining:
    def test_pipelined_staging_beats_serial(self):
        """segment_pipelining overlaps the D2H/wire/H2D stages."""
        nbytes = 32 << 20
        times = {}
        serial_profile = MV2.derive(name="serial",
                                    segment_pipelining=False)
        for profile in (MV2.derive(gdr=False), serial_profile.derive(
                gdr=False)):
            sim, cluster, tr = setup(profile=profile)
            a = DeviceBuffer(cluster.gpu(0), nbytes)
            b = DeviceBuffer(cluster.gpu(2), nbytes)
            times[profile.segment_pipelining] = timed_transfer(
                sim, tr, a, b, nbytes)
        assert times[True] < times[False] * 0.7

    def test_unpinned_staging_slower(self):
        # Isolate the pinning effect (zero out the per-block sync that
        # otherwise dominates the OpenMPI profile).
        nbytes = 32 << 20
        times = {}
        for pinned in (True, False):
            profile = OPENMPI.derive(pinned_staging=pinned,
                                     per_segment_sync=0.0)
            sim, cluster, tr = setup(profile=profile)
            a = DeviceBuffer(cluster.gpu(0), nbytes)
            b = DeviceBuffer(cluster.gpu(2), nbytes)
            times[pinned] = timed_transfer(sim, tr, a, b, nbytes)
        assert times[False] > times[True] * 1.3


class TestEstimate:
    @pytest.mark.parametrize("profile", [MV2GDR, MV2, OPENMPI])
    @pytest.mark.parametrize("nbytes", [64 << 10, 4 << 20, 64 << 20])
    def test_estimate_tracks_simulation_inter_node(self, profile, nbytes):
        """The closed-form estimate (used by tuning heuristics) stays
        within 2x of the uncontended simulated transfer."""
        sim, cluster, tr = setup(profile=profile)
        src, dst = cluster.gpu(0), cluster.gpu(2)
        a, b = DeviceBuffer(src, nbytes), DeviceBuffer(dst, nbytes)
        simulated = timed_transfer(sim, tr, a, b, nbytes)
        estimated = tr.estimate(src, dst, nbytes)
        assert 0.4 <= estimated / simulated <= 2.5, (
            profile.name, nbytes, estimated, simulated)

    def test_estimate_intra_node_ipc(self):
        sim, cluster, tr = setup(kind="a", n_nodes=1)
        src, dst = cluster.gpu(0), cluster.gpu(1)
        nbytes = 16 << 20
        a, b = DeviceBuffer(src, nbytes), DeviceBuffer(dst, nbytes)
        simulated = timed_transfer(sim, tr, a, b, nbytes)
        estimated = tr.estimate(src, dst, nbytes)
        assert 0.4 <= estimated / simulated <= 2.5

    def test_estimate_same_device(self):
        sim, cluster, tr = setup()
        g = cluster.gpu(0)
        est = tr.estimate(g, g, 1 << 20)
        assert est == pytest.approx(
            cluster.cal.cuda_copy_overhead + (1 << 20) / g.spec.membw)


class TestProfileThresholds:
    def test_gdr_threshold_boundary(self):
        """Crossing gdr_threshold switches mechanisms: message counts on
        the NIC jump from 1 (cut-through) to chunked."""
        sim, cluster, tr = setup()
        src, dst = cluster.gpu(0), cluster.gpu(2)
        thr = MV2GDR.gdr_threshold
        a, b = DeviceBuffer(src, 4 * thr), DeviceBuffer(dst, 4 * thr)
        timed_transfer(sim, tr, a, b, thr)       # GDR
        nic = cluster.nodes[0].nic_for(src)
        assert nic.tx.messages == 1
        timed_transfer(sim, tr, a, b, thr + 1)   # staged
        assert nic.tx.messages > 1
