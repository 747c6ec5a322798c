"""Property-based tests (hypothesis) for the simulation substrate."""

from hypothesis import given, settings, strategies as st

from repro.sim import (
    Barrier, BandwidthLink, Channel, Resource, Simulator, Store,
)

durations = st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)


class TestEventOrdering:
    @given(st.lists(durations, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_timeouts_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []

        def waiter(d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.process(waiter(d))
        sim.run()
        assert fired == sorted(fired)
        assert sim.now == max(delays)

    @given(st.lists(durations, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sequential_timeouts_sum(self, delays):
        sim = Simulator()

        def proc():
            for d in delays:
                yield sim.timeout(d)

        sim.process(proc())
        sim.run()
        assert abs(sim.now - sum(delays)) < 1e-6 * max(1.0, sum(delays))


class TestResourceInvariant:
    @given(
        st.integers(min_value=1, max_value=5),
        st.lists(st.tuples(durations, durations), min_size=1, max_size=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_concurrency_never_exceeds_capacity(self, capacity, jobs):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = [0]
        peak = [0]

        def worker(start, hold):
            yield sim.timeout(start)
            grant = yield res.request()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            try:
                yield sim.timeout(hold)
            finally:
                active[0] -= 1
                res.release(grant)

        for start, hold in jobs:
            sim.process(worker(start, hold))
        sim.run()
        assert peak[0] <= capacity
        assert active[0] == 0
        assert res.in_use == 0 or res.queue_len == 0

    @given(st.lists(durations, min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_serialized_resource_time_is_sum(self, holds):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def worker(h):
            yield from res.use(h)

        for h in holds:
            sim.process(worker(h))
        sim.run()
        assert abs(sim.now - sum(holds)) < 1e-6 * max(1.0, sum(holds))


class TestChannelFIFO:
    @given(st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_order_preserved(self, items):
        sim = Simulator()
        ch = Channel(sim)
        got = []

        def producer():
            for x in items:
                yield ch.put(x)

        def consumer():
            for _ in items:
                got.append((yield ch.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == items

    @given(st.lists(st.integers(), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_bounded_channel_order_preserved(self, items, cap):
        sim = Simulator()
        ch = Channel(sim, capacity=cap)
        got = []

        def producer():
            for x in items:
                yield ch.put(x)

        def consumer():
            for _ in items:
                yield sim.timeout(0.1)
                got.append((yield ch.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == items


class TestBarrierProperty:
    @given(st.integers(min_value=1, max_value=12),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_parties_release_together(self, parties, data):
        delays = data.draw(st.lists(durations, min_size=parties,
                                    max_size=parties))
        sim = Simulator()
        bar = Barrier(sim, parties)
        times = []

        def party(d):
            yield sim.timeout(d)
            yield bar.arrive()
            times.append(sim.now)

        for d in delays:
            sim.process(party(d))
        sim.run()
        assert len(times) == parties
        assert all(abs(t - max(delays)) < 1e-9 for t in times)


class TestLinkProperties:
    @given(st.integers(min_value=0, max_value=1 << 30),
           st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_monotone_in_bytes(self, a, b):
        sim = Simulator()
        link = BandwidthLink(sim, bandwidth=1e9, latency=1e-6)
        lo, hi = min(a, b), max(a, b)
        assert link.occupancy(lo) <= link.occupancy(hi)

    @given(st.lists(st.integers(min_value=1, max_value=1 << 20),
                    min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_serialized_transfers_accumulate(self, sizes):
        sim = Simulator()
        link = BandwidthLink(sim, bandwidth=1e6, latency=0.0)

        def xfer(n):
            yield from link.transfer(n)

        for n in sizes:
            sim.process(xfer(n))
        sim.run()
        assert link.bytes_moved == sum(sizes)
        assert abs(sim.now - sum(sizes) / 1e6) < 1e-9 * len(sizes) + 1e-12


class TestStoreProperty:
    @given(st.lists(st.integers(), min_size=1, max_size=25),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_bounded_store_fifo(self, items, cap):
        sim = Simulator()
        store = Store(sim, capacity=cap)
        got = []

        def producer():
            for x in items:
                yield store.put(x)

        def consumer():
            for _ in items:
                yield sim.timeout(1.0)
                got.append((yield store.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == items
        assert len(store) == 0


class TestProfilerProperty:
    """Critical-path invariants on randomized small clusters.

    ``jobs`` drives a mix of kernels, D2H copies, and pt2pt transfers
    between random GPUs; the recorded activity graph must always obey
    cp_length <= makespan <= total_work (up to float tolerance).
    """

    def _cluster(self, sim, n_nodes, gpus_per_node):
        from repro.hardware import (
            Calibration, Cluster, GPUSpec, NICSpec, NodeSpec,
        )
        cal = Calibration()
        spec = GPUSpec("K80", 1 << 30, cal.k80_flops, cal.k80_membw,
                       cal.gpu_reduce_bw)
        node = NodeSpec(gpus_per_node=gpus_per_node, gpu_spec=spec,
                        nics=(NICSpec("ib0", cal.ib_edr_bw,
                                      cal.ib_latency),))
        return Cluster(sim, node, n_nodes, cal=cal, name="tiny")

    @given(st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=4),
           st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                              st.integers(min_value=0, max_value=11),
                              st.integers(min_value=1, max_value=1 << 20),
                              st.sampled_from(["kernel", "d2h", "xfer"])),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_cp_le_makespan_le_total_work(self, n_nodes, gpn, jobs):
        from repro.cuda import CudaRuntime, DeviceBuffer
        from repro.mpi import MPIRuntime
        from repro.prof import ActivityGraph, SpanRecorder
        from repro.sim import Simulator

        sim = Simulator()
        cluster = self._cluster(sim, n_nodes, gpn)
        cuda = CudaRuntime(cluster)
        rt = MPIRuntime(cluster, "mv2gdr")
        rec = SpanRecorder(sim)
        n = cluster.n_gpus

        def job(src, dst, nbytes, kind):
            a, b = cluster.gpu(src % n), cluster.gpu(dst % n)
            if kind == "kernel":
                yield from cuda.launch(a, duration=nbytes * 1e-9)
            elif kind == "d2h":
                yield from cuda.memcpy_d2h(DeviceBuffer(a, nbytes))
            else:
                yield from rt.transport.transfer(
                    DeviceBuffer(a, nbytes), DeviceBuffer(b, nbytes))

        for src, dst, nbytes, kind in jobs:
            sim.process(job(src, dst, nbytes, kind))
        sim.run()

        g = ActivityGraph.from_recorder(rec)
        assert rec.n_spans > 0
        assert len(rec.closed_spans()) == rec.n_spans
        eps = 1e-9 * max(1.0, g.total_work)
        assert g.cp_length <= g.makespan + eps
        assert g.makespan <= g.total_work + eps
        # Every causal edge points strictly backwards in time.
        for s in rec.spans:
            for d in s.deps:
                assert rec.spans[d].end <= s.start + eps
        # Resource invariant: no resource is busy
        # longer than the run (capacity-1 FIFO serialization).
        for r, frac in g.utilization().items():
            assert frac <= 1.0 + 1e-6, r
