"""Golden same-seed identity tests for the DES kernel's scheduler.

The simulator schedules on an URGENT FIFO lane plus one time heap,
with pooled events.  The test-only :class:`HeapSimulator` oracle keeps
everything in one flat ``(time, priority, seq)`` heap with no lane and
no pooling, sharing the rest of the semantic protocol (inline
completion, trampoline, eager process start, batched staged trains), so
seeded runs must be *event-for-event identical*: same dispatch order,
same times, same event count.  These tests pin that contract, plus
the unit behavior of the kernel's fast paths (same-time FIFO order,
event pooling, tombstone cancel, closed-form pipeline schedules,
batched staged transfers) and its independence from the string-hash seed.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.mpi.omb
from repro.check.harness import Case, generate_matrix, run_case
from repro.cuda import CudaRuntime, DeviceBuffer
from repro.hardware import cluster_b
from repro.mpi import MV2
from repro.mpi.transport import DeviceTransport
from repro.sim import Channel, Simulator
from repro.sim.resources import (
    BandwidthLink, Resource, Store, pipeline_exit_times,
)

from .heap_oracle import HeapSimulator


# -- workload used for per-event trace comparison ---------------------------

def _mixed_workload(sim):
    """Exercise every kernel feature: contended resources, links with
    per-message overhead, stores, condition events, zero-delay wakeups,
    staged chunk trains, and cancellation via interrupt."""
    res = Resource(sim, capacity=2, name="res")
    link = BandwidthLink(sim, bandwidth=1e9, latency=1e-6,
                         per_message_overhead=2e-7, name="lnk")
    store = Store(sim, capacity=3)
    ch = Channel(sim)
    done = []

    def worker(i):
        for k in range(6):
            yield from res.use(1e-6 * ((i + k) % 5 + 1))
            yield from link.transfer(1000 * (k + 1))
            yield sim.timeout(0.0)  # zero-delay: URGENT-lane adjacency
        yield store.put(i)
        done.append(i)

    # Host-staged transfers between a node's two GPUs: pipelined chunk
    # trains posted through ``timeout_at``.
    cluster = cluster_b(sim, n_nodes=1)
    staged = DeviceTransport(cluster, CudaRuntime(cluster),
                             MV2.derive(ipc=False, pipeline_chunk=4096))
    src = DeviceBuffer(cluster.gpu(0), 5 * 4096)
    dst = DeviceBuffer(cluster.gpu(1), 5 * 4096)

    def trainer():
        yield sim.timeout(5e-6)
        yield from staged.transfer(src, dst, 5 * 4096)
        yield from staged.transfer(src, dst, 4096 + 300)

    def taker():
        got = []
        for _ in range(4):
            ev = store.get()
            yield ev
            got.append(ev.value)
        yield ch.put(tuple(got))

    def waiter():
        a = sim.timeout(3e-6)
        b = sim.timeout(3e-6)  # same instant: bucket ordering matters
        yield sim.all_of([a, b])
        c = sim.timeout(8e-6)
        d = sim.timeout(9e-6)
        yield sim.any_of([c, d])
        yield ch.get()

    def victim():
        try:
            yield from res.use(1.0)
        except BaseException:
            return

    def killer(proc):
        yield sim.timeout(2e-6)
        proc.interrupt("cancelled")

    for i in range(4):
        sim.process(worker(i))
    sim.process(trainer())
    sim.process(taker())
    sim.process(waiter())
    v = sim.process(victim())
    sim.process(killer(v))
    return done


def _trace(sim):
    done = _mixed_workload(sim)
    trace = []
    while sim.peek() != math.inf:
        ev = sim.step()
        trace.append((sim.now, type(ev).__name__))
    return trace, sim.event_count, sorted(done)


def _run_on(sim_cls, monkeypatch, case):
    """``run_case(case)`` with every universe built on ``sim_cls``."""
    with monkeypatch.context() as m:
        m.setattr(repro.mpi.omb, "Simulator", sim_cls)
        return run_case(case)


class TestGoldenTraceIdentity:
    def test_mixed_workload_event_for_event(self):
        fast, n_fast, done_fast = _trace(Simulator())
        slow, n_slow, done_slow = _trace(HeapSimulator())
        assert n_fast == n_slow
        assert done_fast == done_slow
        assert fast == slow  # same times, same dispatch order

    def test_conformance_cases_identical_across_modes(self, monkeypatch):
        """A slice of the conformance matrix (every collective family,
        chunked and windowed variants) runs to the same clock and event
        count on the scheduler and on the heap oracle."""
        cases = [
            Case(collective="reduce_chain", P=8, nbytes=1 << 16, window=4,
                 chunk_bytes=1 << 13),
            Case(collective="hierarchical_reduce", P=8, nbytes=1 << 14,
                 hr_config="CB-4"),
            Case(collective="allreduce_ring", P=6, nbytes=3 << 12),
            Case(collective="bcast_scatter_allgather", P=8, nbytes=1 << 14),
            Case(collective="reduce_binomial", P=5, nbytes=1 << 12,
                 profile="openmpi"),
            Case(collective="allgather_ring", P=4, nbytes=1 << 12,
                 profile="mv2"),
        ]
        for case in cases:
            outcomes = {}
            for sim_cls in (Simulator, HeapSimulator):
                r = _run_on(sim_cls, monkeypatch, case)
                assert r.ok, f"{case.spec()} {sim_cls.__name__}: {r.failures}"
                outcomes[sim_cls] = (r.sim_time, r.n_events)
            assert outcomes[Simulator] == outcomes[HeapSimulator], case.spec()

    def test_generated_matrix_prefix_identical_across_modes(self, monkeypatch):
        for case in generate_matrix(seed=3, quick=True)[:6]:
            results = {}
            for sim_cls in (Simulator, HeapSimulator):
                r = _run_on(sim_cls, monkeypatch, case)
                results[sim_cls] = (r.ok, r.sim_time, r.n_events)
            assert results[Simulator] == results[HeapSimulator], case.spec()


class TestBucketQueue:
    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for i in range(8):
            sim.timeout(1e-3).add_callback(lambda _e, i=i: order.append(i))
        sim.run()
        assert order == list(range(8))

    def test_interleaved_times_sorted(self):
        sim = Simulator()
        order = []
        for i, d in enumerate([5e-3, 1e-3, 3e-3, 1e-3, 4e-3, 2e-3]):
            sim.timeout(d).add_callback(
                lambda _e, i=i, d=d: order.append((d, i)))
        sim.run()
        assert order == sorted(order)

    def test_urgent_lane_runs_before_same_time_timeouts(self):
        def order_on(sim):
            order = []

            def proc():
                ev = sim.event()
                sim.timeout(1e-3).add_callback(lambda _t: order.append("t"))

                def trip(_t):
                    ev.succeed()

                sim.timeout(1e-3).add_callback(trip)
                yield ev
                order.append("woken")

            sim.process(proc())
            sim.run()
            return order

        # URGENT orders ahead of *later-scheduled* work at the same
        # instant, never ahead of already-queued NORMAL events; the
        # pinned contract is that the lane agrees with the flat heap.
        assert order_on(Simulator()) == order_on(HeapSimulator())

    def test_timeout_at_fires_at_exact_instant(self):
        sim = Simulator()
        seen = []
        when = 0.1 + 0.2  # not exactly 0.3 in floats — that's the point
        sim.timeout_at(when).add_callback(lambda _t: seen.append(sim.now))
        sim.run()
        assert seen == [when]

    def test_timeout_at_past_rejected(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.timeout_at(0.5)

    def test_timeout_at_orders_with_equal_time_timeouts(self):
        for sim in (Simulator(), HeapSimulator()):
            order = []

            def proc():
                yield sim.timeout(1e-3)
                sim.timeout(1e-3).add_callback(lambda _t: order.append("rel"))
                sim.timeout_at(sim.now + 1e-3).add_callback(
                    lambda _t: order.append("abs"))
                yield sim.timeout(2e-3)

            sim.process(proc())
            sim.run()
            assert order == ["rel", "abs"], type(sim).__name__


class TestEventPooling:
    def test_pool_recycles_objects(self):
        sim = Simulator()
        seen_ids = set()

        def proc():
            for _ in range(100):
                yield sim.timeout(1e-6)
                seen_ids.add(id(sim.timeout(0.0)))

        sim.process(proc())
        sim.run()
        # With pooling, far fewer distinct objects than timeouts created.
        assert len(seen_ids) < 100

    def test_recycled_events_carry_no_stale_state(self):
        sim = Simulator()
        values = []

        def proc():
            for i in range(50):
                t = sim.timeout(1e-6, value=i)
                got = yield t
                values.append(got)

        sim.process(proc())
        sim.run()
        assert values == list(range(50))


class TestTombstoneCancel:
    def test_cancel_queued_request_is_skipped(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        granted = []

        def holder():
            yield from res.use(1e-3)

        def canceller():
            req = res.request()
            yield sim.timeout(1e-4)
            res.cancel(req)

        def third():
            yield sim.timeout(2e-4)  # queues behind the cancelled request
            grant = yield res.request()
            granted.append(sim.now)
            res.release(grant)

        sim.process(holder())
        sim.process(canceller())
        sim.process(third())
        sim.run()
        # third() gets the grant as soon as holder releases — the
        # tombstoned request in front of it is skipped, not granted.
        assert granted == [pytest.approx(1e-3)]
        assert res.idle

    def test_cancel_storm_no_capacity_leak(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def holder():
            yield from res.use(1e-3)

        reqs = []

        def spammer():
            for _ in range(200):
                reqs.append(res.request())
            yield sim.timeout(1e-5)
            for r in reqs:
                res.cancel(r)

        sim.process(holder())
        sim.process(holder())
        sim.process(spammer())
        sim.run()
        assert res.idle and res.queue_len == 0

    def test_cancel_after_grant_releases(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def proc():
            req = res.request()
            yield sim.timeout(0.0)
            res.cancel(req)  # grant already issued: handed straight back

        sim.process(proc())
        sim.run()
        assert res.idle


class TestPipelineExitTimes:
    def _brute(self, overheads, occ, start):
        s_n, k_n = occ.shape
        exits = np.empty_like(occ)
        prev = [start] * k_n
        for s in range(s_n):
            steps = overheads[s]
            if not isinstance(steps, (tuple, list)):
                steps = (steps,)
            tail = -math.inf
            for k in range(k_n):
                r = prev[k]
                for d in steps:
                    r = r + d
                e = max(r, tail) + occ[s, k]
                exits[s, k] = e
                tail = e
            prev = list(exits[s])
        return exits

    def test_matches_bruteforce_recurrence(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            s_n = int(rng.integers(1, 5))
            k_n = int(rng.integers(1, 30))
            occ = rng.random((s_n, k_n)) * 1e-3
            ovh = [tuple(rng.random(int(rng.integers(0, 3))) * 1e-5)
                   for _ in range(s_n)]
            start = float(rng.random())
            got = pipeline_exit_times(ovh, occ, start=start)
            want = self._brute(ovh, occ, start)
            assert np.array_equal(got, want)  # bit-exact, not approx

    def test_single_stage_is_fifo_serialization(self):
        occ = np.array([[1.0, 2.0, 3.0]])
        e = pipeline_exit_times([0.0], occ, start=10.0)
        assert e.tolist() == [[11.0, 13.0, 16.0]]

    def test_bottleneck_stage_dominates(self):
        # Stage 1 is the bottleneck: steady-state spacing equals its
        # occupancy, independent of the faster stages around it.
        occ = np.array([[0.1] * 10, [1.0] * 10, [0.1] * 10])
        e = pipeline_exit_times([0.0, 0.0, 0.0], occ)
        spacing = np.diff(e[2])
        assert np.allclose(spacing[2:], 1.0)


class TestStagedTrainTransport:
    """The transport-level batched staged pipeline must be bit-identical
    to the per-chunk event model whenever it engages."""

    def _run(self, profile, inter, batch, nbytes):
        import repro.mpi.transport as tp
        from repro.cuda import CudaRuntime, DeviceBuffer
        from repro.hardware import cluster_b

        sim = Simulator()
        cluster = cluster_b(sim, n_nodes=2)
        tr = tp.DeviceTransport(cluster, CudaRuntime(cluster), profile)
        src = cluster.gpu(0)
        dst = cluster.gpu(2) if inter else cluster.gpu(1)
        a, b = DeviceBuffer(src, nbytes), DeviceBuffer(dst, nbytes)
        if not batch:
            def nope(self, *args, **kwargs):
                return False
                yield  # pragma: no cover

            tr._staged_train = nope.__get__(tr)

        def proc():
            yield from tr.transfer(a, b, nbytes)

        sim.process(proc())
        sim.run()
        links = [src.pcie_up, dst.pcie_down]
        node_a = cluster.node_of(src)
        if inter:
            links += [node_a.nic_for(src).tx,
                      cluster.node_of(dst).nic_for(dst).rx]
        else:
            links += [node_a.host_memcpy]
        stats = [(l.name, l.messages, l.bytes_moved, l._res.idle)
                 for l in links]
        busy = [l._res.busy_time for l in links]
        return float(sim.now), stats, busy

    @pytest.mark.parametrize("inter", [False, True])
    @pytest.mark.parametrize("nbytes", [8 << 20, (8 << 20) + 12345])
    def test_bit_identical_to_per_chunk(self, inter, nbytes):
        from repro.mpi import MV2
        profile = MV2.derive(gdr=False)
        t_f, stats_f, busy_f = self._run(profile, inter, True, nbytes)
        t_p, stats_p, busy_p = self._run(profile, inter, False, nbytes)
        assert t_f == t_p
        assert stats_f == stats_p
        assert busy_f == pytest.approx(busy_p, abs=1e-12)

    def test_unpinned_staging_bit_identical(self):
        from repro.mpi import MV2
        profile = MV2.derive(gdr=False, pinned_staging=False)
        t_f, stats_f, _ = self._run(profile, True, True, 8 << 20)
        t_p, stats_p, _ = self._run(profile, True, False, 8 << 20)
        assert t_f == t_p and stats_f == stats_p

    def test_serial_profile_never_batches(self):
        """OpenMPI (no segment pipelining) must take the per-chunk path;
        the batched schedule models only the pipelined overlap."""
        from repro.mpi import OPENMPI
        t_f, stats_f, _ = self._run(OPENMPI, True, True, 8 << 20)
        t_p, stats_p, _ = self._run(OPENMPI, True, False, 8 << 20)
        assert t_f == t_p and stats_f == stats_p


# -- independence from the string-hash seed ------------------------------------

_HASHSEED_PROBE = """
import json
from repro import Simulator, TrainConfig, make_cluster, train
from tests.test_sim_fastpath import _trace

trace, n_events, done = _trace(Simulator())
sim = Simulator(seed=0)
report = train("scaffe", n_gpus=8, cluster=make_cluster(sim, "A"),
               config=TrainConfig(network="cifar10_quick", batch_size=256,
                                  iterations=4, measure_iterations=2))
print(json.dumps([[(t.hex(), kind) for t, kind in trace], n_events, done,
                  report.total_time.hex(), sim.event_count]))
"""


def test_identical_across_hash_seeds():
    """Same seed, same events, whatever ``PYTHONHASHSEED`` is: the mixed
    workload's per-event trace and a small training point (event count,
    total time to the bit) match across string-hash seeds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def probe(hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep
                   .join([os.path.join(root, "src"), root]))
        out = subprocess.run([sys.executable, "-c", _HASHSEED_PROBE],
                             cwd=root, env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    assert probe("0") == probe("1")
