"""End-to-end transfer integrity: CRC32 verify, NACK+retransmit, typed
exhaustion, checkpoint checksums, and the telemetry bindings that
expose it all (``mpi.integrity.*`` PVARs, ``mpi.detect_latency`` CVAR).
"""

import numpy as np
import pytest

from repro.cuda import DeviceBuffer
from repro.faults import (
    CorruptMessages, DEFAULT_DETECT_LATENCY, FaultInjector, FaultPlan,
)
from repro.hardware import DEFAULT_CALIBRATION, cluster_a
from repro.io import CheckpointStore
from repro.mpi import IntegrityError, MPIRuntime, TransportTimeout
from repro.sim import Simulator
from repro.telemetry import TelemetrySession, bind_injector, bind_runtime


def _corrupting_setup(count, nbytes=256):
    """A 1-node cluster with ``count`` pending corruptions armed on
    gpu1's PCIe downlink, plus data-carrying src/dst buffers for a
    0 -> 1 transfer crossing exactly that link."""
    sim = Simulator(seed=0)
    cluster = cluster_a(sim, n_nodes=1)
    rt = MPIRuntime(cluster, "mv2gdr")
    plan = FaultPlan(name="t.corrupt", events=(
        CorruptMessages(time=0.0, target=("pcie", 1, "down"), count=count),))
    FaultInjector(cluster, plan).arm()
    payload = np.arange(nbytes, dtype=np.uint8)
    src = DeviceBuffer(cluster.gpus[0], nbytes, data=payload.copy())
    dst = DeviceBuffer(cluster.gpus[1], nbytes,
                       data=np.zeros(nbytes, dtype=np.uint8))
    return sim, cluster, rt, src, dst, payload


class TestChecksummedTransport:
    def test_corruption_detected_and_retransmitted_byte_exact(self):
        """One flipped delivery: the CRC32 verify NACKs it, the
        retransmit lands clean bytes — the receiver never sees garbage."""
        sim, cluster, rt, src, dst, payload = _corrupting_setup(count=1)

        def prog():
            yield from rt.transport.transfer(src, dst)

        sim.process(prog())
        sim.run()
        tm = rt.transport.metrics
        assert tm.corrupt_detected == 1
        assert tm.retransmits == 1
        assert tm.integrity_failures == 0
        assert tm.silent_corruptions == 0
        np.testing.assert_array_equal(dst.data, payload)

    def test_persistent_corruption_is_typed_integrity_error(self):
        """A corruptor that outlasts the retransmit budget surfaces as
        IntegrityError (a typed TransportTimeout) — never wrong bytes."""
        sim, cluster, rt, src, dst, payload = _corrupting_setup(count=64)

        def prog():
            yield from rt.transport.transfer(src, dst)

        sim.process(prog())
        with pytest.raises(IntegrityError):
            sim.run()
        tm = rt.transport.metrics
        limit = rt.transport.RETRY_LIMIT
        assert tm.corrupt_detected == limit + 1
        assert tm.retransmits == limit
        assert tm.integrity_failures == 1
        assert tm.silent_corruptions == 0
        assert issubclass(IntegrityError, TransportTimeout)

    def test_disabled_verify_trips_silent_corruption_counter(self):
        """If the checksum layer is sabotaged, the corrupted delivery
        completes and the silent-corruption tripwire counts it."""
        from repro.check.mutation import disabled_verify
        sim, cluster, rt, src, dst, payload = _corrupting_setup(count=1)

        def prog():
            yield from rt.transport.transfer(src, dst)

        sim.process(prog())
        with disabled_verify():
            sim.run()
        tm = rt.transport.metrics
        assert tm.silent_corruptions == 1
        assert tm.retransmits == 0

    def test_quiet_fabric_integrity_counters_stay_zero(self):
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        rt = MPIRuntime(cluster, "mv2gdr")
        assert not cluster.fault_links_armed
        src = DeviceBuffer(cluster.gpus[0], 256)
        dst = DeviceBuffer(cluster.gpus[1], 256)

        def prog():
            yield from rt.transport.transfer(src, dst)

        sim.process(prog())
        sim.run()
        tm = rt.transport.metrics
        assert (tm.corrupt_detected, tm.retransmits, tm.integrity_failures,
                tm.silent_corruptions) == (0, 0, 0, 0)


class TestCheckpointChecksums:
    def _store_with_snapshot(self):
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        store = CheckpointStore(sim, DEFAULT_CALIBRATION)
        gpu = cluster.gpus[0]

        def saver():
            yield from store.save(gpu, 1 << 20, iteration=5)

        sim.process(saver())
        sim.run()
        return sim, store, gpu

    def test_corrupt_snapshot_discarded_on_restore(self):
        """A rotted snapshot fails its checksum verify: restore discards
        it and reports a full rollback (None) instead of resuming from
        silently wrong solver state."""
        sim, store, gpu = self._store_with_snapshot()
        assert store.corrupt_latest()
        assert not store.verify(store.latest)

        def restorer():
            snap = yield from store.restore(gpu)
            return snap

        p = sim.process(restorer())
        sim.run()
        assert p.value is None
        assert store.checksum_failures == 1
        assert store.latest is None
        assert store.completed_iterations == 0

    def test_clean_snapshot_restores_and_verifies(self):
        sim, store, gpu = self._store_with_snapshot()
        assert store.verify(store.latest)

        def restorer():
            snap = yield from store.restore(gpu)
            return snap

        p = sim.process(restorer())
        sim.run()
        assert p.value is not None
        assert p.value.iteration == 5
        assert store.checksum_failures == 0


class TestFaultTelemetryBindings:
    def _bound_session(self):
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        rt = MPIRuntime(cluster, "mv2gdr")
        session = TelemetrySession()
        session.attach(sim)
        bind_runtime(session, rt)
        return sim, cluster, rt, session

    def test_detect_latency_cvar_round_trip(self):
        sim, cluster, rt, session = self._bound_session()
        assert "mpi.detect_latency" in session.cvar_names()
        assert session.cvar_get("mpi.detect_latency") == \
            pytest.approx(DEFAULT_DETECT_LATENCY)
        session.cvar_set("mpi.detect_latency", 5e-3)
        assert rt.failure_detector.detect_latency == pytest.approx(5e-3)
        assert session.cvar_get("mpi.detect_latency") == pytest.approx(5e-3)

    def test_detect_latency_cvar_validates(self):
        sim, cluster, rt, session = self._bound_session()
        with pytest.raises(ValueError):
            session.cvar_set("mpi.detect_latency", -1.0)
        with pytest.raises(TypeError):
            session.cvar_set("mpi.detect_latency", "soon")

    def test_integrity_pvars_registered_and_live(self):
        sim, cluster, rt, session = self._bound_session()
        for name in ("mpi.integrity.corrupt_detected",
                     "mpi.integrity.retransmits",
                     "mpi.integrity.failures",
                     "mpi.integrity.silent_corruptions"):
            assert name in session.pvar_names()
            assert session.pvar_read(name) == 0
        rt.transport.metrics.count_corrupt_detected()
        assert session.pvar_read("mpi.integrity.corrupt_detected") == 1

    def test_bind_injector_exports_fault_pvars(self):
        sim, cluster, rt, session = self._bound_session()
        plan = FaultPlan(name="t", events=(
            CorruptMessages(time=0.0, target=("pcie", 1, "down"), count=2),))
        injector = FaultInjector(cluster, plan)
        bind_injector(session, injector)
        assert session.pvar_read("faults.injected") == {}
        assert session.pvar_read("faults.crashed_ranks") == 0
        injector.arm()
        sim.run()
        assert session.pvar_read("faults.injected") == {"CorruptMessages": 1}
