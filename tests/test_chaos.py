"""Chaos-conformance gate: the outcome trichotomy, its mutation
self-test rows, and two interplay regressions —
faulty links vs the transport's batched-train fast path, and fault-plan determinism
against the heap-scheduler oracle."""

import pytest

from repro.check import (
    FAULT_KINDS, MUTATIONS, run_matrix, run_mutation_selftest,
)
from repro.check.chaos import (
    GOOD_OUTCOMES, chaos_outcome_tally, generate_chaos_matrix,
)
import repro.mpi.transport as transport_mod
from repro.core import TrainConfig, run_scaffe
from repro.cuda import CudaRuntime, DeviceBuffer
from repro.faults import PLAN_NAMES, named_plan
from repro.hardware import cluster_b, make_cluster
from repro.hardware.faults import FaultyLink
from repro.mpi import MV2
from repro.mpi.transport import DeviceTransport
from repro.sim import BandwidthLink, Simulator
from repro.sim.resources import pipeline_exit_times

from .heap_oracle import HeapSimulator


class TestChaosMatrix:
    def test_quick_matrix_trichotomy_holds(self):
        """Every quick-matrix cell must end exact / recovered / typed
        error — zero silent corruption, zero hangs."""
        results = run_matrix(generate_chaos_matrix(1, quick=True))
        assert len(results) >= 60
        tally = chaos_outcome_tally(results)
        assert tally["silent"] == 0
        assert tally["hang"] == 0
        bad = [r for r in results if not r.ok]
        assert not bad, [f"{r.case.spec()}: {r.failures}" for r in bad]
        # The matrix genuinely exercises all three contract outcomes.
        assert all(tally[k] > 0 for k in GOOD_OUTCOMES)

    def test_full_matrix_covers_every_kind(self):
        cases = generate_chaos_matrix(0, quick=False)
        assert len(cases) >= 200  # acceptance floor from the issue
        assert {c.fault for c in cases} == set(FAULT_KINDS)

    def test_victim_is_never_the_root(self):
        for c in generate_chaos_matrix(2, quick=True):
            assert 0 < c.victim < c.P


class TestChaosSelfTest:
    def test_sabotaged_protections_are_caught(self):
        """The gate must have teeth: a disabled checksum verify must
        read as silent corruption, a disabled watchdog as a hang —
        while the unmutated cases pass."""
        wants = {name: want for name, _, _, want in MUTATIONS}
        assert wants["disabled_verify"] == "silent"
        assert wants["disabled_watchdog"] == "hang"
        outcomes = {o.name: o for o in run_mutation_selftest()}
        for name in ("disabled_verify", "disabled_watchdog"):
            assert outcomes[name].detected, outcomes[name].failures
            assert outcomes[name].clean_ok, name


class _TapLink(FaultyLink):
    """A FaultyLink that records how many chunks it had moved when
    each forced drop fired."""

    def check_fault(self):
        if self._drops_pending:
            self.dropped_at.append(self.messages)
        super().check_fault()


class TestFaultyLinkFastPath:
    """Regression: a FaultyLink stage must never take the batched-train
    fast path — a train collapsed into one precomputed hold would skip
    the per-chunk fault checks, letting drops/corruption/stalls slip
    past.  Driven through a host-staged ``DeviceTransport.transfer``
    (same node, no IPC) whose middle stage is the node's host-memcpy
    link."""

    CHUNK = 64 << 10
    K = 16

    def _run(self, faulty, drops=0, arm=None):
        """One K-chunk staged transfer, ``drops`` forced drops pending
        on a faulty host link; returns (end time, host link, transport,
        number of batched trains posted)."""
        sim = Simulator()
        cluster = cluster_b(sim, n_nodes=1)
        node = cluster.nodes[0]
        if faulty:
            node.host_memcpy = _TapLink.from_link(node.host_memcpy)
            node.host_memcpy.dropped_at = []
            node.host_memcpy.drop_next(drops)
        link = node.host_memcpy
        tr = DeviceTransport(cluster, CudaRuntime(cluster),
                             MV2.derive(ipc=False, pipeline_chunk=self.CHUNK))
        nbytes = self.K * self.CHUNK
        a = DeviceBuffer(cluster.gpu(0), nbytes)
        b = DeviceBuffer(cluster.gpu(1), nbytes)
        trains = []

        def counting(*args, **kwargs):
            trains.append(1)
            return pipeline_exit_times(*args, **kwargs)

        def prog():
            yield from tr.transfer(a, b, nbytes)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(transport_mod, "pipeline_exit_times", counting)
            sim.process(prog())
            if arm is not None:
                sim.process(arm(sim, link))
            sim.run()
        return sim.now, link, tr, len(trains)

    def test_faulty_link_never_train_eligible(self):
        sim = Simulator()
        link = FaultyLink(sim, bandwidth=1e9, latency=1e-6, name="l")
        # Healthy, idle, no recorder/jitter — a plain BandwidthLink
        # would be eligible; the fault hook alone must disqualify.
        assert BandwidthLink(sim, bandwidth=1e9, latency=1e-6,
                             name="b").train_eligible()
        assert not link.train_eligible()
        # ...and stays ineligible across every fault-state flip.
        link.set_stalled(True)
        assert not link.train_eligible()
        link.set_stalled(False)
        link.set_down(True)
        assert not link.train_eligible()
        link.set_down(False)
        assert not link.train_eligible()
        # A staged transfer posts its train over a plain host link and
        # runs every chunk through a FaultyLink one.
        assert self._run(faulty=False)[3] == 1
        _, link, _, trains = self._run(faulty=True)
        assert trains == 0
        assert link.messages == self.K

    def test_pending_drop_fires_on_first_train_chunk(self):
        _, link, tr, trains = self._run(faulty=True, drops=1)
        assert trains == 0
        assert link.drops_served == 1
        assert link.dropped_at == [0]
        # The transport saw the drop and re-sent the transfer.
        assert tr.metrics.drops_detected == 1
        assert tr.metrics.retries == 1

    def test_mid_train_fault_flip_hits_a_later_chunk(self):
        """A fault armed *while the transfer is already running* must
        hit one of the remaining chunks — the per-chunk fallback
        re-checks fault state at every chunk boundary."""
        half = self._run(faulty=False)[0] / 2

        def arm(sim, link):
            yield sim.timeout(half)
            link.drop_next(1)

        _, link, tr, _ = self._run(faulty=True, arm=arm)
        assert link.drops_served == 1
        assert 0 < link.dropped_at[0] < self.K
        assert tr.metrics.drops_detected == 1

    def test_pristine_faulty_link_timing_matches_plain_link(self):
        """The per-chunk fallback costs events, not time: a pristine
        FaultyLink stage lands on the same clock as a plain link's
        batched train."""
        t_plain, plain, _, trains = self._run(faulty=False)
        t_faulty, faulty, _, _ = self._run(faulty=True)
        assert trains == 1
        assert t_faulty == t_plain
        assert (faulty.messages, faulty.bytes_moved) == (
            plain.messages, plain.bytes_moved)


class TestPlanDeterminismAcrossSchedulers:
    """Regression: every named fault plan must produce an identical
    outcome on the scheduler and on the flat-heap oracle — fault
    delivery may not depend on scheduler internals."""

    @staticmethod
    def _run(name, sim_cls):
        sim = sim_cls(seed=7)
        cluster = make_cluster(sim, "A")
        plan = named_plan(name, seed=3, horizon=2.0, n_ranks=8,
                          n_nodes=len(cluster.nodes),
                          gpus_per_node=cluster.gpus_per_node,
                          nics_per_node=len(cluster.nodes[0].nics))
        cfg = TrainConfig(network="cifar10_quick", batch_size=256,
                          iterations=6, measure_iterations=2,
                          checkpoint_interval=2)
        r = run_scaffe(cluster, 8, cfg, fault_plan=plan)
        fr = r.faults
        fault_sig = None
        if fr is not None:
            fault_sig = (tuple(sorted(fr.injected.items())),
                         fr.detected_failures, fr.recoveries,
                         fr.corrupt_detected, fr.retransmits,
                         fr.silent_corruptions, fr.watchdog_timeouts,
                         fr.watchdog_escalations)
        return (r.ok, r.failure, r.total_time, r.simulated_time,
                sim.event_count, fault_sig)

    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_named_plan_identical_in_both_modes(self, name):
        slow = self._run(name, HeapSimulator)
        fast = self._run(name, Simulator)
        assert slow == fast
        assert slow[5] is not None  # the fault report was produced
