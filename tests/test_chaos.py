"""Chaos-conformance gate: the outcome trichotomy, its mutation
self-test, case-spec round-trips, and two interplay regressions —
faulty links vs the batched-train fast path, and fault-plan determinism
against the heap-scheduler oracle."""

import os

import pytest

from repro.check.chaos import (
    ChaosCase, FAULT_KINDS, GOOD_OUTCOMES, chaos_outcome_tally,
    generate_chaos_matrix, parse_chaos_case, run_chaos, run_chaos_case,
    run_chaos_selftest,
)
from repro.core import TrainConfig, run_scaffe
from repro.faults import PLAN_NAMES, named_plan
from repro.hardware import make_cluster
from repro.hardware.faults import FaultyLink, MessageDropped
from repro.sim import BandwidthLink, Simulator

from .heap_oracle import HeapSimulator


class TestChaosMatrix:
    def test_quick_matrix_trichotomy_holds(self):
        """Every quick-matrix cell must end exact / recovered / typed
        error — zero silent corruption, zero hangs."""
        results = run_chaos(generate_chaos_matrix(1, quick=True))
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
        assert {c.kind for c in cases} == set(FAULT_KINDS)

    def test_victim_is_never_the_root(self):
        for c in generate_chaos_matrix(2, quick=True):
            assert 0 < c.victim < c.P


class TestChaosSelfTest:
    def test_sabotaged_protections_are_caught(self):
        """The gate must have teeth: a disabled checksum verify must
        read as silent corruption, a disabled watchdog as a hang —
        while the unmutated cases pass."""
        outcomes = run_chaos_selftest()
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.detected, (o.name, o.failures)
            assert o.clean_ok, o.name


class TestCaseSpecs:
    def test_spec_round_trips(self):
        for case in generate_chaos_matrix(3, quick=True)[:12]:
            assert parse_chaos_case(case.spec()) == case

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_chaos_case("collective=allreduce_ring,P=four")
        with pytest.raises(ValueError):
            parse_chaos_case("kind=corrupt")  # no collective
        with pytest.raises(ValueError):
            parse_chaos_case(
                "collective=allreduce_ring,P=4,nbytes=64,kind=gremlins")


class TestFaultyLinkFastPath:
    """Regression: FaultyLink must never take the batched-train fast
    path — a train collapsed into one precomputed hold would skip the
    per-chunk fault checks, letting drops/corruption/stalls slip past."""

    def _link(self, sim):
        return FaultyLink(sim, bandwidth=1e9, latency=1e-6, name="l")

    def test_faulty_link_never_train_eligible(self):
        sim = Simulator()
        link = self._link(sim)
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

    def test_pending_drop_fires_on_first_train_chunk(self):
        sim = Simulator()
        link = self._link(sim)
        link.drop_next(1)

        def prog():
            yield from link.transfer_train([1024] * 8)

        sim.process(prog())
        with pytest.raises(MessageDropped):
            sim.run()
        assert link.drops_served == 1

    def test_mid_train_fault_flip_hits_a_later_chunk(self):
        """A fault armed *while the train is already running* must hit
        one of the remaining chunks — the per-chunk fallback re-checks
        fault state at every chunk boundary."""
        sim = Simulator()
        link = self._link(sim)
        chunk_t = link.occupancy(1 << 20)

        def prog():
            yield from link.transfer_train([1 << 20] * 16)

        def mid_train():
            yield sim.timeout(5.5 * chunk_t)
            link.drop_next(1)

        sim.process(prog())
        sim.process(mid_train())
        with pytest.raises(MessageDropped):
            sim.run()
        assert link.drops_served == 1
        assert 0 < link.messages < 16

    def test_pristine_faulty_link_timing_matches_plain_link(self):
        """The per-chunk fallback costs events, not time: a pristine
        FaultyLink train lands on the same clock as a BandwidthLink."""
        def run(make):
            sim = Simulator()
            link = make(sim)

            def prog():
                yield from link.transfer_train([4096] * 10)

            sim.process(prog())
            sim.run()
            return sim.now

        t_plain = run(lambda s: BandwidthLink(s, bandwidth=1e9,
                                              latency=1e-6, name="b"))
        assert run(self._link) == t_plain


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
