"""Collective watchdog: stalls become typed outcomes or n-1 recovery,
never hangs — and an unarmed watchdog is simulation-neutral."""

from repro.core import TrainConfig, run_scaffe
from repro.cuda import DeviceBuffer
from repro.faults import FaultInjector, FaultPlan, StallLink, named_plan
from repro.hardware import make_cluster
from repro.mpi import CollectiveTimeout, CommRevoked, MPIRuntime
from repro.hardware import cluster_a
from repro.sim import Simulator


def _cfg(iterations=10):
    return TrainConfig(network="alexnet", batch_size=256,
                       iterations=iterations, measure_iterations=2,
                       checkpoint_interval=3)


def _stall_plan(cluster, seed, n_ranks=8):
    return named_plan("stall", seed=seed, horizon=2.0, n_ranks=n_ranks,
                      n_nodes=len(cluster.nodes),
                      gpus_per_node=cluster.gpus_per_node,
                      nics_per_node=len(cluster.nodes[0].nics))


class TestWatchdogWindows:
    def test_window_positive_and_monotone_in_bytes(self):
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        rt = MPIRuntime(cluster, "mv2gdr")
        wd = rt.ensure_watchdog()
        gpus = cluster.gpus[:4]
        small = wd.window_for(gpus, 1 << 10)
        large = wd.window_for(gpus, 64 << 20)
        assert 0 < small < large
        assert small > wd.slack  # retry budget + detect latency included

    def test_straggler_flag_drives_degraded_mode(self):
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        rt = MPIRuntime(cluster, "mv2gdr")
        wd = rt.ensure_watchdog()
        assert not wd.degraded_mode
        wd.flag_straggler(("pcie", 3, "up"))
        assert wd.degraded_mode


class TestStallOutcomes:
    def test_stalled_collective_ends_typed_not_hung(self):
        """A stall with an attributable rank: the watchdog converts the
        would-be deadlock into the standard dead-rank path; the sim
        drains (no hang) and the watchdog escalated exactly once."""
        from repro.check import Case, run_case
        r = run_case(Case("allreduce_ring", P=4, nbytes=4096, seed=5,
                          fault="stall"))
        assert r.outcome == "error"
        assert r.ok
        assert r.counters["watchdog_timeouts"] >= 1
        assert r.counters["watchdog_escalations"] >= 1

    def test_training_survives_stall_at_n_minus_1(self):
        """A stalled non-root PCIe lane mid-training: suspect kill ->
        ULFM revoke/shrink/checkpoint-restart -> the job *completes*."""
        cluster = make_cluster(Simulator(), "A")
        plan = _stall_plan(cluster, seed=1)  # victim is rank 2
        assert plan.events[0].target[1] != 0
        r = run_scaffe(cluster, 8, _cfg(), fault_plan=plan)
        assert r.ok
        fr = r.faults
        assert fr.watchdog_timeouts == 1
        assert fr.watchdog_escalations == 1
        assert fr.detected_failures == 1
        assert fr.recoveries == 1

    def test_root_stall_is_clean_job_death(self):
        """A stall pinned on rank 0 cannot shrink away (the root owns
        the solver state): the job ends with a reported failure — a
        clean typed error, not a hang, not silent corruption."""
        cluster = make_cluster(Simulator(), "A")
        plan = _stall_plan(cluster, seed=2)  # victim is rank 0
        assert plan.events[0].target[1] == 0
        r = run_scaffe(cluster, 8, _cfg(), fault_plan=plan)
        assert not r.ok
        assert r.failure is not None
        assert r.faults.watchdog_timeouts >= 1
        assert r.faults.silent_corruptions == 0


class TestRevokeInFlight:
    def test_revoke_fails_matched_inflight_transfer(self):
        """ULFM contract: revocation errors out *every* pending
        operation — including a matched pair whose transfer is parked
        on a stalled link (invisible to the posted/unexpected queues)."""
        sim = Simulator(seed=0)
        cluster = cluster_a(sim, n_nodes=1)
        rt = MPIRuntime(cluster, "mv2gdr")
        comm = rt.world(2)
        plan = FaultPlan(name="t.stall", events=(
            StallLink(start=0.0, target=("pcie", 0, "up")),))
        FaultInjector(cluster, plan).arm()
        outcomes = {}

        def sender(ctx):
            buf = DeviceBuffer(ctx.gpu, 64 << 20)  # rendezvous-sized
            try:
                yield from ctx.send(1, buf)
            except CommRevoked:
                outcomes["send"] = "revoked"

        def receiver(ctx):
            buf = DeviceBuffer(ctx.gpu, 64 << 20)
            try:
                yield from ctx.recv(0, buf)
            except CommRevoked:
                outcomes["recv"] = "revoked"

        def revoker():
            yield sim.timeout(0.05)  # transfer is parked by now
            comm.revoke(CollectiveTimeout("test revoke"))

        procs = [sim.process(sender(comm.context(0))),
                 sim.process(receiver(comm.context(1)))]
        sim.process(revoker())
        sim.run()
        assert outcomes == {"send": "revoked", "recv": "revoked"}
        assert all(not p.is_alive for p in procs)
        assert not comm._inflight  # mover deregistered


class TestQuietNeutrality:
    def test_quiet_plan_spawns_no_watchdog_and_matches_baseline(self):
        def run(plan):
            cluster = make_cluster(Simulator(), "A")
            r = run_scaffe(cluster, 8, _cfg(iterations=5), fault_plan=plan)
            assert r.ok
            return r.total_time, cluster.sim.event_count

        base = run(None)
        quiet = run(FaultPlan(name="quiet", events=()))
        assert quiet == base

    def test_unarmed_watchdog_not_created_for_stall_free_plans(self):
        cluster = make_cluster(Simulator(), "A")
        plan = named_plan("flaky", seed=1, horizon=2.0, n_ranks=8,
                          n_nodes=len(cluster.nodes),
                          gpus_per_node=cluster.gpus_per_node,
                          nics_per_node=len(cluster.nodes[0].nics))
        r = run_scaffe(cluster, 8, _cfg(iterations=5), fault_plan=plan)
        assert r.ok
        # No StallLink in the plan => SCaffeJob never arms a watchdog.
        from repro.faults import StallLink as _S
        assert not any(isinstance(ev, _S) for ev in plan.events)
        assert cluster.sim is not None
