"""The simulated NCCL backend end to end: byte-exact collectives on the
shared runtime substrate, the heap-scheduler oracle, telemetry, faults,
and the profile registry (ISSUE 8)."""

import numpy as np
import pytest

import repro.mpi.omb
from repro.check import Case, run_case
from repro.check.reference import rank_payload, reduce_reference
from repro.cuda import DeviceBuffer
from repro.hardware import cluster_a
from repro.mpi import MPIRuntime, NCCL, NCCLProfile, get_profile
from repro.mpi.profiles import profile_names, register_profile
from repro.nccl import nccl_allreduce
from repro.sim import Simulator
from repro.telemetry import TelemetrySession
from repro.telemetry.instrument import bind_runtime

from .heap_oracle import HeapSimulator

NCCL_COLLECTIVES = ("nccl_allreduce_ring", "nccl_allreduce_tree",
                    "nccl_bcast_ring", "nccl_bcast_tree",
                    "nccl_allgather", "nccl_reduce_scatter")

ROOTED = ("nccl_bcast_ring", "nccl_bcast_tree")


def _cases(collective):
    """A small seeded (P, root, size, chunk) matrix per collective."""
    rng = np.random.default_rng(hash(collective) % (1 << 32))
    cases = []
    for P, nbytes in ((2, 64), (5, 4096), (17, 1028), (16, 256)):
        root = int(rng.integers(0, P)) if collective in ROOTED else 0
        chunk = int(rng.choice([64, 4096])) if rng.integers(0, 2) else None
        cases.append(Case(collective, P=P, nbytes=nbytes, root=root,
                          profile="nccl", chunk_bytes=chunk,
                          seed=int(rng.integers(0, 1 << 16))))
    return cases


@pytest.mark.parametrize("collective", NCCL_COLLECTIVES)
class TestByteExactness:
    def test_seeded_matrix(self, collective):
        for case in _cases(collective):
            r = run_case(case)
            assert r.ok, r.describe()

    def test_slowpath_scheduler_agrees(self, collective, monkeypatch):
        """The flat-heapq oracle must produce the same verdict and the
        same event count (event-for-event identical schedules)."""
        case = _cases(collective)[1]
        fast = run_case(case)
        monkeypatch.setattr(repro.mpi.omb, "Simulator", HeapSimulator)
        slow = run_case(case)
        assert fast.ok and slow.ok, (fast.describe(), slow.describe())
        assert fast.n_events == slow.n_events
        assert fast.sim_time == slow.sim_time

    def test_deterministic(self, collective):
        case = _cases(collective)[0]
        a, b = run_case(case), run_case(case)
        assert a.ok and b.ok
        assert a.sim_time == b.sim_time and a.n_events == b.n_events

    def test_runs_on_every_backend(self, collective):
        """The nccl programs are plain SPMD generators over RankContext,
        so they run under the MPI profiles too."""
        for profile in profile_names():
            r = run_case(Case(collective, P=4, nbytes=512, root=0,
                              profile=profile))
            assert r.ok, r.describe()


class TestFaultTolerance:
    @pytest.mark.parametrize("collective",
                             ["nccl_allreduce_ring", "nccl_bcast_tree"])
    def test_dropped_messages_recover_byte_exact(self, collective):
        r = run_case(Case(collective, P=6, nbytes=2048, root=0,
                          profile="nccl", seed=11, fault="drops"))
        assert r.ok, r.describe()

    @pytest.mark.parametrize("kind", ["corrupt", "stall"])
    @pytest.mark.parametrize("collective",
                             ["nccl_allreduce_ring", "nccl_bcast_tree"])
    def test_chaos_trichotomy_holds(self, collective, kind):
        """Under corruption or stalls the run must end exact, recovered,
        or typed-error — never silent wrong bytes, never a hang."""
        from repro.check.chaos import GOOD_OUTCOMES, ChaosCase, \
            run_chaos_case
        r = run_chaos_case(ChaosCase(collective, P=6, nbytes=2048,
                                     kind=kind, profile="nccl", seed=11))
        assert r.ok, r.describe()
        assert r.outcome in GOOD_OUTCOMES


def _instrumented_allreduce(nbytes, threshold):
    sim = Simulator(seed=0)
    cluster = cluster_a(sim, n_nodes=1)
    runtime = MPIRuntime(cluster, "nccl")
    session = TelemetrySession()
    session.attach(sim)
    session.install()
    bind_runtime(session, runtime)
    session.cvar_set("nccl.tree_threshold", threshold)
    P = 5
    comm = runtime.world(P)
    payloads = [rank_payload(3, r, nbytes) for r in range(P)]
    results = {}

    def program(ctx):
        send = DeviceBuffer.from_array(ctx.gpu, payloads[ctx.rank])
        recv = DeviceBuffer.zeros(ctx.gpu, nbytes // 4)
        yield from nccl_allreduce(ctx, send, recv)
        results[ctx.rank] = recv.data.copy()

    for _ in range(P):
        runtime.spawn(comm, program)
    sim.run()
    ref = reduce_reference(payloads)
    assert all(np.array_equal(results[r], ref) for r in range(P))
    return session.pvar_snapshot()


class TestTelemetryAndSelection:
    def test_ring_path_pvars(self):
        snap = _instrumented_allreduce(8192, threshold=0)
        assert snap["nccl.ring.hops"] > 0
        assert snap["nccl.path.bytes"].get("ring", 0) > 0
        assert "tree" not in snap["nccl.path.bytes"]
        assert snap["nccl.tree.depth"] == 0

    def test_tree_path_pvars(self):
        snap = _instrumented_allreduce(8192, threshold=1 << 20)
        assert snap["nccl.path.bytes"].get("tree", 0) > 0
        assert "ring" not in snap["nccl.path.bytes"]
        assert snap["nccl.ring.hops"] == 0
        assert snap["nccl.tree.depth"] == 3  # P=5 double binary tree

    def test_coll_bytes_attributed_to_nccl_blocks(self):
        snap = _instrumented_allreduce(8192, threshold=0)
        assert snap["mpi.coll.bytes"].get("nccl.allreduce.ring", 0) > 0


class TestProfileRegistry:
    def test_nccl_profile_registered(self):
        assert "nccl" in profile_names()
        prof = get_profile("nccl")
        assert prof is NCCL and isinstance(prof, NCCLProfile)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean 'nccl'"):
            get_profile("ncll")
        with pytest.raises(KeyError, match="did you mean 'mv2gdr'"):
            get_profile("mvapich2gdr")

    def test_derive_preserves_subclass(self):
        derived = NCCL.derive(tree_threshold=123)
        assert isinstance(derived, NCCLProfile)
        assert derived.tree_threshold == 123
        assert derived.ring_chunk == NCCL.ring_chunk

    def test_register_profile_reaches_runtime_and_cli(self):
        import repro.mpi.profiles as profiles_mod
        custom = NCCL.derive(name="nccl-test", tree_threshold=64)
        register_profile(custom)
        try:
            assert get_profile("nccl-test") is custom
            r = run_case(Case("nccl_allreduce_ring", P=3, nbytes=256,
                              root=0, profile="nccl-test"))
            assert r.ok, r.describe()
            from repro.cli import build_parser
            args = build_parser().parse_args(
                ["osu", "--profile", "nccl-test"])
            assert args.profile == "nccl-test"
        finally:
            profiles_mod._PROFILES.pop("nccl-test", None)
