"""Tests for the conformance harness internals: tag allocator, invariant
checkers, mutation self-test, and regressions for the fixed tag-space /
buffer-contract bugs."""

import numpy as np
import pytest

from repro.check import (
    FAULT_KINDS, Case, InvariantChecker, generate_chaos_matrix, parse_case,
    run_case, run_mutation_selftest,
)
from repro.cuda import DeviceBuffer
from repro.hardware import cluster_a
from repro.mpi import MPIRuntime
from repro.mpi.collectives import (
    COLL_TAG_BASE, ProtocolViolation, TAG_BLOCK, allreduce_reduce_bcast,
    coll_tags, reduce_binomial,
)
from repro.mpi.collectives.base import coll_tag_base
from repro.sim import Simulator


def make_runtime(P, profile="mv2gdr", seed=0):
    sim = Simulator(seed=seed)
    cluster = cluster_a(sim, n_nodes=max(1, (P + 15) // 16))
    rt = MPIRuntime(cluster, profile)
    return rt, rt.world(P)


class TestTagAllocator:
    def test_blocks_do_not_overlap_for_jumbo_reservations(self):
        """A >TAG_BLOCK reservation must push the next block past its
        whole span (the historical overflow spilled into it)."""
        _, comm = make_runtime(2)
        ctx = comm.context(0)
        jumbo = coll_tags(ctx, 4160, "jumbo")
        nxt = coll_tags(ctx, 1, "next")
        assert jumbo.base + 4160 <= nxt.base
        assert nxt.base == jumbo.base + 2 * TAG_BLOCK

    def test_tag_bounds_checked(self):
        _, comm = make_runtime(2)
        ctx = comm.context(0)
        tags = coll_tags(ctx, 8, "small")
        assert tags.tag(0) == tags.base
        assert tags.tag(7) == tags.base + 7
        with pytest.raises(ProtocolViolation):
            tags.tag(8)
        with pytest.raises(ProtocolViolation):
            tags.tag(-1)

    def test_all_tags_in_collective_space(self):
        _, comm = make_runtime(2)
        ctx = comm.context(0)
        for count in (1, 100, TAG_BLOCK, TAG_BLOCK + 1):
            assert coll_tags(ctx, count).base >= COLL_TAG_BASE

    def test_legacy_coll_tag_base_reserves_one_unit(self):
        _, comm = make_runtime(2)
        ctx = comm.context(0)
        t0 = coll_tag_base(ctx)
        t1 = coll_tag_base(ctx)
        assert t1 == t0 + TAG_BLOCK

    def test_ranks_agree_on_blocks(self):
        _, comm = make_runtime(4)
        bases = [coll_tags(comm.context(r), 10, "x").base for r in range(4)]
        assert len(set(bases)) == 1


class TestInvariantChecker:
    def test_lockstep_violation_on_mismatched_collective(self):
        rt, comm = make_runtime(2)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            coll_tags(comm.context(0), 4, "reduce.chain")
            coll_tags(comm.context(1), 4, "bcast.binomial")
        finally:
            chk.uninstall()
        assert any(v.kind == "lockstep" for v in chk.violations)

    def test_lockstep_violation_on_mismatched_count(self):
        rt, comm = make_runtime(2)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            coll_tags(comm.context(0), 4, "reduce.chain")
            coll_tags(comm.context(1), 5, "reduce.chain")
        finally:
            chk.uninstall()
        assert any(v.kind == "lockstep" for v in chk.violations)

    def test_tag_audit_flags_unreserved_collective_tag(self):
        rt, comm = make_runtime(2)
        ctx = comm.context(0)
        buf = DeviceBuffer.zeros(ctx.gpu, 4)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            ctx.isend(1, buf, tag=COLL_TAG_BASE + 7)
        finally:
            chk.uninstall()
        assert any(v.kind == "tag-audit" for v in chk.violations)

    def test_tag_audit_flags_out_of_reservation_tag(self):
        rt, comm = make_runtime(2)
        ctx = comm.context(0)
        buf = DeviceBuffer.zeros(ctx.gpu, 4)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            tags = coll_tags(ctx, 2, "small")
            ctx.isend(1, buf, tag=tags.base + 2)  # one past the block
        finally:
            chk.uninstall()
        assert any(v.kind == "tag-audit" for v in chk.violations)

    def test_user_tags_not_audited(self):
        rt, comm = make_runtime(2)
        ctx = comm.context(0)
        buf = DeviceBuffer.zeros(ctx.gpu, 4)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            ctx.isend(1, buf, tag=1234)
        finally:
            chk.uninstall()
        assert not [v for v in chk.violations if v.kind == "tag-audit"]

    def test_end_of_run_flags_unmatched_recv(self):
        rt, comm = make_runtime(2)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            def program(ctx):
                if ctx.rank == 0:
                    buf = DeviceBuffer.zeros(ctx.gpu, 4)
                    ctx.irecv(1, buf, tag=5)  # never matched, never waited
                yield ctx.sim.timeout(1e-6)

            rt.execute(comm, program)
        finally:
            chk.uninstall()
        chk.end_of_run(transport=rt.transport)
        kinds = {v.kind for v in chk.violations}
        assert "request-leak" in kinds
        assert "queue-residue" in kinds

    def test_end_of_run_flags_leaked_scratch(self):
        rt, comm = make_runtime(1)
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            def program(ctx):
                buf = DeviceBuffer.zeros(ctx.gpu, 16)
                ctx.scratch_like(buf, name="leaky")  # never freed
                yield ctx.sim.timeout(1e-6)

            rt.execute(comm, program)
        finally:
            chk.uninstall()
        chk.end_of_run()
        leaks = [v for v in chk.violations if v.kind == "buffer-leak"]
        assert leaks and "leaky" in leaks[0].detail

    def test_clean_collective_run_has_no_violations(self):
        rt, comm = make_runtime(4)
        data = [np.full(8, r + 1, dtype=np.float32) for r in range(4)]
        chk = InvariantChecker()
        chk.install(rt.sim)
        try:
            def program(ctx):
                sendbuf = DeviceBuffer.from_array(ctx.gpu, data[ctx.rank])
                recvbuf = (DeviceBuffer.zeros(ctx.gpu, 8)
                           if ctx.rank == 0 else None)
                yield from reduce_binomial(ctx, sendbuf, recvbuf, 0)

            rt.execute(comm, program)
        finally:
            chk.uninstall()
        assert chk.end_of_run(transport=rt.transport) == []

    def test_checker_is_zero_cost_on_the_event_stream(self):
        """Checked and unchecked runs must be event-for-event identical
        (the checker is passive; disabled hooks are one attribute load)."""
        def timing(checked):
            rt, comm = make_runtime(4)
            if checked:
                chk = InvariantChecker()
                chk.install(rt.sim)
            data = [np.arange(16, dtype=np.float32) for _ in range(4)]

            def program(ctx):
                sendbuf = DeviceBuffer.from_array(ctx.gpu, data[ctx.rank])
                recvbuf = (DeviceBuffer.zeros(ctx.gpu, 16)
                           if ctx.rank == 1 else None)
                yield from reduce_binomial(ctx, sendbuf, recvbuf, 1)

            rt.execute(comm, program)
            return rt.sim.now, rt.sim.event_count

        assert timing(checked=False) == timing(checked=True)


class TestMutationSelfTest:
    def test_every_seeded_bug_is_detected(self):
        outcomes = run_mutation_selftest()
        assert len(outcomes) == 5
        for o in outcomes:
            assert o.clean_ok, f"{o.name}: baseline case failed"
            assert o.detected, f"{o.name}: mutation NOT detected"


class TestFixedBugRegressions:
    def test_chain_reduce_with_more_chunks_than_tag_block(self):
        """4160 chunks > TAG_BLOCK (4096): historically the tag space
        overflowed into the next collective's block."""
        r = run_case(Case("reduce_chain", P=3, nbytes=4 * 4160,
                          chunk_bytes=4))
        assert r.ok, r.describe()

    def test_ring_allreduce_beyond_hardcoded_offset(self):
        """P=514 makes the reduce-scatter step counter reach 512: the
        historical allgather offset ``tag0 + 512`` collided there."""
        r = run_case(Case("allreduce_ring", P=514, nbytes=4))
        assert r.ok, r.describe()

    def test_gather_with_wraparound_root(self):
        """Rotated rank maps make subtree bytes non-contiguous; the old
        span-relay overwrote gathered blocks with stale local bytes."""
        for P, root in ((5, 2), (7, 4), (8, 5), (13, 9)):
            r = run_case(Case("gather_binomial", P=P, nbytes=4 * 25 * P,
                              root=root))
            assert r.ok, r.describe()

    def test_allreduce_reduce_bcast_requires_recvbuf_everywhere(self):
        rt, comm = make_runtime(2)

        def program(ctx):
            sendbuf = DeviceBuffer.zeros(ctx.gpu, 4)
            yield from allreduce_reduce_bcast(ctx, sendbuf, None)

        with pytest.raises(ValueError, match="recvbuf on every rank"):
            rt.execute(comm, program)

    def test_allreduce_reduce_bcast_nonroot_gets_exact_sum(self):
        """The non-root recvbuf contract: every rank ends with the
        byte-exact reduced buffer (the old dead conditional obscured
        this; the case pins it down)."""
        r = run_case(Case("allreduce_reduce_bcast", P=5, nbytes=100,
                          root=3))
        assert r.ok, r.describe()

    def test_reduce_binomial_ignores_nonroot_recvbuf(self):
        rt, comm = make_runtime(4)
        sentinel = np.full(8, 99.0, dtype=np.float32)

        def program(ctx):
            sendbuf = DeviceBuffer.from_array(
                ctx.gpu, np.ones(8, dtype=np.float32))
            recvbuf = DeviceBuffer.from_array(ctx.gpu, sentinel)
            yield from reduce_binomial(ctx, sendbuf, recvbuf, 0)
            return recvbuf.data.copy()

        results = rt.execute(comm, program)
        np.testing.assert_array_equal(results[0],
                                      np.full(8, 4.0, dtype=np.float32))
        for r in range(1, 4):
            np.testing.assert_array_equal(results[r], sentinel)


class TestCaseSpec:
    def test_roundtrip(self):
        case = Case("reduce_chain", P=6, nbytes=512, root=2, chunk_bytes=64,
                    window=3, profile="openmpi", seed=77, fault="drops")
        assert parse_case(case.spec()) == case

    def test_hr_roundtrip(self):
        case = Case("hierarchical_reduce", P=9, nbytes=36, root=4,
                    hr_config="CCB-2")
        assert parse_case(case.spec()) == case

    def test_chaos_cells_roundtrip(self):
        cases = generate_chaos_matrix(3, quick=True)
        assert {c.fault for c in cases} == set(FAULT_KINDS)
        for case in cases:
            assert parse_case(case.spec()) == case

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            parse_case("collective=bcast_binomial,P=2,nbytes=8,bogus=1")

    def test_rejects_unrunnable_specs(self):
        for spec in ("collective=nope,P=2,nbytes=8",
                     "collective=bcast_binomial,P=two,nbytes=8",
                     "P=2,nbytes=8",
                     "collective=bcast_binomial,P=2,nbytes=8,profile=bogus",
                     "collective=bcast_binomial,P=2,nbytes=8,fault=bogus",
                     "collective=bcast_binomial,P=0,nbytes=8",
                     "collective=bcast_binomial,P=2,nbytes=-8",
                     "collective=bcast_binomial,P=2,nbytes=8,root=2",
                     "collective=bcast_binomial,P=20,nbytes=8,fault=stall"):
            with pytest.raises(ValueError):
                parse_case(spec)

    def test_run_case_reports_unrunnable_cases(self):
        """Bad values passed programmatically are failures, not raises."""
        for case in (Case("bcast_binomial", P=2, nbytes=-8),
                     Case("bcast_binomial", P=2, nbytes=8, fault="bogus"),
                     Case("bcast_binomial", P=2, nbytes=8, profile="bogus")):
            r = run_case(case)
            assert not r.ok and r.failures

    def test_run_case_is_deterministic(self):
        case = Case("allreduce_ring", P=5, nbytes=260, seed=9)
        a, b = run_case(case), run_case(case)
        assert a.ok and b.ok
        assert (a.sim_time, a.n_events) == (b.sim_time, b.n_events)
