"""Tests for the OSU Micro-Benchmark suite over the simulated runtime."""

import pytest

from repro.analysis import time_backend
from repro.hardware import DEFAULT_CALIBRATION, cluster_a, cluster_b
from repro.mpi import MV2GDR, OPENMPI
from repro.mpi.omb import (
    osu_allreduce, osu_bcast, osu_bw, osu_latency, osu_reduce, sweep,
)
from repro.sim import Simulator

CAL = DEFAULT_CALIBRATION


def cf_a():
    return cluster_a(Simulator(), n_nodes=2)


def cf_b():
    return cluster_b(Simulator(), n_nodes=2)


class TestLatency:
    def test_small_message_latency_magnitude(self):
        """Intra-node small-message one-way time: order of the PCIe +
        software latencies, far below a bandwidth-bound time."""
        t = osu_latency(cf_a, 1024, ranks=(0, 1))
        assert 1e-6 < t < 1e-3

    def test_inter_node_slower_than_intra_at_bandwidth_sizes(self):
        """Small-message IPC and GDR latencies are comparable (as on
        real hardware); the FDR wire's lower bandwidth shows up once
        messages are bandwidth-bound."""
        intra = osu_latency(cf_a, 1 << 20, ranks=(0, 1))
        inter = osu_latency(cf_a, 1 << 20, ranks=(0, 16))
        assert inter > 1.5 * intra

    def test_latency_monotone_in_size(self):
        t_small = osu_latency(cf_a, 1 << 10)
        t_big = osu_latency(cf_a, 1 << 20)
        assert t_big > t_small

    def test_validation(self):
        with pytest.raises(ValueError):
            osu_latency(cf_a, 1024, ranks=(0, 0))
        with pytest.raises(ValueError):
            osu_latency(cf_a, 1024, iterations=0)


class TestBandwidth:
    def test_large_message_bw_near_link_rate(self):
        """Cross-node streaming bandwidth approaches the bottleneck
        link (EDR wire on Cluster-B, GDR/staging path)."""
        bw = osu_bw(cf_b, 4 << 20, ranks=(0, 2))
        assert 0.3 * CAL.ib_edr_bw < bw < 1.1 * CAL.ib_edr_bw

    def test_windowing_beats_pingpong_rate(self):
        """Pipelined in-flight messages outrun request-response."""
        nbytes = 1 << 20
        lat = osu_latency(cf_b, nbytes, ranks=(0, 2))
        bw = osu_bw(cf_b, nbytes, ranks=(0, 2), window=8)
        assert bw > nbytes / lat * 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            osu_bw(cf_a, 1024, window=0)
        with pytest.raises(ValueError, match="two distinct ranks"):
            osu_bw(cf_a, 1024, ranks=(0, 0))
        with pytest.raises(ValueError, match="two distinct ranks"):
            osu_bw(cf_a, 1024, ranks=(0, 1, 2))


class TestCollectives:
    def test_bcast_latency_grows_with_ranks(self):
        t8 = osu_bcast(cf_a, 1 << 20, 8)
        t32 = osu_bcast(cf_a, 1 << 20, 32)
        assert t32 > t8

    def test_reduce_designs_consistent_with_direct_runs(self):
        t_flat = osu_reduce(cf_a, 32 << 20, 16, design="flat")
        t_cb = osu_reduce(cf_a, 32 << 20, 16, design="CB-8")
        t_tuned = osu_reduce(cf_a, 32 << 20, 16, design="tuned")
        assert t_tuned <= min(t_flat, t_cb) * 1.1

    def test_allreduce_ring_runs(self):
        t = osu_allreduce(cf_a, 4 << 20, 8)
        assert t > 0

    def test_profile_changes_results(self):
        t_fast = osu_reduce(cf_a, 8 << 20, 16, profile=MV2GDR)
        t_slow = osu_reduce(cf_a, 8 << 20, 16, profile=OPENMPI)
        assert t_slow > t_fast * 3


class TestSweep:
    def test_sweep_covers_all_sizes(self):
        sizes = [1 << 10, 1 << 16, 1 << 20]
        table = sweep(osu_reduce, sizes, cluster_factory=cf_a, n_ranks=8)
        assert sorted(table) == sizes
        vals = [table[s] for s in sizes]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestMenus:
    @pytest.mark.parametrize("backend", ["mv2gdr", "nccl"])
    @pytest.mark.parametrize("collective", ["reduce", "allgather"])
    def test_time_backend_rejects_unknown_collective(self, backend,
                                                     collective):
        """Only menu collectives are timed; anything else used to time a
        bcast silently."""
        with pytest.raises(ValueError,
                           match="known collectives: allreduce, bcast"):
            time_backend("A", backend, collective, 8, 64 << 10)
