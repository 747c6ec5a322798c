"""Tests for TrainConfig, metrics, workload, and the Table-1 registry."""

import numpy as np
import pytest

from repro.core import (
    FRAMEWORKS, TrainConfig, TrainingReport, Workload, run_scaffe, speedup,
    table1_rows,
)
from repro.core.workload import LayerGroup, RealCompute, SolverBuffers
from repro.dnn import build_mlp, get_network
from repro.hardware import cluster_a
from repro.sim import Simulator


class TestTrainConfig:
    def test_strong_scaling_divides_batch(self):
        cfg = TrainConfig(batch_size=1024, scal="strong")
        # "if we specify a batch-size of 1,024 for 32 GPUs, the effective
        # batch-size for a single GPU becomes 32" (Section 6.2).
        assert cfg.local_batch(32) == 32
        assert cfg.global_batch(32) == 1024

    def test_weak_scaling_keeps_batch(self):
        cfg = TrainConfig(batch_size=1024, scal="weak")
        assert cfg.local_batch(32) == 1024
        assert cfg.global_batch(32) == 32768

    def test_strong_scaling_needs_enough_batch(self):
        cfg = TrainConfig(batch_size=16)
        with pytest.raises(ValueError):
            cfg.local_batch(32)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(scal="diagonal")
        with pytest.raises(ValueError):
            TrainConfig(variant="SC-X")
        with pytest.raises(ValueError):
            TrainConfig(data_backend="hdf5")
        with pytest.raises(ValueError):
            TrainConfig(iterations=2, measure_iterations=5)

    def test_reduce_design_checked_before_simulation(self):
        for design in ("tuned", "flat", "binomial", "chain", "CB-8",
                       "CCB-4"):
            assert TrainConfig(reduce_design=design).reduce_design == design
        with pytest.raises(ValueError, match="unknown reduce design"):
            TrainConfig(reduce_design="bogus")

    def test_chain_design_trains(self):
        cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                          batch_size=128, iterations=2,
                          measure_iterations=1, reduce_design="chain")
        report = run_scaffe(cluster_a(Simulator(), n_nodes=1), 4, cfg)
        assert report.ok and report.total_time > 0

    def test_derive(self):
        cfg = TrainConfig(batch_size=64)
        assert cfg.derive(batch_size=128).batch_size == 128
        assert cfg.batch_size == 64


class TestTrainingReport:
    def test_samples_per_second(self):
        r = TrainingReport("f", "net", 4, iterations=100, total_time=10.0,
                           global_batch=128)
        assert r.samples_per_second == pytest.approx(1280.0)
        assert r.time_per_iteration == pytest.approx(0.1)

    def test_failed_report_raises_on_metrics(self):
        r = TrainingReport("f", "net", 4, iterations=10, total_time=0.0,
                           global_batch=1, failure="oom")
        assert not r.ok
        with pytest.raises(RuntimeError):
            _ = r.samples_per_second
        assert "FAILED" in r.summary()

    def test_speedup(self):
        a = TrainingReport("a", "n", 1, 10, total_time=20.0, global_batch=1)
        b = TrainingReport("b", "n", 1, 10, total_time=10.0, global_batch=1)
        assert speedup(a, b) == pytest.approx(2.0)


class TestTable1:
    def test_rows_cover_all_frameworks(self):
        rows = table1_rows()
        assert [r["framework"] for r in rows] == [
            "Caffe", "FireCaffe", "MPI-Caffe", "CNTK", "Inspur-Caffe",
            "S-Caffe"]

    def test_scaffe_is_the_only_codesigned_framework(self):
        rows = {r["framework"]: r for r in table1_rows()}
        assert rows["S-Caffe"]["codesigned"] == "yes"
        assert rows["S-Caffe"]["overlapped_nbc"] == "yes"
        for name, row in rows.items():
            if name != "S-Caffe":
                assert row["codesigned"] != "yes"

    def test_unknowns_preserved(self):
        rows = {r["framework"]: r for r in table1_rows()}
        assert rows["FireCaffe"]["cuda_aware_mpi"] == "Unknown"

    def test_strategy_axes(self):
        assert FRAMEWORKS["S-Caffe"].implementation == "RT"
        assert FRAMEWORKS["Inspur-Caffe"].implementation == "PS"
        assert FRAMEWORKS["MPI-Caffe"].parallelism == "MP"


class TestWorkload:
    def test_from_spec_groups_fold_paramfree_layers(self):
        net = get_network("alexnet")
        wl = Workload.from_spec(net)
        # Same total compute and communication after folding.
        assert wl.param_bytes == net.param_bytes
        assert wl.fwd_flops_per_sample == pytest.approx(
            net.fwd_flops_per_sample)
        assert wl.bwd_flops_per_sample == pytest.approx(
            net.bwd_flops_per_sample)
        assert len(wl.groups) == len(net.parametrized_layers())

    def test_group_offsets_are_contiguous(self):
        wl = Workload.from_spec(get_network("lenet"))
        offs = wl.group_offsets()
        pos = 0
        for (off, n), g in zip(offs, wl.groups):
            assert off == pos
            assert n == g.param_bytes
            pos += n
        assert pos == wl.param_bytes

    def test_from_net_groups_match_real_layers(self):
        net = build_mlp([8, 6, 4])
        wl = Workload.from_net(net)
        assert wl.param_bytes == net.param_count * 4
        assert len(wl.groups) == 2  # two Dense layers

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload("w", [], 1, 1)
        with pytest.raises(ValueError):
            LayerGroup("g", -1, 0, 0)
        wl = Workload.from_spec(get_network("lenet"))
        with pytest.raises(ValueError):
            wl.memory_per_solver(0)


class TestSolverBuffers:
    def test_packed_mode(self):
        sim = Simulator()
        gpu = cluster_a(sim, n_nodes=1).gpu(0)
        wl = Workload.from_spec(get_network("lenet"))
        bufs = SolverBuffers(wl, gpu, per_group_params=False, per_group_grads=False, with_payload=False)
        assert bufs.packed_params.nbytes == wl.param_bytes
        assert len(bufs.param_bufs) == 1
        bufs.free()
        assert gpu.allocated_bytes == 0

    def test_per_group_mode(self):
        sim = Simulator()
        gpu = cluster_a(sim, n_nodes=1).gpu(0)
        wl = Workload.from_spec(get_network("lenet"))
        bufs = SolverBuffers(wl, gpu, per_group_params=True, per_group_grads=True, with_payload=False)
        assert len(bufs.param_bufs) == len(wl.groups)
        assert sum(b.nbytes for b in bufs.param_bufs) == wl.param_bytes
        bufs.free()

    def test_payload_roundtrip_per_group(self):
        sim = Simulator()
        gpu = cluster_a(sim, n_nodes=1).gpu(0)
        net = build_mlp([6, 5, 3])
        wl = Workload.from_net(net)
        bufs = SolverBuffers(wl, gpu, per_group_params=True, per_group_grads=True, with_payload=True)
        flat = np.arange(net.param_count, dtype=np.float32)
        bufs.write_params(flat)
        np.testing.assert_array_equal(bufs.read_params(), flat)
        bufs.write_grads(flat * 2)
        np.testing.assert_array_equal(bufs.read_grads(), flat * 2)
        bufs.free()

    def test_payload_roundtrip_packed(self):
        sim = Simulator()
        gpu = cluster_a(sim, n_nodes=1).gpu(0)
        net = build_mlp([6, 3])
        wl = Workload.from_net(net)
        bufs = SolverBuffers(wl, gpu, per_group_params=False, per_group_grads=False, with_payload=True)
        flat = np.arange(net.param_count, dtype=np.float32)
        bufs.write_grads(flat)
        np.testing.assert_array_equal(bufs.read_grads(), flat)
        bufs.free()


class TestRealCompute:
    def _adapter(self, n_ranks=2, global_batch=8):
        rng = np.random.default_rng(0)
        net = build_mlp([4, 3, 2], rng=np.random.default_rng(1))
        x = rng.standard_normal((32, 4))
        y = rng.integers(0, 2, 32)
        return RealCompute(net, x, y, global_batch=global_batch,
                           n_ranks=n_ranks)

    def test_shards_partition_the_batch(self):
        ad = self._adapter()
        x0, _ = ad.batch_rows(0, 0)
        x1, _ = ad.batch_rows(0, 1)
        np.testing.assert_array_equal(np.vstack([x0, x1]), ad.x[:8])

    def test_sharded_gradients_sum_to_reference(self):
        ad = self._adapter()
        ref = ad.master.clone()
        ref.zero_grads()
        ref.forward(ad.x[:8], ad.labels[:8])
        ref.backward()
        total = np.zeros(ad.master.param_count)
        for r in range(2):
            ad.compute_gradients(r, 0)
            total += ad.local_grads(r)
        np.testing.assert_allclose(total, ref.get_grads(), rtol=1e-10)

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            self._adapter(n_ranks=3, global_batch=8)

    def test_batch_wraps_around_dataset(self):
        ad = self._adapter()
        x, y = ad.batch_rows(100, 1)  # far past one epoch
        assert x.shape == (4, 4)
