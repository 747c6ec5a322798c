"""Integration tests: every framework trains end-to-end on the simulator,
and the paper's qualitative claims hold."""

import pytest

from repro import TrainConfig, train
from repro.core import FRAMEWORK_NAMES, CaffeJob, run_caffe, run_param_server
from repro.hardware import cluster_a, cluster_b
from repro.sim import Simulator


def quick_cfg(**kw):
    base = dict(network="cifar10_quick", dataset="cifar10", batch_size=256,
                iterations=20, measure_iterations=2)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainDispatch:
    def test_all_frameworks_run(self):
        cfg = quick_cfg()
        for fw in ("scaffe", "caffe", "nvcaffe", "cntk"):
            r = train(fw, n_gpus=4, cluster="A", config=cfg)
            assert r.ok, f"{fw} failed: {r.failure}"
            assert r.total_time > 0
        r = train("inspur", n_gpus=4, cluster="A", config=cfg)
        assert r.ok

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            train("tensorflow", n_gpus=2, config=quick_cfg())

    @pytest.mark.parametrize("fw", [f for f in FRAMEWORK_NAMES
                                    if f != "scaffe"])
    def test_adapter_rejected_outside_scaffe(self, fw):
        # Comparators are timing-only: a real-math adapter would be
        # silently dropped, so it is refused instead.
        with pytest.raises(ValueError, match="adapter"):
            train(fw, n_gpus=2, config=quick_cfg(), adapter=object())

    def test_profile_rejected_without_mpi_runtime(self):
        with pytest.raises(ValueError, match="no MPI runtime"):
            CaffeJob(cluster_a(Simulator()), 2, None, quick_cfg(),
                     profile="mv2")

    def test_aliases_resolve_to_the_job_table(self):
        r = train("Inspur-Caffe", n_gpus=2, cluster="A",
                  config=quick_cfg())
        assert r.framework == "Inspur-Caffe"
        r = train("nvidia_caffe", n_gpus=2, cluster="A",
                  config=quick_cfg())
        assert r.framework == "NV-Caffe"

    def test_report_fields(self):
        r = train("scaffe", n_gpus=4, cluster="A", config=quick_cfg())
        assert r.framework.startswith("S-Caffe")
        assert r.network == "cifar10_quick"
        assert r.n_gpus == 4
        assert r.iterations == 20
        assert r.global_batch == 256
        assert set(r.phase_breakdown) >= {"propagation", "fwd", "bwd",
                                          "aggregation", "update"}


class TestSCaffeScaling:
    def test_strong_scaling_reduces_time(self):
        """More GPUs -> less total time (compute-dominated workload)."""
        cfg = quick_cfg(batch_size=2048)
        times = {}
        for n in (1, 4, 16):
            r = train("scaffe", n_gpus=n, cluster="A", config=cfg)
            assert r.ok
            times[n] = r.total_time
        assert times[4] < times[1]
        assert times[16] < times[4]

    def test_scales_across_nodes(self):
        """The whole point: S-Caffe leaves the node (Caffe cannot)."""
        cfg = quick_cfg()
        r = train("scaffe", n_gpus=32, cluster="A", config=cfg)
        assert r.ok
        r_caffe = train("caffe", n_gpus=32, cluster="A", config=cfg)
        assert r_caffe.failure == "unsupported"

    def test_oom_for_oversized_local_batch(self):
        """Fig. 8: large batch over few solvers -> OOM data points."""
        cfg = TrainConfig(network="vgg16", dataset="imagenet",
                          batch_size=4096, iterations=2,
                          measure_iterations=1)
        r = train("scaffe", n_gpus=2, cluster="A", config=cfg)
        assert r.failure == "oom"

    def test_weak_scaling_runs(self):
        cfg = quick_cfg(scal="weak", batch_size=64)
        r = train("scaffe", n_gpus=8, cluster="A", config=cfg)
        assert r.ok
        assert r.global_batch == 64 * 8


class TestSCaffeVariants:
    @pytest.mark.parametrize("variant", ["SC-B", "SC-OB", "SC-OB-naive",
                                         "SC-OBR"])
    def test_variants_complete(self, variant):
        cfg = quick_cfg(variant=variant)
        r = train("scaffe", n_gpus=8, cluster="A", config=cfg)
        assert r.ok

    def test_scob_hides_propagation(self):
        """SC-OB turns propagation stall into (near-)zero wait (Fig. 13)."""
        cfg_b = TrainConfig(network="googlenet", batch_size=256,
                            iterations=10, measure_iterations=2,
                            variant="SC-B")
        r_b = train("scaffe", n_gpus=16, cluster="A", config=cfg_b)
        r_ob = train("scaffe", n_gpus=16, cluster="A",
                     config=cfg_b.derive(variant="SC-OB"))
        assert r_ob.phase("propagation") < 0.2 * r_b.phase("propagation")

    def test_naive_nbc_worse_than_multistage(self):
        """Fig. 4 vs Fig. 5: the naive per-layer posting is slower."""
        cfg = TrainConfig(network="googlenet", batch_size=256,
                          iterations=10, measure_iterations=2,
                          variant="SC-OB")
        r_ob = train("scaffe", n_gpus=16, cluster="A", config=cfg)
        r_naive = train("scaffe", n_gpus=16, cluster="A",
                        config=cfg.derive(variant="SC-OB-naive"))
        assert r_naive.phase("propagation") > r_ob.phase("propagation")

    def test_scobr_beats_scb_on_large_model(self):
        """SC-OBR + HR improves CaffeNet-style training (Section 6.6)."""
        cfg = TrainConfig(network="caffenet", batch_size=256,
                          iterations=10, measure_iterations=2,
                          variant="SC-B", reduce_design="flat")
        r_b = train("scaffe", n_gpus=8, cluster="A", config=cfg)
        r_obr = train("scaffe", n_gpus=8, cluster="A",
                      config=cfg.derive(variant="SC-OBR",
                                        reduce_design="tuned"))
        assert r_obr.total_time < r_b.total_time


class TestCaffeBaseline:
    def test_single_node_limit(self):
        cfg = quick_cfg()
        cluster = cluster_b(Simulator())
        r = run_caffe(cluster, 4, cfg)  # 2 GPUs/node on Cluster-B
        assert r.failure == "unsupported"

    def test_single_gpu_runs(self):
        r = train("caffe", n_gpus=1, cluster="A", config=quick_cfg())
        assert r.ok

    def test_nvcaffe_faster_than_caffe(self):
        cfg = quick_cfg(batch_size=1024)
        r_c = train("caffe", n_gpus=8, cluster="A", config=cfg)
        r_nv = train("nvcaffe", n_gpus=8, cluster="A", config=cfg)
        assert r_nv.total_time < r_c.total_time

    def test_multi_gpu_speedup_within_node(self):
        cfg = quick_cfg(batch_size=2048)
        r1 = train("caffe", n_gpus=1, cluster="A", config=cfg)
        r8 = train("caffe", n_gpus=8, cluster="A", config=cfg)
        assert r8.total_time < r1.total_time


class TestParameterServer:
    def test_emulated_limits(self):
        cfg = quick_cfg()
        assert train("inspur", n_gpus=8, cluster="A",
                     config=cfg).failure == "hang"
        assert train("inspur", n_gpus=1, cluster="A",
                     config=cfg).failure == "unsupported"
        assert train("inspur", n_gpus=32, cluster="A",
                     config=cfg).failure == "unsupported"

    def test_limits_can_be_lifted_for_ablation(self):
        cfg = quick_cfg()
        cluster = cluster_a(Simulator())
        r = run_param_server(cluster, 8, cfg, emulate_limits=False)
        assert r.ok

    def test_server_is_bottleneck_vs_reduction_tree(self):
        """Section 3.1's argument: the PS aggregation serializes on the
        master; S-Caffe's reduction tree scales better."""
        cfg = TrainConfig(network="alexnet", batch_size=512, iterations=10,
                          measure_iterations=2)
        cluster_ps = cluster_a(Simulator())
        r_ps = run_param_server(cluster_ps, 16, cfg, emulate_limits=False)
        r_sc = train("scaffe", n_gpus=16, cluster="A", config=cfg)
        assert r_sc.total_time < r_ps.total_time


class TestCNTK:
    def test_runs_and_scales(self):
        cfg = quick_cfg(batch_size=2048)
        r4 = train("cntk", n_gpus=4, cluster="B", config=cfg)
        r16 = train("cntk", n_gpus=16, cluster="B", config=cfg)
        assert r4.ok and r16.ok
        assert r16.total_time < r4.total_time

    def test_comparable_to_scaffe_not_faster_at_scale(self):
        """Fig. 10: S-Caffe >= CNTK in samples/s on AlexNet."""
        cfg = TrainConfig(network="alexnet", batch_size=1024,
                          iterations=10, measure_iterations=2)
        r_cntk = train("cntk", n_gpus=8, cluster="B", config=cfg)
        r_sc = train("scaffe", n_gpus=8, cluster="B", config=cfg)
        assert r_sc.samples_per_second >= 0.9 * r_cntk.samples_per_second


class TestIOBackends:
    def test_lmdb_vs_lustre_at_scale(self):
        """S-Caffe-L (LMDB) falls behind S-Caffe (Lustre) past the LMDB
        reader limit — the Fig. 8 divergence."""
        cfg = TrainConfig(network="googlenet", batch_size=1024,
                          iterations=10, measure_iterations=2,
                          data_backend="lustre")
        r_lustre = train("scaffe", n_gpus=128, cluster="A", config=cfg)
        r_lmdb = train("scaffe", n_gpus=128, cluster="A",
                       config=cfg.derive(data_backend="lmdb"))
        assert r_lustre.total_time < r_lmdb.total_time

    def test_backends_equivalent_at_small_scale(self):
        cfg = quick_cfg(data_backend="lustre")
        r_lustre = train("scaffe", n_gpus=4, cluster="A", config=cfg)
        r_lmdb = train("scaffe", n_gpus=4, cluster="A",
                       config=cfg.derive(data_backend="lmdb"))
        assert r_lmdb.total_time == pytest.approx(r_lustre.total_time,
                                                  rel=0.25)


class TestWeakScalingAcrossFrameworks:
    def test_weak_scaling_all_frameworks(self):
        cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                          batch_size=64, scal="weak", iterations=6,
                          measure_iterations=2)
        for fw, n in (("scaffe", 8), ("caffe", 8), ("cntk", 8),
                      ("mpicaffe", 4)):
            r = train(fw, n_gpus=n, cluster="A", config=cfg)
            assert r.ok, (fw, r.failure)
            if fw == "mpicaffe":
                continue  # MP: whole batch per stage, not per GPU
            assert r.global_batch == 64 * n
