"""White-box tests for SCaffeJob internals: extrapolation, buffer
layouts, memory hygiene, I/O stall accounting."""

from collections import Counter

import pytest

from repro import TrainConfig
from repro.core import SCaffeJob, Workload, run_scaffe
from repro.dnn import get_network
from repro.hardware import cluster_a
from repro.sim import Simulator, Tracer


def make_job(variant="SC-B", n_gpus=4, iterations=6, measure=2, **kw):
    sim = Simulator()
    cluster = cluster_a(sim, n_nodes=1)
    cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                      batch_size=128, iterations=iterations,
                      measure_iterations=measure, variant=variant, **kw)
    wl = Workload.from_spec(get_network("cifar10_quick"))
    return SCaffeJob(cluster, n_gpus, wl, cfg)


class TestExtrapolation:
    def test_simulates_warmup_plus_measured(self):
        job = make_job(iterations=100, measure=3)
        assert job.sim_iterations == 4

    def test_never_simulates_more_than_requested(self):
        job = make_job(iterations=2, measure=2)
        assert job.sim_iterations == 2

    def test_exact_when_fully_simulated(self):
        job = make_job(iterations=3, measure=2)
        report = job.run()
        assert report.total_time == pytest.approx(job._iter_ends[-1])

    def test_extrapolation_is_first_plus_steady_state(self):
        job = make_job(iterations=50, measure=3)
        report = job.run()
        ends = job._iter_ends
        steady = (ends[-1] - ends[0]) / (len(ends) - 1)
        assert report.total_time == pytest.approx(ends[0] + steady * 49)

    def test_extrapolated_close_to_fully_simulated(self):
        """The short-window extrapolation agrees with a full simulation
        of the same run within a fraction of a percent."""
        full = make_job(iterations=12, measure=11).run()
        extrap = make_job(iterations=12, measure=3).run()
        assert extrap.total_time == pytest.approx(full.total_time,
                                                  rel=0.005)


class TestMemoryHygiene:
    @pytest.mark.parametrize("variant", ["SC-B", "SC-OB", "SC-OBR"])
    def test_all_device_memory_returned(self, variant):
        job = make_job(variant=variant)
        baseline = [g.allocated_bytes for g in job.cluster.gpus]
        job.run()
        assert [g.allocated_bytes for g in job.cluster.gpus] == baseline

    def test_oom_report_names_requirement(self):
        sim = Simulator()
        cluster = cluster_a(sim, n_nodes=1)
        cfg = TrainConfig(network="vgg16", dataset="imagenet",
                          batch_size=8192, iterations=2,
                          measure_iterations=1)
        report = run_scaffe(cluster, 4, cfg)
        assert report.failure == "oom"
        assert "MiB" in report.notes


class TestBufferLayouts:
    def test_variant_buffer_policy(self, monkeypatch):
        """SC-B packs both directions; SC-OB splits only params;
        SC-OBR splits both — visible as the number of traced
        propagation/aggregation intervals per iteration."""
        wl = Workload.from_spec(get_network("cifar10_quick"))
        G = len(wl.groups)
        ends = Counter()
        end = Tracer.end

        def counting_end(tracer, actor, phase):
            ends[actor, phase] += 1
            end(tracer, actor, phase)

        monkeypatch.setattr(Tracer, "end", counting_end)

        for variant, (n_prop_exp, n_agg_exp) in (
                ("SC-B", (1, 1)),      # one packed bcast, one packed reduce
                ("SC-OB", (G, 1)),     # per-layer waits, packed reduce
                ("SC-OBR", (G, G))):   # per-layer waits and reduces
            sim = Simulator()
            cluster = cluster_a(sim, n_nodes=1)
            cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                              batch_size=128, iterations=1,
                              measure_iterations=1, variant=variant,
                              reduce_design="flat")
            job = SCaffeJob(cluster, 4, wl, cfg)
            ends.clear()
            job.run()
            n_agg = ends["r0", "aggregation"]
            n_prop = ends["r0", "propagation"]
            assert (n_prop, n_agg) == (n_prop_exp, n_agg_exp), variant


class TestIOAccounting:
    def test_io_stall_reported(self):
        job = make_job(iterations=4, measure=3)
        report = job.run()
        # First batch always stalls (cold reader); steady state hides.
        assert report.io_stall_per_iteration > 0

    def test_backends_register_one_reader_per_solver(self):
        job = make_job(n_gpus=8, iterations=2, measure=1)
        job.run()
        # The shared backend saw 8 parallel readers (Fig. 3 design).
        # Reader registration happens inside the rank programs.
        # (The backend object is created in run(); verify via LMDB/Lustre
        # counters embedded in the report instead.)
        assert job._io_stalls and len(job._io_stalls) == 8


class TestTestIntervalInteraction:
    def test_phase_breakdown_includes_test_key(self):
        job = make_job(iterations=4, measure=3, test_interval=2)
        report = job.run()
        assert "test" in report.phase_breakdown
        assert report.phase("test") > 0
