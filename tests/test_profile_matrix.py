"""Cross-matrix: every S-Caffe variant on every MPI runtime profile.

S-Caffe is co-designed with the mv2gdr runtime, but its workflow must
*run correctly* on any CUDA-aware MPI — and the profiles' relative
performance must carry through to end-to-end training time.
"""

import pytest

from repro import TrainConfig, train
from repro.mpi import MV2, MV2GDR, OPENMPI, get_profile

VARIANTS = ("SC-B", "SC-OB", "SC-OBR")
PROFILES = ("mv2gdr", "mv2", "openmpi")


def quick_cfg(**kw):
    base = dict(network="cifar10_quick", dataset="cifar10",
                batch_size=256, iterations=10, measure_iterations=2)
    base.update(kw)
    return TrainConfig(**base)


class TestVariantProfileMatrix:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("profile", PROFILES)
    def test_all_combinations_complete(self, variant, profile):
        cfg = quick_cfg(variant=variant)
        r = train("scaffe", n_gpus=8, cluster="A", config=cfg,
                  profile=profile)
        assert r.ok
        assert r.total_time > 0

    def test_profile_ordering_carries_to_training(self):
        """End-to-end AlexNet training time reflects the Fig. 12 runtime
        ordering (gradient aggregation dominates at these settings)."""
        cfg = TrainConfig(network="alexnet", batch_size=256,
                          iterations=10, measure_iterations=2,
                          variant="SC-B", reduce_design="flat")
        times = {p: train("scaffe", n_gpus=16, cluster="A", config=cfg,
                          profile=p).total_time for p in PROFILES}
        assert times["mv2gdr"] < times["mv2"] < times["openmpi"]

    def test_hr_designs_ignored_gracefully_without_support(self):
        """'tuned' on a profile without hierarchical_reduce falls back to
        the flat algorithm rather than erroring."""
        cfg = quick_cfg(reduce_design="tuned")
        r = train("scaffe", n_gpus=8, cluster="A", config=cfg,
                  profile="openmpi")
        assert r.ok


class TestProfileRegistry:
    def test_lookup(self):
        assert get_profile("mv2gdr") is MV2GDR
        assert get_profile("MV2") is MV2
        assert get_profile("OpenMPI") is OPENMPI
        with pytest.raises(KeyError):
            get_profile("mpich")

    def test_derive_does_not_mutate(self):
        derived = MV2GDR.derive(gdr=False)
        assert MV2GDR.gdr is True
        assert derived.gdr is False
        assert derived.ipc == MV2GDR.ipc

    def test_segment_sync_scales_with_bytes(self):
        full = OPENMPI.segment_sync_time(OPENMPI.reduce_segment)
        half = OPENMPI.segment_sync_time(OPENMPI.reduce_segment // 2)
        assert full == pytest.approx(OPENMPI.per_segment_sync)
        assert half == pytest.approx(OPENMPI.per_segment_sync / 2)
        assert MV2GDR.segment_sync_time(1 << 20) == 0.0


class TestAutotuneUnit:
    def test_picks_measured_minimum(self, capsys):
        from repro.cli import main
        from repro.mpi.omb import CollPoint, time_point

        sizes = [64 << 10, 16 << 20]
        designs = ["flat", "CB-4"]
        assert main(["osu", "--procs", "16", "--sizes", "64K,16M",
                     "--design", ",".join(designs)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == len(sizes)
        for nbytes, row in zip(sizes, rows):
            # Measured independently of the CLI, on fresh universes.
            lat = {d: time_point(CollPoint("tuned_reduce", 16, nbytes,
                                           knobs={"design": d}))
                   for d in designs}
            cells = row.split()
            assert [float(x) for x in cells[1:-1:2]] == pytest.approx(
                [lat[d] * 1e6 for d in designs], abs=0.05)
            assert cells[-1] == min(designs, key=lat.get)
