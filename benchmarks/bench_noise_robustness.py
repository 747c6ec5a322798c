"""Robustness: the headline comparisons under a realistic noise floor.

Every other benchmark runs on a perfectly quiet fabric.  Real clusters
jitter (OS noise, DVFS, congestion) and have persistently slower
devices.  This benchmark re-runs the Fig. 12 comparison and the SC-B vs
SC-OBR co-design comparison with a 10% per-message jitter and 20%
straggler spread across several seeds, asserting the paper's *orderings
and factor bands* are not artifacts of determinism.
"""

import statistics

from common import MiB, emit, fmt_table, fmt_time, run_once

from repro import TrainConfig
from repro.core import run_scaffe
from repro.faults import named_plan
from repro.hardware import Calibration, cluster_a
from repro.mpi import MV2, MV2GDR, OPENMPI
from repro.mpi.omb import CollPoint, time_point
from repro.sim import Simulator

NOISY = Calibration(network_jitter=0.10, compute_jitter=0.10,
                    straggler_spread=0.20)
SEEDS = (11, 22, 33)
NBYTES = 64 * MiB
P = 160


def reduce_point(profile, seed):
    design = "tuned" if profile is MV2GDR else "flat"
    return time_point(CollPoint("tuned_reduce", P, NBYTES, profile,
                                cluster_kw={"cal": NOISY}, seed=seed,
                                knobs={"design": design}))


def _train_cfg(variant):
    return TrainConfig(network="caffenet", dataset="imagenet",
                       batch_size=1024, iterations=20,
                       measure_iterations=3, variant=variant,
                       reduce_design="tuned")


def train_point(variant, seed):
    sim = Simulator(seed=seed)
    cluster = cluster_a(sim, cal=NOISY)
    return run_scaffe(cluster, 16, _train_cfg(variant))


def train_point_faulted(variant, seed, horizon):
    """Same run under the 'flaky' fault plan (flaky NIC/PCIe window +
    one straggler GPU), scheduled over the quiet run's simulated span."""
    sim = Simulator(seed=seed)
    cluster = cluster_a(sim, cal=NOISY)
    plan = named_plan("flaky", seed=seed, horizon=horizon, n_ranks=16,
                      n_nodes=len(cluster.nodes),
                      gpus_per_node=cluster.gpus_per_node)
    return run_scaffe(cluster, 16, _train_cfg(variant),
                      fault_plan=plan).total_time


def run_noise():
    reduce_stats = {
        prof.name: [reduce_point(prof, s) for s in SEEDS]
        for prof in (MV2GDR, MV2, OPENMPI)}
    quiet = {variant: [train_point(variant, s) for s in SEEDS]
             for variant in ("SC-B", "SC-OBR")}
    train_stats = {v: [r.total_time for r in rs] for v, rs in quiet.items()}
    fault_stats = {
        variant: [train_point_faulted(variant, s,
                                      quiet[variant][i].simulated_time)
                  for i, s in enumerate(SEEDS)]
        for variant in ("SC-B", "SC-OBR")}
    return reduce_stats, train_stats, fault_stats


def test_noise_robustness(benchmark):
    reduce_stats, train_stats, fault_stats = run_once(benchmark, run_noise)

    rows = [[name, fmt_time(min(ts)), fmt_time(statistics.mean(ts)),
             fmt_time(max(ts))]
            for name, ts in reduce_stats.items()]
    text = fmt_table(
        f"MPI_Reduce under noise (jitter 10%, stragglers 20%), {P} "
        f"procs, 64 MB, {len(SEEDS)} seeds",
        ["runtime", "min", "mean", "max"], rows)
    rows2 = [[v, fmt_time(min(ts)), fmt_time(statistics.mean(ts)),
              fmt_time(max(ts)),
              fmt_time(statistics.mean(fault_stats[v])),
              f"{statistics.mean(fault_stats[v]) / statistics.mean(ts):5.2f}x"]
             for v, ts in train_stats.items()]
    text += "\n\n" + fmt_table(
        "CaffeNet training under noise, 16 GPUs, 20 iterations "
        "(faulted = 'flaky' plan: flaky link + 1 straggler GPU)",
        ["variant", "min", "mean", "max", "faulted mean", "slowdown"],
        rows2)
    emit("noise_robustness", text)

    # Fig. 12 ordering holds for EVERY seed, not just on average.
    for i in range(len(SEEDS)):
        assert (reduce_stats["mv2gdr"][i] < reduce_stats["mv2"][i]
                < reduce_stats["openmpi"][i])
    # Factor bands stay in the paper's neighbourhood.
    mean = {k: statistics.mean(v) for k, v in reduce_stats.items()}
    assert 2.0 <= mean["mv2"] / mean["mv2gdr"] <= 6.0
    assert mean["openmpi"] / mean["mv2gdr"] >= 20.0

    # The co-design wins under noise too, for every seed.
    for i in range(len(SEEDS)):
        assert train_stats["SC-OBR"][i] < train_stats["SC-B"][i]

    # Noise produces genuine spread (the knobs are live).
    assert len(set(reduce_stats["mv2gdr"])) == len(SEEDS)

    # Faults cost time but never break the run, and the co-design's win
    # survives fault injection on average.  (Per-seed ordering is not
    # guaranteed: each variant's plan is scheduled over its own quiet
    # horizon, so the fault windows land at different phases.)
    for v in ("SC-B", "SC-OBR"):
        for i in range(len(SEEDS)):
            assert fault_stats[v][i] > train_stats[v][i]
    assert (statistics.mean(fault_stats["SC-OBR"])
            < statistics.mean(fault_stats["SC-B"]))
