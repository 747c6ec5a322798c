"""Ablation: broadcast algorithms for the data-propagation phase.

S-Caffe's on_start() broadcasts the packed parameter buffer (Section
4.1).  The runtime offers three algorithms; this sweep shows the classic
small/large-message crossover between the binomial tree and the
van de Geijn scatter+allgather (what real MVAPICH2's selection logic
exploits), plus the linear "flat" pattern a parameter server master is
stuck with.
"""

from common import KiB, MiB, emit, fmt_bytes, fmt_table, fmt_time, run_once

from repro.mpi.omb import CollPoint, time_point

P = 64
SIZES = (16 * KiB, 1 * MiB, 16 * MiB, 128 * MiB)
ALGOS = ("binomial", "flat", "scatter_allgather")


def run_ablation():
    return {a: {s: time_point(CollPoint(f"bcast_{a}", P, s)) for s in SIZES}
            for a in ALGOS}


def test_bcast_ablation(benchmark):
    table = run_once(benchmark, run_ablation)

    rows = [[fmt_bytes(s)] + [fmt_time(table[a][s]) for a in ALGOS]
            for s in SIZES]
    emit("ablation_bcast", fmt_table(
        f"Broadcast algorithms at {P} procs, Cluster-A",
        ["Size"] + list(ALGOS), rows))

    # Small messages: the binomial tree's log2(P) latency wins.
    s = 16 * KiB
    assert table["binomial"][s] < table["scatter_allgather"][s]
    # Large messages: scatter+allgather's ~2B/rank traffic wins.
    for s in (16 * MiB, 128 * MiB):
        assert table["scatter_allgather"][s] < table["binomial"][s]
    # The parameter-server pattern (root sends P-1 copies) is the worst
    # large-message broadcast by a wide margin.
    assert table["flat"][128 * MiB] > 3 * table["binomial"][128 * MiB]
