#!/usr/bin/env python
"""Hierarchical-reduce design space + autotuning (the Section 5 story).

Benchmarks MPI_Reduce designs at 160 simulated GPUs across message
sizes — flat binomial, chunked chain, chain-binomial (CB-k) and
chain-chain (CC-k) hierarchies — then runs the autotuner to build the
HR (Tuned) selection table the way the MVAPICH2 tuning infrastructure
does: by offline sweeps on the target system.

Run:  python examples/reduce_tuning.py
"""

from repro.hardware import cluster_a
from repro.mpi.collectives import autotune
from repro.mpi.omb import CollPoint, time_point
from repro.sim import Simulator

P = 160
KiB, MiB = 1 << 10, 1 << 20
SIZES = (64 * KiB, 2 * MiB, 16 * MiB, 128 * MiB)
DESIGNS = ("flat", "chain", "CB-8", "CC-8")


def measure(design: str, nbytes: int) -> float:
    return time_point(CollPoint("tuned_reduce", P, nbytes,
                                knobs={"design": design}))


def fmt(nbytes):
    return f"{nbytes // MiB}M" if nbytes >= MiB else f"{nbytes // KiB}K"


print(f"MPI_Reduce latency at {P} GPUs (Cluster-A)\n")
print(f"{'size':>6} | " + " | ".join(f"{d:>10}" for d in DESIGNS))
print("-" * (9 + 13 * len(DESIGNS)))
for s in SIZES:
    cells = []
    for d in DESIGNS:
        t = measure(d, s)
        cells.append(f"{t * 1e3:8.2f}ms")
    print(f"{fmt(s):>6} | " + " | ".join(f"{c:>10}" for c in cells))

print("\nAutotuning (offline sweep -> selection table):")
table = autotune(lambda: cluster_a(Simulator()), P, SIZES, DESIGNS)
for bound, design in table.entries:
    rng = f"< {fmt(bound)}" if bound else "otherwise"
    print(f"  {rng:>10} -> {design}")

print("""
The flat binomial wins small (latency-bound) messages; pipelined chain
hierarchies win the DL-scale (multi-MB) reductions — the trade-off that
equations (1) and (2) of the paper formalize, and that the tuned design
exploits per message-size range.
""")
