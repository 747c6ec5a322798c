#!/usr/bin/env python
"""Hierarchical-reduce design space + tuned selection (the Section 5 story).

Benchmarks MPI_Reduce designs at 160 simulated GPUs across message
sizes — flat binomial, chunked chain, chain-binomial (CB-k) and
chain-chain (CC-k) hierarchies — then reads the HR (Tuned) selection
table off that sweep, the way the MVAPICH2 tuning infrastructure does:
the fastest measured design wins its message-size range.

Run:  python examples/reduce_tuning.py
"""

from repro.mpi.omb import CollPoint, time_point

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
winners = []
for s in SIZES:
    lat = {d: measure(d, s) for d in DESIGNS}
    winners.append(min(DESIGNS, key=lat.get))
    print(f"{fmt(s):>6} | " + " | ".join(f"{lat[d] * 1e3:8.2f}ms"
                                         for d in DESIGNS))

print("\nSelection table (fastest design per size range):")
for i, design in enumerate(winners):
    if i + 1 < len(SIZES) and winners[i + 1] == design:
        continue  # the range extends to the next size
    rng = f"< {fmt(SIZES[i + 1])}" if i + 1 < len(SIZES) else "otherwise"
    print(f"  {rng:>10} -> {design}")

print("""
The flat binomial wins small (latency-bound) messages; pipelined chain
hierarchies win the DL-scale (multi-MB) reductions — the trade-off that
equations (1) and (2) of the paper formalize, and that the tuned design
exploits per message-size range.
""")
