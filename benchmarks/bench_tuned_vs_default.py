#!/usr/bin/env python
"""Tuned-table dispatch vs profile defaults (ISSUE 9 acceptance).

For every point the committed tuning tables cover — plus control points
they deliberately do not — this benchmark times the *same* collective
dispatch twice: once consulting the committed tables (the stock-profile
production path) and once inside ``tables_disabled()`` (the profile-
default fallback).  The auto-tuner's contract:

- tuned is never slower than the default on any swept point (uncovered
  points fall back to the identical default dispatch, so they tie);
- tuned is strictly faster on every point a table entry covers — the
  search only commits strict wins.

Run:  PYTHONPATH=src python benchmarks/bench_tuned_vs_default.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from common import KiB, MiB, emit, emit_json, fmt_bytes, fmt_table  # noqa: E402

from repro.hardware import make_cluster  # noqa: E402
from repro.mpi.omb import CollPoint, time_point  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.tune import tables  # noqa: E402
from repro.tune.search import DISPATCHERS  # noqa: E402

#: (backend, collective, cluster, P, nbytes).  The 12-process points at
#: 1M/16M are covered by committed entries; the 64K points are controls
#: outside every table band and must tie exactly.
POINTS = (
    ("mv2gdr", "reduce", "A", 12, 64 * KiB),
    ("mv2gdr", "reduce", "A", 12, 1 * MiB),
    ("mv2gdr", "reduce", "A", 12, 16 * MiB),
    ("mv2gdr", "reduce", "B", 12, 1 * MiB),
    ("mv2gdr", "reduce", "B", 12, 16 * MiB),
    ("nccl", "allreduce", "A", 12, 64 * KiB),
    ("nccl", "allreduce", "A", 12, 16 * MiB),
    ("nccl", "bcast", "A", 12, 16 * MiB),
)


def dispatch_time(backend, collective, cluster_kind, P, nbytes, *,
                  tuned: bool) -> float:
    point = CollPoint(DISPATCHERS[collective], P, nbytes, backend,
                      cluster=cluster_kind, seed=0)
    if tuned:
        return time_point(point)
    with tables.tables_disabled():
        return time_point(point)


def covered(backend, collective, cluster_kind, P, nbytes) -> bool:
    sim = Simulator(seed=0)
    cluster = make_cluster(sim, cluster_kind)
    topo = tables.topology_key(cluster.gpus[:P])
    return tables.lookup(backend, collective, topo, P, nbytes) is not None


def main() -> int:
    rows = []
    results = {}
    strict_wins = 0
    failures = []
    for backend, collective, cluster_kind, P, nbytes in POINTS:
        default = dispatch_time(backend, collective, cluster_kind, P,
                                nbytes, tuned=False)
        tuned = dispatch_time(backend, collective, cluster_kind, P, nbytes,
                              tuned=True)
        has_entry = covered(backend, collective, cluster_kind, P, nbytes)
        label = (f"{backend}.{collective} {cluster_kind} {P}p "
                 f"{fmt_bytes(nbytes)}")
        speedup = default / tuned if tuned else float("inf")
        rows.append((label, f"{default * 1e6:10.1f}", f"{tuned * 1e6:10.1f}",
                     f"{speedup:7.2f}x",
                     "table" if has_entry else "fallback"))
        results[label] = {"default": default, "tuned": tuned,
                          "covered": has_entry}
        if tuned > default:
            failures.append(f"{label}: tuned {tuned * 1e6:.1f}us slower "
                            f"than default {default * 1e6:.1f}us")
        if has_entry:
            if tuned < default:
                strict_wins += 1
            else:
                failures.append(f"{label}: table entry did not win "
                                f"strictly")
        elif tuned != default:
            failures.append(f"{label}: uncovered point did not tie "
                            f"(tuned {tuned!r} vs default {default!r})")

    text = fmt_table(
        "Tuned-table dispatch vs profile defaults",
        ["point", "default us", "tuned us", "speedup", "dispatch"], rows)
    emit("tuned_vs_default", text)
    emit_json("tuned_vs_default", {"points": results,
                                   "strict_wins": strict_wins})

    if strict_wins < 2:
        failures.append(f"only {strict_wins} strict win(s); need >= 2 "
                        "headline points")
    if failures:
        print("TUNED-VS-DEFAULT GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"tuned >= default on all {len(POINTS)} points, strictly "
          f"faster on {strict_wins} covered points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
