"""Shared harness for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs
the simulated experiment once (discrete-event runs are deterministic),
prints the rows/series the paper reports, writes them under
``benchmarks/results/``, and asserts the paper's qualitative shape
(who wins, by roughly what factor, where crossovers fall).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict

from repro.analysis import format_bytes, format_table, format_time
from repro.hardware import Cluster, make_cluster
from repro.mpi import MPIProfile
from repro.mpi.omb import CollPoint, time_point
from repro.sim import Simulator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

KiB = 1 << 10
MiB = 1 << 20

# Shared formatters re-exported under the harness's short names.
fmt_table = format_table
fmt_time = format_time
fmt_bytes = format_bytes


def fresh_cluster(kind: str, **kwargs) -> Cluster:
    """A cluster on its own simulator (every data point independent)."""
    return make_cluster(Simulator(), kind, **kwargs)


def emit(name: str, text: str) -> None:
    """Print the reproduced table/figure and persist it."""
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")


def emit_json(name: str, payload: Dict[str, Any]) -> str:
    """Persist a machine-readable benchmark artifact.

    Written canonically (sorted keys, fixed indent, trailing newline) so
    same-seed runs produce byte-identical files — the property the CI
    regression gate diffs against its committed baseline.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def osu_reduce(cluster_kind: str, profile: MPIProfile | str, nbytes: int,
               P: int, *, design: str = "tuned") -> float:
    """OMB-style MPI_Reduce latency micro-benchmark (Section 6.5).

    ``design``: "tuned" (HR Tuned), "flat" (profile's binomial), an HR
    label ("CB-8", "CC-4", ...), or "chain".
    """
    return time_point(CollPoint("tuned_reduce", P, nbytes, profile,
                                cluster=cluster_kind,
                                knobs={"design": design}))


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    The simulation is deterministic; repeated rounds would only re-time
    identical work.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
