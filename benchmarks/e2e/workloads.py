"""The end-to-end benchmark's workloads (imported by child processes).

Every workload is a closed-loop batch job: its items run back to back
in one process, each on universes it builds itself, through the
library's public entry points only.  An item returns a digest of its
simulated results and raises when the result is wrong; the benchmark
checks that digests repeat bit-for-bit across passes.

Why each workload exists (see README.md for the layer table):

- ``train_weak``: the shipped S-Caffe path (SC-OBR, batched link
  trains) under weak scaling; heaviest in the sim kernel, pt2pt and
  collectives, with every observer layer idle.
- ``train_observed``: the same stack with the span recorder and
  telemetry attached and the RunCard/profile/straggler report built
  after each run, as ``repro profile --json`` does; the only workload
  where the observer layers run, and one where link trains are off.
- ``coll_sweep``: the MPI-vs-NCCL crossover grid through
  ``time_backend``; setup- and transport-heavy, NCCL active, training
  layers idle.
- ``fig10_frameworks``: all six frameworks, so the comparator jobs and
  host-staged transport run; outcomes are checked against the paper's
  table in ``fig10_outcomes.json``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro import Simulator, TrainConfig, make_cluster, train
from repro.analysis import backend_names, time_backend
from repro.check import Case, run_case
from repro.mpi import MPIRuntime
from repro.obs import StragglerDetector, make_runcard, run_payload
from repro.prof import SpanRecorder
from repro.telemetry import TelemetrySession

HERE = os.path.dirname(os.path.abspath(__file__))
KiB, MiB = 1 << 10, 1 << 20


class ItemFailed(Exception):
    """An item finished with a result other than the expected one."""


@dataclass(frozen=True)
class Item:
    name: str
    #: Runs the item; returns its simulated digest or raises.
    run: Callable[[], dict]


@dataclass(frozen=True)
class Workload:
    #: seed -> the items of one pass, in run order.
    items: Callable[[int], List[Item]]
    #: (cluster kind, P) of the universe built during child set-up.
    universe: Tuple[str, int]
    #: seed -> correctness checks run once before the passes.
    checks: Callable[[int], List[Item]] = lambda seed: []


def build_universe(kind: str, P: int, seed: int) -> None:
    """One cluster, MPI runtime and COMM_WORLD (the set-up probe)."""
    MPIRuntime(make_cluster(Simulator(seed=seed), kind), "mv2gdr").world(P)


# -- training items --------------------------------------------------------------

def _train_item(framework: str, kind: str, n_gpus: int, cfg: TrainConfig,
                seed: int, *, expect: str = "ok",
                observed: bool = False) -> Item:
    def run() -> dict:
        sim = Simulator(seed=seed)
        cluster = make_cluster(sim, kind)
        recorder = SpanRecorder(sim) if observed else None
        telemetry = (TelemetrySession(scrape_interval=0.05) if observed
                     else None)
        report = train(framework, n_gpus=n_gpus, cluster=cluster,
                       config=cfg, recorder=recorder, telemetry=telemetry)
        outcome = report.failure or "ok"
        if outcome != expect:
            raise ItemFailed(f"outcome {outcome!r}, expected {expect!r}")
        digest = {"framework": framework, "n_gpus": n_gpus,
                  "outcome": outcome}
        if report.ok:
            digest.update(samples_per_s=report.samples_per_second,
                          iteration_s=report.time_per_iteration,
                          phases=dict(report.phase_breakdown),
                          io_stall_s=report.io_stall_per_iteration)
        if observed:
            prof = report.profile
            if prof.cp_length != prof.makespan:
                raise ItemFailed(f"critical path {prof.cp_length!r} != "
                                 f"makespan {prof.makespan!r}")
            card = make_runcard(report, cfg, cluster_kind=kind,
                                n_gpus=n_gpus, profile="mv2gdr", seed=seed,
                                sim=sim, telemetry=telemetry)
            straggler = StragglerDetector(recorder).report()
            json.dumps(run_payload(card, prof, straggler), sort_keys=True)
            digest["profile"] = {"cp_length": prof.cp_length,
                                 "n_spans": prof.n_spans,
                                 "by_phase": dict(prof.by_phase),
                                 "by_class": dict(prof.by_class)}
        return digest
    return Item(f"{framework}/{cfg.network}@{kind}/{n_gpus}", run)


# Two measured iterations instead of the figure benchmarks' three: the
# extrapolation is exact after the warm-up iteration (the simulated
# results agree to the last bits), and the shorter pass lets three
# passes fit in one measuring window.
WEAK = TrainConfig(network="googlenet", batch_size=64, scal="weak",
                   variant="SC-OBR", reduce_design="tuned",
                   measure_iterations=2)
OBSERVED = TrainConfig(network="googlenet", batch_size=1024, variant="SC-OB",
                       reduce_design="tuned", measure_iterations=2)
FIG10 = TrainConfig(network="alexnet", batch_size=1024, variant="SC-OBR",
                    reduce_design="tuned", measure_iterations=3)

#: Frameworks of Fig. 10 and the points each runs at:
#: (network, cluster, GPU counts).
FIG10_FRAMEWORKS = ("scaffe", "caffe", "nvcaffe", "cntk", "inspur",
                    "mpicaffe")
FIG10_POINTS = (("alexnet", "B", (1, 2, 4, 8, 16)),
                ("googlenet", "A", (8, 16, 32)))


def _train_weak(seed: int) -> List[Item]:
    cfg = WEAK.derive(seed=seed)
    return [_train_item("scaffe", "A", n, cfg, seed)
            for n in (1, 16, 32, 64, 128)]


def _train_observed(seed: int) -> List[Item]:
    cfg = OBSERVED.derive(seed=seed)
    return [_train_item("scaffe", "A", n, cfg, seed, observed=True)
            for n in (16, 32, 64, 128)]


def _observers_off(seed: int) -> List[Item]:
    """The 16-GPU observed point must simulate the same total time with
    the observers detached."""
    cfg = OBSERVED.derive(seed=seed)

    def run() -> dict:
        times = []
        for observed in (True, False):
            sim = Simulator(seed=seed)
            kw = ({"recorder": SpanRecorder(sim),
                   "telemetry": TelemetrySession(scrape_interval=0.05)}
                  if observed else {})
            times.append(train("scaffe", n_gpus=16,
                               cluster=make_cluster(sim, "A"), config=cfg,
                               **kw).total_time)
        if times[0] != times[1]:
            raise ItemFailed(f"total_time observed {times[0]!r} != "
                             f"unobserved {times[1]!r}")
        return {"total_time": times[0]}
    return [Item("observers_off/16", run)]


def fig10_outcomes() -> Dict[str, str]:
    with open(os.path.join(HERE, "fig10_outcomes.json")) as f:
        return json.load(f)["outcomes"]


def _fig10(seed: int) -> List[Item]:
    expected = fig10_outcomes()
    items = []
    for fw in FIG10_FRAMEWORKS:
        for network, kind, gpus in FIG10_POINTS:
            cfg = FIG10.derive(network=network, seed=seed)
            for n in gpus:
                name = f"{fw}/{network}@{kind}/{n}"
                items.append(_train_item(fw, kind, n, cfg, seed,
                                         expect=expected.get(name, "?")))
    return items


# -- collective items ---------------------------------------------------------------

SWEEP = tuple((coll, kind, P, nbytes)
              for coll in ("allreduce", "bcast")
              for kind in ("A", "B")
              for P in (8, 32)
              for nbytes in (4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB))


def _coll_item(coll: str, kind: str, P: int, nbytes: int,
               backend: str) -> Item:
    def run() -> dict:
        latency, algorithm = time_backend(kind, backend, coll, P, nbytes)
        if not 0.0 < latency < math.inf:
            raise ItemFailed(f"latency {latency!r}")
        return {"latency_s": latency, "algorithm": algorithm,
                "nbytes": nbytes}
    return Item(f"{coll}/{kind}/P{P}/{nbytes}/{backend}", run)


def _coll_sweep(seed: int) -> List[Item]:
    items = [_coll_item(*point, backend)
             for point in SWEEP for backend in backend_names()]
    random.Random(seed).shuffle(items)
    return items


#: The sweep menu's algorithms as conformance-harness collectives, by
#: (backend is NCCL, collective).
MENU_CASES = {
    (False, "allreduce"): ("allreduce_ring", "allreduce_reduce_bcast"),
    (False, "bcast"): ("bcast_binomial", "bcast_scatter_allgather"),
    (True, "allreduce"): ("nccl_allreduce_ring", "nccl_allreduce_tree"),
    (True, "bcast"): ("nccl_bcast_ring", "nccl_bcast_tree"),
}


def _conformance(seed: int) -> List[Item]:
    """Byte-exact run of one case per (algorithm, backend) of the sweep
    menu, at P=8 and 64 KiB with seeded payloads."""
    def item(case: Case) -> Item:
        def run() -> dict:
            result = run_case(case)
            if not result.ok:
                raise ItemFailed("; ".join(result.failures))
            return {"sim_time": result.sim_time}
        return Item(f"conformance/{case.spec()}", run)

    return [item(Case(coll, P=8, nbytes=64 * KiB, profile=backend,
                      seed=seed))
            for backend in backend_names()
            for kind in ("allreduce", "bcast")
            for coll in MENU_CASES[backend == "nccl", kind]]


WORKLOADS: Dict[str, Workload] = {
    "train_weak": Workload(_train_weak, ("A", 128)),
    "train_observed": Workload(_train_observed, ("A", 128),
                               _observers_off),
    "coll_sweep": Workload(_coll_sweep, ("A", 32), _conformance),
    "fig10_frameworks": Workload(_fig10, ("A", 32)),
}
