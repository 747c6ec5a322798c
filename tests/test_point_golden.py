"""Golden tripwire for single collective points.

Every value below is a ``float.hex`` latency (or sim time), pinned so a
refactor of the collective-point harness (:mod:`repro.mpi.omb`) and its
callers -- the crossover sweep, the OSU micro-benchmarks, the auto-tuner
and the conformance/chaos harnesses -- must reproduce it bit for bit:

- every crossover menu algorithm at P=8, 64 KiB on Clusters A and B, and
  each backend's winner through :func:`time_backend`;
- ``osu_reduce`` under the tuned/flat/chain/CB-8 designs at P=16, 32 MiB;
- the tuner's default and candidate measurements;
- one conformance case per collective (sim time and event count) and a
  few chaos cells (outcome and sim time).

A final test checks that the registry resolves every name the repo
drives: the conformance collectives, the menus, and the designs and
algorithms in the committed tuning tables.
"""

import json
import os

import pytest

from repro.analysis import time_backend
from repro.check import COLLECTIVES, Case, run_case
from repro.hardware import make_cluster
from repro.mpi.collectives import check_design
from repro.mpi.omb import ALGORITHMS, MENUS, CollPoint, osu_reduce, time_point
from repro.sim import Simulator
from repro.tune import search, tables
from repro.tune.search import QUICK_SIZES, PlanPoint

KiB = 1 << 10
MiB = 1 << 20

#: "cluster/backend/collective/label" -> latency at P=8, 64 KiB.
MENU = {
    "A/mv2/allreduce/reduce_bcast": "0x1.215029a4e39adp-12",
    "A/mv2/allreduce/ring": "0x1.e8cd0ab3f82ecp-12",
    "A/mv2/bcast/binomial": "0x1.0afb3f09638f5p-13",
    "A/mv2/bcast/scatter_allgather": "0x1.07d3cad9c46e0p-12",
    "A/mv2gdr/allreduce/reduce_bcast": "0x1.90d7ee6991611p-13",
    "A/mv2gdr/allreduce/ring": "0x1.767d56e326ae6p-12",
    "A/mv2gdr/bcast/binomial": "0x1.0afb3f09638f5p-13",
    "A/mv2gdr/bcast/scatter_allgather": "0x1.07d3cad9c46e0p-12",
    "A/nccl/allreduce/ring": "0x1.767d56e326ae6p-12",
    "A/nccl/allreduce/tree": "0x1.a3875280a14d1p-12",
    "A/nccl/bcast/ring": "0x1.75c6250d24fbdp-13",
    "A/nccl/bcast/tree": "0x1.dcb2566245a8bp-13",
    "A/openmpi/allreduce/reduce_bcast": "0x1.6936cdc6a65e8p-9",
    "A/openmpi/allreduce/ring": "0x1.255c28ad257c1p-10",
    "A/openmpi/bcast/binomial": "0x1.ff0174c19558ap-11",
    "A/openmpi/bcast/scatter_allgather": "0x1.b613416fd671bp-11",
    "B/mv2/allreduce/reduce_bcast": "0x1.063e604877359p-12",
    "B/mv2/allreduce/ring": "0x1.c25efd5e50e7ap-12",
    "B/mv2/bcast/binomial": "0x1.0abcf81e3a029p-13",
    "B/mv2/bcast/scatter_allgather": "0x1.f8813ee82b866p-13",
    "B/mv2gdr/allreduce/reduce_bcast": "0x1.9084e53004a56p-13",
    "B/mv2gdr/allreduce/ring": "0x1.767d56e326ae6p-12",
    "B/mv2gdr/bcast/binomial": "0x1.0abcf81e3a029p-13",
    "B/mv2gdr/bcast/scatter_allgather": "0x1.f8813ee82b866p-13",
    "B/nccl/allreduce/ring": "0x1.767d56e326ae6p-12",
    "B/nccl/allreduce/tree": "0x1.b39ebd6ccaeb3p-12",
    "B/nccl/bcast/ring": "0x1.7587de21fb6f1p-13",
    "B/nccl/bcast/tree": "0x1.ae3c242ec49fbp-13",
    "B/openmpi/allreduce/reduce_bcast": "0x1.6600c3d4eb7c2p-9",
    "B/openmpi/allreduce/ring": "0x1.23a17dad8bf9cp-10",
    "B/openmpi/bcast/binomial": "0x1.ffcff8f0b6ab8p-11",
    "B/openmpi/bcast/scatter_allgather": "0x1.bb823e4fe38a6p-11",
}

#: "cluster/backend/collective" -> (best latency, winning label).
WINNER = {
    "A/mv2/allreduce": ("0x1.215029a4e39adp-12", "reduce_bcast"),
    "A/mv2/bcast": ("0x1.0afb3f09638f5p-13", "binomial"),
    "A/mv2gdr/allreduce": ("0x1.90d7ee6991611p-13", "reduce_bcast"),
    "A/mv2gdr/bcast": ("0x1.0afb3f09638f5p-13", "binomial"),
    "A/nccl/allreduce": ("0x1.767d56e326ae6p-12", "ring"),
    "A/nccl/bcast": ("0x1.75c6250d24fbdp-13", "ring"),
    "A/openmpi/allreduce": ("0x1.255c28ad257c1p-10", "ring"),
    "A/openmpi/bcast": ("0x1.b613416fd671bp-11", "scatter_allgather"),
    "B/mv2/allreduce": ("0x1.063e604877359p-12", "reduce_bcast"),
    "B/mv2/bcast": ("0x1.0abcf81e3a029p-13", "binomial"),
    "B/mv2gdr/allreduce": ("0x1.9084e53004a56p-13", "reduce_bcast"),
    "B/mv2gdr/bcast": ("0x1.0abcf81e3a029p-13", "binomial"),
    "B/nccl/allreduce": ("0x1.767d56e326ae6p-12", "ring"),
    "B/nccl/bcast": ("0x1.7587de21fb6f1p-13", "ring"),
    "B/openmpi/allreduce": ("0x1.23a17dad8bf9cp-10", "ring"),
    "B/openmpi/bcast": ("0x1.bb823e4fe38a6p-11", "scatter_allgather"),
}

#: design -> osu_reduce latency on Cluster-A at P=16, 32 MiB.
OSU = {
    "CB-8": "0x1.31cacfddd3795p-7",
    "chain": "0x1.3f36000cbae84p-7",
    "flat": "0x1.972d45c2deb5ep-7",
    "tuned": "0x1.31cacfddd3795p-7",
}

#: Tuner measurements (see ``test_tuner``).
TUNER = {
    "cand/allreduce/16M/ring/c256K": "0x1.640241042e271p-8",
    "cand/allreduce/16M/tree": "0x1.d1a4c9f0517a7p-6",
    "cand/reduce/16M/CB-4/c512K": "0x1.6f4dc4e500496p-8",
    "cand/reduce/16M/CC-8/c4096K": "0x1.932fc609f0b4cp-8",
    "cand/reduce/16M/binomial": "0x1.932fc609f0b4cp-8",
    "cand/reduce/16M/chain/c1024K": "0x1.a7af01b83cbe7p-9",
    "cp/reduce/1M": "0x1.26dc4ed43039bp-10",
    "default/allreduce/16M": ("0x1.640241042e271p-8", "0x1.f5f891f03ec19p-11"),
    "default/bcast/16M": ("0x1.95df220c168b4p-9", "0x1.b6c7b64a05090p-12"),
    "default/reduce/1M": ("0x1.26dc4ed43039bp-10", "0x1.16a993124958cp-12"),
}

#: "collective/profile" -> (sim time, event count) of one conformance case.
CASES = {
    "allgather_ring/mv2gdr": ("0x1.502bb0fd57f99p-13", 225),
    "allgather_ring/nccl": ("0x1.502bb0fd57f99p-13", 225),
    "allreduce_reduce_bcast/mv2gdr": ("0x1.adf1b1fb2bf77p-13", 89),
    "allreduce_reduce_bcast/nccl": ("0x1.adf1b1fb2bf77p-13", 89),
    "allreduce_ring/mv2gdr": ("0x1.9dde50997cbeep-12", 522),
    "allreduce_ring/nccl": ("0x1.9dde50997cbeep-12", 522),
    "bcast_binomial/mv2gdr": ("0x1.ffb480a5accd6p-14", 45),
    "bcast_binomial/nccl": ("0x1.ffb480a5accd6p-14", 45),
    "bcast_flat/mv2gdr": ("0x1.5523006e73339p-13", 48),
    "bcast_flat/nccl": ("0x1.5523006e73339p-13", 48),
    "bcast_scatter_allgather/mv2gdr": ("0x1.2689bae2a2db5p-12", 262),
    "bcast_scatter_allgather/nccl": ("0x1.2689bae2a2db5p-12", 262),
    "gather_binomial/mv2gdr": ("0x1.a4ac028e0b014p-14", 45),
    "gather_binomial/nccl": ("0x1.a4ac028e0b014p-14", 45),
    "hierarchical_reduce/mv2gdr": ("0x1.53fd83230a9c1p-13", 58),
    "hierarchical_reduce/nccl": ("0x1.53fd83230a9c1p-13", 58),
    "nccl_allgather/mv2gdr": ("0x1.502bb0fd57f99p-13", 225),
    "nccl_allgather/nccl": ("0x1.502bb0fd57f99p-13", 225),
    "nccl_allreduce_ring/mv2gdr": ("0x1.9dde50997cbeep-12", 522),
    "nccl_allreduce_ring/nccl": ("0x1.9dde50997cbeep-12", 522),
    "nccl_allreduce_tree/mv2gdr": ("0x1.bcf11953aa491p-10", 533),
    "nccl_allreduce_tree/nccl": ("0x1.bcf11953aa491p-10", 533),
    "nccl_bcast_ring/mv2gdr": ("0x1.3b3c49bae7a5cp-12", 272),
    "nccl_bcast_ring/nccl": ("0x1.3b3c49bae7a5cp-12", 272),
    "nccl_bcast_tree/mv2gdr": ("0x1.99cbcc2463eb0p-11", 248),
    "nccl_bcast_tree/nccl": ("0x1.99cbcc2463eb0p-11", 248),
    "nccl_reduce_scatter/mv2gdr": ("0x1.eb90f035a183cp-13", 306),
    "nccl_reduce_scatter/nccl": ("0x1.eb90f035a183cp-13", 306),
    "reduce_binomial/mv2gdr": ("0x1.036031c3f25dbp-13", 53),
    "reduce_binomial/nccl": ("0x1.036031c3f25dbp-13", 53),
    "reduce_chain/mv2gdr": ("0x1.1841de40b5c09p-11", 580),
    "reduce_chain/nccl": ("0x1.1841de40b5c09p-11", 580),
    "reduce_scatter_ring/mv2gdr": ("0x1.eb90f035a183cp-13", 306),
    "reduce_scatter_ring/nccl": ("0x1.eb90f035a183cp-13", 306),
    "scatter_binomial/mv2gdr": ("0x1.f9cf898fdb7a1p-14", 45),
    "scatter_binomial/nccl": ("0x1.f9cf898fdb7a1p-14", 45),
}

#: "collective/kind" -> (outcome, sim time) of one chaos cell.
CHAOS = {
    "allreduce_reduce_bcast/corrupt": ("recovered", "0x1.188938ce52b3ep-11"),
    "allreduce_reduce_bcast/drop": ("recovered", "0x1.b29d20b7b085fp-12"),
    "allreduce_reduce_bcast/stall": ("error", "0x1.1ea5dd74babd0p-5"),
    "gather_binomial/corrupt": ("recovered", "0x1.06431b9410a42p-12"),
    "gather_binomial/drop": ("recovered", "0x1.b895c73b2685cp-13"),
    "gather_binomial/stall": ("error", "0x1.1ea5dd74babd0p-5"),
    "hierarchical_reduce/corrupt": ("recovered", "0x1.0ce9e22034ed9p-11"),
    "hierarchical_reduce/drop": ("recovered", "0x1.c5858e5271449p-12"),
    "hierarchical_reduce/stall": ("error", "0x1.1ea5dd74babd0p-5"),
    "nccl_bcast_tree/corrupt": ("recovered", "0x1.79e8236a6853ap-12"),
    "nccl_bcast_tree/drop": ("recovered", "0x1.3ad5bee3d5fdcp-12"),
    "nccl_bcast_tree/stall": ("error", "0x1.1ea5dd74babd0p-5"),
    "reduce_chain/corrupt": ("recovered", "0x1.33e6d9b5b5d16p-11"),
    "reduce_chain/drop": ("recovered", "0x1.09bfbebeb9861p-11"),
    "reduce_chain/stall": ("error", "0x1.1ea5dd74babd0p-5"),
}


@pytest.mark.parametrize("key", sorted(MENU))
def test_menu_algorithm(key):
    kind, backend, collective, label = key.split("/")
    algorithm = dict(MENUS[backend == "nccl", collective])[label]
    t = time_point(CollPoint(algorithm, 8, 64 * KiB, backend, cluster=kind))
    assert t.hex() == MENU[key]


@pytest.mark.parametrize("key", sorted(WINNER))
def test_time_backend_winner(key):
    kind, backend, collective = key.split("/")
    t, label = time_backend(kind, backend, collective, 8, 64 * KiB)
    assert (t.hex(), label) == WINNER[key]


@pytest.mark.parametrize("design", sorted(OSU))
def test_osu_reduce_design(design):
    t = osu_reduce(lambda: make_cluster(Simulator(), "A"), 32 * MiB, 16,
                   design=design)
    assert t.hex() == OSU[design]


def test_tuner():
    reduce_pt = PlanPoint("mv2gdr", "reduce", "A", 12, QUICK_SIZES)
    allreduce_pt = PlanPoint("nccl", "allreduce", "A", 12, QUICK_SIZES)
    bcast_pt = PlanPoint("nccl", "bcast", "A", 12, QUICK_SIZES)
    got = {}
    for label, pt, n in (("reduce/1M", reduce_pt, MiB),
                         ("allreduce/16M", allreduce_pt, 16 * MiB),
                         ("bcast/16M", bcast_pt, 16 * MiB)):
        default, floor = search._default_with_floor(pt, n, "latency")
        got[f"default/{label}"] = (default.hex(), floor.hex())
    got["cp/reduce/1M"] = search._measure(reduce_pt, MiB, None,
                                          "critical-path").hex()
    cands = {c.label: c
             for c in search._reduce_candidates(reduce_pt, 16 * MiB)}
    for label in ("binomial", "chain/c1024K", "CB-4/c512K", "CC-8/c4096K"):
        got[f"cand/reduce/16M/{label}"] = search._measure(
            reduce_pt, 16 * MiB, cands[label], "latency").hex()
    cands = {c.label: c
             for c in search._nccl_candidates(allreduce_pt, 16 * MiB)}
    for label in ("tree", "ring/c256K"):
        got[f"cand/allreduce/16M/{label}"] = search._measure(
            allreduce_pt, 16 * MiB, cands[label], "latency").hex()
    assert got == TUNER


def _case(collective, profile):
    kw = {}
    if collective == "reduce_chain":
        kw = {"chunk_bytes": 256, "window": 2}
    elif collective == "hierarchical_reduce":
        kw = {"hr_config": "CC-4"}
    elif collective.startswith("nccl_"):
        kw = {"chunk_bytes": 512}
    root = 0 if ALGORITHMS[collective][1] in ("allreduce", "allgather") \
        else 3
    return Case(collective, P=9, nbytes=4 * 1000, root=root,
                profile=profile, seed=5, **kw)


@pytest.mark.parametrize("key", sorted(CASES))
def test_conformance_case(key):
    result = run_case(_case(*key.split("/")))
    assert result.ok, result.describe()
    assert (result.sim_time.hex(), result.n_events) == CASES[key]


@pytest.mark.parametrize("key", sorted(CHAOS))
def test_chaos_cell(key):
    collective, kind = key.split("/")
    result = run_case(Case(collective, P=8, nbytes=4 * 300, seed=7,
                           fault=kind))
    assert (result.outcome, result.sim_time.hex()) == CHAOS[key]


def test_registry_covers_every_driven_name():
    assert set(COLLECTIVES) <= set(ALGORITHMS)
    for dispatcher in ("tuned_reduce", "reduce", "allreduce", "bcast",
                       "nccl_allreduce", "nccl_bcast"):
        assert dispatcher in ALGORITHMS
    for menu in MENUS.values():
        for _label, algorithm in menu:
            assert algorithm in ALGORITHMS
    for name in sorted(os.listdir(tables.tables_dir())):
        with open(os.path.join(tables.tables_dir(), name)) as fh:
            table = json.load(fh)
        for entry in table["entries"]:
            knobs = entry["knobs"]
            if table["collective"] == "reduce":
                check_design(knobs["design"])
            else:
                labels = dict(MENUS[True, table["collective"]])
                assert knobs["algorithm"] in labels
            assert search.DISPATCHERS[table["collective"]] in ALGORITHMS
