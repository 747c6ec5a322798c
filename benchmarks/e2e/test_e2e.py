"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import child  # noqa: E402
import run  # noqa: E402
from layers import BUCKETS, Hooks, layers_of  # noqa: E402
from stats import median, percentile, quartiles, spread, verdict  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SPEC = run.load_spec()


def test_every_source_file_maps_to_exactly_one_layer():
    base = os.path.join(SRC, "repro")
    files = [os.path.relpath(os.path.join(d, f), base).replace(os.sep, "/")
             for d, _, fs in os.walk(base) for f in fs if f.endswith(".py")]
    assert files
    for rel in files:
        assert len(layers_of(rel)) == 1, (rel, layers_of(rel))


def test_names_and_units_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + list(BUCKETS))
    for name in names:
        assert NAME.match(name), name
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metric_names) == len(set(metric_names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def test_benchmark_json_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def _pass(items, wall=2.0):
    return {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": 50.0,
            "setup_s": 0.3, "items": items}


def _traced(items):
    return dict(_pass(items, 6.0), self_s=dict.fromkeys(BUCKETS, 0.5),
                counts={}, universe_s=0.01, unmapped=[])


def test_runner_output_keys_equal_benchmark_json():
    import workloads
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}

    train = {"name": "scaffe/googlenet@A/16", "wall_s": 1.0, "events": 10,
             "error": None, "sim": {
                 "framework": "scaffe", "n_gpus": 16, "outcome": "ok",
                 "samples_per_s": 100.0, "iteration_s": 0.5,
                 "phases": {"fwd": 0.1}, "io_stall_s": 0.0,
                 "profile": {"cp_length": 1.0, "n_spans": 3,
                             "by_phase": {"fwd": 1.0},
                             "by_class": {"(wait)": 1.0}}}}
    coll = {"name": "bcast/A/P8/4096/nccl", "wall_s": 0.1, "events": 5,
            "error": None, "sim": {"latency_s": 1e-5, "algorithm": "ring",
                                   "nbytes": 4096}}
    e2e = run.end_to_end_samples([_pass([train, coll])], [0.3])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    layer = run.per_layer(_traced([train, coll]), [_pass([train, coll])])
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert layer["sim.cp.class.wait"] == 1.0
    assert layer["trace_overhead"] == 3.0


def test_fig10_outcome_table_covers_every_item():
    import workloads
    names = {item.name for item in workloads.WORKLOADS["fig10_frameworks"]
             .items(0)}
    assert names == set(workloads.fig10_outcomes())


def test_hooks_are_passive_and_restored():
    from repro import Simulator, TrainConfig, make_cluster, train
    from repro.mpi.communicator import Communicator
    from repro.sim.resources import BandwidthLink

    cfg = TrainConfig(network="googlenet", batch_size=256, variant="SC-OBR",
                      reduce_design="tuned", measure_iterations=2)

    def point():
        sim = Simulator(seed=0)
        report = train("scaffe", n_gpus=8, cluster=make_cluster(sim, "B"),
                       config=cfg)
        return report.samples_per_second, sim.event_count

    before = {(cls, attr): vars(cls)[attr]
              for cls, attr in ((Simulator, "__init__"),
                                (Simulator, "process"),
                                (Communicator, "isend"),
                                (BandwidthLink, "transfer"))}
    plain = point()
    with Hooks(counting=True) as hooks:
        hooked = point()
        assert hooks.drain_events() == hooked[1]
    assert hooked == plain
    assert hooks.counts["count.mpi.isend"] > 0
    assert hooks.counts["count.link.train"] > 0
    for (cls, attr), orig in before.items():
        assert vars(cls)[attr] is orig


def test_order_statistics():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert median(xs) == 3.0
    assert quartiles(xs) == (1.5, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0)
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile(xs, 50) == 3.0
    assert spread([9.0, 10.0, 10.0, 10.0, 11.0]) == pytest.approx(0.1)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [9.0, 9.1, 8.9, 9.0, 9.05], 0.1, "lower") == "better"
    assert verdict(base, [10.0, 10.02, 9.98, 10.1, 9.9], 0.1,
                   "lower") == "within-bound"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], 0.1,
                   "lower") == "worse"
    noisy = [8.0, 13.0, 9.0, 12.0, 10.0]
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    # Separated, but by less than the base's own spread.
    wide = [10.0, 10.5, 9.5, 10.2, 9.8]
    assert verdict(wide, [9.4, 9.38, 9.36, 9.42, 9.45], 0.1,
                   "lower") == "within-bound"
    # Direction flips for higher-is-better metrics.
    assert verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], 0.1,
                   "higher") == "better"


def test_compare_files(tmp_path, capsys):
    def results(wall):
        record = {"workload": "train_weak", "end_to_end": {
            m["name"]: run._summary([wall, wall * 1.01, wall * 0.99])
            for m in SPEC["end_to_end"]}}
        return {"format": run.RESULTS_FORMAT, "runs": [record]}

    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    base.write_text(json.dumps(results(10.0)))
    cand.write_text(json.dumps(results(13.0)))
    assert run.compare(str(base), str(base), SPEC) == 0
    assert run.compare(str(base), str(cand), SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_failing_item_counts_and_the_pass_continues():
    from workloads import Item

    def boom():
        raise RuntimeError("boom")

    with Hooks() as hooks:
        results = child.run_items([Item("bad", boom),
                                   Item("good", lambda: {"x": 1.0})], hooks)
    assert [r["name"] for r in results] == ["bad", "good"]
    assert "boom" in results[0]["error"] and results[1]["error"] is None
    tally = run.Tally()
    tally.items(results, "pass 1")
    assert (tally.attempted, len(tally.errors)) == (2, 1)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train_weak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
