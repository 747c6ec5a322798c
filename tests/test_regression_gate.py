"""Tests for benchmarks/regression_gate.py: exit codes, repro
commands, and the causal attribution of an injected slowdown."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))

import regression_gate as rg  # noqa: E402


def _fake_headline():
    return {"metric_a": 10.0, "metric_b": 2.0,
            "train_fake_total_time": 1.0}


def _write_baseline(path, headline):
    payload = {"seed": 1, "rel_tol": rg.REL_TOL, "headline": headline}
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


@pytest.fixture
def gate(monkeypatch, tmp_path):
    """The gate wired to a tmp baseline, a fake (instant) subset and a
    tmp results directory (the committed BENCH_regression.json must
    never receive the fake headline)."""
    monkeypatch.setattr(rg, "run_subset", _fake_headline)
    for module in (rg, sys.modules["common"]):
        monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(rg, "BASELINE",
                        _write_baseline(tmp_path / "base.json",
                                        _fake_headline()))
    monkeypatch.setattr(rg, "attribute_train_regression", lambda: "")
    return rg


QUICK = ["--no-tune", "--no-chaos", "--no-wallclock"]


class TestExitCodes:
    def test_all_within_tolerance_passes(self, gate, capsys):
        assert gate.main(QUICK) == 0

    def test_missing_baseline_is_2(self, gate, monkeypatch, tmp_path):
        monkeypatch.setattr(gate, "BASELINE", str(tmp_path / "nope.json"))
        assert gate.main(QUICK) == rg.EXIT_MISSING_BASELINE

    def test_headline_regression_is_3(self, gate, monkeypatch, tmp_path,
                                      capsys):
        bad = dict(_fake_headline(), metric_a=8.0)  # 25% off
        monkeypatch.setattr(gate, "BASELINE",
                            _write_baseline(tmp_path / "b.json", bad))
        assert gate.main(QUICK) == rg.EXIT_HEADLINE
        err = capsys.readouterr().err
        assert "headline drill-down" in err
        assert "<-- FAIL" in err
        assert "repro:" in err

    def test_tune_gate_is_4(self, gate, monkeypatch):
        monkeypatch.setattr(gate, "check_tuning_tables",
                            lambda: ["table drift"])
        assert gate.main(["--no-chaos", "--no-wallclock"]) == rg.EXIT_TUNE

    def test_chaos_gate_is_5(self, gate, monkeypatch):
        monkeypatch.setattr(gate, "check_chaos_gate",
                            lambda: ["cell hung"])
        assert gate.main(["--no-tune", "--no-wallclock"]) == rg.EXIT_CHAOS

    def test_wallclock_gate_is_6(self, gate, monkeypatch):
        monkeypatch.setattr(gate, "check_simcore_floor",
                            lambda: ["too slow"])
        assert gate.main(["--no-tune", "--no-chaos"]) == rg.EXIT_WALLCLOCK

    def test_first_failing_gate_wins(self, gate, monkeypatch, tmp_path,
                                     capsys):
        bad = dict(_fake_headline(), metric_a=8.0)
        monkeypatch.setattr(gate, "BASELINE",
                            _write_baseline(tmp_path / "b.json", bad))
        monkeypatch.setattr(gate, "check_tuning_tables",
                            lambda: ["table drift"])
        assert (gate.main(["--no-chaos", "--no-wallclock"])
                == rg.EXIT_HEADLINE)
        err = capsys.readouterr().err
        assert "[headline]" in err and "[tune]" in err

    def test_distinct_codes(self):
        codes = [rg.EXIT_MISSING_BASELINE, rg.EXIT_HEADLINE, rg.EXIT_TUNE,
                 rg.EXIT_CHAOS, rg.EXIT_WALLCLOCK]
        assert len(set(codes)) == len(codes)
        assert 1 not in codes  # 1 is argparse/interpreter territory


class TestReproCommands:
    def test_every_headline_point_has_a_command(self):
        for label, *_ in rg.OSU_POINTS:
            cmd = rg.repro_command(label)
            assert cmd.startswith("PYTHONPATH=src") and "osu" in cmd
        for label, *_ in rg.CROSSOVER_POINTS:
            assert "crossover" in rg.repro_command(label)
        assert "--json" in rg.repro_command("train_googlenet_16gpu_x")

    def test_compare_attaches_repro_lines(self):
        headline = {"osu": 1.0}
        problems = rg.compare(
            {"osu": 2.0}, {"headline": headline})
        assert any("+100.00%" in p for p in problems)
        assert any(p.strip().startswith("repro:") for p in problems)

    def test_compare_in_tolerance_is_quiet(self):
        assert rg.compare({"m": 1.0}, {"headline": {"m": 1.0}}) == []


class TestInjectedSlowdownAttribution:
    """Acceptance criterion: a forced regression produces a causal
    attribution naming the regressed phase/resource."""

    @staticmethod
    def _small_run(fault_plan=None):
        from repro.core import TrainConfig, run_scaffe
        from repro.hardware import make_cluster
        from repro.obs import (
            StragglerDetector, make_runcard, run_payload,
        )
        from repro.prof import SpanRecorder
        from repro.sim import Simulator

        cfg = TrainConfig(network="cifar10_quick", dataset="cifar10",
                          batch_size=64, iterations=3,
                          measure_iterations=2, variant="SC-OBR")
        sim = Simulator(seed=7)
        cluster = make_cluster(sim, "A")
        rec = SpanRecorder(sim)
        report = run_scaffe(cluster, 4, cfg, recorder=rec,
                            fault_plan=fault_plan)
        assert report.ok
        card = make_runcard(report, cfg, cluster_kind="A", n_gpus=4,
                            profile="mv2gdr", seed=7, sim=sim)
        return run_payload(card, report.profile,
                           StragglerDetector(rec).report())

    def test_attribution_names_the_slow_compute(self, monkeypatch,
                                                tmp_path):
        from repro.faults import FaultPlan, GpuSlow

        baseline = tmp_path / "baseline_run.json"
        with open(baseline, "w") as f:
            json.dump(self._small_run(), f)
        results = tmp_path / "results"
        monkeypatch.setattr(rg, "RESULTS_DIR", str(results))

        plan = FaultPlan(name="slow-gpu1",
                         events=(GpuSlow(start=0.0, gpu=1, factor=3.0),))
        text = rg.attribute_train_regression(
            run_fn=lambda: self._small_run(fault_plan=plan),
            baseline_run=str(baseline))

        # The table names the cause: compute got slower, and the delta
        # concentrates on the slowed rank's cells.
        assert "run diff:" in text
        lines = text.splitlines()
        by_class = lines[lines.index("  by resource class:") + 1]
        assert by_class.split()[0] in ("compute", "(wait)")
        assert "compute" in text
        assert "delta +" in text  # candidate is slower
        # Artifacts for the CI upload landed in RESULTS_DIR.
        assert (results / "regression_diff.txt").exists()
        assert (results / "profile_train.json").exists()

    def test_missing_baseline_run_attributes_nothing(self, monkeypatch,
                                                     tmp_path, capsys):
        text = rg.attribute_train_regression(
            run_fn=lambda: pytest.fail("must not re-run"),
            baseline_run=str(tmp_path / "missing.json"))
        assert text == ""
        assert "--update-baseline" in capsys.readouterr().err


class TestCommittedBaselineRun:
    def test_baseline_run_file_is_committed_and_valid(self):
        assert os.path.exists(rg.BASELINE_RUN)
        with open(rg.BASELINE_RUN) as f:
            payload = json.load(f)
        assert payload["format"] == "repro.obs.run/1"
        assert payload["runcard"]["network"] == "googlenet"
        assert payload["profile"]["cp_cells"]


COMMITTED_RECORD = os.path.join(rg.RESULTS_DIR, "BENCH_regression.json")
GATE_BASELINE = rg.BASELINE


class TestCommittedBenchRecord:
    def test_headline_keys_match_the_gate(self):
        """The committed record is the gate's own output: a hand edit
        (or a test writing fake numbers) changes its key set."""
        with open(COMMITTED_RECORD) as f:
            committed = json.load(f)
        with open(GATE_BASELINE) as f:
            baseline = json.load(f)
        assert set(committed["headline"]) == set(baseline["headline"])

    def test_gate_tests_leave_the_record_alone(self, gate, tmp_path):
        with open(COMMITTED_RECORD) as f:
            before = f.read()
        assert gate.main(QUICK) == 0
        assert os.path.exists(tmp_path / "BENCH_regression.json")
        with open(COMMITTED_RECORD) as f:
            assert f.read() == before
