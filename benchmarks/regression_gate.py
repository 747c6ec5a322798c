#!/usr/bin/env python
"""Bench-regression gate: quick headline numbers vs a committed baseline.

The simulation is a pure function of the seed, so the headline numbers
of a small benchmark subset are exactly reproducible; any drift is a
real behaviour change.  CI runs this script, which

1. runs the quick subset (two OSU reduce points + a 16-GPU GoogLeNet
   training run with telemetry attached),
2. writes ``results/BENCH_regression.json`` and the full telemetry
   artifacts (``results/metrics.prom``, ``results/metrics.json``,
   ``results/timeseries.csv``),
3. compares every headline number against ``baselines/regression.json``
   with a relative tolerance and exits non-zero on any regression,
   printing a per-metric drill-down (percent delta + the exact repro
   command) for every failing headline,
4. on a failed *training* headline, re-runs the train point under the
   causal profiler and diffs it against the committed baseline run
   file (``baselines/profile_train.json``) with the ``repro diff``
   engine — the attribution table names the phase/resource/rank that
   ate the delta and is written to ``results/regression_diff.txt``,
5. regenerates the committed tuning tables from the quick ``repro
   tune`` plan and fails on any byte drift (the tune-smoke gate),
6. runs the quick chaos-conformance matrix and fails on any cell that
   ends in silent corruption or a hang (the outcome-trichotomy gate);
   failing cells dump their flight-recorder timelines to
   ``results/flight_postmortem.json``,
7. re-runs the quick ``bench_simcore`` workloads and fails if host
   wall-clock throughput (ref-events/sec) drops below the floor in
   ``baselines/simcore.json`` — the same check the ``sim-bench`` CI job
   applies, so a kernel slow-down cannot land through either door,
8. runs one quick traced pass of the end-to-end benchmark's
   ``train_weak`` workload (``e2e/run.py``) and prints its per-layer
   host-time ledger (the ``share.*`` rows, e.g. ``share.sim.kernel``),
   so a change's effect on each layer shows in the gate log; the run
   file is ``results/e2e_ledger.json``.  The gate fails only if the
   pass itself fails or one of its correctness checks does.

Each gate has a distinct exit code (the first failing gate wins):
``2`` missing baseline, ``3`` headline comparison, ``4`` tuning
tables, ``5`` chaos trichotomy, ``6`` wall-clock floor, ``7`` ledger
run.

Refresh the baselines after an intentional change with::

    PYTHONPATH=src python benchmarks/regression_gate.py --update-baseline
    PYTHONPATH=src python benchmarks/bench_simcore.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from common import RESULTS_DIR, emit_json, osu_reduce  # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "baselines",
                        "regression.json")
#: Committed baseline *run file* (RunCard + profile summary) of the
#: train point; candidates diff against this on a failed train headline.
BASELINE_RUN = os.path.join(os.path.dirname(__file__), "baselines",
                            "profile_train.json")

#: Distinct exit code per failing gate (first failing gate wins).
EXIT_MISSING_BASELINE = 2
EXIT_HEADLINE = 3
EXIT_TUNE = 4
EXIT_CHAOS = 5
EXIT_WALLCLOCK = 6
EXIT_LEDGER = 7

#: The end-to-end benchmark runner and the workload the ledger traces.
E2E_RUN = os.path.join(os.path.dirname(__file__), "e2e", "run.py")
LEDGER_WORKLOAD = "train_weak"

#: Relative tolerance for headline comparisons.  The runs are
#: deterministic, so this only absorbs intentional small calibration
#: tweaks; structural changes should refresh the baseline explicitly.
REL_TOL = 0.03

MiB = 1 << 20

#: (label, cluster, profile, design, nbytes, procs) OSU points.
OSU_POINTS = (
    ("osu_reduce_tuned_32p_1M", "A", "mv2gdr", "tuned", 1 * MiB, 32),
    ("osu_reduce_tuned_32p_16M", "A", "mv2gdr", "tuned", 16 * MiB, 32),
)

KiB = 1 << 10

#: (label, cluster, backend, collective, procs, nbytes) points from the
#: backend crossover study — one cell each side of the MPI/NCCL flip.
CROSSOVER_POINTS = (
    ("crossover_allreduce_A_32p_16M_nccl", "A", "nccl", "allreduce",
     32, 16 * MiB),
    ("crossover_allreduce_A_32p_16M_mv2gdr", "A", "mv2gdr", "allreduce",
     32, 16 * MiB),
    ("crossover_bcast_A_32p_4K_nccl", "A", "nccl", "bcast", 32, 4 * KiB),
    ("crossover_bcast_A_32p_4K_mv2gdr", "A", "mv2gdr", "bcast",
     32, 4 * KiB),
)

TRAIN_SEED = 1


def _train_point() -> dict:
    """16-GPU GoogLeNet, 3 iterations, telemetry attached."""
    from repro.core import TrainConfig, run_scaffe
    from repro.hardware import make_cluster
    from repro.sim import Simulator
    from repro.telemetry import (
        TelemetrySession, timeseries_to_csv, to_json_snapshot,
        to_prometheus,
    )

    cfg = TrainConfig(network="googlenet", batch_size=1024, iterations=3,
                      variant="SC-OB", reduce_design="tuned",
                      measure_iterations=3)
    sim = Simulator(seed=TRAIN_SEED)
    cluster = make_cluster(sim, "A")
    session = TelemetrySession(scrape_interval=0.05)
    report = run_scaffe(cluster, 16, cfg, telemetry=session)
    assert report.ok, report.failure

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "metrics.prom"), "w") as f:
        f.write(to_prometheus(session.registry))
    with open(os.path.join(RESULTS_DIR, "metrics.json"), "w") as f:
        json.dump(to_json_snapshot(session), f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(RESULTS_DIR, "timeseries.csv"), "w") as f:
        f.write(timeseries_to_csv(session.samples))

    tel = report.telemetry
    return {
        "train_googlenet_16gpu_total_time": report.total_time,
        "train_googlenet_16gpu_samples_per_s": report.samples_per_second,
        "train_googlenet_16gpu_coll_bytes": float(
            sum(tel.pvars["mpi.coll.bytes"].values())),
        "train_googlenet_16gpu_peak_dev_mem": float(tel.peak_device_mem),
    }


def _profiled_train_run() -> dict:
    """The train point re-run under the causal profiler.

    Recording is passive, so the simulated numbers are bit-identical
    to :func:`_train_point`; this run additionally captures the span
    graph the diff engine attributes from.  Returns a saved-run
    payload (RunCard + profile summary).
    """
    from repro.core import TrainConfig, run_scaffe
    from repro.hardware import make_cluster
    from repro.obs import StragglerDetector, make_runcard, run_payload
    from repro.prof import SpanRecorder
    from repro.sim import Simulator

    cfg = TrainConfig(network="googlenet", batch_size=1024, iterations=3,
                      variant="SC-OB", reduce_design="tuned",
                      measure_iterations=3)
    sim = Simulator(seed=TRAIN_SEED)
    cluster = make_cluster(sim, "A")
    recorder = SpanRecorder(sim)
    report = run_scaffe(cluster, 16, cfg, recorder=recorder)
    assert report.ok, report.failure
    card = make_runcard(report, cfg, cluster_kind="A", n_gpus=16,
                        profile="mv2gdr", seed=TRAIN_SEED)
    return run_payload(card, report.profile,
                       StragglerDetector(recorder).report())


def _write_canonical(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def attribute_train_regression(run_fn=_profiled_train_run,
                               baseline_run=BASELINE_RUN) -> str:
    """Causal attribution of a failed train headline.

    Re-runs the train point under the profiler, diffs it against the
    committed baseline run file, and returns the ``repro diff``
    attribution table (also written to ``results/regression_diff.txt``
    for the CI artifact upload).  Returns "" when no baseline run file
    exists.
    """
    from repro.obs import diff_runs

    if not os.path.exists(baseline_run):
        print(f"no baseline run file at {baseline_run}; cannot attribute "
              "(write one with --update-baseline)", file=sys.stderr)
        return ""
    cand = run_fn()
    _write_canonical(os.path.join(RESULTS_DIR, "profile_train.json"), cand)
    with open(baseline_run) as f:
        base = json.load(f)
    diff = diff_runs(base, cand, base_label="committed baseline",
                     cand_label="this run")
    text = diff.render()
    out = os.path.join(RESULTS_DIR, "regression_diff.txt")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(out, "w") as f:
        f.write(text + "\n")
    return text


def run_subset() -> dict:
    headline = {}
    for label, cluster, profile, design, nbytes, procs in OSU_POINTS:
        headline[label] = osu_reduce(cluster, profile, nbytes, procs,
                                     design=design)
        print(f"{label}: {headline[label] * 1e6:.1f} us")
    from repro.analysis import time_backend
    for label, cluster, backend, coll, procs, nbytes in CROSSOVER_POINTS:
        headline[label], algo = time_backend(cluster, backend, coll,
                                             procs, nbytes)
        print(f"{label}: {headline[label] * 1e6:.1f} us ({algo})")
    for k, v in _train_point().items():
        headline[k] = v
        print(f"{k}: {v:.6g}")
    return headline


def _fmt_size(nbytes: int) -> str:
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB}M"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB}K"
    return str(nbytes)


def repro_command(label: str) -> str:
    """The exact CLI command reproducing one headline number."""
    for lbl, cluster, profile, design, nbytes, procs in OSU_POINTS:
        if lbl == label:
            return ("PYTHONPATH=src python -m repro.cli osu "
                    f"--cluster {cluster} --profile {profile} "
                    f"--design {design} --procs {procs} "
                    f"--sizes {_fmt_size(nbytes)}")
    for lbl, cluster, backend, coll, procs, nbytes in CROSSOVER_POINTS:
        if lbl == label:
            return ("PYTHONPATH=src python -m repro.cli crossover "
                    f"--clusters {cluster} --procs {procs} "
                    f"--sizes {_fmt_size(nbytes)} --collectives {coll} "
                    f"--backends {backend}")
    if label.startswith("train_"):
        return ("PYTHONPATH=src python -m repro.cli profile "
                "--model googlenet --gpus 16 --batch-size 1024 "
                "--iterations 3 --variant SC-OB --seed 1 "
                "--json results/profile_train.json")
    return "PYTHONPATH=src python benchmarks/regression_gate.py"


def compare(headline: dict, baseline: dict) -> list:
    """Problems for every out-of-tolerance headline, each with its
    percent delta and the exact repro command (no silent pass/fail)."""
    problems = []
    for key, base in sorted(baseline["headline"].items()):
        got = headline.get(key)
        if got is None:
            problems.append(f"missing headline {key!r}")
            continue
        if base == 0:
            if got != 0:
                problems.append(f"{key}: baseline 0, got {got:.6g}")
                problems.append(f"  repro: {repro_command(key)}")
            continue
        rel = (got - base) / base
        if abs(rel) > REL_TOL:
            problems.append(
                f"{key}: {got:.6g} vs baseline {base:.6g} "
                f"({rel * 100:+.2f}%, tolerance {REL_TOL * 100:.0f}%)")
            problems.append(f"  repro: {repro_command(key)}")
    for key in sorted(set(headline) - set(baseline["headline"])):
        problems.append(f"new headline {key!r} not in baseline "
                        f"(refresh with --update-baseline)")
    return problems


def drilldown(headline: dict, baseline: dict) -> str:
    """Per-metric table (value, baseline, percent delta, verdict) for
    the failure report — not just the out-of-tolerance rows."""
    lines = [f"{'metric':42s} {'current':>14s} {'baseline':>14s} "
             f"{'delta':>9s}"]
    for key, base in sorted(baseline["headline"].items()):
        got = headline.get(key)
        if got is None:
            lines.append(f"{key:42s} {'(missing)':>14s} {base:14.6g}")
            continue
        rel = (got - base) / base if base else 0.0
        flag = "  <-- FAIL" if abs(rel) > REL_TOL else ""
        lines.append(f"{key:42s} {got:14.6g} {base:14.6g} "
                     f"{rel * 100:+8.2f}%{flag}")
    return "\n".join(lines)


def check_simcore_floor() -> list:
    """Host wall-clock floor on the quick simulator-core workloads.

    Simulated numbers above are exact; this one is noisy host time, so
    the floor (75% of the rolling baseline) is deliberately generous —
    it exists to catch a kernel that got structurally slower, not a
    busy CI runner.
    """
    from bench_simcore import ROLLING_BASELINE as SIMCORE_BASELINE
    from bench_simcore import WORKLOADS, _load, check_floor, run_workloads

    baseline = _load(SIMCORE_BASELINE)
    if baseline is None:
        print(f"no simcore baseline at {SIMCORE_BASELINE}; skipping "
              "wall-clock floor (write one with bench_simcore.py "
              "--write-baseline)")
        return []
    quick = [n for n, (_, q) in WORKLOADS.items() if q]
    results = run_workloads(quick, repeat=2, progress=True)
    return check_floor(results, baseline)


def check_tuning_tables() -> list:
    """Tune-smoke: the committed tuning tables must regenerate
    byte-identically (the ``repro tune --quick --check`` contract), and
    every committed entry must still be a strict win over the
    profile-default dispatch it replaces."""
    from repro.tune import tables
    from repro.tune.search import check_tables, quick_plan, run_plan

    problems = []
    tuned = run_plan(quick_plan(), "latency")
    for p in check_tables(tuned, tables.tables_dir()):
        problems.append(f"tuning table drift: {p}")
    for t in tuned.values():
        for e in t.entries:
            if e["latency"] >= e["default_latency"]:
                problems.append(
                    f"tuning table {t.backend}.{t.collective} entry at "
                    f"{e['min_nbytes']} no longer beats the default")
    n = sum(len(t.entries) for t in tuned.values())
    if not problems:
        print(f"tune smoke: {len(tuned)} tables ({n} entries) regenerate "
              "byte-identically and win strictly")
    return problems


def check_chaos_gate() -> list:
    """Quick chaos-conformance sweep: the outcome trichotomy must hold.

    Deterministic like the headline numbers — every cell of the quick
    chaos matrix must end exact / recovered / typed-error.  A single
    ``silent`` (corruption past the checksums) or ``hang`` (drained
    schedule with parked ranks) cell fails the gate.
    """
    from repro.check import (
        chaos_outcome_tally, generate_chaos_matrix, run_matrix,
    )

    results = run_matrix(generate_chaos_matrix(0, quick=True))
    tally = chaos_outcome_tally(results)
    print("chaos gate: " + "  ".join(f"{k}={v}" for k, v in tally.items()))
    problems = []
    failing = [r for r in results if not r.ok]
    for r in failing:
        problems.append(f"chaos [{r.outcome}] {r.case.spec()} -- "
                        f"{'; '.join(r.failures)}")
        problems.append(f"  repro: {r.case.repro_command()}")
    if failing:
        # Every failing cell carries its flight-recorder ring; collect
        # the timelines into one post-mortem file for the CI artifact.
        dump = {
            "format": "repro.obs.flight-collection/1",
            "cells": {r.case.spec(): {"outcome": r.outcome,
                                      "failures": r.failures,
                                      "events": r.flight}
                      for r in failing},
        }
        path = os.path.join(RESULTS_DIR, "flight_postmortem.json")
        _write_canonical(path, dump)
        problems.append(f"  flight-recorder timelines written to {path}")
    return problems


def run_ledger() -> list:
    """One quick traced e2e pass; prints its ``share.*`` rows, largest
    first.

    Host shares are noisy, so they are printed, not gated: the problems
    returned are a failed run and failed correctness checks only.
    """
    out = os.path.join(RESULTS_DIR, "e2e_ledger.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, E2E_RUN, "--workload", LEDGER_WORKLOAD,
         "--repeat", "1", "--trace", "1", "--out", out],
        capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return [f"e2e ledger run exited {proc.returncode}: {tail[0]}"]
    with open(out) as f:
        record = json.load(f)["runs"][0]
    shares = sorted(((k, v) for k, v in record.get("per_layer", {}).items()
                     if k.startswith("share.")), key=lambda kv: -kv[1])
    print(f"host-time ledger: {LEDGER_WORKLOAD}, one traced pass "
          "(% of profiled self time)")
    for name, value in shares:
        print(f"  {name:24s} {value:6.2f}%")
    return [f"e2e ledger check failed: {e}" for e in record["errors"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the committed baseline from this run")
    ap.add_argument("--no-wallclock", action="store_true",
                    help="skip the simulator-core events/sec floor "
                         "(exact headline comparisons only)")
    ap.add_argument("--no-chaos", action="store_true",
                    help="skip the quick chaos-conformance sweep")
    ap.add_argument("--no-tune", action="store_true",
                    help="skip the tuning-table regeneration smoke")
    args = ap.parse_args(argv)

    headline = run_subset()
    payload = {
        "seed": TRAIN_SEED,
        "rel_tol": REL_TOL,
        "headline": headline,
    }
    path = emit_json("regression", payload)
    print(f"wrote {path}")

    if args.update_baseline:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        shutil.copyfile(path, BASELINE)
        print(f"baseline updated: {BASELINE}")
        _write_canonical(BASELINE_RUN, _profiled_train_run())
        print(f"baseline run file updated: {BASELINE_RUN}")
        return 0

    if not os.path.exists(BASELINE):
        print(f"no baseline at {BASELINE}; run with --update-baseline",
              file=sys.stderr)
        return EXIT_MISSING_BASELINE
    with open(BASELINE) as f:
        baseline = json.load(f)

    # (gate name, problem list, exit code); the first failing gate
    # determines the exit code, every problem is printed regardless.
    gates = [("headline", compare(headline, baseline), EXIT_HEADLINE)]
    if gates[0][1]:
        print("\nheadline drill-down:", file=sys.stderr)
        print(drilldown(headline, baseline), file=sys.stderr)
        if any(p.startswith("train_") for p in gates[0][1]):
            # A moved training headline gets causal attribution: the
            # profiled re-run vs the committed baseline run file.
            text = attribute_train_regression()
            if text:
                print("\ncausal attribution (repro diff baseline -> "
                      "candidate):", file=sys.stderr)
                print(text, file=sys.stderr)
    if not args.no_tune:
        gates.append(("tune", check_tuning_tables(), EXIT_TUNE))
    if not args.no_chaos:
        gates.append(("chaos", check_chaos_gate(), EXIT_CHAOS))
    if not args.no_wallclock:
        gates.append(("wallclock", check_simcore_floor(), EXIT_WALLCLOCK))
    gates.append(("ledger", run_ledger(), EXIT_LEDGER))

    failing = [(name, probs, code) for name, probs, code in gates if probs]
    if failing:
        print("\nREGRESSION GATE FAILED "
              f"({', '.join(name for name, _, _ in failing)}):",
              file=sys.stderr)
        for name, probs, _ in failing:
            for p in probs:
                print(f"  [{name}] {p}", file=sys.stderr)
        return failing[0][2]
    print(f"regression gate: {len(baseline['headline'])} headline "
          f"numbers within {REL_TOL * 100:.0f}% of baseline; "
          f"tuning tables regenerate byte-identically; "
          f"chaos trichotomy holds; simulator-core wall-clock above floor; "
          f"e2e ledger pass ran clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
