"""Command-line interface.

Mirrors how the public S-Caffe release was driven (mpirun + command-line
options like ``-scal weak``), adapted to the simulated stack::

    repro train --framework scaffe --cluster A --gpus 64 \\
                --network googlenet --batch-size 1024 --scal strong
    repro osu --profile mv2gdr --design tuned --procs 160 --size 64M
    repro metrics --gpus 16 --network googlenet --out results/metrics
    repro osu --design flat,CB-8,CC-8 --procs 160 --sizes 1M,16M,128M
    repro table1
    repro networks
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _parse_size(text: str) -> int:
    """Parse '64M', '16K', '1G', or a plain byte count (finite, >= 0)."""
    num = text.strip().upper()
    mult = 1
    if num and num[-1] in "KMG":
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[num[-1]]
        num = num[:-1]
    try:
        value = float(num) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"size must be a finite byte count >= 0, got {text!r}")
    return int(value)


def _csv(text: str) -> List[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _parse_sizes(text: str) -> List[int]:
    """argparse type for a comma list of sizes: bad input is a usage
    error before any simulation starts."""
    sizes = [_parse_size(s) for s in _csv(text)]
    if not sizes:
        raise argparse.ArgumentTypeError("no message sizes given")
    return sizes


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {value}")
    return value


def _parse_procs(text: str) -> List[int]:
    """argparse type for a comma list of process counts (each >= 1)."""
    procs = [_positive_int(s) for s in _csv(text)]
    if not procs:
        raise argparse.ArgumentTypeError("no process counts given")
    return procs


def _csv_choices(choices):
    """argparse type for a non-empty comma list drawn from ``choices``."""
    def parse(text: str) -> List[str]:
        items = _csv(text)
        bad = [s for s in items if s not in choices]
        if bad or not items:
            raise argparse.ArgumentTypeError(
                f"invalid choice {','.join(bad) or text!r} "
                f"(choose from {', '.join(choices)})")
        return items
    return parse


def _parse_case(text: str):
    """argparse type for a ``repro check --case`` spec."""
    from .check import parse_case
    try:
        return parse_case(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _too_many_procs(command: str, procs: int, kinds: List[str]) -> bool:
    """Report a usage error if ``procs`` ranks exceed the GPUs of any
    cluster in ``kinds`` (the bound depends on ``--cluster``, so
    argparse cannot check it alone)."""
    from .hardware import make_cluster
    from .sim import Simulator
    for kind in kinds:
        n_gpus = make_cluster(Simulator(), kind).n_gpus
        if procs > n_gpus:
            print(f"repro {command}: error: argument --procs: {procs} "
                  f"exceeds Cluster-{kind}'s {n_gpus} GPUs", file=sys.stderr)
            return True
    return False


def _parse_designs(text: str) -> List[str]:
    """argparse type for a comma list of reduce designs."""
    from .mpi.collectives import check_design
    designs = _csv(text)
    if not designs:
        raise argparse.ArgumentTypeError("no reduce designs given")
    for d in designs:
        try:
            check_design(d)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return designs


def build_parser() -> argparse.ArgumentParser:
    # The backend list comes from the profile registry, so a profile
    # registered via register_profile shows up in every --profile flag;
    # the framework list comes from the trainer's job table.
    from .core.trainer import FRAMEWORK_NAMES
    from .mpi.profiles import profile_names
    profiles = profile_names()

    p = argparse.ArgumentParser(
        prog="repro",
        description="S-Caffe reproduction on a simulated GPU cluster")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training experiment")
    t.add_argument("--framework", default="scaffe",
                   choices=FRAMEWORK_NAMES)
    t.add_argument("--cluster", default="A", choices=["A", "B"])
    t.add_argument("--gpus", type=int, default=16)
    t.add_argument("--network", default="googlenet")
    t.add_argument("--dataset", default="imagenet")
    t.add_argument("--batch-size", type=int, default=1024)
    t.add_argument("--iterations", type=int, default=100)
    t.add_argument("--scal", default="strong",
                   choices=["strong", "weak"])
    t.add_argument("--variant", default="SC-OBR",
                   choices=["SC-B", "SC-OB", "SC-OB-naive", "SC-OBR"])
    t.add_argument("--reduce-design", default="tuned")
    t.add_argument("--backend", default="lustre",
                   choices=["lustre", "lmdb"])
    t.add_argument("--profile", default="mv2gdr",
                   choices=profiles)
    t.add_argument("--net-prototxt", default=None, metavar="FILE",
                   help="train a network defined in a Caffe prototxt "
                        "file instead of a model-zoo name")
    t.add_argument("--no-live", action="store_true",
                   help="suppress the per-iteration live status line "
                        "(printed by default)")

    m = sub.add_parser(
        "metrics",
        help="MPI_T-style introspection of a training run: scrape the "
             "runtime PVARs on simulated time and export them")
    m.add_argument("--list", action="store_true", dest="list_vars",
                   help="print the PVAR/CVAR catalogue and exit")
    m.add_argument("--cluster", default="A", choices=["A", "B"])
    m.add_argument("--gpus", type=int, default=16)
    m.add_argument("--network", default="googlenet")
    m.add_argument("--dataset", default="imagenet")
    m.add_argument("--batch-size", type=int, default=1024)
    m.add_argument("--iterations", type=int, default=4)
    m.add_argument("--variant", default="SC-OB",
                   choices=["SC-B", "SC-OB", "SC-OB-naive", "SC-OBR"])
    m.add_argument("--reduce-design", default="tuned")
    m.add_argument("--profile", default="mv2gdr",
                   choices=profiles)
    m.add_argument("--seed", type=int, default=1)
    m.add_argument("--scrape-interval", type=float, default=0.05,
                   metavar="SECONDS",
                   help="PVAR sampling period in simulated seconds")
    m.add_argument("--out", default=None, metavar="DIR",
                   help="write exports here (default: print Prometheus "
                        "text to stdout)")
    m.add_argument("--format", default="all",
                   choices=["prom", "json", "csv", "all"],
                   help="which export(s) to write with --out")
    m.add_argument("--cvar", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="set an MPI_T control variable before the run "
                        "(repeatable), e.g. coll.chain_size=4")

    pr = sub.add_parser(
        "profile",
        help="causal profile of a training run (critical path, comm "
             "matrix, what-if projection)")
    pr.add_argument("--cluster", default="A", choices=["A", "B"])
    pr.add_argument("--gpus", type=int, default=8)
    pr.add_argument("--model", "--network", dest="network",
                    default="alexnet")
    pr.add_argument("--dataset", default="imagenet")
    pr.add_argument("--batch-size", type=int, default=256)
    pr.add_argument("--iterations", type=int, default=3)
    pr.add_argument("--variant", default="SC-OBR",
                    choices=["SC-B", "SC-OB", "SC-OB-naive", "SC-OBR"])
    pr.add_argument("--reduce-design", default="tuned")
    pr.add_argument("--profile", default="mv2gdr",
                    choices=profiles)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--trace", metavar="FILE", default=None,
                    help="write a Perfetto/Chrome trace-event JSON file")
    pr.add_argument("--what-if", metavar="SPEC", default=None,
                    help="comma-separated resource rescales, e.g. "
                         "'ib=2,compute=1.3' (factor >1 = faster); "
                         "classes: compute, pcie, ib, host, cpu, "
                         "gpu_mem, overhead, all")
    pr.add_argument("--top", type=int, default=10,
                    help="rows per critical-path breakdown table")
    pr.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                    help="write a machine-readable run file (RunCard + "
                         "profile summary; '-' for stdout) for "
                         "'repro diff'")

    df = sub.add_parser(
        "diff",
        help="differential run profiling: attribute the makespan delta "
             "between two saved profile runs (write them with "
             "'repro profile --json')")
    df.add_argument("base", help="baseline run file (repro profile --json)")
    df.add_argument("cand", help="candidate run file")
    df.add_argument("--top", type=int, default=8,
                    help="rows per attribution table")
    df.add_argument("--trace", metavar="FILE", default=None,
                    help="write a two-process Perfetto trace comparing "
                         "the runs' critical paths")

    o = sub.add_parser("osu", help="MPI_Reduce micro-benchmark (OMB-style)")
    o.add_argument("--cluster", default="A", choices=["A", "B"])
    o.add_argument("--profile", default="mv2gdr",
                   choices=profiles)
    o.add_argument("--design", default="tuned", type=_parse_designs,
                   help="tuned | flat | chain | CB-8 | CC-4 | CCB-8 | ...; "
                        "a comma list prints one column per design and "
                        "the fastest design per size")
    o.add_argument("--procs", type=_positive_int, default=160)
    o.add_argument("--sizes", default="64K,1M,8M,64M", type=_parse_sizes,
                   help="comma-separated message sizes")

    tu = sub.add_parser(
        "tune",
        help="closed-loop CVAR auto-tuner: search the validated knob "
             "space and emit the committed (size, P, topology) tuning "
             "tables the dispatchers consult")
    tu.add_argument("--quick", action="store_true",
                    help="the small CI plan (byte-identical regeneration "
                         "of the committed tables)")
    tu.add_argument("--objective", default="latency",
                    choices=["latency", "critical-path"],
                    help="minimize end-to-end latency or the causal "
                         "profiler's critical-path length")
    tu.add_argument("--out", default=None, metavar="DIR",
                    help="directory to write the tables to (default: the "
                         "committed src/repro/mpi/tuning_tables/)")
    tu.add_argument("--check", action="store_true",
                    help="regenerate and byte-compare against the "
                         "committed tables instead of writing (exit 1 on "
                         "drift)")

    x = sub.add_parser(
        "crossover",
        help="MPI-vs-NCCL backend crossover study: sweep message size x "
             "GPU density x procs over every backend and report where "
             "the winner flips")
    x.add_argument("--clusters", default="A,B",
                   type=_csv_choices(("A", "B")),
                   help="comma-separated cluster kinds (A=dense 16 "
                        "GPUs/node, B=sparse 2 GPUs/node)")
    x.add_argument("--procs", default="8,32", type=_parse_procs,
                   help="comma-separated process counts")
    x.add_argument("--sizes", default="4K,64K,1M,16M", type=_parse_sizes,
                   help="comma-separated message sizes")
    x.add_argument("--collectives", default="allreduce,bcast",
                   type=_csv_choices(("allreduce", "bcast")),
                   help="comma-separated: allreduce | bcast")
    x.add_argument("--backends", default=None, type=_csv_choices(profiles),
                   help="comma-separated backend subset "
                        f"(default: all of {', '.join(profiles)})")
    x.add_argument("--progress", action="store_true",
                   help="print each point as it is timed")

    c = sub.add_parser(
        "chaos",
        help="run training under a named fault plan (chaos experiment)")
    c.add_argument("--plan", default="flaky",
                   help="named fault plan: quiet | flaky-nic | straggler "
                        "| flaky | rank-crash | chaos | corrupt | stall")
    c.add_argument("--list-plans", action="store_true",
                   help="print the named fault plans and exit")
    c.add_argument("--cluster", default="A", choices=["A", "B"])
    c.add_argument("--gpus", type=int, default=16)
    c.add_argument("--network", default="alexnet")
    c.add_argument("--batch-size", type=int, default=256)
    c.add_argument("--iterations", type=int, default=20)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--checkpoint-interval", type=int, default=5,
                   help="solver-state snapshot every K iterations "
                        "(0 disables)")
    c.add_argument("--variant", default="SC-OBR",
                   choices=["SC-B", "SC-OB", "SC-OB-naive", "SC-OBR"])
    c.add_argument("--profile", default="mv2gdr",
                   choices=profiles)
    c.add_argument("--describe", action="store_true",
                   help="print the fault schedule before running")
    c.add_argument("--flight", metavar="FILE", default=None,
                   help="record a flight-recorder ring and write its "
                        "post-mortem dump here when the run fails or "
                        "the watchdog escalates")

    k = sub.add_parser(
        "check",
        help="collective conformance harness (differential + invariants)")
    k.add_argument("--quick", action="store_true",
                   help="smaller randomized matrix (CI-friendly)")
    k.add_argument("--seed", type=int, default=0,
                   help="matrix generation seed")
    k.add_argument("--max-p", type=int, default=None,
                   help="drop matrix cases with more ranks than this")
    k.add_argument("--case", default=None, metavar="SPEC", type=_parse_case,
                   help="run one case (conformance or chaos cell) from "
                        "its spec string (as printed by a failing run)")
    k.add_argument("--self-test", action="store_true",
                   help="run the mutation self-test instead of the matrix: "
                        "seeded protocol bugs and disabled protections "
                        "(checksum verify, watchdog) must each be caught")
    k.add_argument("--list", action="store_true", dest="list_cases",
                   help="print the matrix without running it")
    k.add_argument("--failures-out", default=None, metavar="FILE",
                   help="write failing case specs + repro commands here")
    k.add_argument("--chaos", action="store_true",
                   help="run the chaos-conformance matrix instead: every "
                        "collective x profile x fault kind must end "
                        "exact, recovered, or typed-error — never "
                        "silent corruption, never a hang")

    sub.add_parser("table1", help="print the Table-1 feature matrix")
    sub.add_parser("networks", help="list the model zoo")
    return p


def _cmd_train(args) -> int:
    from .core import TrainConfig, Workload, train

    workload = None
    network = args.network
    if args.net_prototxt:
        from .dnn.prototxt import network_from_prototxt
        with open(args.net_prototxt) as f:
            spec = network_from_prototxt(f.read())
        workload = Workload.from_spec(spec)
        network = spec.name

    cfg = TrainConfig(network=network, dataset=args.dataset,
                      batch_size=args.batch_size,
                      iterations=args.iterations, scal=args.scal,
                      variant=args.variant,
                      reduce_design=args.reduce_design,
                      data_backend=args.backend,
                      measure_iterations=min(4, args.iterations))
    telemetry = None
    if not args.no_live:
        from .telemetry import TelemetrySession

        def status(row: dict) -> None:
            loss = (f"  loss {row['loss']:.4f}"
                    if row["loss"] is not None else "")
            print(f"  iter {row['iteration'] + 1:4d}  "
                  f"t={row['time'] * 1e3:9.2f} ms  "
                  f"{row['samples_per_second']:9.1f} samples/s{loss}")

        telemetry = TelemetrySession(live=status)
    report = train(args.framework, n_gpus=args.gpus,
                   cluster=args.cluster, config=cfg,
                   profile=args.profile, workload=workload,
                   telemetry=telemetry)
    print(report.summary())
    if report.ok:
        print(f"  time/iteration: {report.time_per_iteration * 1e3:.2f} ms")
        for phase, t in sorted(report.phase_breakdown.items()):
            print(f"  {phase:12s} {t * 1e3:9.2f} ms/iter")
        return 0
    print(f"  note: {report.notes}")
    return 1


def _cmd_metrics(args) -> int:
    import json
    import os

    from .core import TrainConfig, run_scaffe
    from .hardware import make_cluster
    from .sim import Simulator
    from .telemetry import (
        TelemetrySession, timeseries_to_csv, to_json_snapshot,
        to_prometheus,
    )

    session = TelemetrySession(scrape_interval=args.scrape_interval)

    if args.list_vars:
        # Catalogue only: bind against the target cluster/runtime so
        # the hardware PVARs and profile CVARs appear, but don't run.
        from .mpi import MPIRuntime
        from .telemetry import bind_cluster, bind_runtime
        sim = Simulator(seed=args.seed)
        cluster = make_cluster(sim, args.cluster)
        session.attach(sim)
        bind_cluster(session, cluster)
        bind_runtime(session, MPIRuntime(cluster, args.profile))
        print("# performance variables (read-only)")
        for name in session.pvar_names():
            pv = session.pvar(name)
            unit = f" [{pv.unit}]" if pv.unit else ""
            print(f"{name:28s} {pv.description}{unit}")
        print("\n# control variables (get/set)")
        for name in session.cvar_names():
            cv = session._cvars[name]
            print(f"{name:28s} {cv.description} "
                  f"(= {session.cvar_get(name)!r})")
        return 0

    for spec in args.cvar:
        name, sep, value = spec.partition("=")
        if not sep:
            print(f"bad --cvar {spec!r} (want NAME=VALUE)",
                  file=sys.stderr)
            return 2
        session.queue_cvar(name.strip(), value.strip())

    cfg = TrainConfig(network=args.network, dataset=args.dataset,
                      batch_size=args.batch_size,
                      iterations=args.iterations,
                      variant=args.variant,
                      reduce_design=args.reduce_design,
                      measure_iterations=min(4, args.iterations))
    sim = Simulator(seed=args.seed)
    cluster = make_cluster(sim, args.cluster)
    try:
        report = run_scaffe(cluster, args.gpus, cfg, profile=args.profile,
                            telemetry=session)
    except (KeyError, TypeError, ValueError) as exc:
        # Bad --cvar assignments surface when the runtime binds them.
        print(f"cvar error: {exc}", file=sys.stderr)
        return 2
    if not report.ok:
        print(f"run failed: {report.failure} ({report.notes})")
        return 1

    config = {
        "cluster": args.cluster, "gpus": args.gpus,
        "network": args.network, "batch_size": args.batch_size,
        "iterations": args.iterations, "variant": args.variant,
        "reduce_design": args.reduce_design, "profile": args.profile,
        "seed": args.seed, "scrape_interval": args.scrape_interval,
    }
    prom = to_prometheus(session.registry)
    snap = json.dumps(to_json_snapshot(session, config=config),
                      sort_keys=True, indent=2) + "\n"
    csv = timeseries_to_csv(session.samples)

    if args.out is None:
        print({"prom": prom, "json": snap, "csv": csv}
              .get(args.format, prom), end="")
        return 0
    os.makedirs(args.out, exist_ok=True)
    wanted = (("prom", "metrics.prom", prom),
              ("json", "metrics.json", snap),
              ("csv", "timeseries.csv", csv))
    for fmt, fname, text in wanted:
        if args.format not in ("all", fmt):
            continue
        path = os.path.join(args.out, fname)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    print(report.summary())
    return 0


def _parse_what_if(spec: str) -> dict:
    """Parse 'ib=2,compute=1.3' into a {class: factor} dict."""
    scales = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad what-if term {part!r} (want name=factor)")
        name, _, val = part.partition("=")
        try:
            scales[name.strip()] = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad what-if factor {val!r} for {name.strip()!r}")
    return scales


def _cmd_profile(args) -> int:
    from .core import TrainConfig, run_scaffe
    from .hardware import make_cluster
    from .obs import StragglerDetector, make_runcard, run_payload, save_run
    from .prof import SpanRecorder, save_trace
    from .sim import Simulator

    scales = _parse_what_if(args.what_if) if args.what_if else None

    cfg = TrainConfig(network=args.network, dataset=args.dataset,
                      batch_size=args.batch_size,
                      iterations=args.iterations,
                      variant=args.variant,
                      reduce_design=args.reduce_design,
                      measure_iterations=min(4, args.iterations))
    sim = Simulator() if args.seed is None else Simulator(seed=args.seed)
    cluster = make_cluster(sim, args.cluster)
    recorder = SpanRecorder(sim)
    report = run_scaffe(cluster, args.gpus, cfg, profile=args.profile,
                        recorder=recorder)
    if not report.ok:
        print(f"run failed: {report.failure} ({report.notes})")
        return 1
    prof = report.profile
    straggler = StragglerDetector(recorder).report()
    card = make_runcard(report, cfg, cluster_kind=args.cluster,
                        n_gpus=args.gpus, profile=args.profile,
                        seed=args.seed)
    if args.json_out == "-":
        print(json.dumps(run_payload(card, prof, straggler),
                         indent=2, sort_keys=True))
        return 0
    print(f"# {cfg.network} x{args.gpus} on Cluster-{args.cluster}, "
          f"{cfg.variant}/{args.reduce_design}, {args.profile}")
    print(prof.render(top=args.top))
    print(straggler.render())
    if args.json_out:
        save_run(args.json_out, card, prof, straggler)
        print(f"\nrun file written to {args.json_out} "
              f"(compare with: repro diff BASE.json {args.json_out})")
    if scales:
        base = prof.makespan
        proj = prof.what_if(scales)
        terms = ", ".join(f"{k} {v:g}x" for k, v in scales.items())
        print(f"\nwhat-if ({terms}):")
        print(f"  projected makespan {proj * 1e3:12.3f} ms "
              f"({base / proj:.2f}x speedup, lower bound)")
    if args.trace:
        save_trace(args.trace, recorder.closed_spans())
        print(f"\ntrace written to {args.trace} "
              f"(load in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_diff(args) -> int:
    from .obs import diff_runs, diff_trace_events, load_run

    try:
        base = load_run(args.base)
        cand = load_run(args.cand)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load run file: {exc}", file=sys.stderr)
        return 2
    diff = diff_runs(base, cand)
    print(diff.render(top=args.top))
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump({"traceEvents": diff_trace_events(base, cand),
                       "displayTimeUnit": "ms"}, fh)
        print(f"\ncomparison trace written to {args.trace} "
              f"(load in ui.perfetto.dev)")
    return 0


def _cmd_chaos(args) -> int:
    from .analysis import format_fault_report
    from .core import TrainConfig, run_scaffe
    from .faults import PLAN_NAMES, named_plan
    from .hardware import make_cluster
    from .sim import Simulator

    if args.list_plans:
        for name in PLAN_NAMES:
            plan = named_plan(name, seed=args.seed, horizon=1.0,
                              n_ranks=args.gpus, n_nodes=2,
                              gpus_per_node=max(1, args.gpus // 2),
                              nics_per_node=1)
            kinds = sorted({type(ev).__name__ for ev in plan.events})
            print(f"{name:12s} {len(plan):3d} events  "
                  f"{', '.join(kinds) if kinds else '(quiet)'}")
        return 0

    if args.plan not in PLAN_NAMES:
        print(f"unknown plan {args.plan!r}; choose from "
              f"{', '.join(PLAN_NAMES)}", file=sys.stderr)
        return 2

    def mkcfg(ckpt: int) -> TrainConfig:
        return TrainConfig(network=args.network,
                           batch_size=args.batch_size,
                           iterations=args.iterations,
                           variant=args.variant,
                           measure_iterations=min(4, args.iterations),
                           checkpoint_interval=ckpt)

    # Quiet probe run: estimate the horizon so the plan's fault windows
    # land inside the run rather than after it finishes.
    probe_cluster = make_cluster(Simulator(), args.cluster)
    probe = run_scaffe(probe_cluster, args.gpus, mkcfg(0),
                       profile=args.profile)
    if not probe.ok:
        print(f"probe run failed: {probe.failure} ({probe.notes})")
        return 1
    # Schedule faults over the span that is actually simulated, not the
    # extrapolated total — events past the simulated window never fire.
    horizon = probe.simulated_time or probe.total_time

    cluster = make_cluster(Simulator(), args.cluster)
    plan = named_plan(args.plan, seed=args.seed, horizon=horizon,
                      n_ranks=args.gpus,
                      n_nodes=len(cluster.nodes),
                      gpus_per_node=cluster.gpus_per_node,
                      nics_per_node=len(cluster.nodes[0].nics))
    if args.describe:
        print(plan.describe())
        print()
    recorder = flight = None
    if args.flight:
        from .obs import FlightRecorder
        from .prof import SpanRecorder
        recorder = SpanRecorder(cluster.sim)
        flight = FlightRecorder(recorder, path=args.flight)
    report = run_scaffe(cluster, args.gpus, mkcfg(args.checkpoint_interval),
                        profile=args.profile, fault_plan=plan,
                        recorder=recorder)
    if flight is not None and not report.ok and flight.dumps == 0:
        flight.dump(f"{report.failure}: {report.notes}")
    if flight is not None and flight.dumps:
        print(f"flight-recorder post-mortem written to {args.flight} "
              f"({len(flight.events)} events, {flight.dumps} dump(s))")
    print(f"plan {plan.name!r} ({len(plan)} events), "
          f"quiet baseline {probe.total_time:.2f}s")
    print(report.summary())
    if report.ok:
        overhead = report.total_time / probe.total_time - 1.0
        print(f"  overhead vs quiet: {overhead * 100:+.1f}%")
    print(format_fault_report(report.faults))
    fr = report.faults
    print("integrity digest: "
          f"mpi.integrity.corrupt_detected={fr.corrupt_detected} "
          f"mpi.integrity.retransmits={fr.retransmits} "
          f"mpi.integrity.failures={fr.integrity_failures} "
          f"mpi.integrity.silent_corruptions={fr.silent_corruptions}")
    if fr.silent_corruptions:
        # The one outcome the contract forbids outright: corrupted
        # bytes survived verification.  Louder exit than a plain fail.
        print("SILENT CORRUPTION: corrupted deliveries passed checksum "
              "verification", file=sys.stderr)
        return 2
    return 0 if report.ok else 1


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n >> 20}M"
    if n >= 1 << 10:
        return f"{n >> 10}K"
    return str(n)


def _cmd_osu(args) -> int:
    from .mpi.omb import CollPoint, time_point

    if _too_many_procs("osu", args.procs, [args.cluster]):
        return 2
    designs = args.design
    sweep = len(designs) > 1
    print(f"# MPI_Reduce, {args.procs} procs, profile={args.profile}, "
          f"design={','.join(designs)}, Cluster-{args.cluster}")
    heads = designs if sweep else ["latency"]
    print(f"{'size':>8}" + "".join(f"  {h:>14}" for h in heads)
          + ("  fastest" if sweep else ""))
    for nbytes in args.sizes:
        lat = {d: time_point(CollPoint("tuned_reduce", args.procs, nbytes,
                                       args.profile, cluster=args.cluster,
                                       knobs={"design": d}))
               for d in designs}
        row = f"{_fmt_bytes(nbytes):>8}" + "".join(
            f"  {lat[d] * 1e6:12.1f} us" for d in designs)
        # The fastest design per size; ties keep the --design order.
        print(row + (f"  {min(designs, key=lat.get)}" if sweep else ""))
    return 0


def _cmd_tune(args) -> int:
    from .tune import tables
    from .tune.search import (
        check_tables, full_plan, quick_plan, run_plan, write_tables,
    )

    plan = quick_plan() if args.quick else full_plan()
    print(f"# repro tune: {'quick' if args.quick else 'full'} plan, "
          f"{len(plan)} points, objective={args.objective}")
    tuned = run_plan(plan, args.objective, log=print)
    out_dir = args.out or tables.tables_dir()
    if args.check:
        problems = check_tables(tuned, out_dir)
        if problems:
            for p in problems:
                print(f"DRIFT: {p}")
            return 1
        n = sum(len(t.entries) for t in tuned.values())
        print(f"tables OK: {len(tuned)} tables ({n} entries) "
              f"byte-identical to {out_dir}")
        return 0
    written = write_tables(tuned, out_dir)
    tables.invalidate_cache()
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_crossover(args) -> int:
    from .analysis import crossover_report, sweep
    from .analysis.report import format_bytes, format_time

    if _too_many_procs("crossover", max(args.procs), args.clusters):
        return 2
    progress = None
    if args.progress:
        def progress(pt):
            print(f"  {pt.collective} Cluster-{pt.cluster} P={pt.P} "
                  f"{format_bytes(pt.nbytes)}: {pt.winner_label()} "
                  f"({format_time(pt.latency[pt.winner])})")

    points = sweep(collectives=args.collectives, clusters=args.clusters,
                   procs=args.procs, sizes=args.sizes,
                   backends=args.backends or (), progress=progress)
    print(crossover_report(points))
    return 0


def _cmd_check(args) -> int:
    from .check import (
        chaos_outcome_tally, generate_chaos_matrix, generate_matrix,
        run_case, run_matrix, run_mutation_selftest,
    )

    if args.self_test:
        outcomes = run_mutation_selftest()
        for o in outcomes:
            print(o.describe())
        ok = all(o.detected and o.clean_ok for o in outcomes)
        print(f"self-test: {sum(o.detected for o in outcomes)}/"
              f"{len(outcomes)} mutations detected")
        return 0 if ok else 1

    if args.case is not None:
        result = run_case(args.case)
        print(result.describe())
        if result.detail:
            print(f"    {result.detail}")
        for k, v in sorted(result.counters.items()):
            print(f"    {k}={v}")
        print(f"sim_time={result.sim_time:.6f}s events={result.n_events}")
        return 0 if result.ok else 1

    if args.chaos:
        cases = generate_chaos_matrix(args.seed, quick=args.quick)
    else:
        cases = generate_matrix(args.seed, quick=args.quick,
                                max_p=args.max_p)
    if args.list_cases:
        for c in cases:
            print(c.spec())
        return 0

    results = run_matrix(cases, progress=lambda r: print(r.describe()))
    failures = [r for r in results if not r.ok]
    print(f"\nconformance: {len(results) - len(failures)}/{len(results)} "
          f"cases pass (seed {args.seed})  " + "  ".join(
              f"{k}={v}" for k, v in chaos_outcome_tally(results).items()))
    if failures and args.failures_out:
        with open(args.failures_out, "w") as fh:
            for r in failures:
                fh.write(r.describe() + "\n")
        print(f"failing-case repro commands written to {args.failures_out}")
    return 1 if failures else 0


def _cmd_table1(_args) -> int:
    from .core import table1_rows

    rows = table1_rows()
    cols = list(rows[0].keys())
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in cols}
    print(" | ".join(c.ljust(widths[c]) for c in cols))
    print("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        print(" | ".join(r[c].ljust(widths[c]) for c in cols))
    return 0


def _cmd_networks(_args) -> int:
    from .dnn import NETWORK_BUILDERS, get_network

    print(f"{'network':16} {'params':>10} {'bytes':>10} "
          f"{'GFLOP/sample':>13} {'layers':>7} {'weighted':>9}")
    for name in sorted(NETWORK_BUILDERS):
        net = get_network(name)
        print(f"{name:16} {net.param_count / 1e6:9.2f}M "
              f"{net.param_bytes / (1 << 20):8.1f}Mi "
              f"{net.fwd_flops_per_sample / 1e9:13.3f} "
              f"{len(net.layers):7d} "
              f"{len(net.parametrized_layers()):9d}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "metrics": _cmd_metrics,
        "profile": _cmd_profile,
        "diff": _cmd_diff,
        "chaos": _cmd_chaos,
        "osu": _cmd_osu,
        "tune": _cmd_tune,
        "crossover": _cmd_crossover,
        "check": _cmd_check,
        "table1": _cmd_table1,
        "networks": _cmd_networks,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
