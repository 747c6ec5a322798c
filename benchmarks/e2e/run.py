#!/usr/bin/env python
"""End-to-end benchmark: host and simulated clocks, end to end and by layer.

Usage::

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--repeat N | --seconds S] [--trace 0|1] [--out FILE]
    python benchmarks/e2e/run.py --compare BASE.json CAND.json

For each workload (all of ``BENCHMARK.json`` by default) it

1. runs the workload's correctness checks in a child process;
2. starts a few set-up probes, then runs untraced passes, each in a
   fresh child process, one after another (``--repeat`` passes, or as
   many as fit in ``--seconds``, at least three);
3. with ``--trace 1``, runs one more pass under cProfile with the
   counting hooks of ``layers.py``.

It prints every metric with its unit and quartiles, and as the last line
one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), named and unit-tagged as in ``BENCHMARK.json``.
``--out`` also writes every sample to a results file, and ``--compare``
judges two such files metric by metric.  The library is imported from
``src/`` next to this directory; this process never imports it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import BUCKETS
from stats import geomean, median, percentile, quartiles, spread, verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
RESULTS_FORMAT = "repro.bench.e2e/1"

#: Set-up-only children per workload run; with the pass children they
#: give the set-up samples whose median is ``setup_s``.
SETUP_PROBES = 3
#: Under ``--seconds``, passes start while the next one is expected to
#: end within the window, but at least this many run, so the median
#: can drop one disturbed pass.
MIN_PASSES = 3
#: Wall budget of one workload run under ``--seconds``: the run must end
#: within 180 s, so children are cut off before that.
SECONDS_MODE_LIMIT_S = 170.0
#: Per-child timeout under ``--repeat``.
CHILD_TIMEOUT_S = 600.0
#: Children run single-threaded with a fixed hash seed, so passes are
#: alike and two of them never share the host's cores.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PHASES = ("propagation", "fwd", "bwd", "aggregation", "update")
CP_PHASES = PHASES + ("wait", "other")
CP_CLASSES = ("compute", "pcie", "ib", "host", "cpu", "gpu_mem", "overhead",
              "sync", "wait", "other")
COUNTS = ("count.sim.processes", "count.mpi.isend", "count.mpi.transfer",
          "bytes.mpi.transfer", "count.link.transfer", "count.link.train",
          "count.cuda.launch", "count.io.next_batch", "count.universe")
#: Per-layer metrics that repeat exactly; ``--compare`` checks equality.
EXACT_PREFIXES = ("count.", "bytes.", "ratio.", "sim.")


class ChildFailed(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- children ----------------------------------------------------------------------

def spawn(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [sys.executable, CHILD, mode, workload, str(seed),
           repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **CHILD_ENV})
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} child timed out after {timeout:.0f} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{mode} child printed no result")


class Tally:
    """Attempted and failed operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.errors: List[str] = []

    def items(self, results: list, where: str) -> None:
        self.attempted += len(results)
        self.errors += [f"{where}: {r['name']}: {r['error']}"
                        for r in results if r["error"]]

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def _digest(result: dict) -> list:
    return [(i["name"], i["sim"], i["events"]) for i in result["items"]]


def run_workload(name: str, seed: int, *, repeat: int,
                 seconds: Optional[float], trace: bool) -> dict:
    """Checks, probes, passes and the traced pass of one workload."""
    start = time.monotonic()
    limit = SECONDS_MODE_LIMIT_S if seconds else None
    tally = Tally()

    def child(mode: str) -> Optional[dict]:
        timeout = (CHILD_TIMEOUT_S if limit is None
                   else limit - (time.monotonic() - start))
        try:
            return spawn(mode, name, seed, timeout)
        except ChildFailed as exc:
            tally.check(False, str(exc))
            return None

    checks = child("check")
    if checks is not None:
        tally.items(checks["items"], "check")
    probes = [p for p in (child("probe") for _ in range(SETUP_PROBES)) if p]

    passes: List[dict] = []
    spent: List[float] = []
    t_measure = time.monotonic()

    def more() -> bool:
        if not seconds:
            return len(spent) < repeat
        return len(spent) < MIN_PASSES or (
            time.monotonic() - t_measure + median(spent) <= seconds)

    while more():
        t0 = time.monotonic()
        result = child("pass")
        spent.append(time.monotonic() - t0)
        if result is not None:
            tally.items(result["items"], f"pass {len(spent)}")
            passes.append(result)
    traced = child("traced") if trace else None
    if traced is not None:
        tally.items(traced["items"], "traced pass")
        if traced["unmapped"]:
            tally.check(False, "files outside every layer: "
                        + ", ".join(traced["unmapped"]))

    # Simulated results and event counts repeat bit-for-bit.
    if passes:
        ref = _digest(passes[0])
        others = passes[1:] + ([traced] if traced else [])
        for i, other in enumerate(others, 2):
            tally.check(_digest(other) == ref,
                        f"pass {i if other is not traced else 'traced'}: "
                        "simulated results differ from pass 1")

    record = {"workload": name, "seed": seed, "passes": len(passes),
              "attempted": tally.attempted, "failed": len(tally.errors),
              "errors": tally.errors}
    record["correct"] = not tally.errors
    setups = [c["setup_s"] for c in probes + passes]
    record["end_to_end"] = {
        metric: _summary(samples)
        for metric, samples in end_to_end_samples(passes, setups).items()}
    if traced is not None and passes:
        record["per_layer"] = per_layer(traced, passes)
    return record


# -- metrics -------------------------------------------------------------------------

def end_to_end_samples(passes: List[dict],
                       setups: List[float]) -> Dict[str, List[float]]:
    """One sample per untraced pass (set-up: per child)."""
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def _summary(samples: List[float]) -> dict:
    if not samples:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "samples": []}
    q1, q3 = quartiles(samples)
    return {"median": median(samples), "q1": q1, "q3": q3,
            "samples": samples}


def per_layer(traced: dict, passes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of the traced pass, plus the item latencies of
    the untraced passes (pooled) and the ratios that need both."""
    self_s = traced["self_s"]
    total = sum(self_s.values())
    m = {f"share.{layer}": 100.0 * self_s[layer] / total
         for layer in BUCKETS}
    m["self_s.total"] = total
    item_ms = [i["wall_s"] * 1e3 for p in passes for i in p["items"]]
    m["item_ms_p50"] = percentile(item_ms, 50)
    m["item_ms_p90"] = percentile(item_ms, 90)
    untraced_wall = median([p["wall_s"] for p in passes])
    m["trace_overhead"] = traced["wall_s"] / untraced_wall
    events = sum(i["events"] for i in traced["items"])
    m["us_per_event"] = untraced_wall / events * 1e6 if events else 0.0
    m["count.sim.events"] = events
    counts = traced["counts"]
    m.update((k, counts.get(k, 0)) for k in COUNTS)
    batched = counts.get("chunks.batched", 0)
    staged = batched + counts.get("chunks.per_chunk", 0)
    m["ratio.link.batched"] = batched / staged if staged else 0.0
    m["ms.universe_build"] = traced["universe_s"] * 1e3
    m.update(sim_metrics([(i["name"], i["sim"]) for i in traced["items"]
                          if i["sim"] is not None]))
    return m


def sim_metrics(items: List[tuple]) -> Dict[str, float]:
    """Simulated-clock metrics from item digests: shares of the largest
    training point's iteration and critical path, and headline rates."""
    runs = [(n, d) for n, d in items if "samples_per_s" in d]
    m: Dict[str, float] = {}

    top = max((d for _, d in runs), key=lambda d: d["n_gpus"], default=None)
    for p in PHASES:
        m[f"sim.phase.{p}"] = (top["phases"].get(p, 0.0) / top["iteration_s"]
                               if top else 0.0)
    m["sim.io_stall"] = top["io_stall_s"] / top["iteration_s"] if top else 0.0

    observed = [d for _, d in runs if "profile" in d]
    cp = max(observed, key=lambda d: d["n_gpus"],
             default={"profile": None})["profile"]
    for prefix, keys, split in (("phase", CP_PHASES, "by_phase"),
                                ("class", CP_CLASSES, "by_class")):
        shares = dict.fromkeys(keys, 0.0)
        for key, t in (cp[split].items() if cp else ()):
            key = "wait" if key == "(wait)" else key
            shares[key if key in shares else "other"] += t / cp["cp_length"]
        m.update((f"sim.cp.{prefix}.{k}", v) for k, v in shares.items())
    m["count.prof.spans"] = sum(d["profile"]["n_spans"] for d in observed)

    m["sim.samples_per_s"] = geomean([d["samples_per_s"] for _, d in runs])
    series = [(n.rsplit("/", 1)[0], d) for n, d in runs
              if d["framework"] == "scaffe"]
    first = [d for s, d in series if s == series[0][0]] if series else []
    if len(first) > 1:
        lo = min(first, key=lambda d: d["n_gpus"])
        hi = max(first, key=lambda d: d["n_gpus"])
        m["sim.scaling_eff"] = ((hi["samples_per_s"] / hi["n_gpus"])
                                / (lo["samples_per_s"] / lo["n_gpus"]))
    else:
        m["sim.scaling_eff"] = 0.0
    m["sim.coll_rate"] = geomean([d["nbytes"] / d["latency_s"] / 1e9
                                  for _, d in items if "latency_s" in d])
    return m


# -- output --------------------------------------------------------------------------

def contract_line(record: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line: the metrics named in BENCHMARK.json."""
    if trace:
        values = record.get("per_layer", {})
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]
                               ["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def render(record: dict, spec: dict) -> str:
    e2e = record["end_to_end"]
    lines = [f"== {record['workload']} (seed {record['seed']}): "
             f"{record['passes']} untraced passes, "
             f"{len(e2e['setup_s']['samples'])} set-ups ==",
             f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>7s}  unit"]
    for m in spec["end_to_end"]:
        s = e2e[m["name"]]
        sp = spread(s["samples"]) if s["samples"] else 0.0
        lines.append(f"  {m['name']:24s} {s['median']:12.4f} "
                     f"{s['q1']:12.4f} {s['q3']:12.4f} {sp * 100:6.1f}%  "
                     f"{m['unit']}")
    if "per_layer" in record:
        lines.append("  per layer (one traced pass):")
        for m in spec["per_layer"]:
            lines.append(f"  {m['name']:24s} "
                         f"{record['per_layer'][m['name']]:12.6g}  "
                         f"{m['unit']}")
    lines.append(f"  checks: {record['attempted'] - record['failed']}/"
                 f"{record['attempted']} passed")
    lines += [f"  FAILED {e}" for e in record["errors"]]
    return "\n".join(lines)


def compare(base_path: str, cand_path: str, spec: dict) -> int:
    """One row per (workload, metric); returns 1 if any metric is worse."""
    with open(base_path) as f:
        base = {r["workload"]: r for r in json.load(f)["runs"]}
    with open(cand_path) as f:
        cand = {r["workload"]: r for r in json.load(f)["runs"]}
    print(f"{'workload':18s} {'metric':26s} {'base [q1, q3]':>34s} "
          f"{'cand [q1, q3]':>34s} {'delta':>8s}  verdict")
    worse = False
    for wl in (w["name"] for w in spec["workloads"]):
        if wl not in base or wl not in cand:
            continue
        b, c = base[wl], cand[wl]
        for m in spec["end_to_end"]:
            bs, cs = b["end_to_end"][m["name"]], c["end_to_end"][m["name"]]
            v = (verdict(bs["samples"], cs["samples"], m["bound"],
                         m["better"]) if bs["samples"] and cs["samples"]
                 else "unresolved")
            worse |= v == "worse"
            print(f"{wl:18s} {m['name']:26s} {_cell(bs):>34s} "
                  f"{_cell(cs):>34s} {_delta(bs['median'], cs['median'])}"
                  f"  {v}")
        bl, cl = b.get("per_layer"), c.get("per_layer")
        if bl is None or cl is None:
            continue
        for m in spec["per_layer"]:
            bv, cv = bl[m["name"]], cl[m["name"]]
            v = (("same" if bv == cv else "differs")
                 if m["name"].startswith(EXACT_PREFIXES) else "-")
            print(f"{wl:18s} {m['name']:26s} {bv:>34.6g} {cv:>34.6g} "
                  f"{_delta(bv, cv)}  {v}")
    return 1 if worse else 0


def _cell(s: dict) -> str:
    return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"


def _delta(b: float, c: float) -> str:
    return f"{(c - b) / b * 100:+7.2f}%" if b else f"{'-':>8s}"


def host() -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(), "cpus": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=5,
                    help="untraced passes per workload")
    ap.add_argument("--seconds", type=float,
                    help="run untraced passes for about this many seconds, "
                         "at least three (instead of --repeat)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="run the traced pass and report per-layer "
                         "metrics (default 1)")
    ap.add_argument("--out", help="write all samples to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"),
                    help="compare two --out files and exit")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"e2e: no library sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    records = []
    for name in names:
        record = run_workload(name, args.seed, repeat=args.repeat,
                              seconds=args.seconds, trace=bool(args.trace))
        records.append(record)
        print(render(record, spec))
        print(json.dumps(contract_line(record, spec, bool(args.trace))),
              flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"format": RESULTS_FORMAT, "host": host(),
                       "runs": records}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
