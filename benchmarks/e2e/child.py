"""One child process of the end-to-end benchmark.

Usage: ``python child.py MODE WORKLOAD SEED SPAWN_TIME``, where MODE is

- ``probe``: set up (import the library, build the workload's first
  universe) and exit;
- ``check``: set up, then run the workload's correctness checks;
- ``pass``: set up, then run one untraced pass over the items;
- ``traced``: set up, then run one pass under cProfile with the
  counting hooks installed.

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and the first
universe.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def run_items(items, hooks) -> list:
    """Run ``items`` back to back; an item that raises is recorded as
    failed and the pass continues."""
    results = []
    for item in items:
        t0 = time.perf_counter()
        try:
            digest, error = item.run(), None
        except Exception as exc:
            digest, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        results.append({"name": item.name, "wall_s": wall, "error": error,
                        "events": hooks.drain_events(), "sim": digest})
    return results


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> dict:
    mode, workload, seed, spawn_time = (argv[0], argv[1], int(argv[2]),
                                        float(argv[3]))
    sys.path.insert(0, SRC)
    import workloads
    from layers import Hooks, LayerMap, self_time_by_layer

    wl = workloads.WORKLOADS[workload]
    workloads.build_universe(*wl.universe, seed)
    out = {"setup_s": time.time() - spawn_time}
    if mode == "probe":
        return out
    if mode == "check":
        with Hooks() as hooks:
            out["items"] = run_items(wl.checks(seed), hooks)
        return out

    items = wl.items(seed)
    traced = mode == "traced"
    profile = cProfile.Profile() if traced else None
    with Hooks(counting=traced) as hooks:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        if traced:
            profile.enable()
        out["items"] = run_items(items, hooks)
        if traced:
            profile.disable()
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = _cpu_s() - cpu0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if traced:
        layer_map = LayerMap(SRC)
        out["self_s"] = self_time_by_layer(pstats.Stats(profile).stats,
                                           layer_map)
        out["unmapped"] = sorted(layer_map.unmapped)
        out["counts"] = dict(hooks.counts)
        out["universe_s"] = hooks.universe_s
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
