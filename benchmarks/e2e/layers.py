"""Per-layer measurement from outside the program.

Two instruments, both used only by the benchmark's child processes:

- :func:`self_time_by_layer` buckets a ``cProfile`` run's self time
  (``tottime``) by stack layer.  A layer is named after the modules it
  covers (:data:`LAYERS`); everything outside ``src/repro`` -- builtins,
  the standard library, NumPy and the benchmark's own code -- is
  :data:`PYTHON`.
- :class:`Hooks` wraps a few class methods to count work at layer
  boundaries.  Every wrapper calls straight through and returns what the
  wrapped callable returns (for a generator method: the generator
  itself), so a hooked run schedules the same simulated events; leaving
  the context puts the original class attributes back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> the paths under ``src/repro`` it covers.  An entry that
#: ends in "/" covers a directory; any other entry is one file.  Every
#: ``src/repro/**/*.py`` matches exactly one entry (``test_e2e.py``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel": ("sim/__init__.py", "sim/core.py", "sim/sync.py"),
    "sim.resources": ("sim/resources.py",),
    "sim.trace": ("sim/trace.py",),
    "mpi.pt2pt": ("mpi/communicator.py", "mpi/request.py"),
    "mpi.transport": ("mpi/transport.py",),
    "mpi.collectives": ("mpi/collectives/", "mpi/omb.py"),
    "mpi.runtime": ("mpi/__init__.py", "mpi/runtime.py", "mpi/profiles.py",
                    "mpi/failure.py", "mpi/watchdog.py", "mpi/rma.py"),
    "nccl": ("nccl/",),
    "hardware": ("hardware/",),
    "cuda": ("cuda/",),
    "core": ("core/",),
    "io": ("io/",),
    "dnn": ("dnn/",),
    "tune": ("tune/",),
    "prof": ("prof/",),
    "telemetry": ("telemetry/",),
    "obs": ("obs/",),
    "repro.other": ("__init__.py", "cli.py", "faults/", "check/",
                    "analysis/"),
}

#: Self time spent outside ``src/repro``.
PYTHON = "python"

#: Every bucket of the ledger, in report order.
BUCKETS = tuple(LAYERS) + (PYTHON,)


def layers_of(rel: str) -> List[str]:
    """Every layer whose entries match ``rel`` (a path relative to
    ``src/repro``, with "/" separators)."""
    return [name for name, entries in LAYERS.items()
            if any(rel.startswith(e) if e.endswith("/") else rel == e
                   for e in entries)]


class LayerMap:
    """Source file name -> layer, for files as Python names them."""

    def __init__(self, src_dir: str):
        self._prefix = os.path.join(os.path.realpath(src_dir), "repro", "")
        self._cache: Dict[str, str] = {}
        #: ``src/repro`` files no layer covers (ledgered as repro.other).
        self.unmapped: set = set()

    def __call__(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._cache[filename] = self._lookup(filename)
        return layer

    def _lookup(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if not path.startswith(self._prefix):
            return PYTHON
        rel = path[len(self._prefix):].replace(os.sep, "/")
        found = layers_of(rel)
        if not found:
            self.unmapped.add(rel)
            return "repro.other"
        return found[0]


def self_time_by_layer(stats: dict, layer_map: LayerMap) -> Dict[str, float]:
    """Sum cProfile ``tottime`` per layer.

    ``stats`` is ``pstats.Stats(profile).stats``: (file, line, function)
    -> (primitive calls, calls, tottime, cumtime, callers).
    """
    out = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) \
            in stats.items():
        out[layer_map(filename)] += tottime
    return out


_MISSING = object()


class Hooks:
    """Counting wrappers installed for the duration of one pass.

    Simulator construction is always recorded, so :meth:`drain_events`
    can read the event count of every universe an item built -- also the
    ones built inside library calls such as ``time_backend``.  With
    ``counting=True`` the layer-boundary counters below are installed
    too; they are meant for the traced pass only.
    """

    def __init__(self, counting: bool = False):
        self.counting = counting
        self.counts: Counter = Counter()
        #: Wall seconds spent building universes (cluster, runtime, world).
        self.universe_s = 0.0
        self._sims: list = []
        self._saved: list = []

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "Hooks":
        sims = self._sims

        def register(orig):
            def __init__(sim, *args, **kwargs):
                orig(sim, *args, **kwargs)
                sims.append(sim)
            return __init__

        self._patch("repro.sim.core", "Simulator", "__init__", register)
        if self.counting:
            self._install_counters()
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            target, attr, prev = self._saved.pop()
            if prev is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, prev)

    def drain_events(self) -> int:
        """Events processed by the simulators built since the last call."""
        n = sum(sim.event_count for sim in self._sims)
        self._sims.clear()
        return n

    # -- the counters ----------------------------------------------------------
    def _install_counters(self) -> None:
        counts = self.counts

        def count(name: str):
            def make(orig):
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return orig(*args, **kwargs)
                return wrapper
            return make

        def transfer(orig):
            def wrapper(tr, src, dst, nbytes=None, **kwargs):
                counts["count.mpi.transfer"] += 1
                counts["bytes.mpi.transfer"] += (
                    min(src.nbytes - kwargs.get("src_offset", 0),
                        dst.nbytes - kwargs.get("dst_offset", 0))
                    if nbytes is None else nbytes)
                return orig(tr, src, dst, nbytes, **kwargs)
            return wrapper

        def train(orig):
            # Called once per batched train the transport posts, with one
            # column of stage occupancies per chunk.
            def wrapper(overheads, occupancies, *args, **kwargs):
                counts["count.link.train"] += 1
                counts["chunks.batched"] += len(occupancies[0])
                return orig(overheads, occupancies, *args, **kwargs)
            return wrapper

        def per_chunk(orig):
            def wrapper(tr, stages, chunks, *args, **kwargs):
                counts["chunks.per_chunk"] += len(chunks)
                return orig(tr, stages, chunks, *args, **kwargs)
            return wrapper

        def timed(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.universe_s += time.perf_counter() - t0
            return wrapper

        def universe(orig):
            return count("count.universe")(timed(orig))

        for module, owner, attr, make in (
                ("repro.sim.core", "Simulator", "process",
                 count("count.sim.processes")),
                ("repro.mpi.communicator", "Communicator", "isend",
                 count("count.mpi.isend")),
                ("repro.mpi.transport", "DeviceTransport", "transfer",
                 transfer),
                ("repro.mpi.transport", None, "pipeline_exit_times", train),
                ("repro.mpi.transport", "DeviceTransport", "_staged_pipeline",
                 per_chunk),
                ("repro.sim.resources", "BandwidthLink", "transfer",
                 count("count.link.transfer")),
                ("repro.cuda.runtime", "CudaRuntime", "launch",
                 count("count.cuda.launch")),
                ("repro.io.datalayer", "DataLayer", "next_batch",
                 count("count.io.next_batch")),
                ("repro.hardware.cluster", "Cluster", "__init__", universe),
                ("repro.mpi.runtime", "MPIRuntime", "__init__", timed),
                ("repro.mpi.runtime", "MPIRuntime", "world", timed)):
            self._patch(module, owner, attr, make)

    def _patch(self, module: str, owner: Optional[str], attr: str,
               make: Callable) -> None:
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            orig = getattr(target, attr)
        except (ImportError, AttributeError):
            # A refactor moved the hook point: the benchmark still runs,
            # and the counter it fed reads 0.
            print(f"e2e: hook point {module}:{owner}.{attr} not found",
                  file=sys.stderr)
            return
        self._saved.append((target, attr,
                            vars(target).get(attr, _MISSING)))
        setattr(target, attr, functools.wraps(orig)(make(orig)))
