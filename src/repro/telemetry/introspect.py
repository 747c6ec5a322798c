"""MPI_T-style runtime introspection: PVARs, CVARs, and the session.

The real MVAPICH2-GDR runtime the paper co-designs against exposes its
internals through the MPI Tool Information Interface (MPI_T):
*performance variables* (PVARs — read-only counters/watermarks the
runtime maintains) and *control variables* (CVARs — named tunables a
tool can get/set).  This module is the simulated equivalent:

- a :class:`PerfVar` is a named read-only view over the metrics
  registry or live runtime state (bytes by transfer path, bytes per
  collective algorithm, queue high-watermarks, tag-block occupancy,
  link busy time, device-memory peaks, ...);
- a :class:`CtrlVar` is a named, validated knob over the runtime
  profile (pipeline chunk, eager/GDR thresholds, chain size k, flat
  algorithm selection, pipeline window);
- a :class:`TelemetrySession` owns both namespaces, receives the
  instrumentation hook calls from the runtime, and samples the PVARs
  into a time-series on *simulated* time.

Zero-overhead discipline (same contract as ``sim.recorder`` and
``sim.checker``): a session is strictly passive — hooks never touch the
event heap, and sampling happens inside :meth:`Simulator.step` after an
event's callbacks, so an instrumented run is event-for-event identical
to a bare one, and ``sim.telemetry = None`` (the default) costs one
attribute load per hook site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["PerfVar", "CtrlVar", "CvarBackendError", "TelemetrySession"]


class CvarBackendError(TypeError):
    """A backend-specific CVAR was addressed on a runtime bound to a
    different backend (e.g. ``nccl.tree_threshold`` on ``mv2gdr``).

    Historically this either fell through as a generic "no cvar named"
    KeyError (indistinguishable from a typo) or — after a profile
    hot-swap — surfaced as a cryptic ``dataclasses.replace`` failure.
    The auto-tuner must fail loudly on a mis-targeted knob, so it gets
    a dedicated type.  Subclasses TypeError: writing a knob the bound
    backend cannot represent is a type-level mistake, and existing
    ``except (KeyError, TypeError, ValueError)`` cvar handling (the CLI,
    the tuner) keeps working unchanged.
    """

    def __init__(self, name: str, wanted_backend: str,
                 bound_backend: Optional[str] = None):
        self.cvar = name
        self.wanted_backend = wanted_backend
        self.bound_backend = bound_backend
        bound = (f"bound to {bound_backend!r}" if bound_backend
                 else "bound to a backend that does not register it")
        super().__init__(
            f"cvar {name!r} targets the {wanted_backend!r} backend, but "
            f"this runtime is {bound}")


@dataclass(frozen=True)
class PerfVar:
    """A read-only performance variable (MPI_T pvar equivalent).

    ``read()`` returns a number, or a ``{label: value}`` dict when
    ``labeled``.  ``timeseries`` marks the variable for inclusion in
    scrape rows (per-link hardware pvars opt out to keep the CSV
    narrow; they still appear in Prometheus/JSON exports).
    """

    name: str
    description: str
    unit: str
    read: Callable[[], Any]
    labeled: bool = False
    timeseries: bool = True


@dataclass(frozen=True)
class CtrlVar:
    """A settable control variable (MPI_T cvar equivalent)."""

    name: str
    description: str
    ctype: type
    get: Callable[[], Any]
    set: Callable[[Any], None]
    #: Allowed values for string cvars (None = unrestricted).
    choices: Optional[Tuple[str, ...]] = None
    #: Inclusive lower bound for numeric cvars (None = unbounded).
    minimum: Optional[int] = None


class TelemetrySession:
    """One introspection session over a simulated run.

    Lifecycle::

        session = TelemetrySession(scrape_interval=0.05)
        session.attach(sim)        # bind to the simulator's registry
        session.install()          # sim.telemetry = session
        ... run the workload ...
        session.uninstall()
        session.finalize(sim.now)  # final scrape row

    Instrumentation sites call the ``on_*`` hooks through
    ``sim.telemetry`` (duck-typed, no imports), so this module stays
    out of the runtime's dependency graph.
    """

    def __init__(self, scrape_interval: Optional[float] = None,
                 live: Optional[Callable[[dict], None]] = None):
        if scrape_interval is not None and scrape_interval <= 0:
            raise ValueError("scrape_interval must be > 0")
        self.scrape_interval = scrape_interval
        #: Per-iteration live-status callback (``repro train``).
        self.live = live
        self.sim = None
        self.registry = None
        self._pvars: Dict[str, PerfVar] = {}
        self._cvars: Dict[str, CtrlVar] = {}
        #: CVAR assignments queued before a runtime exists; applied by
        #: ``bind_runtime`` once the cvars are registered.
        self.pending_cvars: Dict[str, str] = {}
        #: Catalogue of *known* backend-specific cvar names -> owning
        #: backend, populated unconditionally by ``bind_runtime`` so a
        #: mis-targeted write raises :class:`CvarBackendError` instead
        #: of an unknown-name KeyError.
        self._backend_cvars: Dict[str, str] = {}
        #: Scrape rows: ``{"time": t, pvar: value, ...}`` in time order.
        self.samples: List[Dict[str, Any]] = []
        #: Simulated time of the next scheduled scrape (checked by
        #: ``Simulator.step``; ``inf`` disables sampling).
        self.next_scrape_at = float("inf")
        # -- attribution state -------------------------------------------
        #: comm.id -> {tag unit -> collective name} (mirrors the
        #: reservation ledger the invariant checker keeps).
        self._ledgers: Dict[int, Dict[int, str]] = {}
        #: (comm.id, seq) pairs already counted as invocations.
        self._seen_seqs: set = set()
        self._last_iter_end = 0.0
        self._t0 = 0.0

    # -- lifecycle -----------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind to ``sim``'s metrics registry and create the core
        metric families + PVARs (idempotent per session)."""
        if self.sim is not None:
            raise RuntimeError("session already attached")
        self.sim = sim
        self.registry = reg = sim.metrics
        self._t0 = sim.now
        # Tag-space constants for the attribution hooks, bound once here
        # (a module-level import would close the sim -> telemetry -> mpi
        # import cycle).
        from ..mpi.collectives.base import COLL_TAG_BASE, TAG_BLOCK
        self._coll_tag_base = COLL_TAG_BASE
        self._tag_block = TAG_BLOCK
        if self.scrape_interval is not None:
            self.next_scrape_at = self._grid_after(sim.now)

        # Metric families written by the hooks.  get-or-create: the
        # transport counters may already exist (TransportMetrics is
        # registry-backed whether or not a session is installed).
        self._coll_bytes = reg.counter(
            "mpi.coll.bytes", "payload bytes sent per collective "
            "algorithm", "bytes", labelnames=("coll",))
        self._coll_msgs = reg.counter(
            "mpi.coll.messages", "messages sent per collective algorithm",
            "messages", labelnames=("coll",))
        self._coll_invocations = reg.counter(
            "mpi.coll.invocations", "collective invocations per algorithm "
            "(counted once per communicator-wide call)", "calls",
            labelnames=("coll",))
        self._pt2pt_bytes = reg.counter(
            "mpi.pt2pt.bytes", "payload bytes sent with user (non-"
            "collective) tags", "bytes")
        self._pt2pt_msgs = reg.counter(
            "mpi.pt2pt.messages", "messages sent with user tags",
            "messages")
        self._queue_hwm = reg.gauge(
            "mpi.queue.hwm", "unexpected/posted receive queue depth "
            "high-watermark (any rank)", "messages", labelnames=("queue",))
        self._tag_units_hwm = reg.gauge(
            "mpi.tag_units.hwm", "tag-block units reserved on the "
            "busiest communicator (occupancy high-watermark)", "units")
        self._path_bytes = reg.counter(
            "transport.path.bytes", "bytes moved per transfer mechanism "
            "(retried attempts re-count: wire traffic, not goodput)",
            "bytes", labelnames=("path",))
        self._path_msgs = reg.counter(
            "transport.path.messages", "transfer attempts per mechanism",
            "messages", labelnames=("path",))
        self._cuda_bytes = reg.counter(
            "cuda.copy.bytes", "bytes through cudaMemcpy by kind",
            "bytes", labelnames=("kind",))
        self._cuda_ops = reg.counter(
            "cuda.copy.ops", "cudaMemcpy calls by kind", "calls",
            labelnames=("kind",))
        self._iters = reg.counter(
            "train.iterations", "training iterations completed (root "
            "solver)", "iterations")
        self._samples_c = reg.counter(
            "train.samples", "samples consumed across all solvers",
            "samples")
        self._loss = reg.gauge(
            "train.loss", "last training loss (payload-mode runs only)")
        self._iter_time = reg.histogram(
            "train.iteration_time", "per-iteration simulated wall-clock",
            "seconds")
        # nccl backend meters (written by repro.nccl.collectives on
        # first use; pre-created here so the PVARs read 0 on MPI-only
        # runs — labelnames must agree with the writer side).
        self._nccl_hops = reg.counter(
            "nccl.ring.hops",
            "pt2pt hops performed by nccl ring collectives", "messages")
        self._nccl_path_bytes = reg.counter(
            "nccl.path.bytes",
            "payload bytes moved by the nccl backend per algorithm path",
            "bytes", labelnames=("path",))
        self._nccl_tree_depth = reg.gauge(
            "nccl.tree.depth",
            "deepest double-binary tree driven by nccl tree collectives",
            "hops")

        for pv in self._core_pvars():
            self.register_pvar(pv)

    def install(self) -> None:
        """Activate the hook sites (``sim.telemetry = self``)."""
        if self.sim is None:
            raise RuntimeError("attach(sim) before install()")
        if self.sim.telemetry is not None:
            raise RuntimeError("simulator already has a telemetry session")
        self.sim.telemetry = self

    def uninstall(self) -> None:
        if self.sim is not None and self.sim.telemetry is self:
            self.sim.telemetry = None

    def finalize(self, now: float) -> None:
        """Record the end-of-run scrape row (idempotent per instant)."""
        if self.samples and self.samples[-1]["time"] == now:
            return
        self._record_row(now)

    # -- variable namespaces --------------------------------------------------
    def register_pvar(self, pv: PerfVar) -> None:
        if pv.name in self._pvars:
            raise ValueError(f"pvar {pv.name!r} already registered")
        self._pvars[pv.name] = pv

    def register_cvar(self, cv: CtrlVar) -> None:
        if cv.name in self._cvars:
            raise ValueError(f"cvar {cv.name!r} already registered")
        self._cvars[cv.name] = cv

    def pvar_names(self) -> List[str]:
        return list(self._pvars)

    def cvar_names(self) -> List[str]:
        return list(self._cvars)

    def pvar(self, name: str) -> PerfVar:
        try:
            return self._pvars[name]
        except KeyError:
            raise KeyError(f"no pvar named {name!r}") from None

    def pvar_read(self, name: str) -> Any:
        return self.pvar(name).read()

    def pvar_snapshot(self) -> Dict[str, Any]:
        """All PVAR values, labeled ones as nested dicts."""
        return {name: pv.read() for name, pv in self._pvars.items()}

    def note_backend_cvar(self, name: str, backend: str) -> None:
        """Record that ``name`` is a backend-specific cvar owned by
        ``backend`` (whether or not it is registered on this session)."""
        self._backend_cvars[name] = backend

    def _lookup_cvar(self, name: str) -> CtrlVar:
        try:
            return self._cvars[name]
        except KeyError:
            backend = self._backend_cvars.get(name)
            if backend is not None:
                raise CvarBackendError(name, backend) from None
            raise KeyError(f"no cvar named {name!r}") from None

    def cvar_get(self, name: str) -> Any:
        return self._lookup_cvar(name).get()

    def cvar_set(self, name: str, value: Any) -> None:
        """Validated set: KeyError on unknown names,
        :class:`CvarBackendError` on known-but-mis-targeted backend
        cvars, TypeError on ill-typed values, ValueError on
        out-of-domain ones."""
        cv = self._lookup_cvar(name)
        # bool passes isinstance(int) but is never a sensible knob value.
        if not isinstance(value, cv.ctype) or isinstance(value, bool):
            raise TypeError(
                f"cvar {name} expects {cv.ctype.__name__}, "
                f"got {type(value).__name__}")
        if cv.choices is not None and value not in cv.choices:
            raise ValueError(
                f"cvar {name}: {value!r} not in {sorted(cv.choices)}")
        if cv.minimum is not None and value < cv.minimum:
            raise ValueError(
                f"cvar {name}: {value!r} below minimum {cv.minimum}")
        cv.set(value)

    def cvar_set_str(self, name: str, text: str) -> None:
        """Parse-and-set from command-line text (type from the cvar)."""
        cv = self._lookup_cvar(name)
        if cv.ctype is int:
            try:
                value: Any = int(text, 0)
            except ValueError:
                raise TypeError(f"cvar {name} expects an integer, "
                                f"got {text!r}")
        elif cv.ctype is float:
            value = float(text)
        else:
            value = text
        self.cvar_set(name, value)

    def queue_cvar(self, name: str, text: str) -> None:
        """Remember a CVAR assignment to apply once a runtime is bound
        (``repro metrics --cvar name=value`` before the job builds its
        own MPIRuntime)."""
        self.pending_cvars[name] = text

    # -- instrumentation hooks (called via sim.telemetry) ---------------------
    def on_transfer_path(self, path: str, nbytes: int) -> None:
        self._path_bytes.inc(nbytes, path=path)
        self._path_msgs.inc(1, path=path)

    def on_cuda_copy(self, kind: str, nbytes: int) -> None:
        self._cuda_bytes.inc(nbytes, kind=kind)
        self._cuda_ops.inc(1, kind=kind)

    def on_coll_block(self, comm, rank: int, seq: int, block) -> None:
        """A collective reserved a tag block: extend the attribution
        ledger and the occupancy watermark (same unit arithmetic as the
        invariant checker's tag auditor)."""
        tag_block = self._tag_block
        name = block.name or "unnamed"
        led = self._ledgers.setdefault(comm.id, {})
        units = -(-block.count // tag_block)
        first = (block.base - self._coll_tag_base) // tag_block
        for u in range(first, first + units):
            led[u] = name
        self._tag_units_hwm.set_max(first + units)
        if (comm.id, seq) not in self._seen_seqs:
            self._seen_seqs.add((comm.id, seq))
            self._coll_invocations.inc(1, coll=name)

    def on_send(self, comm, tag: int, nbytes: int) -> None:
        base = self._coll_tag_base
        if tag >= base:
            led = self._ledgers.get(comm.id)
            name = "unknown"
            if led is not None:
                name = led.get((tag - base) // self._tag_block, "unknown")
            self._coll_bytes.inc(nbytes, coll=name)
            self._coll_msgs.inc(1, coll=name)
        else:
            self._pt2pt_bytes.inc(nbytes)
            self._pt2pt_msgs.inc(1)

    def on_queue_depth(self, queue: str, depth: int) -> None:
        self._queue_hwm.set_max(depth, queue=queue)

    def on_iteration(self, it: int, now: float, samples: int,
                     loss: Optional[float] = None) -> None:
        self._iters.inc(1)
        self._samples_c.inc(samples)
        self._iter_time.observe(now - self._last_iter_end)
        self._last_iter_end = now
        if loss is not None:
            self._loss.set(loss)
        if self.live is not None:
            elapsed = now - self._t0
            total = self._samples_c.value()
            self.live({
                "iteration": it,
                "time": now,
                "samples": total,
                "samples_per_second": total / elapsed if elapsed else 0.0,
                "loss": loss,
            })

    # -- sampling --------------------------------------------------------------
    def _grid_after(self, now: float) -> float:
        """Next scrape-grid instant strictly after ``now``."""
        step = self.scrape_interval
        return (int(now / step) + 1) * step

    def scrape(self, now: float) -> None:
        """Called by ``Simulator.step`` once the clock reaches
        :attr:`next_scrape_at`.  Records a row and re-arms."""
        self._record_row(now)
        if self.scrape_interval is not None:
            self.next_scrape_at = self._grid_after(now)

    def _record_row(self, now: float) -> None:
        row: Dict[str, Any] = {"time": now}
        for name, pv in self._pvars.items():
            if not pv.timeseries:
                continue
            v = pv.read()
            if pv.labeled:
                for key, val in v.items():
                    row[f"{name}{{{key}}}"] = val
            else:
                row[name] = v
        self.samples.append(row)

    # -- built-in PVARs --------------------------------------------------------
    def _labeled_reader(self, metric) -> Callable[[], Dict[str, Any]]:
        def read():
            return {"/".join(key): v for key, v in metric.samples()}
        return read

    def _core_pvars(self) -> List[PerfVar]:
        def scalar(metric):
            return lambda: metric.value()

        return [
            PerfVar("mpi.coll.bytes", self._coll_bytes.description,
                    "bytes", self._labeled_reader(self._coll_bytes),
                    labeled=True),
            PerfVar("mpi.coll.messages", self._coll_msgs.description,
                    "messages", self._labeled_reader(self._coll_msgs),
                    labeled=True),
            PerfVar("mpi.coll.invocations",
                    self._coll_invocations.description, "calls",
                    self._labeled_reader(self._coll_invocations),
                    labeled=True),
            PerfVar("mpi.pt2pt.bytes", self._pt2pt_bytes.description,
                    "bytes", scalar(self._pt2pt_bytes)),
            PerfVar("mpi.pt2pt.messages", self._pt2pt_msgs.description,
                    "messages", scalar(self._pt2pt_msgs)),
            PerfVar("mpi.unexpected_queue.hwm",
                    "unexpected-message queue depth high-watermark",
                    "messages",
                    lambda: self._queue_hwm.value(queue="unexpected")),
            PerfVar("mpi.posted_queue.hwm",
                    "posted-receive queue depth high-watermark",
                    "messages",
                    lambda: self._queue_hwm.value(queue="posted")),
            PerfVar("mpi.tag_units.hwm", self._tag_units_hwm.description,
                    "units", scalar(self._tag_units_hwm)),
            PerfVar("transport.path.bytes", self._path_bytes.description,
                    "bytes", self._labeled_reader(self._path_bytes),
                    labeled=True),
            PerfVar("transport.path.messages",
                    self._path_msgs.description, "messages",
                    self._labeled_reader(self._path_msgs), labeled=True),
            PerfVar("transport.retries",
                    "transfer attempts retried after transient faults",
                    "retries",
                    lambda: self.registry.counter(
                        "transport.retries").value()),
            PerfVar("transport.timeouts",
                    "transfers that exhausted their retry budget",
                    "timeouts",
                    lambda: self.registry.counter(
                        "transport.timeouts").value()),
            PerfVar("mpi.integrity.corrupt_detected",
                    "corrupted deliveries caught by the checksum verify",
                    "messages",
                    lambda: self.registry.counter(
                        "integrity.corrupt_detected").value()),
            PerfVar("mpi.integrity.retransmits",
                    "retransmissions triggered by checksum NACKs",
                    "messages",
                    lambda: self.registry.counter(
                        "integrity.retransmits").value()),
            PerfVar("mpi.integrity.failures",
                    "transfers that exhausted the retransmit budget "
                    "against a persistent corruptor", "failures",
                    lambda: self.registry.counter(
                        "integrity.failures").value()),
            PerfVar("mpi.integrity.silent_corruptions",
                    "corrupted deliveries that passed verification "
                    "(must stay 0: non-zero means the checksum layer "
                    "is broken)", "messages",
                    lambda: self.registry.counter(
                        "integrity.silent_corruptions").value()),
            PerfVar("transport.stagings.peak",
                    "concurrently live host staging buffers, peak",
                    "buffers",
                    lambda: self.registry.gauge(
                        "transport.stagings_peak").value()),
            PerfVar("cuda.copy.bytes", self._cuda_bytes.description,
                    "bytes", self._labeled_reader(self._cuda_bytes),
                    labeled=True),
            PerfVar("cuda.copy.ops", self._cuda_ops.description, "calls",
                    self._labeled_reader(self._cuda_ops), labeled=True),
            PerfVar("nccl.ring.hops", self._nccl_hops.description,
                    "messages", scalar(self._nccl_hops)),
            PerfVar("nccl.path.bytes", self._nccl_path_bytes.description,
                    "bytes", self._labeled_reader(self._nccl_path_bytes),
                    labeled=True),
            PerfVar("nccl.tree.depth", self._nccl_tree_depth.description,
                    "hops", scalar(self._nccl_tree_depth)),
            PerfVar("train.iterations", self._iters.description,
                    "iterations", scalar(self._iters)),
            PerfVar("train.samples", self._samples_c.description,
                    "samples", scalar(self._samples_c)),
            PerfVar("train.loss", self._loss.description, "",
                    scalar(self._loss)),
        ]
