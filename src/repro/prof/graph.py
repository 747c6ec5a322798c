"""Program-activity-graph analysis over recorded spans.

The span list plus its causal edges *is* the program activity graph of
the simulated run (in the PAG sense of classic critical-path profilers):
vertices are spans, edges are "could not start before".  Because a
dependency is only linked once the predecessor span has closed, every
edge satisfies ``dep.end <= span.start``, and span ids are a valid
topological order — both analyses below are single linear passes.

Critical path
-------------
Walked backwards from the last span to finish: at each step the
predecessor with the latest end time is followed; any gap between that
predecessor's end and the current span's start is attributed to an
explicit ``(wait)`` segment (un-modeled cause: the process simply was
not runnable, e.g. blocked on a queue with no recorded holder).  The
segments tile ``[0, makespan]`` exactly, so the reported critical-path
length equals the simulated makespan by construction.

What-if projection
------------------
``project({"ib": 2.0})`` replays the graph with every span's duration
divided by its matched factor, keeping each span's *slack* (start minus
latest predecessor end) frozen.  This recomputes an *estimated* makespan
without re-simulating: it is exact for scale 1.0 and a good first-order
projection otherwise, but frozen slack means queueing reshuffles are not
re-resolved — see docs/PROFILING.md for caveats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .recorder import Span, SpanRecorder

__all__ = ["ActivityGraph", "CPSegment", "span_class", "RESOURCE_CLASSES"]

#: Classes a span's primary resource maps to (what-if selectors).
RESOURCE_CLASSES = ("compute", "pcie", "ib", "host", "cpu", "gpu_mem",
                    "overhead", "sync", "other")

_KIND_CLASS = {
    "kernel": "compute",
    "reduce": "compute",
    "d2d": "gpu_mem",
    "overhead": "overhead",
    "barrier": "sync",
}


def span_class(span: Span) -> str:
    """Map a span to a coarse resource class (``ib``, ``compute``, ...)."""
    r = span.resource
    if r:
        if r.endswith(".sm"):
            return "compute"
        if ".pcie_" in r:
            return "pcie"
        if r.endswith(".tx") or r.endswith(".rx"):
            return "ib"
        if r.endswith(".hostmem"):
            return "host"
        if r.endswith(".cpured"):
            return "cpu"
    return _KIND_CLASS.get(span.kind, "other")


#: Classes counted as communication when splitting the critical path into
#: communication-bound vs compute-bound shares.
COMM_CLASSES = frozenset({"pcie", "ib", "host"})
COMPUTE_CLASSES = frozenset({"compute", "gpu_mem", "cpu"})


class CPSegment:
    """One segment of the critical path (``sid < 0`` marks a wait gap)."""

    __slots__ = ("sid", "start", "end")

    def __init__(self, sid: int, start: float, end: float):
        self.sid = sid
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_wait(self) -> bool:
        return self.sid < 0


class ActivityGraph:
    """Critical-path / utilization / what-if queries over a span list."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self._closed = [s for s in self.spans if s.end is not None]
        self._cp: Optional[List[CPSegment]] = None

    @classmethod
    def from_recorder(cls, recorder: SpanRecorder) -> "ActivityGraph":
        return cls(recorder.spans)

    # -- basic quantities ---------------------------------------------------
    @property
    def makespan(self) -> float:
        """End of the last closed span (== simulated completion time of
        the recorded activity)."""
        return max((s.end for s in self._closed), default=0.0)

    @property
    def total_work(self) -> float:
        """Sum of all span durations (the serialization upper bound)."""
        return sum(s.end - s.start for s in self._closed)

    # -- critical path ------------------------------------------------------
    def critical_path(self) -> List[CPSegment]:
        """Forward-ordered segments tiling ``[0, makespan]``."""
        if self._cp is not None:
            return self._cp
        spans = self.spans
        if not self._closed:
            self._cp = []
            return self._cp
        cur = max(self._closed, key=lambda s: (s.end, s.sid))
        segs: List[CPSegment] = []
        while True:
            segs.append(CPSegment(cur.sid, cur.start, cur.end))
            pred: Optional[Span] = None
            for d in cur.deps:
                sp = spans[d]
                if sp.end is None or sp.end > cur.start:
                    continue
                if pred is None or (sp.end, sp.sid) > (pred.end, pred.sid):
                    pred = sp
            floor = pred.end if pred is not None else 0.0
            if cur.start > floor:
                segs.append(CPSegment(-1, floor, cur.start))
            if pred is None:
                break
            cur = pred  # pred.sid < cur.sid: the walk terminates
        segs.reverse()
        self._cp = segs
        return segs

    @property
    def cp_length(self) -> float:
        """Length of the critical path.  Since the segments tile the
        timeline this equals :attr:`makespan` exactly on a complete
        recording."""
        cp = self.critical_path()
        if not cp:
            return 0.0
        return cp[-1].end - cp[0].start

    def _segment_key(self, seg: CPSegment, by: str) -> str:
        if seg.is_wait:
            return "(wait)"
        s = self.spans[seg.sid]
        if by == "phase":
            # Fall back through op and kind so un-phased activity (e.g.
            # background Ibcast movers) still lands in a named bucket.
            if s.phase:
                return s.phase
            return f"[{s.op}]" if s.op else f"[{s.kind}]"
        if by == "kind":
            return s.kind
        if by == "op":
            return s.op or "(none)"
        if by == "actor":
            return s.actor
        if by == "resource":
            return s.resource or "(none)"
        if by == "class":
            return span_class(s)
        raise ValueError(f"unknown breakdown key {by!r}")

    def cp_breakdown(self, by: str = "phase") -> Dict[str, float]:
        """Critical-path time attributed by ``phase`` (default),
        ``kind``, ``op``, ``actor``, ``resource``, or ``class``."""
        out: Dict[str, float] = {}
        for seg in self.critical_path():
            k = self._segment_key(seg, by)
            out[k] = out.get(k, 0.0) + seg.duration
        return out

    def cp_cells(self) -> Dict[Tuple[str, str, str], float]:
        """Critical-path seconds per (phase, resource class, actor) cell.

        The finest-granularity attribution the diff engine aligns on:
        phases use the same op/kind fallback as :meth:`cp_breakdown`,
        wait gaps land in the ``("(wait)", "wait", "-")`` cell.  The
        cell values are the segment durations re-bucketed, so their
        ``math.fsum`` equals :attr:`cp_length` up to float rounding.
        """
        out: Dict[Tuple[str, str, str], float] = {}
        for seg in self.critical_path():
            if seg.is_wait:
                key = ("(wait)", "wait", "-")
            else:
                s = self.spans[seg.sid]
                key = (self._segment_key(seg, "phase"), span_class(s),
                       s.actor)
            out[key] = out.get(key, 0.0) + seg.duration
        return out

    def cp_timeline(self) -> List[Dict[str, object]]:
        """Forward-ordered critical-path segments as plain dicts
        (JSON-safe; consumed by the ``repro diff --trace`` export)."""
        out: List[Dict[str, object]] = []
        for seg in self.critical_path():
            if seg.is_wait:
                out.append({"start": seg.start, "end": seg.end, "sid": -1,
                            "phase": "(wait)", "class": "wait",
                            "actor": "-", "label": "(wait)"})
                continue
            s = self.spans[seg.sid]
            out.append({"start": seg.start, "end": seg.end, "sid": s.sid,
                        "phase": self._segment_key(seg, "phase"),
                        "class": span_class(s), "actor": s.actor,
                        "label": s.label or s.kind})
        return out

    # -- utilization --------------------------------------------------------
    def resource_busy(self) -> Dict[str, float]:
        """Resource name -> total busy seconds (multi-link spans count
        once per link they held)."""
        busy: Dict[str, float] = {}
        for s in self._closed:
            d = s.end - s.start
            for r in s.resources:
                busy[r] = busy.get(r, 0.0) + d
        return busy

    def utilization(self) -> Dict[str, float]:
        """Resource name -> busy fraction of the makespan."""
        horizon = self.makespan
        if horizon <= 0:
            return {}
        return {r: b / horizon for r, b in self.resource_busy().items()}

    # -- what-if projection -------------------------------------------------
    def _factor(self, span: Span, scales: Dict[str, float]) -> float:
        for r in span.resources:
            if r in scales:
                return scales[r]
        if span.kind in scales:
            return scales[span.kind]
        cls = span_class(span)
        if cls in scales:
            return scales[cls]
        return scales.get("all", 1.0)

    def project(self, scales: Dict[str, float]) -> float:
        """Projected makespan with every matched span's duration divided
        by its speed-up factor.

        Selectors match (in precedence order) an exact resource name, a
        span kind, a resource class from :data:`RESOURCE_CLASSES`, or
        the catch-all ``"all"``.  Factors > 1 mean faster.  The identity
        projection (all factors 1.0) returns :attr:`makespan` exactly.
        """
        for k, v in scales.items():
            if v <= 0:
                raise ValueError(f"what-if factor {k}={v} must be > 0")
        if not scales or all(v == 1.0 for v in scales.values()):
            return self.makespan
        spans = self.spans
        end_p = [0.0] * len(spans)
        best = 0.0
        for s in spans:  # sid order == topological order
            if s.end is None:
                continue
            dep_end = 0.0
            dep_end_p = 0.0
            for d in s.deps:
                sp = spans[d]
                if sp.end is None:
                    continue
                if sp.end > dep_end:
                    dep_end = sp.end
                if end_p[d] > dep_end_p:
                    dep_end_p = end_p[d]
            slack = s.start - dep_end
            if slack < 0.0:  # defensive; edges are built closed-only
                slack = 0.0
            dur = (s.end - s.start) / self._factor(s, scales)
            e = dep_end_p + slack + dur
            end_p[s.sid] = e
            if e > best:
                best = e
        return best
