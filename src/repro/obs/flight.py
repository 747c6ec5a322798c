"""Flight recorder: a bounded ring buffer of recent span activity.

Black-box style observability for the fault paths: the recorder keeps
the last ``capacity`` span open/close records (plus free-form notes
from the watchdog), so when a run dies — a typed fault error, a
watchdog escalation, a hang verdict from the chaos gate — the
post-mortem ships the final N events of simulated activity instead of
just the exception string.

Strictly passive, same bar as :class:`~repro.prof.SpanRecorder`: it
observes spans the recorder already captured, never schedules
simulator events, and a seeded run with a flight recorder attached is
event-for-event identical to one without.  Memory is bounded by the
ring (``collections.deque(maxlen=...)``) regardless of run length.
"""

from __future__ import annotations

import json
from collections import deque
from typing import List, Optional

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Last-N-events ring over a :class:`~repro.prof.SpanRecorder`.

    Construct on a recorder to attach (``FlightRecorder(rec)`` sets
    ``rec.flight``); the recorder then forwards every span open/close.
    ``dump()`` freezes the ring into a post-mortem payload and, when a
    ``path`` is configured, writes it as canonical JSON.
    """

    def __init__(self, recorder=None, *, capacity: int = 512,
                 path: Optional[str] = None):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        #: Post-mortem file target for :meth:`dump` (optional).
        self.path = path
        self.events: deque = deque(maxlen=capacity)
        #: Total records ever observed (``seen - len(events)`` dropped).
        self.seen = 0
        #: Number of :meth:`dump` calls taken.
        self.dumps = 0
        #: The most recent post-mortem payload (dict), if any.
        self.last_dump: Optional[dict] = None
        self.recorder = None
        if recorder is not None:
            self.attach(recorder)

    # -- wiring --------------------------------------------------------------
    def attach(self, recorder) -> None:
        """Install on ``recorder``; span opens/closes flow in from here."""
        self.recorder = recorder
        recorder.flight = self

    # -- feed (called by SpanRecorder / the watchdog) ------------------------
    def on_open(self, span) -> None:
        self.seen += 1
        self.events.append({
            "ev": "open", "t": span.start, "sid": span.sid,
            "kind": span.kind, "actor": span.actor, "phase": span.phase,
            "op": span.op, "label": span.label,
            "resource": span.resource, "nbytes": span.nbytes,
        })

    def on_close(self, span) -> None:
        self.seen += 1
        self.events.append({
            "ev": "close", "t": span.end, "sid": span.sid,
            "kind": span.kind, "actor": span.actor,
        })

    def note(self, kind: str, detail: str, *, t: Optional[float] = None) -> None:
        """Free-form annotation (watchdog timeouts, escalation steps)."""
        if t is None and self.recorder is not None:
            t = self.recorder.sim.now
        self.seen += 1
        self.events.append({"ev": "note", "t": 0.0 if t is None else t,
                            "kind": kind, "detail": detail})

    # -- post-mortem ---------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """The ring contents, oldest first (copies, JSON-safe)."""
        return [dict(e) for e in self.events]

    def dump(self, reason: str, *, path: Optional[str] = None) -> dict:
        """Freeze the ring into a post-mortem payload.

        Writes canonical JSON to ``path`` (or ``self.path``) when one is
        set; always stores the payload on :attr:`last_dump` so callers
        without a file target (tests, the chaos gate) can attach it to
        their own results.
        """
        payload = {
            "format": "repro.obs.flight/1",
            "reason": reason,
            "time": (self.recorder.sim.now
                     if self.recorder is not None else 0.0),
            "capacity": self.capacity,
            "events_seen": self.seen,
            "events_dropped": max(0, self.seen - len(self.events)),
            "events": self.snapshot(),
        }
        self.dumps += 1
        self.last_dump = payload
        target = path or self.path
        if target:
            with open(target, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        return payload
