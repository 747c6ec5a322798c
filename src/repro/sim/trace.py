"""Phase tracing for timing breakdowns.

The paper reports *per-phase* timings — data propagation vs. forward/
backward compute vs. gradient aggregation (Fig. 13, Table 2).  The
:class:`Tracer` keeps the running total of each phase per actor (rank),
the sums those experiments print.  Per-span timelines with phase tags
come from the span recorder (:mod:`repro.prof`) instead.
"""

from __future__ import annotations

import re
from typing import Dict, Optional, Tuple

from .core import Simulator

__all__ = ["Tracer", "natural_sort_key"]

_NUM_RE = re.compile(r"(\d+)")


def natural_sort_key(s: str) -> Tuple:
    """Sort key that orders embedded integers numerically, so actor
    'r10' sorts after 'r9' (not between 'r1' and 'r2')."""
    return tuple(int(t) if t.isdigit() else t
                 for t in _NUM_RE.split(s))


class Tracer:
    """Times open/close phases per actor and sums them per phase."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._open: Dict[Tuple[str, str], float] = {}
        # phase -> summed duration per actor.
        self._totals: Dict[str, Dict[str, float]] = {}

    def begin(self, actor: str, phase: str) -> None:
        key = (actor, phase)
        if key in self._open:
            raise RuntimeError(f"phase {phase!r} already open for {actor!r}")
        self._open[key] = self.sim.now
        rec = self.sim.recorder
        if rec is not None:
            rec.phase_push(phase)

    def end(self, actor: str, phase: str) -> None:
        key = (actor, phase)
        start = self._open.pop(key, None)
        if start is None:
            raise RuntimeError(f"phase {phase!r} not open for {actor!r}")
        per_actor = self._totals.get(phase)
        if per_actor is None:
            per_actor = self._totals[phase] = {}
        per_actor[actor] = per_actor.get(actor, 0.0) + (self.sim.now - start)
        rec = self.sim.recorder
        if rec is not None:
            rec.phase_pop(phase)

    def abandon(self, actor: str) -> None:
        """Discard open phases for ``actor`` (and its sub-actors, e.g.
        ``r3.helper``).  Used when a fault unwinds a rank mid-interval:
        the cut-short phase is dropped rather than recorded, and the
        replayed iteration may re-open it without tripping the
        double-begin check."""
        prefix = actor + "."
        for key in [k for k in self._open
                    if k[0] == actor or k[0].startswith(prefix)]:
            del self._open[key]
        rec = self.sim.recorder
        if rec is not None:
            rec.phase_clear()

    def total(self, phase: str, actor: Optional[str] = None) -> float:
        """Sum of interval durations for ``phase`` (optionally one actor)."""
        per_actor = self._totals.get(phase)
        if per_actor is None:
            return 0.0
        if actor is not None:
            return per_actor.get(actor, 0.0)
        return sum(per_actor.values())
