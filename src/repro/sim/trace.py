"""Phase/interval tracing for timing breakdowns.

The paper reports *per-phase* timings — data propagation vs. forward/
backward compute vs. gradient aggregation (Fig. 13, Table 2).  The
:class:`Tracer` records named intervals per actor (rank) and aggregates
them into the phase-breakdown rows those experiments print.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .core import Simulator

__all__ = ["Interval", "Tracer", "PhaseTimer", "natural_sort_key"]

_NUM_RE = re.compile(r"(\d+)")


def natural_sort_key(s: str) -> Tuple:
    """Sort key that orders embedded integers numerically, so actor
    'r10' sorts after 'r9' (not between 'r1' and 'r2')."""
    return tuple(int(t) if t.isdigit() else t
                 for t in _NUM_RE.split(s))


class Interval(NamedTuple):
    """A closed interval of simulated time attributed to a phase."""

    actor: str
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records intervals and answers aggregate timing queries."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.intervals: List[Interval] = []
        self._open: Dict[Tuple[str, str], float] = {}
        # phase -> summed duration per actor, maintained on end() so the
        # per-iteration report queries don't rescan every interval.
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
        now = self.sim.now
        self.intervals.append(Interval(actor, phase, start, now))
        per_actor = self._totals.get(phase)
        if per_actor is None:
            per_actor = self._totals[phase] = {}
        per_actor[actor] = per_actor.get(actor, 0.0) + (now - start)
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

    def timer(self, actor: str, phase: str) -> "PhaseTimer":
        return PhaseTimer(self, actor, phase)

    # -- queries -------------------------------------------------------------
    def total(self, phase: str, actor: Optional[str] = None) -> float:
        """Sum of interval durations for ``phase`` (optionally one actor)."""
        per_actor = self._totals.get(phase)
        if per_actor is None:
            return 0.0
        if actor is not None:
            return per_actor.get(actor, 0.0)
        return sum(per_actor.values())

    def busy_union(self, phase: str, actor: Optional[str] = None) -> float:
        """Length of the union of intervals for ``phase`` (overlap-aware).

        This is the right statistic for "time the run spent in phase X"
        when many ranks execute the phase concurrently.
        """
        ivs = sorted((iv.start, iv.end) for iv in self.intervals
                     if iv.phase == phase
                     and (actor is None or iv.actor == actor))
        total = 0.0
        cur_s: Optional[float] = None
        cur_e = 0.0
        for s, e in ivs:
            if cur_s is None:
                cur_s, cur_e = s, e
            elif s <= cur_e:
                cur_e = max(cur_e, e)
            else:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
        if cur_s is not None:
            total += cur_e - cur_s
        return total

    def breakdown(self, actor: Optional[str] = None) -> Dict[str, float]:
        """Map phase -> total duration (per actor or across all)."""
        out: Dict[str, float] = defaultdict(float)
        for iv in self.intervals:
            if actor is None or iv.actor == actor:
                out[iv.phase] += iv.duration
        return dict(out)

    def actors(self) -> List[str]:
        return sorted({iv.actor for iv in self.intervals})

    def phases(self) -> List[str]:
        return sorted({iv.phase for iv in self.intervals})

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    # -- export ---------------------------------------------------------------
    def to_chrome_trace(self) -> List[dict]:
        """Chrome trace-event JSON (load in chrome://tracing / Perfetto).

        Each interval becomes a complete ('X') event; actors map to
        thread ids so per-rank timelines stack naturally ('r10' after
        'r9', helpers next to their rank).  Metadata ('M') events name
        each track so viewers show actor names instead of bare tids.
        Timestamps are microseconds, per the trace-event spec.
        """
        actors = sorted({iv.actor for iv in self.intervals},
                        key=natural_sort_key)
        actor_tid = {a: i + 1 for i, a in enumerate(actors)}
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro.sim"},
        }]
        for a, tid in actor_tid.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": a},
            })
            events.append({
                "name": "thread_sort_index", "ph": "M", "pid": 0,
                "tid": tid, "args": {"sort_index": tid},
            })
        events.extend({
            "name": iv.phase,
            "cat": "sim",
            "ph": "X",
            "pid": 0,
            "tid": actor_tid[iv.actor],
            "ts": iv.start * 1e6,
            "dur": iv.duration * 1e6,
            "args": {"actor": iv.actor},
        } for iv in self.intervals)
        return events

    def save_chrome_trace(self, path: str) -> None:
        """Write the trace to a JSON file."""
        with open(path, "w") as f:
            json.dump({"traceEvents": self.to_chrome_trace()}, f)


class PhaseTimer:
    """Context-manager-flavored helper for generator code.

    Generator processes cannot use ``with`` blocks across yields cleanly,
    so the pattern is explicit ``t = tracer.timer(a, p); t.begin(); ...;
    t.end()``; both methods are idempotent-checked by :class:`Tracer`.
    """

    __slots__ = ("tracer", "actor", "phase")

    def __init__(self, tracer: Tracer, actor: str, phase: str):
        self.tracer = tracer
        self.actor = actor
        self.phase = phase

    def begin(self) -> None:
        self.tracer.begin(self.actor, self.phase)

    def end(self) -> None:
        self.tracer.end(self.actor, self.phase)
