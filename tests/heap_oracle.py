"""Test-only reference scheduler: :class:`HeapSimulator`.

One flat ``heapq`` ordered by ``(time, priority, seq)`` holds every
event, URGENT signalling included; there is no FIFO lane and no event
pooling.  Only the scheduling methods are overridden, so the rest of
the protocol (inline completion, trampoline, eager start, link trains)
is shared and seeded runs must match :class:`Simulator` event for event.
"""

import heapq

from repro.sim.core import Event, SimulationError, Simulator, Timeout

URGENT, NORMAL = 0, 1


class HeapSimulator(Simulator):
    def _push(self, event, when, priority):
        rec = self.recorder
        if (rec is not None and event._ctx_span is None
                and self._active_process is not None):
            event._ctx_span = rec.last_span_of(self._active_process)
        heapq.heappush(self._heap, (when, priority, next(self._seq), event))

    def _push_urgent(self, event):
        self._push(event, self._now, URGENT)

    def _schedule(self, event, delay):
        event._scheduled = True
        self._push(event, self._now + delay, NORMAL)

    def timeout_at(self, when, value=None):
        if not when >= self._now:
            raise ValueError(f"timeout_at({when!r}) is in the past")
        t = Timeout.__new__(Timeout)
        Event.__init__(t, self)
        t._value, t.delay, t._scheduled = value, when - self._now, True
        self._push(t, when, NORMAL)
        return t

    def _pop(self):
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("time ran backwards")
        self._now = when
        return event

    def run(self, until=None):
        if until is not None and not until >= self._now:
            raise ValueError(f"until={until} is in the past")
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.step()
        if until is not None:
            self._now = until
