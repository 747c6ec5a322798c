"""Metrics core: Counter / Gauge / Histogram with labels + a registry.

This is the single source of truth for every runtime counter in the
repo.  A :class:`MetricsRegistry` lives on each
:class:`~repro.sim.core.Simulator` (``sim.metrics``), so every layer
that can reach the simulator — transport, CUDA runtime, communicator,
trainer — increments the *same* metric objects, and higher-level views
(``TransportMetrics``, ``FaultReport``, the MPI_T session) read from
them instead of keeping private copies.

Design constraints (shared with ``repro.check`` / ``repro.prof``):

- **Passive**: metrics never touch the event heap; incrementing a
  counter cannot change simulated behaviour.
- **Deterministic**: values are plain ints/floats updated in event
  order; label children are kept in insertion order, so two runs of the
  same seeded program produce identical exports byte for byte.
- **Cheap**: an increment is a dict add; this module imports nothing
  from the rest of the repo so the simulator can depend on it without
  cycles.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Metric", "Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: Default histogram buckets: log-spaced durations from 100 us to 100 s
#: (simulated seconds), suitable for iteration/phase times.
DEFAULT_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 100.0)


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, str]
               ) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}")
    return tuple(str(labels[n]) for n in labelnames)


class Metric:
    """Base class: a named family of children keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 labelnames: Sequence[str] = ()):
        if not name:
            raise ValueError("metric needs a name")
        self.name = name
        self.description = description
        self.unit = unit
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        #: label-values tuple -> child state (insertion-ordered).
        self._children: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if not self.labelnames:
            if labels:
                raise ValueError(f"metric {self.name} declares no labels")
            return ()
        return _label_key(self.labelnames, labels)

    @property
    def labelled(self) -> bool:
        return bool(self.labelnames)

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], float]]:
        """Yield ``(label_values, value)`` in insertion order."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing count (bytes moved, retries, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._children.get(self._key(labels), 0)

    @property
    def total(self) -> float:
        """Sum over all label children (the family's headline number)."""
        return sum(self._children.values()) if self._children else 0

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], float]]:
        if not self.labelnames:
            yield (), self._children.get((), 0)
        else:
            for key, v in self._children.items():
                yield key, v


class Gauge(Metric):
    """A value that can go up and down (queue depth, live stagings)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._children[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        self._children[key] = self._children.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels) -> None:
        """High-watermark update: keep the max of current and ``value``."""
        key = self._key(labels)
        cur = self._children.get(key)
        if cur is None or value > cur:
            self._children[key] = value

    def value(self, **labels) -> float:
        return self._children.get(self._key(labels), 0)

    @property
    def max(self) -> float:
        return max(self._children.values()) if self._children else 0

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], float]]:
        if not self.labelnames:
            yield (), self._children.get((), 0)
        else:
            for key, v in self._children.items():
                yield key, v


class _HistState:
    __slots__ = ("counts", "count", "sum")

    def __init__(self, n_bounds: int):
        self.counts = [0] * (n_bounds + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0


class Histogram(Metric):
    """A distribution with fixed upper-bound buckets (Prometheus style)."""

    kind = "histogram"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, description, unit, labelnames)
        bs = tuple(sorted(float(b) for b in buckets))
        if not bs:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bs

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        st = self._children.get(key)
        if st is None:
            st = self._children[key] = _HistState(len(self.buckets))
        st.count += 1
        st.sum += value
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                st.counts[i] += 1
                return
        st.counts[-1] += 1

    def state(self, **labels) -> Optional[_HistState]:
        return self._children.get(self._key(labels))

    def cumulative(self, st: _HistState) -> List[int]:
        """Cumulative bucket counts (le semantics), +Inf last."""
        out, acc = [], 0
        for c in st.counts:
            acc += c
            out.append(acc)
        return out

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], _HistState]]:
        if not self.labelnames:
            st = self._children.get(())
            yield (), (st if st is not None else _HistState(len(self.buckets)))
        else:
            for key, st in self._children.items():
                yield key, st


class MetricsRegistry:
    """Insertion-ordered collection of metrics, get-or-create by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, description: str, unit: str,
                       labelnames: Sequence[str], **kwargs) -> Metric:
        m = self._metrics.get(name)
        if m is not None:
            if not isinstance(m, cls) or m.labelnames != tuple(labelnames):
                raise TypeError(
                    f"metric {name!r} already registered as {m.kind} "
                    f"with labels {m.labelnames}")
            return m
        m = cls(name, description, unit, labelnames, **kwargs)
        self._metrics[name] = m
        return m

    def counter(self, name: str, description: str = "", unit: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, description, unit,
                                   labelnames)

    def gauge(self, name: str, description: str = "", unit: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, description, unit,
                                   labelnames)

    def histogram(self, name: str, description: str = "", unit: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, description, unit,
                                   labelnames, buckets=buckets)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return list(self._metrics)
