"""repro.obs — run-comparison observability.

Built on the span/telemetry substrate, four pieces:

- :class:`RunCard` — the canonical manifest of one profiled run
  (seed, cluster, profile + CVARs, tuning-table digest, PVAR
  snapshot, headline numbers);
- :func:`diff_runs` / :class:`RunDiff` — the differential
  critical-path engine behind ``repro diff A.json B.json``: the
  makespan delta between two saved runs, attributed into an
  exactly-tiling (phase x resource class x rank) breakdown;
- :class:`StragglerDetector` — per-rank skew and slow-link outliers
  from span timings and the comm matrix, exported as
  ``obs.straggler.*`` PVARs via :func:`bind_straggler_pvars`;
- :class:`FlightRecorder` — a bounded ring of recent span events that
  the watchdog escalation path and typed fault errors dump to a
  post-mortem file.

Everything here is passive: seeded runs with these observers attached
are event-for-event identical to runs without.
"""

from .diff import (
    CellDelta, RunDiff, diff_cells, diff_runs, diff_trace_events,
)
from .flight import FlightRecorder
from .runcard import (
    RUN_FORMAT, RunCard, load_run, make_runcard, run_payload, save_run,
    tuning_tables_digest,
)
from .straggler import StragglerDetector, StragglerReport, \
    bind_straggler_pvars

__all__ = [
    "CellDelta",
    "FlightRecorder",
    "RUN_FORMAT",
    "RunCard",
    "RunDiff",
    "StragglerDetector",
    "StragglerReport",
    "bind_straggler_pvars",
    "diff_cells",
    "diff_runs",
    "diff_trace_events",
    "load_run",
    "make_runcard",
    "run_payload",
    "save_run",
    "tuning_tables_digest",
]
