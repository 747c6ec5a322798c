"""RunCard: the canonical manifest of one profiled run.

Two profile numbers are only comparable when everything that *could*
have moved them is pinned down.  A RunCard captures exactly that
closure for a simulated run — seed, cluster, workload shape, MPI
profile name plus its live CVAR values, the digest of the committed
tuning tables the dispatchers consulted, a PVAR snapshot, and the
headline numbers — serialized as canonical JSON (sorted keys, indent
2, trailing newline, same convention as the committed tuning tables)
so two cards for the same configuration are byte-identical and any
difference is a real configuration delta.

``repro profile --json`` writes a *run file*: a RunCard plus the
machine-readable :meth:`~repro.prof.ProfileReport.to_json_dict`
summary.  ``repro diff`` consumes two run files and attributes the
makespan delta (see :mod:`repro.obs.diff`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["RUN_FORMAT", "RunCard", "make_runcard", "run_payload",
           "save_run", "load_run", "tuning_tables_digest"]

#: Format tag of a saved run file (RunCard + profile summary).
RUN_FORMAT = "repro.obs.run/1"


def tuning_tables_digest(dirname: Optional[str] = None) -> str:
    """SHA-256 over the committed tuning tables (filenames + bytes).

    Any byte drift in any table changes the digest, so two RunCards
    with the same digest dispatched over identical tables.  Returns
    ``"none"`` when no tables exist.
    """
    if dirname is None:
        from ..tune import tables
        dirname = tables.tables_dir()
    try:
        names = sorted(n for n in os.listdir(dirname) if n.endswith(".json"))
    except OSError:
        return "none"
    if not names:
        return "none"
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(dirname, name), "rb") as fh:
            h.update(name.encode())
            h.update(b"\0")
            h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


@dataclass
class RunCard:
    """Everything that pins down one profiled run."""

    #: Simulator seed (None = unseeded, jitter-free run).
    seed: Optional[int]
    cluster: str
    gpus: int
    network: str
    dataset: str
    batch_size: int
    iterations: int
    variant: str
    reduce_design: str
    #: MPI profile name ("mv2gdr", "nccl", ...).
    profile: str
    #: Live CVAR values of the profile (every tunable knob).
    cvars: Dict[str, Any] = field(default_factory=dict)
    #: SHA-256 of the committed tuning tables ("none" when absent).
    tuning_digest: str = "none"
    #: End-of-run PVAR snapshot (empty without telemetry).
    pvars: Dict[str, Any] = field(default_factory=dict)
    #: Headline numbers (makespan, shares, total_time, ...).
    headline: Dict[str, float] = field(default_factory=dict)
    schema_version: int = 1

    # -- serialization -------------------------------------------------------
    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, indent 2, trailing newline."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "RunCard":
        # Unknown keys (newer fields, or retired ones such as the old
        # ``scheduler`` mode) are dropped, so older run files still load.
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    # -- comparison ----------------------------------------------------------
    def diff(self, other: "RunCard") -> List[Tuple[str, Any, Any]]:
        """(field, mine, theirs) for every configuration difference.

        Headline numbers and PVAR snapshots are *outputs*, not
        configuration, so they are excluded; CVARs are compared
        knob-by-knob.
        """
        out: List[Tuple[str, Any, Any]] = []
        skip = {"cvars", "pvars", "headline"}
        for f in dataclasses.fields(self):
            if f.name in skip:
                continue
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a != b:
                out.append((f.name, a, b))
        for knob in sorted(set(self.cvars) | set(other.cvars)):
            a = self.cvars.get(knob)
            b = other.cvars.get(knob)
            if a != b:
                out.append((f"cvar:{knob}", a, b))
        return out

    def describe(self) -> str:
        return (f"{self.network} x{self.gpus} on Cluster-{self.cluster}, "
                f"{self.variant}/{self.reduce_design}, {self.profile}, "
                f"seed={self.seed}")


def make_runcard(report, cfg, *, cluster_kind: str, n_gpus: int,
                 profile, seed: Optional[int], sim=None,
                 telemetry=None) -> RunCard:
    """Build the card for a finished profiled run.

    ``report`` is the :class:`~repro.core.TrainingReport` (its
    ``.profile`` supplies the headline numbers), ``profile`` the
    :class:`~repro.mpi.MPIProfile` (or its name) the run used.
    ``sim`` is accepted for existing callers and not read.
    """
    from ..mpi.profiles import get_profile
    if isinstance(profile, str):
        profile = get_profile(profile)
    cvars = dataclasses.asdict(profile)
    cvars.pop("name", None)
    headline: Dict[str, float] = {
        "total_time": float(report.total_time),
        "simulated_time": float(report.simulated_time),
        "samples_per_second": float(report.samples_per_second),
    }
    prof = report.profile
    if prof is not None:
        headline.update(
            makespan=float(prof.makespan),
            cp_length=float(prof.cp_length),
            n_spans=float(prof.n_spans),
            comm_share=float(prof.comm_share),
            compute_share=float(prof.compute_share),
        )
    return RunCard(
        seed=seed,
        cluster=cluster_kind,
        gpus=n_gpus,
        network=cfg.network,
        dataset=cfg.dataset,
        batch_size=cfg.batch_size,
        iterations=cfg.iterations,
        variant=cfg.variant,
        reduce_design=cfg.reduce_design,
        profile=profile.name,
        cvars=cvars,
        tuning_digest=tuning_tables_digest(),
        pvars=telemetry.pvar_snapshot() if telemetry is not None else {},
        headline=headline,
    )


# -- run files ----------------------------------------------------------------

def run_payload(runcard: RunCard, profile_report,
                straggler=None) -> dict:
    """The saved-run payload ``repro diff`` consumes."""
    payload = {
        "format": RUN_FORMAT,
        "runcard": runcard.to_payload(),
        "profile": profile_report.to_json_dict(),
    }
    if straggler is not None:
        payload["straggler"] = straggler.to_payload()
    return payload


def save_run(path: str, runcard: RunCard, profile_report,
             straggler=None) -> dict:
    """Write a canonical-JSON run file; returns the payload."""
    payload = run_payload(runcard, profile_report, straggler)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def load_run(path: str) -> dict:
    """Read a run file back, validating the format tag."""
    with open(path) as fh:
        payload = json.load(fh)
    fmt = payload.get("format")
    if fmt != RUN_FORMAT:
        raise ValueError(
            f"{path}: not a repro run file (format={fmt!r}, "
            f"expected {RUN_FORMAT!r}; write one with "
            f"'repro profile --json {os.path.basename(path)}')")
    return payload
