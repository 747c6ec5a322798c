"""Mutation self-test: prove the harness catches the bugs it exists for.

Each mutation seeds one deliberate protocol bug into the live runtime,
or disables one protection (via targeted monkeypatching), runs a case
that exercises the mutated path, and demands the harness FAIL it with
the outcome that bug must produce.  A mutation the
harness passes means a detection gap — the self-test fails loudly, so
the conformance suite cannot silently rot into a rubber stamp.

Mutations:

- ``flipped_tag`` — every collective-space send goes out with its tag's
  low bit flipped (a classic off-by-one in tag arithmetic).  Expected
  detection: tag-audit violation at the send site, then deadlock /
  request leaks as receives never match (outcome ``hang``).
- ``skipped_segment`` — reductions at buffer offset 0 are silently
  skipped (a lost-chunk bug).  Expected detection: byte-exact
  divergence from the NumPy reference (outcome ``silent``).
- ``wrong_root`` — the last rank disagrees about the collective's root
  (an SPMD divergence).  Expected detection: deadlock (outcome
  ``hang``).
- ``disabled_verify`` — the transport's checksum verify becomes a no-op
  on a ``fault=corrupt`` chaos cell.  Expected outcome: ``silent``.
- ``disabled_watchdog`` — arming the collective watchdog becomes a
  no-op on a ``fault=stall`` chaos cell.  Expected outcome: ``hang``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import List

from ..mpi.collectives.base import COLL_TAG_BASE
from ..mpi.communicator import Communicator
from . import harness
from .harness import Case, run_case

__all__ = ["MUTATIONS", "MutationOutcome", "run_mutation_selftest",
           "flipped_tag", "skipped_segment", "wrong_root",
           "disabled_verify", "disabled_watchdog"]


@contextmanager
def flipped_tag():
    """All collective-space sends carry ``tag ^ 1``."""
    orig = Communicator.isend

    def patched(self, src_rank, dst_rank, buf, *, tag=0, **kw):
        if tag >= COLL_TAG_BASE:
            tag ^= 1
        return orig(self, src_rank, dst_rank, buf, tag=tag, **kw)

    Communicator.isend = patched
    try:
        yield
    finally:
        Communicator.isend = orig


@contextmanager
def skipped_segment():
    """Reductions at offset 0 become no-ops (first chunk never folded)."""
    import importlib
    # The collectives package re-exports the ``reduce`` *function*, which
    # shadows the submodule attribute — resolve the module explicitly.
    reduce_mod = importlib.import_module("repro.mpi.collectives.reduce")
    orig = reduce_mod.apply_reduction

    def patched(ctx, acc, contrib, nbytes, *, offset=0):
        if offset == 0:
            return
            yield  # pragma: no cover — keeps this a generator function
        yield from orig(ctx, acc, contrib, nbytes, offset=offset)

    reduce_mod.apply_reduction = patched
    try:
        yield
    finally:
        reduce_mod.apply_reduction = orig


@contextmanager
def wrong_root():
    """The last rank believes the root is ``(root + 1) % P``."""
    orig = harness._root_for_rank

    def patched(case, rank):
        if rank == case.P - 1:
            return (case.root + 1) % case.P
        return case.root

    harness._root_for_rank = patched
    try:
        yield
    finally:
        harness._root_for_rank = orig


@contextmanager
def disabled_verify():
    """The checksum verify becomes a no-op: corruption sails through."""
    from ..mpi.transport import DeviceTransport
    orig = DeviceTransport._verify

    def patched(self, *args, **kwargs):
        return None

    DeviceTransport._verify = patched
    try:
        yield
    finally:
        DeviceTransport._verify = orig


@contextmanager
def disabled_watchdog():
    """Arming the watchdog becomes a no-op: stalls hang forever."""
    from ..mpi.watchdog import CollectiveWatchdog
    orig = CollectiveWatchdog.arm

    def patched(self, *args, **kwargs):
        return None

    CollectiveWatchdog.arm = patched
    try:
        yield
    finally:
        CollectiveWatchdog.arm = orig


#: (name, context manager, case exercising the mutated path, outcome
#: the mutated run must produce).
MUTATIONS = (
    ("flipped_tag", flipped_tag,
     Case("bcast_binomial", P=4, nbytes=256), "hang"),
    ("skipped_segment", skipped_segment,
     Case("reduce_chain", P=3, nbytes=1024, chunk_bytes=64), "silent"),
    ("wrong_root", wrong_root,
     Case("reduce_binomial", P=4, nbytes=256), "hang"),
    ("disabled_verify", disabled_verify,
     Case("bcast_binomial", P=4, nbytes=1024, seed=3, fault="corrupt"),
     "silent"),
    ("disabled_watchdog", disabled_watchdog,
     Case("allreduce_ring", P=4, nbytes=1024, seed=5, fault="stall"),
     "hang"),
)


@dataclass
class MutationOutcome:
    name: str
    detected: bool
    clean_ok: bool
    failures: List[str]

    def describe(self) -> str:
        verdict = "DETECTED" if self.detected else "MISSED"
        if not self.clean_ok:
            verdict = "BROKEN-BASELINE"
        out = [f"{verdict:>16}  {self.name}"]
        out += [f"    {f}" for f in self.failures[:4]]
        return "\n".join(out)


def run_mutation_selftest() -> List[MutationOutcome]:
    """For each mutation: the un-mutated case must PASS, the mutated one
    must FAIL with the row's expected outcome.  Returns one outcome per
    mutation."""
    outcomes = []
    for name, mutation, case, want in MUTATIONS:
        clean_ok = run_case(case).ok
        with mutation():
            mutated = run_case(case)
        outcomes.append(MutationOutcome(
            name=name, clean_ok=clean_ok,
            detected=not mutated.ok and mutated.outcome == want,
            failures=[f"outcome={mutated.outcome} (expected {want})"]
            + mutated.failures))
    return outcomes
