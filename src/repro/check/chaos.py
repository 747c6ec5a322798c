"""Chaos conformance: the outcome-trichotomy gate (``repro check --chaos``).

The fault-semantics contract this harness enforces: a collective run
under *any* seeded fault plan ends in exactly one of three outcomes —

- ``exact``     — byte-exact result, no recovery machinery engaged
                  (the fault missed the traffic, or only slowed it);
- ``recovered`` — byte-exact result after transparent bounded retry /
                  checksum-triggered retransmit;
- ``error``     — a clean *typed* error (:class:`TransportTimeout`,
                  :class:`IntegrityError`, :class:`RankFailure`,
                  :class:`CommRevoked`, :class:`RequestTimeout`,
                  :class:`CollectiveTimeout`, or an
                  :class:`~repro.sim.Interrupt` carrying one of those /
                  a :class:`~repro.faults.CrashRank`).

Two further buckets must NEVER occur, and fail the gate:

- ``silent``    — wrong bytes with no error raised, or the transport's
                  ``integrity.silent_corruptions`` counter went
                  non-zero (a corrupted delivery survived verify);
- ``hang``      — the event schedule drained while rank processes were
                  still alive (deadlock), or an *untyped* exception
                  escaped.

A chaos cell is an ordinary :class:`~repro.check.harness.Case` whose
``fault`` is one of :data:`~repro.check.harness.FAULT_KINDS`, run by
:func:`~repro.check.harness.run_case` like every other case, so a
failing cell reproduces from its printed spec alone:
``repro check --case '<spec>'``.  The mutation self-test
(:mod:`repro.check.mutation`) proves the gate has teeth by disabling
the checksum verify (must classify ``silent``) and the watchdog (must
classify ``hang``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .harness import COLLECTIVES, FAULT_KINDS, Case, CaseResult, _PROFILES

__all__ = ["GOOD_OUTCOMES", "generate_chaos_matrix", "chaos_outcome_tally"]

#: The three acceptable outcomes (the trichotomy).
GOOD_OUTCOMES = ("exact", "recovered", "error")


def generate_chaos_matrix(seed: int = 0, *,
                          quick: bool = False) -> List[Case]:
    """The seeded chaos matrix: collective x profile x fault kind.

    Full mode sweeps every registered profile; quick mode keeps one MPI
    profile plus the nccl backend for CI.
    """
    rng = np.random.default_rng(seed)
    profiles = (_PROFILES[0], "nccl") if quick else _PROFILES
    cases: List[Case] = []
    for profile in profiles:
        for coll in COLLECTIVES:
            for kind in FAULT_KINDS:
                P = int(rng.integers(2, 9))
                if coll == "hierarchical_reduce":
                    P = max(P, 8)
                nbytes = 4 * int(rng.integers(8, 1 << 10))
                cases.append(Case(
                    coll, P=P, nbytes=nbytes, profile=profile,
                    seed=int(rng.integers(0, 1 << 16)), fault=kind))
    return cases


def chaos_outcome_tally(results: List[CaseResult]) -> Dict[str, int]:
    """Outcome -> count over a result set (all buckets present)."""
    tally = {k: 0 for k in GOOD_OUTCOMES + ("silent", "hang")}
    for r in results:
        tally[r.outcome] = tally.get(r.outcome, 0) + 1
    return tally
