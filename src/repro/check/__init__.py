"""Conformance harness and runtime invariant checkers (``repro check``).

Three layers, designed to make collective-protocol bugs loud:

1. :mod:`~repro.check.invariants` — passive runtime checkers (SPMD
   lockstep, tag-space audit, end-of-run leak checks) installed as
   ``sim.checker``; zero-cost when absent.
2. :mod:`~repro.check.harness` — one case format (:class:`Case`) and
   one runner (:func:`run_case`) checking every collective against
   plain-NumPy reference semantics, byte-exactly, across (P, root,
   size, chunking, window, profile, fault).  The conformance matrix
   (:func:`generate_matrix`) and the chaos matrix
   (:func:`generate_chaos_matrix`, whose cells must end exact,
   recovered or in a typed error) are both lists of cases.
3. :mod:`~repro.check.mutation` — a self-test seeding deliberate bugs
   and disabled protections, and asserting the layers above catch each
   one.
"""

from .chaos import chaos_outcome_tally, generate_chaos_matrix
from .harness import (
    BOUNDARY_CASES, COLLECTIVES, FAULT_KINDS, Case, CaseResult,
    generate_matrix, parse_case, run_case, run_matrix,
)
from .invariants import InvariantChecker, Violation
from .mutation import MUTATIONS, MutationOutcome, run_mutation_selftest
from .reference import rank_payload, reduce_reference

__all__ = [
    "BOUNDARY_CASES", "COLLECTIVES", "Case", "CaseResult",
    "generate_matrix", "parse_case", "run_case", "run_matrix",
    "FAULT_KINDS", "chaos_outcome_tally", "generate_chaos_matrix",
    "InvariantChecker", "Violation",
    "MUTATIONS", "MutationOutcome", "run_mutation_selftest",
    "rank_payload", "reduce_reference",
]
