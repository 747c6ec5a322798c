"""Figure 11: MPI_Reduce designs at 160 processes (GPUs) on Cluster-A.

OMB-style latency across message sizes for: existing MVAPICH2 reduce
(MV2), chain-binomial (CB-k), chain-chain (CC-k), and HR (Tuned) — the
design that "builds on top of the tuning infrastructure in MVAPICH2 and
efficiently uses the fastest combination for the desired message size
and process count range" (Section 6.5).  The tuned column here is built
by the same mechanism: an offline sweep on this system.  Every candidate
is measured once; each size's HR (Tuned) cell is its fastest candidate.

Reproduction note: on the paper's hardware, two-level chains stopped
scaling past 64 processes (OS noise / skew), so their 160-process table
selects chain-binomial at large sizes.  Our fabric is skew-free, so the
sweep keeps chain-chain competitive at 160 — same tuning procedure,
system-dependent table (recorded in EXPERIMENTS.md).
"""

from common import (
    KiB, MiB, emit, fmt_bytes, fmt_table, fmt_time, osu_reduce, run_once,
)

from repro.mpi import MV2, MV2GDR

P = 160
SIZES = (16 * KiB, 256 * KiB, 2 * MiB, 8 * MiB, 32 * MiB, 128 * MiB)
FIXED = ("MV2", "CB-4", "CB-8", "CC-4", "CC-8")
HR_CANDIDATES = ("flat", "CB-4", "CB-8", "CC-4", "CC-8")


def one_point(design: str, nbytes: int) -> float:
    if design == "MV2":
        return osu_reduce("A", MV2, nbytes, P, design="flat")
    return osu_reduce("A", MV2GDR, nbytes, P, design=design)


def run_fig11():
    table = {d: {s: one_point(d, s) for s in SIZES}
             for d in FIXED + ("flat",)}
    # The sweep's winner per size; ties keep HR_CANDIDATES order.
    winners = {s: min(HR_CANDIDATES, key=lambda d: table[d][s])
               for s in SIZES}
    table["HR (Tuned)"] = {s: table[winners[s]][s] for s in SIZES}
    return table, winners


def selection(winners) -> str:
    """Fuse adjacent equal per-size winners into size ranges."""
    return ", ".join(
        f"<{fmt_bytes(nxt)}: {winners[s]}" if nxt else f"else: {winners[s]}"
        for s, nxt in zip(SIZES, SIZES[1:] + (None,))
        if nxt is None or winners[nxt] != winners[s])


def test_fig11_reduce_designs(benchmark):
    table, winners = run_once(benchmark, run_fig11)
    designs = FIXED + ("HR (Tuned)",)

    rows = [[fmt_bytes(s)] + [fmt_time(table[d][s]) for d in designs]
            for s in SIZES]
    text = fmt_table(
        f"Figure 11: MPI_Reduce latency at {P} processes, Cluster-A",
        ["Size"] + list(designs), rows)
    text += "\n\nAutotuned selection: " + selection(winners)
    emit("fig11_reduce_160", text)

    hr = table["HR (Tuned)"]
    # The tuned design matches the per-point best of its candidates
    # (plus the MV2-kernel difference on flat): never meaningfully worse
    # than ANY fixed design.
    for d in FIXED:
        for s in SIZES:
            assert hr[s] <= table[d][s] * 1.05, (d, fmt_bytes(s))

    # Section 5's headline: for buffers > 8 MB every chain-based
    # hierarchical design beats the flat MV2 reduce.
    for s in (32 * MiB, 128 * MiB):
        for d in ("CB-4", "CB-8", "CC-4", "CC-8"):
            assert table[d][s] < table["MV2"][s]

    # Small messages are latency-bound: long chains lose there.
    s = 16 * KiB
    assert hr[s] < table["CC-8"][s]
    assert hr[s] < table["CC-4"][s]

    # Tuned latency is monotone in message size.
    vals = [hr[s] for s in SIZES]
    assert all(b >= a for a, b in zip(vals, vals[1:]))

    # The sweep switches designs across the size range (it is a
    # genuine hybrid, not a single algorithm).
    assert len(set(winners.values())) >= 2
