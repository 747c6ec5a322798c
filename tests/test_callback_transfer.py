"""Callback transfers and memoized dispatch: same runs, less machinery.

A matched message whose path is one cut-through hold (same-device copy,
IPC peer copy, GDR) runs as a :class:`~repro.hardware.topology.LinkHold`
instead of a mover process.  These tests force the process path with a
test-side monkeypatch and require every run to be indistinguishable
from the callback run: event count, the ``(time, event class)`` stream,
request completion times, delivered bytes and link counters.  The
second half pins the per-communicator caches of the collective
dispatch (tuned reduce design, sub-communicator contexts).
"""

import math
import random
import zlib

import numpy as np
import pytest

import repro.mpi.communicator as comm_mod
import repro.mpi.omb
from repro.analysis import backend_names
from repro.check.harness import generate_matrix, run_case
from repro.cuda import DeviceBuffer
from repro.faults import CrashRank, FaultInjector, FaultPlan
from repro.hardware import cluster_a
from repro.hardware.topology import LinkHold
from repro.mpi import MPIRuntime, MV2GDR
from repro.mpi.collectives import resilient_reduce
from repro.mpi.collectives.hierarchical import HRConfig
from repro.mpi.collectives.tuning import _pick_design, _resolved_design
from repro.mpi.request import Request
from repro.mpi.transport import DeviceTransport
from repro.sim import Interrupt, Simulator
from repro.telemetry import TelemetrySession, bind_runtime
from repro.tune import tables


class _Recorder:
    """Test-side taps: every event, request completion and delivery."""

    def __init__(self):
        self.sims = []
        self.clusters = []
        self.events = []
        self.requests = []
        self.deliveries = []
        self.hold_interrupts = 0
        #: Interrupts that found the hold queued on a link.
        self.queued_interrupts = 0


def _record(m, rec, *, process_path):
    """Install the taps (and, with ``process_path``, disable callback
    transfers) on the monkeypatch context ``m``."""

    class RecordingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rec.sims.append(self)

        def run(self, until=None):
            # step() is the reference dispatch: one event at a time,
            # recorded as (clock, event class).
            while self.peek() != math.inf and (
                    until is None or self.peek() <= until):
                ev = self.step()
                rec.events.append((self.now.hex(), type(ev).__name__))
            if until is not None:
                self._now = until

    make_cluster = repro.mpi.omb.make_cluster

    def cluster_tap(*args, **kwargs):
        cluster = make_cluster(*args, **kwargs)
        rec.clusters.append(cluster)
        return cluster

    def outcome(kind):
        orig = getattr(Request, kind)

        def tap(self, value=None):
            rec.requests.append((self.sim.now.hex(), kind, repr(self.label)))
            return orig(self, value)
        return tap

    complete = comm_mod._complete

    def delivery_tap(send, recv):
        data = recv.buf.data
        crc = None
        if data is not None:
            view = data.view(np.uint8)[recv.offset:recv.offset + send.nbytes]
            crc = zlib.crc32(view.tobytes())
        rec.deliveries.append((send.src_rank, send.tag, send.nbytes, crc))
        complete(send, recv)

    hold_interrupt = LinkHold.interrupt

    def interrupt_tap(self, cause=None):
        rec.hold_interrupts += 1
        rec.queued_interrupts += len(self._grants) < len(self._links)
        return hold_interrupt(self, cause)

    m.setattr(repro.mpi.omb, "Simulator", RecordingSimulator)
    m.setattr(repro.mpi.omb, "make_cluster", cluster_tap)
    m.setattr(Request, "complete", outcome("complete"))
    m.setattr(Request, "fail", outcome("fail"))
    m.setattr(comm_mod, "_complete", delivery_tap)
    m.setattr(LinkHold, "interrupt", interrupt_tap)
    if process_path:
        m.setattr(DeviceTransport, "_start_hold", lambda *a, **k: None)
    return RecordingSimulator


def _links(cluster):
    for node in cluster.nodes:
        for g in node.gpus:
            yield g.pcie_up
            yield g.pcie_down
        for nic in node.nics:
            yield nic.tx
            yield nic.rx
        yield node.host_memcpy
        yield node.cpu_reduce


def _link_stats(cluster):
    return [(l.name, l.busy_time.hex(), l.messages, l.bytes_moved)
            for l in _links(cluster)]


def _assert_same(cb, proc):
    assert [s.event_count for s in cb.sims] == [
        s.event_count for s in proc.sims]
    assert len(cb.events) == len(proc.events)
    assert cb.events == proc.events
    assert cb.requests == proc.requests
    assert cb.deliveries == proc.deliveries
    assert [_link_stats(c) for c in cb.clusters] == [
        _link_stats(c) for c in proc.clusters]


def _both_paths(monkeypatch, body):
    """Run ``body(rec, sim_cls)`` once per path; returns the two taps."""
    out = []
    for process_path in (False, True):
        rec = _Recorder()
        with monkeypatch.context() as m:
            sim_cls = _record(m, rec, process_path=process_path)
            body(rec, sim_cls)
        out.append(rec)
    return out


# -- equivalence -------------------------------------------------------------

_CONFORMANCE = generate_matrix(seed=0, quick=True)


@pytest.mark.parametrize("backend", backend_names())
def test_conformance_cases_identical(monkeypatch, backend):
    """Every quick-matrix conformance case of the backend runs the same
    events, completions, deliveries and link counters on both paths
    (faulted cases keep the process path on both: their links carry
    fault hooks)."""
    cases = [c for c in _CONFORMANCE if c.profile == backend]
    assert cases
    results = []

    def body(rec, _sim_cls):
        results.append([(r.ok, r.sim_time.hex(), r.n_events)
                        for r in map(run_case, cases)])

    cb, proc = _both_paths(monkeypatch, body)
    assert results[0] == results[1]
    assert all(ok for ok, _t, _n in results[0])
    _assert_same(cb, proc)
    if backend == "mv2gdr":
        # The comparison is not vacuous: callback transfers ran.
        assert cb.deliveries and not cb.hold_interrupts


def _fuzz_program(messages):
    """Rank program: post this rank's sends and receives of
    ``messages`` at their scheduled offsets, then wait for all."""

    def program(ctx):
        me = ctx.rank
        mine = sorted((m for m in messages if me in (m[0], m[1])),
                      key=lambda m: (m[4] if m[0] == me else m[5], m[2]))
        reqs, inbox, t = [], {}, 0.0
        try:
            for src, dst, tag, nbytes, t_send, t_recv in mine:
                at = t_send if src == me else t_recv
                if at > t:
                    yield ctx.sim.timeout(at - t)
                    t = at
                if src == me:
                    rng = np.random.default_rng(tag)
                    data = rng.integers(0, 255, nbytes, dtype=np.uint8)
                    buf = DeviceBuffer.from_array(ctx.gpu, data)
                    reqs.append(ctx.isend(dst, buf, tag=tag))
                if dst == me:
                    out = DeviceBuffer.from_array(
                        ctx.gpu, np.zeros(nbytes, dtype=np.uint8))
                    inbox[tag] = out
                    reqs.append(ctx.irecv(src, out, tag=tag))
            for r in reqs:
                yield r.wait()
        except Exception as exc:  # crashed, or its communicator revoked
            return type(exc).__name__
        return {tag: zlib.crc32(b.data.tobytes())
                for tag, b in sorted(inbox.items())}

    return program


def _fuzz_messages(seed, P):
    """Seeded contending traffic: eager and rendezvous sizes, every
    rank pair on a node (shared PCIe lanes), self-sends, cross-node GDR
    and, above the GDR limit, staged sends."""
    rng = random.Random(seed)
    sizes = (4, 512, 16 << 10, (16 << 10) + 4, 96 << 10, 200 << 10)
    messages = []
    for tag in range(60):
        src = rng.randrange(P)
        dst = src if rng.random() < 0.1 else rng.randrange(P)
        nbytes = rng.choice(sizes)
        t_send = rng.randrange(6) * 2e-6
        t_recv = rng.randrange(6) * 2e-6
        messages.append((src, dst, tag, nbytes, t_send, t_recv))
    return messages


def _run_fuzz(monkeypatch, seed, crash=None):
    """The fuzzed traffic of ``seed`` on both paths, optionally with a
    rank crash (``(time, rank)``); returns the taps and rank results."""
    P = 20  # 16 GPUs on node 0, 4 on node 1
    messages = _fuzz_messages(seed, P)
    values = []

    def body(rec, sim_cls):
        sim = sim_cls(seed=seed)
        cluster = cluster_a(sim, n_nodes=2)
        rec.clusters.append(cluster)
        rt = MPIRuntime(cluster, MV2GDR)
        comm = rt.world(P)
        procs = rt.spawn(comm, _fuzz_program(messages))
        if crash is not None:
            FaultInjector(cluster, FaultPlan(
                "crash", (CrashRank(time=crash[0], rank=crash[1]),))).arm(
                    runtime=rt, procs=procs, gpus=comm.gpus,
                    detect_latency=1e-6)
        sim.run()
        values.append([p.value for p in procs])
        # No grant leaked, whatever was interrupted.
        assert all(l._res.idle for l in _links(cluster))

    cb, proc = _both_paths(monkeypatch, body)
    assert values[0] == values[1]
    _assert_same(cb, proc)
    return cb, proc, values[0], len(messages)


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_contending_sends_identical(monkeypatch, seed):
    cb, _proc, values, n_messages = _run_fuzz(monkeypatch, seed)
    assert len(cb.deliveries) == n_messages
    assert all(isinstance(v, dict) for v in values)


@pytest.mark.parametrize("seed", range(4))
def test_rank_crash_revokes_queued_transfers(monkeypatch, seed):
    """A crash in the middle of the fuzzed traffic revokes transfers
    that hold links and transfers still queued on one; both paths
    withdraw and release the same grants at the same instants."""
    cb, proc, values, _n = _run_fuzz(monkeypatch, seed, crash=(7e-6, 3))
    assert values[3] == "Interrupt"
    assert cb.hold_interrupts > 0 and proc.hold_interrupts == 0
    assert cb.queued_interrupts > 0


def test_rank_crash_revokes_inflight_transfer(monkeypatch):
    """A rank crash revokes the communicator while transfers are on the
    wire: each in-flight callback transfer takes the one interrupt
    event a mover process takes, and the recovered run is identical."""
    nbytes = 4 << 20

    def program(ctx):
        payload = np.full(nbytes // 4, float(ctx.rank + 1), dtype=np.float32)
        sendbuf = DeviceBuffer.from_array(ctx.gpu, payload)
        recvbuf = (DeviceBuffer.zeros(ctx.gpu, nbytes // 4)
                   if ctx.rank == 0 else None)
        try:
            cur = yield from resilient_reduce(ctx, sendbuf, recvbuf, 0)
        except Interrupt:
            return None
        if ctx.rank == 0:
            return float(recvbuf.data.sum()), cur.size
        return None

    outcomes = []

    def body(rec, sim_cls):
        sim = sim_cls()
        cluster = cluster_a(sim, n_nodes=1)
        rec.clusters.append(cluster)
        rt = MPIRuntime(cluster, MV2GDR)
        comm = rt.world(16)
        revoke = comm_mod.Communicator.revoke
        inflight = []

        def spy(self, exc):
            inflight.append(len(self._inflight))
            revoke(self, exc)

        with monkeypatch.context() as m:
            m.setattr(comm_mod.Communicator, "revoke", spy)
            procs = rt.spawn(comm, program)
            inj = FaultInjector(cluster, FaultPlan(
                "crash", (CrashRank(time=2e-4, rank=5),)))
            inj.arm(runtime=rt, procs=procs, gpus=comm.gpus,
                    detect_latency=5e-5)
            sim.run()
        outcomes.append(([p.value for p in procs], inflight))

    cb, proc = _both_paths(monkeypatch, body)
    assert outcomes[0] == outcomes[1]
    values, inflight = outcomes[0]
    assert values[0][1] == 15  # recovered over the survivors
    assert sum(inflight) > 0
    assert cb.hold_interrupts == sum(inflight)
    assert proc.hold_interrupts == 0
    _assert_same(cb, proc)


# -- memoized dispatch ---------------------------------------------------------

def _world(P=16):
    rt = MPIRuntime(cluster_a(Simulator(), n_nodes=1), MV2GDR)
    return rt, rt.world(P)


def _label(design):
    return design.label if isinstance(design, HRConfig) else design


@pytest.mark.parametrize("nbytes", [4 << 10, 1 << 20, 16 << 20])
def test_reduce_memo_matches_fresh_pick(nbytes):
    rt, comm = _world()
    ctx = comm.context(0)
    design, chunk = _resolved_design(ctx, nbytes, None)
    assert (_label(design), chunk) == _pick_design(ctx, nbytes, None)
    # A hit hands back the same resolved design.
    assert _resolved_design(ctx, nbytes, None)[0] is design


def test_reduce_memo_follows_tables_disabled():
    rt, comm = _world(12)
    ctx = comm.context(0)
    nbytes = 16 << 20
    on = _resolved_design(ctx, nbytes, None)
    with tables.tables_disabled():
        off = _resolved_design(ctx, nbytes, None)
        assert (_label(off[0]), off[1]) == _pick_design(ctx, nbytes, None)
    assert _label(on[0]) != _label(off[0])  # the table entry steers P=12
    assert _resolved_design(ctx, nbytes, None) == on
    assert (_label(on[0]), on[1]) == _pick_design(ctx, nbytes, None)


def test_reduce_memo_follows_cvar_write():
    """A ``coll.chain_size`` write between two dispatches on the same
    communicator: contexts made after it see the new design, the one
    made before keeps its own profile's design — each as an
    un-memoized pick would say."""
    rt, comm = _world(16)
    tel = TelemetrySession()
    tel.attach(rt.sim)
    bind_runtime(tel, rt)
    nbytes = 16 << 20
    old_ctx = comm.context(0)
    before = _resolved_design(old_ctx, nbytes, None)
    assert _label(before[0]) == "CC-8"
    tel.cvar_set("coll.chain_size", 4)
    new_ctx = comm.context(0)
    after = _resolved_design(new_ctx, nbytes, None)
    assert _label(after[0]) == "CC-4"
    assert (_label(after[0]), after[1]) == _pick_design(new_ctx, nbytes, None)
    assert _resolved_design(old_ctx, nbytes, None) == before
    assert (_label(before[0]), before[1]) == _pick_design(old_ctx, nbytes,
                                                          None)


def test_sub_context_is_cached_per_communicator_and_gpu():
    rt, comm = _world(16)
    ctx = comm.context(3)
    lower = comm.split([2, 3, 4, 5])
    sub = ctx.sub_context(lower)
    assert sub is ctx.sub_context(lower)
    assert sub is lower._contexts[ctx.gpu]
    assert (sub.comm, sub.rank, sub.gpu) == (lower, 1, ctx.gpu)
    assert comm.context(0).sub_context(lower) is None
    # A profile swap rebuilds the context: contexts snapshot the
    # profile they were made under.
    rt.set_profile(rt.profile.derive(chain_size=4))
    fresh = ctx.sub_context(lower)
    assert fresh is not sub and fresh.profile is rt.profile
