"""Tests for the phase tracer."""

import pytest

from repro.sim import Simulator, Tracer


@pytest.fixture
def sim():
    return Simulator()


def test_interval_recording(sim):
    tr = Tracer(sim)

    def proc():
        tr.begin("r0", "fwd")
        yield sim.timeout(2.0)
        tr.end("r0", "fwd")
        tr.begin("r0", "bwd")
        yield sim.timeout(3.0)
        tr.end("r0", "bwd")

    sim.process(proc())
    sim.run()
    assert tr.total("fwd") == pytest.approx(2.0)
    assert tr.total("bwd") == pytest.approx(3.0)
    assert tr.breakdown("r0") == {"fwd": pytest.approx(2.0),
                                  "bwd": pytest.approx(3.0)}


def test_double_begin_rejected(sim):
    tr = Tracer(sim)
    tr.begin("r0", "x")
    with pytest.raises(RuntimeError):
        tr.begin("r0", "x")


def test_end_without_begin_rejected(sim):
    tr = Tracer(sim)
    with pytest.raises(RuntimeError):
        tr.end("r0", "x")


def test_busy_union_merges_overlaps(sim):
    tr = Tracer(sim)

    def worker(actor, start, dur):
        yield sim.timeout(start)
        tr.begin(actor, "comm")
        yield sim.timeout(dur)
        tr.end(actor, "comm")

    # [0,4] and [2,6] overlap -> union 6; [10,11] separate -> total 7.
    sim.process(worker("a", 0.0, 4.0))
    sim.process(worker("b", 2.0, 4.0))
    sim.process(worker("c", 10.0, 1.0))
    sim.run()
    assert tr.total("comm") == pytest.approx(9.0)
    assert tr.busy_union("comm") == pytest.approx(7.0)


def test_actors_and_phases_listing(sim):
    tr = Tracer(sim)
    tr.begin("b", "p2"); tr.end("b", "p2")
    tr.begin("a", "p1"); tr.end("a", "p1")
    assert tr.actors() == ["a", "b"]
    assert tr.phases() == ["p1", "p2"]


def test_timer_helper(sim):
    tr = Tracer(sim)
    t = tr.timer("r0", "agg")

    def proc():
        t.begin()
        yield sim.timeout(1.5)
        t.end()

    sim.process(proc())
    sim.run()
    assert tr.total("agg", "r0") == pytest.approx(1.5)


def test_chrome_trace_export(sim, tmp_path):
    tr = Tracer(sim)

    def proc():
        tr.begin("r0", "fwd")
        yield sim.timeout(1.0)
        tr.end("r0", "fwd")
        tr.begin("r1", "bwd")
        yield sim.timeout(0.5)
        tr.end("r1", "bwd")

    sim.process(proc())
    sim.run()
    events = tr.to_chrome_trace()
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 2
    fwd = next(e for e in xs if e["name"] == "fwd")
    assert fwd["ts"] == 0.0
    assert fwd["dur"] == 1.0e6  # microseconds
    # Distinct actors map to distinct tids.
    assert len({e["tid"] for e in xs}) == 2
    # Metadata events name the process and each actor track.
    metas = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in metas)
    named = {e["args"]["name"] for e in metas if e["name"] == "thread_name"}
    assert named == {"r0", "r1"}
    tid_of = {e["args"]["name"]: e["tid"] for e in metas
              if e["name"] == "thread_name"}
    assert tid_of["r0"] < tid_of["r1"]  # stable natural ordering

    path = tmp_path / "trace.json"
    tr.save_chrome_trace(str(path))
    import json
    data = json.loads(path.read_text())
    assert [e for e in data["traceEvents"] if e["ph"] == "X"]
