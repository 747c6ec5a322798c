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
    assert tr.total("fwd", "r0") == pytest.approx(2.0)
    assert tr.total("fwd", "r1") == 0.0
    assert tr.total("comm") == 0.0


def test_double_begin_rejected(sim):
    tr = Tracer(sim)
    tr.begin("r0", "x")
    with pytest.raises(RuntimeError):
        tr.begin("r0", "x")


def test_end_without_begin_rejected(sim):
    tr = Tracer(sim)
    with pytest.raises(RuntimeError):
        tr.end("r0", "x")
