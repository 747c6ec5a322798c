"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Interrupt, Simulator, SimulationError, 
)
from repro.sim.core import Timeout
from repro.sim.resources import BandwidthLink

NAN = float("nan")


@pytest.fixture
def sim():
    return Simulator()


class TestTimeout:
    def test_advances_clock(self, sim):
        seen = []

        def proc():
            yield sim.timeout(1.5)
            seen.append(sim.now)
            yield sim.timeout(2.0)
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [1.5, 3.5]

    def test_zero_delay_allowed(self, sim):
        def proc():
            yield sim.timeout(0.0)
        sim.process(proc())
        sim.run()
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeout_value_passed_back(self, sim):
        got = []

        def proc():
            v = yield sim.timeout(1.0, value="payload")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["payload"]


class TestEvent:
    def test_succeed_resumes_waiter(self, sim):
        ev = sim.event()
        got = []

        def waiter():
            got.append((yield ev))

        def signaler():
            yield sim.timeout(3.0)
            ev.succeed(42)

        sim.process(waiter())
        sim.process(signaler())
        sim.run()
        assert got == [42]
        assert sim.now == 3.0

    def test_double_trigger_is_error(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, sim):
        ev = sim.event()
        caught = []

        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        ev.fail(RuntimeError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value


class TestProcess:
    def test_process_is_event_with_return_value(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"

        results = []

        def parent():
            r = yield sim.process(child())
            results.append((r, sim.now))

        sim.process(parent())
        sim.run()
        assert results == [("done", 1.0)]

    def test_yield_from_composition(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        p = sim.process(outer())
        sim.run()
        assert p.value == 20
        assert sim.now == 2.0

    def test_unhandled_exception_surfaces(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("kaput")

        sim.process(bad())
        with pytest.raises(ValueError, match="kaput"):
            sim.run()

    def test_exception_propagates_to_waiting_parent(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("kaput")

        caught = []

        def parent():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(parent())
        sim.run()
        assert caught == ["kaput"]

    def test_yielding_non_event_is_error(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run()

    def test_interrupt(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        def interrupter(proc):
            yield sim.timeout(2.0)
            proc.interrupt("wakeup")

        p = sim.process(sleeper())
        sim.process(interrupter(p))
        sim.run()
        assert log == [(2.0, "wakeup")]

    def test_interrupt_finished_process_is_error(self, sim):
        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)


class TestConditions:
    def test_all_of_waits_for_slowest(self, sim):
        def proc():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(5.0, value="b")
            results = yield sim.all_of([t1, t2])
            return (sim.now, sorted(results.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (5.0, ["a", "b"])

    def test_any_of_fires_on_fastest(self, sim):
        def proc():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(5.0, value="slow")
            results = yield sim.any_of([t1, t2])
            return (sim.now, list(results.values()))

        p = sim.process(proc())
        sim.run()
        assert p.value == (1.0, ["fast"])

    def test_empty_all_of_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        p = sim.process(proc())
        sim.run()
        assert p.value == 0.0


class TestSimulator:
    def test_run_until_stops_clock(self, sim):
        def proc():
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_run_until_past_is_error(self, sim):
        def proc():
            yield sim.timeout(10.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_determinism_same_program_same_trace(self):
        def build():
            s = Simulator()
            order = []

            def worker(i):
                yield s.timeout(1.0)
                order.append(i)
                yield s.timeout(float(i))
                order.append(i * 10)

            for i in range(5):
                s.process(worker(i))
            s.run()
            return order

        assert build() == build()

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_event_count_increases(self, sim):
        def proc():
            for _ in range(10):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert sim.event_count >= 10


class TestNaNRejected:
    """NaN compares false against everything, so ``< 0``/``< now``
    guards let it through and the clock then runs backwards."""

    @pytest.mark.parametrize("call", [
        lambda s: s.timeout(NAN), lambda s: Timeout(s, NAN),
        lambda s: s.timeout_at(NAN), lambda s: s.run(until=NAN),
        lambda s: BandwidthLink(s, bandwidth=NAN, latency=0.0),
        lambda s: BandwidthLink(s, bandwidth=1.0, latency=NAN),
        lambda s: BandwidthLink(s, bandwidth=1.0, latency=0.0, jitter=NAN),
        lambda s: BandwidthLink(s, bandwidth=1.0, latency=0.0,
                                per_message_overhead=NAN),
    ])
    def test_rejected(self, sim, call):
        with pytest.raises(ValueError):
            call(sim)

    def test_clock_stays_monotonic(self, sim):
        sim.timeout(1.0)
        sim.run()  # the drained timeout lands on the free list
        assert sim._tpool
        fired = []
        sim.timeout(2.0).add_callback(lambda _e: fired.append(sim.now))
        with pytest.raises(ValueError):
            sim.timeout(NAN)  # the pooled path checks too
        sim.timeout(1.0).add_callback(lambda _e: fired.append(sim.now))
        sim.run()
        assert fired == [2.0, 3.0]


class TestConditionFailures:
    def test_all_of_failure_propagates(self, sim):
        bad = sim.event()
        caught = []

        def waiter():
            try:
                yield sim.all_of([sim.timeout(10.0), bad])
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        def failer():
            yield sim.timeout(2.0)
            bad.fail(ValueError("component died"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert caught == [(2.0, "component died")]

    def test_any_of_failure_propagates(self, sim):
        bad = sim.event()
        caught = []

        def waiter():
            try:
                yield sim.any_of([sim.timeout(10.0), bad])
            except ValueError:
                caught.append(sim.now)

        def failer():
            yield sim.timeout(1.5)
            bad.fail(ValueError("boom"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert caught == [1.5]

    def test_condition_after_success_ignores_late_components(self, sim):
        ok = []

        def waiter():
            r = yield sim.any_of([sim.timeout(1.0, value="fast"),
                                  sim.timeout(5.0, value="slow")])
            ok.append(list(r.values()))

        sim.process(waiter())
        sim.run()
        assert ok == [["fast"]]
        assert sim.now == 5.0  # the slow timeout still fires harmlessly
