"""Tests for repro.obs: run cards, differential profiling, straggler
detection, and the flight recorder."""

import json
import math
import os
import types

import pytest

from repro.core import TrainConfig, run_scaffe
from repro.faults import FaultPlan, GpuSlow, StallLink
from repro.hardware import make_cluster
from repro.obs import (
    FlightRecorder, RUN_FORMAT, RunCard, StragglerDetector,
    bind_straggler_pvars, diff_cells, diff_runs, load_run, make_runcard,
    run_payload, tuning_tables_digest,
)
from repro.prof import Span, SpanRecorder
from repro.sim import Simulator
from repro.telemetry import TelemetrySession


def _quick_cfg(**kw):
    kw.setdefault("network", "cifar10_quick")
    kw.setdefault("dataset", "cifar10")
    kw.setdefault("batch_size", 64)
    kw.setdefault("iterations", 3)
    kw.setdefault("measure_iterations", 2)
    kw.setdefault("variant", "SC-OBR")
    return TrainConfig(**kw)


def _profiled_payload(*, seed=3, profile="mv2gdr", design="tuned",
                      fault_plan=None):
    """One seeded quick run -> saved-run payload (card + profile)."""
    sim = Simulator(seed=seed)
    cluster = make_cluster(sim, "A")
    rec = SpanRecorder(sim)
    cfg = _quick_cfg(reduce_design=design)
    report = run_scaffe(cluster, 4, cfg, profile=profile, recorder=rec,
                        fault_plan=fault_plan)
    assert report.ok
    card = make_runcard(report, cfg, cluster_kind="A", n_gpus=4,
                        profile=profile, seed=seed)
    return run_payload(card, report.profile,
                       StragglerDetector(rec).report())


@pytest.fixture(scope="module")
def run_mv2():
    return _profiled_payload(profile="mv2gdr", design="tuned")


@pytest.fixture(scope="module")
def run_nccl():
    return _profiled_payload(profile="nccl", design="tuned")


@pytest.fixture(scope="module")
def run_flat():
    return _profiled_payload(profile="mv2gdr", design="flat")


def _ulp_bound(diff):
    scale = max(abs(diff.base_makespan), abs(diff.cand_makespan), 1.0)
    return 4 * math.ulp(scale)


class TestRunCard:
    def test_canonical_json_is_deterministic(self, run_mv2):
        again = _profiled_payload(profile="mv2gdr", design="tuned")
        a = RunCard.from_payload(run_mv2["runcard"])
        b = RunCard.from_payload(again["runcard"])
        assert a.to_json() == b.to_json()
        # The whole payload (card + profile + straggler) is byte-stable.
        assert (json.dumps(run_mv2, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_payload_round_trip(self, run_mv2):
        card = RunCard.from_payload(run_mv2["runcard"])
        clone = RunCard.from_payload(json.loads(card.to_json()))
        assert clone == card
        # Unknown keys are tolerated (forward compatibility).
        payload = dict(run_mv2["runcard"], future_field=1)
        assert RunCard.from_payload(payload) == card

    def test_card_records_closure(self, run_mv2):
        card = RunCard.from_payload(run_mv2["runcard"])
        assert card.seed == 3 and card.cluster == "A" and card.gpus == 4
        assert card.profile == "mv2gdr"
        assert card.cvars  # live knob values, not just the name
        assert "scheduler" not in card.to_payload()
        assert {"total_time", "simulated_time", "makespan",
                "comm_share"} <= set(card.headline)

    def test_diff_lists_config_deltas_only(self, run_mv2, run_nccl):
        a = RunCard.from_payload(run_mv2["runcard"])
        b = RunCard.from_payload(run_nccl["runcard"])
        diffs = dict((name, (x, y)) for name, x, y in a.diff(b))
        assert diffs["profile"] == ("mv2gdr", "nccl")
        assert any(k.startswith("cvar:") for k in diffs)
        # Outputs (headline) never appear as configuration diffs.
        assert "headline" not in diffs and "pvars" not in diffs
        assert a.diff(a) == []

    def test_tuning_digest(self, tmp_path):
        # The committed tables exist, so live runs carry a real digest.
        live = tuning_tables_digest()
        assert live != "none" and live == tuning_tables_digest()
        # No tables -> "none"; any byte drift changes the digest.
        assert tuning_tables_digest(str(tmp_path)) == "none"
        (tmp_path / "t.json").write_text("{}")
        d1 = tuning_tables_digest(str(tmp_path))
        (tmp_path / "t.json").write_text("{ }")
        d2 = tuning_tables_digest(str(tmp_path))
        assert d1 != d2 and "none" not in (d1, d2)

    def test_save_load_round_trip(self, run_mv2, tmp_path):
        path = tmp_path / "run.json"
        card = RunCard.from_payload(run_mv2["runcard"])
        # save_run wants the live report; re-write the payload instead.
        path.write_text(json.dumps(run_mv2, indent=2, sort_keys=True)
                        + "\n")
        loaded = load_run(str(path))
        assert loaded["format"] == RUN_FORMAT
        assert RunCard.from_payload(loaded["runcard"]) == card

    def test_committed_baseline_run_still_loads(self, run_mv2):
        """Saved runs from before a field was dropped stay loadable:
        the committed baseline run file, and the same card carrying the
        retired ``scheduler`` key, load to one card, and no diff against
        a fresh card reports a ``scheduler`` delta."""
        path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "baselines", "profile_train.json")
        saved = load_run(path)["runcard"]
        card = RunCard.from_payload(saved)
        legacy = RunCard.from_payload(dict(saved, scheduler="slowpath"))
        assert legacy == card and legacy.diff(card) == []
        fresh = RunCard.from_payload(run_mv2["runcard"])
        names = [name for name, _, _ in legacy.diff(fresh)]
        assert names and "scheduler" not in names

    def test_load_rejects_non_run_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something/else"}\n')
        with pytest.raises(ValueError, match="not a repro run file"):
            load_run(str(bad))


class TestDiffTiling:
    """The acceptance bar: attribution tiles the delta to the ULP."""

    def _check_exact_tiling(self, diff):
        tol = _ulp_bound(diff)
        # Components (cells + residual) fsum to the delta identically.
        assert math.fsum(diff.components()) == pytest.approx(
            diff.delta, abs=tol)
        # The residual really is floating-point dust, not a junk bucket.
        assert abs(diff.residual) <= 1e-9
        # Each side's cells tile that run's makespan.
        assert math.fsum(c.base for c in diff.cells) == pytest.approx(
            diff.base_makespan, abs=tol)
        assert math.fsum(c.cand for c in diff.cells) == pytest.approx(
            diff.cand_makespan, abs=tol)
        # Every marginal covers every cell once -> tiles the delta too.
        for dim in ("phase", "class", "actor"):
            assert (math.fsum(diff.by(dim).values()) + diff.residual
                    == pytest.approx(diff.delta, abs=tol))

    def test_mpi_vs_nccl_tiles_exactly(self, run_mv2, run_nccl):
        diff = diff_runs(run_mv2, run_nccl)
        assert diff.cells
        self._check_exact_tiling(diff)
        # The card diff rode along into the attribution.
        assert any(name == "profile" for name, _, _ in diff.config_diffs)

    def test_tuned_vs_default_tiles_exactly(self, run_mv2, run_flat):
        diff = diff_runs(run_mv2, run_flat)
        assert diff.cells
        self._check_exact_tiling(diff)
        assert ("reduce_design", "tuned", "flat") in diff.config_diffs

    def test_identity_diff_is_all_zero(self, run_mv2):
        diff = diff_runs(run_mv2, run_mv2)
        assert diff.delta == 0.0 and diff.residual == 0.0
        assert all(c.delta == 0.0 for c in diff.cells)
        assert not any(c.structural for c in diff.cells)
        assert diff.config_diffs == []

    def test_structural_cells(self):
        base = {("fwd", "compute", "rank0"): 1.0}
        cand = {("fwd", "compute", "rank0"): 1.2,
                ("agg", "pcie", "rank1"): 0.3}
        diff = diff_cells(base, cand, base_makespan=1.0, cand_makespan=1.5)
        by_key = {c.key: c for c in diff.cells}
        assert not by_key[("fwd", "compute", "rank0")].structural
        cell = by_key[("agg", "pcie", "rank1")]
        assert cell.structural and cell.base == 0.0
        assert diff.structural_delta == pytest.approx(0.3)
        assert math.fsum(diff.components()) == pytest.approx(0.5)
        assert "*" in diff.render() and "structural" in diff.render()

    def test_render_names_the_movers(self, run_mv2, run_nccl):
        text = diff_runs(run_mv2, run_nccl).render()
        assert "run diff:" in text
        assert "by phase:" in text
        assert "by resource class:" in text
        assert "by rank:" in text
        assert "config differences:" in text and "profile" in text

    def test_by_rejects_unknown_dimension(self, run_mv2):
        with pytest.raises(ValueError, match="unknown diff dimension"):
            diff_runs(run_mv2, run_mv2).by("flavor")


class TestStraggler:
    def _span(self, sid, actor, start, end, resources=(), nbytes=0):
        s = Span(sid, "kernel", tuple(resources), nbytes, "l", actor,
                 "fwd", "op", start, ())
        s.end = end
        return s

    def _fake_recorder(self, spans, comm=None):
        return types.SimpleNamespace(spans=spans, comm=comm or {})

    def test_flags_slow_rank_and_folds_helpers(self):
        spans = [
            self._span(0, "world.rank0", 0.0, 1.0),
            self._span(1, "world.rank1", 0.0, 1.0),
            self._span(2, "world.rank2", 0.0, 1.4),
            self._span(3, "world.rank2.h0", 1.4, 2.2),  # helper folds in
            self._span(4, "world.rank3", 0.0, 1.0),
        ]
        rep = StragglerDetector(self._fake_recorder(spans)).report()
        assert rep.rank_busy["rank2"] == pytest.approx(2.2)
        assert rep.flagged_ranks == ["rank2"]
        assert rep.max_rank_skew == pytest.approx(2.2)
        assert "rank2" in rep.render()

    def test_flags_slow_link_against_class_median(self):
        spans = [self._span(i, f"world.rank{i}", 0.0, 0.1,
                            resources=(f"g{i}.pcie_up",))
                 for i in range(4)]
        spans.append(self._span(4, "world.rank1", 0.1, 0.5,
                                resources=("g1.pcie_up",)))
        rep = StragglerDetector(self._fake_recorder(spans)).report()
        assert rep.slow_links == ["g1.pcie_up"]
        assert rep.link_skew["g1.pcie_up"] == pytest.approx(5.0)

    def test_comm_matrix_byte_totals(self):
        rec = self._fake_recorder([], comm={(0, 1): [2, 100],
                                            (1, 0): [1, 50]})
        rep = StragglerDetector(rec).report()
        assert rep.rank_bytes == {0: 150, 1: 150}

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            StragglerDetector(self._fake_recorder([]), threshold=1.0)

    def test_pvars_read_through(self):
        spans = [
            self._span(0, "world.rank0", 0.0, 1.0),
            self._span(1, "world.rank1", 0.0, 1.0),
            self._span(2, "world.rank2", 0.0, 2.0),
        ]
        det = StragglerDetector(self._fake_recorder(spans))
        session = TelemetrySession()
        bind_straggler_pvars(session, det)
        bind_straggler_pvars(session, det)  # idempotent re-bind
        assert session.pvar_read("obs.straggler.flagged_ranks") == 1
        assert session.pvar_read("obs.straggler.max_rank_skew") == \
            pytest.approx(2.0)
        busy = session.pvar_read("obs.straggler.rank_busy")
        assert busy == {"rank0": 1.0, "rank1": 1.0, "rank2": 2.0}
        # All obs PVARs stay out of the periodic-scrape time series.
        for pv in session._pvars.values():
            if pv.name.startswith("obs.straggler."):
                assert not pv.timeseries

    def test_detects_injected_gpu_slowdown(self):
        sim = Simulator(seed=7)
        rec = SpanRecorder(sim)
        plan = FaultPlan(name="slow-gpu1",
                         events=(GpuSlow(start=0.0, gpu=1, factor=3.0),))
        report = run_scaffe(make_cluster(sim, "A"), 4, _quick_cfg(),
                            recorder=rec, fault_plan=plan)
        assert report.ok
        rep = StragglerDetector(rec).report()
        assert rep.flagged_ranks == ["rank1"]

    def test_balanced_run_flags_nothing(self, run_mv2):
        rep = run_mv2["straggler"]
        assert rep["flagged_ranks"] == []
        assert set(rep["rank_busy"]) == {f"rank{i}" for i in range(4)}

    def test_report_cached_per_span_count(self):
        det = StragglerDetector(self._fake_recorder(
            [self._span(0, "world.rank0", 0.0, 1.0)]))
        assert det.report() is det.report()


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        sim = Simulator(seed=3)
        rec = SpanRecorder(sim)
        fl = FlightRecorder(rec, capacity=64)
        run_scaffe(make_cluster(sim, "A"), 4, _quick_cfg(), recorder=rec)
        assert len(fl.events) == 64
        assert fl.seen > 64
        # Ring keeps the *most recent* activity, oldest first.
        ts = [e["t"] for e in fl.snapshot()]
        assert ts == sorted(ts)
        assert ts[-1] == pytest.approx(max(s.end for s in rec.spans))

    def test_event_for_event_neutral(self):
        """Seeded run with a flight recorder is identical to without."""
        sim1 = Simulator(seed=9)
        r1 = run_scaffe(make_cluster(sim1, "A"), 4, _quick_cfg(),
                        recorder=SpanRecorder(sim1))
        sim2 = Simulator(seed=9)
        rec2 = SpanRecorder(sim2)
        FlightRecorder(rec2, capacity=32)
        r2 = run_scaffe(make_cluster(sim2, "A"), 4, _quick_cfg(),
                        recorder=rec2)
        assert r1.simulated_time == r2.simulated_time
        assert r1.phase_breakdown == r2.phase_breakdown
        assert sim1.event_count == sim2.event_count

    def test_straggler_binding_is_passive(self):
        """Telemetry + straggler PVARs do not perturb a recorded run."""
        sim1 = Simulator(seed=9)
        r1 = run_scaffe(make_cluster(sim1, "A"), 4, _quick_cfg(),
                        recorder=SpanRecorder(sim1))
        sim2 = Simulator(seed=9)
        session = TelemetrySession()
        r2 = run_scaffe(make_cluster(sim2, "A"), 4, _quick_cfg(),
                        recorder=SpanRecorder(sim2), telemetry=session)
        assert "obs.straggler.max_rank_skew" in session.pvar_names()
        assert r1.simulated_time == r2.simulated_time
        assert sim1.event_count == sim2.event_count

    def test_dump_payload_and_file(self, tmp_path):
        sim = Simulator(seed=3)
        rec = SpanRecorder(sim)
        path = tmp_path / "flight.json"
        fl = FlightRecorder(rec, capacity=16, path=str(path))
        run_scaffe(make_cluster(sim, "A"), 4, _quick_cfg(), recorder=rec)
        payload = fl.dump("manual post-mortem")
        assert payload["format"] == "repro.obs.flight/1"
        assert payload["reason"] == "manual post-mortem"
        assert payload["events_dropped"] == fl.seen - 16
        assert len(payload["events"]) == 16
        assert fl.dumps == 1 and fl.last_dump is payload
        on_disk = json.loads(path.read_text())
        assert on_disk == payload

    def test_notes_stamp_simulated_time(self):
        sim = Simulator(seed=0)
        fl = FlightRecorder(SpanRecorder(sim))
        fl.note("test.note", "hello")
        assert fl.snapshot()[-1] == {"ev": "note", "t": 0.0,
                                     "kind": "test.note",
                                     "detail": "hello"}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_watchdog_escalation_dumps_the_ring(self):
        """A stalled link ends in a watchdog dump naming the step."""
        sim = Simulator(seed=7)
        rec = SpanRecorder(sim)
        fl = FlightRecorder(rec, capacity=128)
        plan = FaultPlan(name="stall", events=(
            StallLink(start=0.005, target=("pcie", 1, "up")),))
        run_scaffe(make_cluster(sim, "A"), 4, _quick_cfg(),
                   recorder=rec, fault_plan=plan)
        assert fl.dumps >= 1
        assert "watchdog" in fl.last_dump["reason"]
        notes = [e for e in fl.last_dump["events"] if e["ev"] == "note"]
        assert any(n["kind"].startswith("watchdog.") for n in notes)

    def test_chaos_stall_cell_ships_flight_events(self):
        from repro.check import Case, run_case
        res = run_case(Case("allreduce_ring", P=4, nbytes=1024, seed=5,
                            fault="stall"))
        assert res.outcome == "error"
        assert res.flight
        kinds = [e["kind"] for e in res.flight if e["ev"] == "note"]
        assert "watchdog.timeout" in kinds
