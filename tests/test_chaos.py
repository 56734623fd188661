"""Chaos layer: every injected failure recovers exactly or fails loud."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.morphstreamr import MorphStreamR
from repro.errors import InjectedCrash, MissingSegmentError
from repro.ft.wal import WriteAheadLog
from repro.check.runner import (
    CheckConfig,
    RunObservation,
    make_workload,
    run_schedule,
)
from repro.harness.chaos import (
    CHAOS_SCENARIO,
    CRASH_POINTS,
    FAULT_KINDS,
    CHAOS_SCHEMA,
    NESTED_CELL,
    ChaosConfig,
    chaos_cells,
    chaos_payload,
    grade,
    load_chaos_payload,
    run_chaos,
    smoke_config,
)
from repro.harness.runner import ground_truth
from repro.storage.codec import encode
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.filedisk import FileBackedDisk
from repro.storage.stores import Disk

DOCUMENTED_OUTCOMES = ("exact", "exact-degraded", "failed-loud")


class TestChaosProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        scheme=st.sampled_from(("MSR", "WAL", "DL", "LV", "CKPT")),
        fault=st.sampled_from(FAULT_KINDS),
        point=st.sampled_from(CRASH_POINTS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_cell_recovers_exactly_or_fails_loud(
        self, scheme, fault, point, seed
    ):
        """The chaos contract: under any seeded fault × crash-point
        combination, every scheme either recovers bit-exactly (possibly
        via the fallback ladder) or raises a documented StorageError
        subclass without installing state.  No silent divergence, no
        undocumented exceptions."""
        cfg = ChaosConfig(
            schemes=(scheme,),
            fault_kinds=(fault,),
            crash_points=(point,),
            worker_faults=(),
            recovery_crash_points=(),
            cluster_placements=(),
            scenario=replace(CHAOS_SCENARIO, seed=seed),
        )
        (cell,) = chaos_cells(cfg)
        run = grade(cell, run_schedule(cell.schedule, cell.scenario))
        assert run.ok, f"{scheme}/{fault}/{point}: {run.outcome} {run.detail}"
        assert run.outcome in DOCUMENTED_OUTCOMES


class TestMSRTornViewLog:
    def test_torn_view_segment_triggers_ladder_and_recovers_exact(self):
        """The acceptance scenario: a torn tail segment in MSR's view
        log visibly takes the replay rung and still recovers exactly."""
        workload = make_workload()
        injector = FaultInjector(
            [FaultSpec("torn", target="log", nth=6, stream="msr")]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
            gc_keep_checkpoints=2,
        )
        events = workload.generate(48 * 6, seed=7)
        scheme.process_stream(events)
        scheme.crash()
        report = scheme.recover()
        # The ladder stepped down for the torn epoch and says so.
        assert report.ladder.get("replay", 0) >= 1
        assert report.degraded()
        assert any(f.error == "TornSegmentError" for f in report.fallbacks)
        assert any("torn" in f.detail for f in report.fallbacks)
        # ... and exactness still holds.
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs

    def test_strict_mode_fails_loud_on_torn_view_segment(self):
        from repro.errors import StorageError

        workload = make_workload()
        injector = FaultInjector(
            [FaultSpec("torn", target="log", nth=6, stream="msr")]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
            allow_degraded_recovery=False,
        )
        scheme.process_stream(workload.generate(48 * 6, seed=7))
        scheme.crash()
        with pytest.raises(StorageError):
            scheme.recover()
        assert scheme.store is None  # nothing installed; retry possible


class TestMidEpochCrash:
    def test_crash_during_group_commit_reprocesses_the_sealed_epoch(self):
        workload = make_workload()
        injector = FaultInjector(
            [FaultSpec("crash", target="log", nth=6, stream="msr")]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
        )
        events = workload.generate(48 * 6, seed=7)
        with pytest.raises(InjectedCrash):
            scheme.process_stream(events)
        assert scheme.crash_epoch == 4  # epoch 5's commit tore mid-flush
        scheme.recover()
        injector.disarm()
        # The sealed-but-unprocessed epoch went back to the ingress
        # tail; an empty push drains it through the ordinary pipeline.
        scheme.process_stream([])
        expected_state, expected_outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)
        assert scheme.sink.outputs() == expected_outputs

    def test_crash_during_checkpoint_falls_back_to_older_checkpoint(self):
        workload = make_workload()
        injector = FaultInjector(
            [FaultSpec("crash", target="snapshot", nth=2)]
        )
        scheme = MorphStreamR(
            workload,
            num_workers=4,
            epoch_len=48,
            snapshot_interval=4,
            disk=Disk(faults=injector),
        )
        events = workload.generate(48 * 6, seed=7)
        with pytest.raises(InjectedCrash):
            scheme.process_stream(events)
        assert scheme.crash_epoch == 2  # epoch 3's checkpoint tore
        report = scheme.recover()
        # The torn interval checkpoint was discarded as crash debris;
        # recovery restored from the initial checkpoint.
        assert report.checkpoint_epoch == -1
        injector.disarm()
        scheme.process_stream([])
        expected_state, _outputs = ground_truth(workload, events)
        assert scheme.store.equals(expected_state)


class TestFileDiskTornTail:
    RUN = dict(num_workers=3, epoch_len=50, snapshot_interval=3)

    def test_physically_truncated_tail_segment_recovers_via_ladder(
        self, tmp_path, gs
    ):
        """A real torn flush on a real file: the dying process leaves a
        half-written WAL segment; reopening truncates the torn tail and
        recovery degrades to event replay — still exact."""
        events = gs.generate(350, seed=0)  # epochs 0..6
        disk = FileBackedDisk(tmp_path)
        scheme = WriteAheadLog(gs, disk=disk, **self.RUN)
        scheme.process_stream(events)
        # The "process" dies mid-flush of its newest WAL segment.
        seg = tmp_path / "logs" / "wal" / "6.bin"
        blob = seg.read_bytes()
        seg.write_bytes(blob[: len(blob) // 2])

        reopened = FileBackedDisk(tmp_path)
        assert ("wal", 6) in reopened.logs.truncated_tails
        assert not seg.exists()  # the torn tail was truncated away
        fresh = WriteAheadLog(gs, disk=reopened, **self.RUN)
        fresh.adopt_crash_state()
        report = fresh.recover()
        assert report.ladder.get("replay", 0) == 1
        assert report.fallbacks[0].error == "MissingSegmentError"
        expected, _txns, _outcome = serial_state(gs, events[:350])
        assert fresh.store.equals(expected)

    def test_mid_history_corruption_is_kept_for_the_ladder(self, tmp_path):
        """Only trailing unreadable segments are tail debris; damage
        behind a readable segment is kept and must fail loudly at read
        time (the ladder decides what to do with it)."""
        disk = FileBackedDisk(tmp_path)
        for epoch in (1, 2, 3):
            disk.logs.commit_epoch("wal", epoch, encode([f"r{epoch}"]))
        mid = tmp_path / "logs" / "wal" / "2.bin"
        blob = mid.read_bytes()
        mid.write_bytes(blob[: len(blob) // 2])

        reopened = FileBackedDisk(tmp_path)
        assert reopened.logs.truncated_tails == []
        assert reopened.logs.has_epoch("wal", 2)  # kept, not hidden
        from repro.errors import TornSegmentError

        with pytest.raises(TornSegmentError):
            reopened.logs.read_epoch("wal", 2)
        reopened.logs.read_epoch("wal", 3)  # the readable tail survives


class TestChaosSweep:
    def test_smoke_sweep_passes_with_all_documented_outcomes(self):
        report = run_chaos(smoke_config())
        assert report.passed, [
            (r.scheme, r.fault, r.crash_point, r.detail)
            for r in report.failures
        ]
        counts = report.outcome_counts()
        assert set(counts) <= set(DOCUMENTED_OUTCOMES)
        # The sweep exercises the ladder, not just clean recoveries.
        assert counts.get("exact-degraded", 0) >= 1
        # MSR's torn view log visibly took the replay rung.
        msr_torn = [
            r for r in report.runs if r.scheme == "MSR" and r.fault == "torn"
        ]
        assert msr_torn
        assert all(r.ladder.get("replay", 0) >= 1 for r in msr_torn)
        # Every recovering cell reports a positive MTTR; loud-failure
        # cells (e.g. the cluster overwhelm cell, where an expected
        # data loss IS the pass condition) recover nothing.
        assert all(
            r.mttr_seconds > 0
            for r in report.runs
            if r.ok and r.outcome != "failed-loud"
        )

    def test_config_rejects_nat(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ChaosConfig(schemes=("NAT",))

    def test_check_config_rejects_nat(self):
        from repro.cli import main
        from repro.errors import ConfigError
        from repro.exitcodes import EXIT_USAGE

        with pytest.raises(ConfigError, match="NAT"):
            CheckConfig(schemes=("NAT",))
        # The CLI refuses before exploring, instead of reporting NAT's
        # missing fault tolerance as an undocumented-failure counterexample.
        argv = ["check", "--schemes", "NAT", "--no-cluster", "--budget", "4"]
        assert main(argv) == EXIT_USAGE

    def test_full_sweep_is_a_fixed_schedule_list(self):
        from collections import Counter

        cells = chaos_cells(ChaosConfig())
        assert Counter(c.family for c in cells) == {
            "storage": 105,
            "worker": 21,
            "rpoint": 36,
            "kill": 7,
        }
        # Recovery milestones come from the crash-point registry, so the
        # MSR-only chain point gets exactly one cell.
        chain = [c.schedule.scheme for c in cells if c.crash_point == "recovery.chain"]
        assert chain == ["MSR"]
        overwhelm = cells[-1]
        assert overwhelm.expect == ("failed-loud",)
        assert overwhelm.scenario.cluster_replication == 1

    def test_config_rejects_unknown_worker_fault_and_recovery_point(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ChaosConfig(worker_faults=("die-eventually",))
        with pytest.raises(ConfigError):
            ChaosConfig(recovery_crash_points=("recovery.coffee-break",))


#: Every cell of the smoke sweep, pinned: (scheme, fault, crash_point,
#: outcome, attempts, ladder, mttr_seconds).  Virtual time is
#: deterministic, so any refactor of the fault-scenario pipeline must
#: leave this table untouched, bit for bit.
SMOKE_GOLDEN = [
    ("MSR", "none", "boundary", "exact", 1, {"fast": 2}, 0.0004867075500000016),
    ("MSR", "none", "mid-commit", "exact", 1, {"fast": 1}, 0.0002838459500000005),
    ("MSR", "torn", "boundary", "exact-degraded", 1,
     {"fast": 1, "replay": 1}, 0.0007891019500000024),
    ("MSR", "torn", "mid-commit", "exact-degraded", 1,
     {"replay": 1}, 0.0005596367499999992),
    ("WAL", "none", "boundary", "exact", 1, {"fast": 2}, 0.0011357755499999994),
    ("WAL", "none", "mid-commit", "exact", 1, {"fast": 1}, 0.0005916463499999998),
    ("WAL", "torn", "boundary", "exact-degraded", 1,
     {"fast": 1, "replay": 1}, 0.0010761383500000042),
    ("WAL", "torn", "mid-commit", "exact-degraded", 1,
     {"replay": 1}, 0.0005388747499999998),
    ("PACMAN", "none", "boundary", "exact", 1, {"fast": 2}, 0.0007983755499999978),
    ("PACMAN", "none", "mid-commit", "exact", 1, {"fast": 1}, 0.0005460463499999996),
    ("PACMAN", "torn", "boundary", "exact-degraded", 1,
     {"fast": 1, "replay": 1}, 0.0010305383500000041),
    ("PACMAN", "torn", "mid-commit", "exact-degraded", 1,
     {"replay": 1}, 0.0005388747499999998),
    ("LVC", "none", "boundary", "exact", 1, {"fast": 2}, 0.0009080735500000011),
    ("LVC", "none", "mid-commit", "exact", 1, {"fast": 1}, 0.0005154135500000002),
    ("LVC", "torn", "boundary", "exact-degraded", 1,
     {"fast": 1, "replay": 1}, 0.0009999055500000038),
    ("LVC", "torn", "mid-commit", "exact-degraded", 1,
     {"replay": 1}, 0.0005388747499999998),
    ("CKPT", "none", "boundary", "exact", 1, {"fast": 2}, 0.0010233667500000043),
    ("CKPT", "none", "mid-commit", "exact", 1, {"fast": 2}, 0.0010233667500000043),
    ("CKPT", "torn", "boundary", "exact-degraded", 1, {"fast": 6}, 0.0030373242999999885),
    ("CKPT", "torn", "mid-commit", "exact-degraded", 1,
     {"fast": 6}, 0.0030373242999999885),
    ("MSR", "worker:die-early", "boundary", "exact", 1,
     {"fast": 2}, 0.000596457550000001),
    ("MSR", "worker:straggle", "boundary", "exact", 1, {"fast": 2}, 0.00094995755),
    ("MSR", "none", "recovery.epoch-replayed", "exact", 2,
     {"fast": 2}, 0.0007295903500000021),
    ("MSR", "none", "recovery.finalize", "exact", 2, {"fast": 2}, 0.0005073471500000016),
    ("MSR", "none", "recovery.epoch-replayed:x2", "exact", 3,
     {"fast": 2}, 0.0009724731500000026),
    ("WAL", "worker:die-early", "boundary", "exact", 1,
     {"fast": 2}, 0.0011357755499999994),
    ("WAL", "worker:straggle", "boundary", "exact", 1,
     {"fast": 2}, 0.0011357755499999994),
    ("WAL", "none", "recovery.epoch-replayed", "exact", 2,
     {"fast": 2}, 0.0016664451499999993),
    ("WAL", "none", "recovery.finalize", "exact", 2, {"fast": 2}, 0.0011564151499999994),
    ("WAL", "none", "recovery.epoch-replayed:x2", "exact", 3,
     {"fast": 2}, 0.0021971147499999987),
    ("PACMAN", "worker:die-early", "boundary", "exact", 1,
     {"fast": 2}, 0.0009561755499999983),
    ("PACMAN", "worker:straggle", "boundary", "exact", 1,
     {"fast": 2}, 0.002123870687500001),
    ("PACMAN", "none", "recovery.epoch-replayed", "exact", 2,
     {"fast": 2}, 0.0012834463499999977),
    ("PACMAN", "none", "recovery.finalize", "exact", 2,
     {"fast": 2}, 0.0008190163499999978),
    ("PACMAN", "none", "recovery.epoch-replayed:x2", "exact", 3,
     {"fast": 2}, 0.0017685171499999975),
    ("LVC", "worker:die-early", "boundary", "exact", 1,
     {"fast": 2}, 0.001147323550000002),
    ("LVC", "worker:straggle", "boundary", "exact", 1,
     {"fast": 2}, 0.0024988467875000013),
    ("LVC", "none", "recovery.epoch-replayed", "exact", 2,
     {"fast": 2}, 0.0013625103500000011),
    ("LVC", "none", "recovery.finalize", "exact", 2, {"fast": 2}, 0.0009287131500000011),
    ("LVC", "none", "recovery.epoch-replayed:x2", "exact", 3,
     {"fast": 2}, 0.0018169471500000013),
    ("CKPT", "worker:die-early", "boundary", "exact", 1,
     {"fast": 2}, 0.0012595667500000048),
    ("CKPT", "worker:straggle", "boundary", "exact", 1,
     {"fast": 2}, 0.002051903687499997),
    ("CKPT", "none", "recovery.epoch-replayed", "exact", 2,
     {"fast": 2}, 0.0015012651500000045),
    ("CKPT", "none", "recovery.finalize", "exact", 2, {"fast": 2}, 0.0010440067500000043),
    ("CKPT", "none", "recovery.epoch-replayed:x2", "exact", 3,
     {"fast": 2}, 0.0019791635500000042),
    ("CLUSTER", "checkpoint_spread/r1", "node:0.0", "exact", 1,
     {"fast": 3}, 0.5006469603),
    ("CLUSTER", "checkpoint_spread/r1", "rack:0", "exact", 1, {"fast": 6}, 0.5006469603),
    ("CLUSTER", "standby_replay/r1", "node:0.0", "exact", 1, {"fast": 3}, 0.5006469603),
    ("CLUSTER", "standby_replay/r1", "rack:0", "exact", 1, {"fast": 6}, 0.5006469603),
    ("CLUSTER", "checkpoint_spread/r1", "node:0.0+node:1.0", "failed-loud", 1, {}, 0.0),
]


class TestSmokeGolden:
    def test_every_smoke_cell_matches_the_pinned_table(self):
        report = run_chaos(smoke_config())
        observed = [
            (
                r.scheme,
                r.fault,
                r.crash_point,
                r.outcome,
                r.attempts,
                dict(r.ladder),
                r.mttr_seconds,
            )
            for r in report.runs
        ]
        assert len(observed) == len(SMOKE_GOLDEN) == 50
        for got, want in zip(observed, SMOKE_GOLDEN):
            assert got == want


class TestGrade:
    """Grading observations that no passing sweep produces."""

    def test_divergence_unexpected_loss_and_installed_state_fail(self):
        cells = chaos_cells(smoke_config())
        single = cells[0]
        diverged = RunObservation(
            single.schedule,
            outcome="recovered",
            state_exact=False,
            outputs_exact=True,
            detail="state diverges: x",
        )
        run = grade(single, diverged)
        assert not run.ok
        assert run.outcome == "UNEXPECTED"
        assert run.detail == "SILENT DIVERGENCE: state diverges: x"
        installed = RunObservation(
            single.schedule, outcome="failed-loud", installed_after_failure=True
        )
        assert not grade(single, installed).ok
        kill = next(c for c in cells if c.family == "kill")
        lost = RunObservation(
            kill.schedule, outcome="failed-loud", data_loss=True, detail="lost"
        )
        run = grade(kill, lost)
        assert not run.ok
        assert run.detail == "expected exact: lost"
        overwhelm = cells[-1]
        recovered = RunObservation(
            overwhelm.schedule, outcome="recovered", cluster_exact=True
        )
        assert not grade(overwhelm, recovered).ok

class TestChaosRecoveryDimensions:
    """The worker-failure and crash-during-recovery sweep families."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(smoke_config())

    def test_smoke_includes_worker_failure_cells(self, report):
        worker_cells = [
            r for r in report.runs if r.fault.startswith("worker:")
        ]
        assert len(worker_cells) >= 2
        assert report.passed
        # At least one death was observed and re-assigned somewhere.
        deaths = [r for r in worker_cells if r.dead_workers]
        assert deaths
        assert all(r.reassign_rounds >= 1 for r in deaths)
        assert all(r.tasks_reassigned > 0 for r in deaths)

    def test_smoke_includes_crash_during_recovery_cells(self, report):
        recovery_cells = [
            r for r in report.runs if r.crash_point.startswith("recovery.")
        ]
        assert recovery_cells
        converged = [r for r in recovery_cells if r.crash_point != NESTED_CELL]
        assert all(r.attempts == 2 for r in converged)
        assert all(r.outcome == "exact" for r in recovery_cells)

    def test_nested_cell_converges_in_three_attempts(self, report):
        nested = [r for r in report.runs if r.crash_point == NESTED_CELL]
        assert nested
        assert all(r.attempts == 3 for r in nested)
        assert all(r.ok for r in nested)
        # Wasted re-execution is measured, not hidden.
        assert all(r.wasted_ratio > 0 for r in nested)

    def test_payload_reports_histogram_and_wasted_work(self, report):
        import json

        payload = chaos_payload(report)
        assert payload["passed"] is True
        assert payload["summary"]["cells"] == len(report.runs)
        assert payload["summary"]["ladder_histogram"].get("fast", 0) > 0
        assert 0 < payload["summary"]["wasted_ratio"] < 1
        cell = payload["cells"][0]
        for key in (
            "ladder",
            "attempts",
            "resumed",
            "reassign_rounds",
            "tasks_reassigned",
            "wasted_ratio",
            "mttr_seconds",
        ):
            assert key in cell
        json.dumps(payload)  # exportable as-is

    def test_payload_is_schema_tagged_and_round_trips(self, report):
        import json

        payload = chaos_payload(report)
        assert payload["schema"] == CHAOS_SCHEMA
        loaded = load_chaos_payload(json.loads(json.dumps(payload)))
        assert loaded["passed"] is payload["passed"]

    def test_loader_tolerates_unknown_fields(self, report):
        payload = chaos_payload(report)
        payload["future_section"] = {"anything": [1, 2, 3]}
        payload["cells"][0]["future_metric"] = 0.5
        assert load_chaos_payload(payload) is payload

    def test_mttr_covers_crashed_attempts(self, report):
        # A cell that needed N attempts spent more virtual time than its
        # final successful pass alone; MTTR must reflect the whole story.
        nested = [r for r in report.runs if r.crash_point == NESTED_CELL]
        single = [
            r
            for r in report.runs
            if r.scheme == nested[0].scheme
            and r.fault == "none"
            and r.crash_point == "boundary"
        ]
        assert nested[0].mttr_seconds > single[0].mttr_seconds


class TestChaosPayloadLoader:
    """Schema gate for ``repro chaos --json`` documents (no sweep needed)."""

    MINIMAL = {"schema": CHAOS_SCHEMA, "passed": True, "cells": [], "summary": {}}

    def test_wrong_schema_rejected(self):
        from repro.errors import ConfigError

        bad = dict(self.MINIMAL, schema="repro.chaos/v999")
        with pytest.raises(ConfigError, match="unsupported chaos schema"):
            load_chaos_payload(bad)
        with pytest.raises(ConfigError):
            load_chaos_payload({"passed": True})  # tag missing entirely

    def test_missing_required_field_rejected(self):
        from repro.errors import ConfigError

        for key in ("passed", "cells", "summary"):
            broken = {k: v for k, v in self.MINIMAL.items() if k != key}
            with pytest.raises(ConfigError, match=key):
                load_chaos_payload(broken)

    def test_non_object_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            load_chaos_payload(["not", "a", "dict"])


def serial_state(workload, events):
    from tests.conftest import serial_ground_truth

    return serial_ground_truth(workload, events)
