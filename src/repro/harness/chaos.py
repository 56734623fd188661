"""Chaos harness: a fixed list of fault schedules, run by the check runner.

Each chaos cell is a :class:`~repro.check.schedule.Schedule` executed by
:func:`repro.check.runner.run_schedule` — the same inject → process →
crash → recover → verify pipeline ``repro check`` explores with — and
its observation is graded into a chaos outcome.  The cell families:

- **storage grid**: scheme × storage damage (torn flush, bit flip,
  dropped flush, read error, or none) × crash placement (epoch boundary,
  mid group commit, mid checkpoint);
- **worker failure**: one recovery worker dies or straggles during
  parallel replay; its chains must move to survivors;
- **crash during recovery**: ``recover()`` dies at each registered
  ``recovery.*`` milestone the scheme reaches (:mod:`repro.crashpoints`)
  — twice in a row in the nested cell — and every re-run must resume
  from the durable progress watermark;
- **cluster**: correlated kills per placement strategy, plus one
  overwhelm kill wider than the replication budget.

A cell passes when it ends in an outcome it expects: **exact** (state
and exactly-once outputs match the serial ground truth;
``exact-degraded`` when a lower ladder rung was taken) or
**failed-loud** (a documented :class:`~repro.errors.StorageError`
subclass, nothing installed).  Cluster kills within the replication
budget must recover; the overwhelm cell must fail loudly.  Anything
else — an undocumented exception, or a *silently* divergent recovery —
fails the sweep, and ``repro chaos`` exits non-zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.check.runner import (
    OUTCOME_FAILED_LOUD,
    OUTCOME_RECOVERED,
    CheckConfig,
    RunObservation,
    run_schedule,
)
from repro.check.schedule import (
    CLUSTER_SCHEME,
    CRASH_KINDS,
    FAMILY_CRASH,
    FAMILY_KILL,
    FAMILY_RPOINT,
    FAMILY_STORAGE,
    FAMILY_WORKER,
    KILL_KINDS,
    STORAGE_KINDS,
    WORKER_KINDS,
    FaultAtom,
    Schedule,
)
from repro.cluster import PLACEMENT_NAMES
from repro.crashpoints import DOMAIN_RECOVERY, registered_points
from repro.errors import ConfigError

#: Where the injected crash lands relative to the epoch lifecycle.
CRASH_POINTS = ("boundary",) + CRASH_KINDS
#: Storage damage injected alongside the crash.
FAULT_KINDS = ("none",) + STORAGE_KINDS
#: Worker-level failures injected into the parallel recovery itself.
WORKER_FAULTS = WORKER_KINDS
#: The milestone the nested cell crashes at, on its first two passes.
NESTED_POINT = "recovery.epoch-replayed"
#: Label of the nested (crash-the-crashed-recovery) cell.
NESTED_CELL = f"{NESTED_POINT}:x2"
#: The overwhelm cell's kill: the primary's node plus the node its
#: first replica lands on — wider than replication factor 1.
OVERWHELM_KILL = "node:0.0+node:1.0"

#: Outcomes a chaos cell may end in.
OUTCOME_EXACT = "exact"
OUTCOME_DEGRADED = "exact-degraded"
OUTCOME_UNEXPECTED = "UNEXPECTED"
#: What a single-node cell may legitimately end in.
DOCUMENTED_OUTCOMES = (OUTCOME_EXACT, OUTCOME_DEGRADED, OUTCOME_FAILED_LOUD)

#: Schema tag of the ``repro chaos --json`` export (same convention as
#: ``repro.soak/v1`` and ``repro.soak.bench/v1`` in harness/slo.py).
CHAOS_SCHEMA = "repro.chaos/v1"

#: The scenario every chaos cell runs under: the explorer's, with
#: longer epochs and a tighter recover() retry budget.
CHAOS_SCENARIO = CheckConfig(epoch_len=48, max_recovery_attempts=6)


def recovery_points(scheme: Optional[str] = None) -> Tuple[str, ...]:
    """Registered recovery milestones ``scheme`` reaches, in crossing order."""
    return tuple(
        p.name
        for p in registered_points(
            domain=DOMAIN_RECOVERY, scheme=scheme, by_name=False
        )
    )


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos sweep: the sweep axes and the scenario cells run under."""

    schemes: Tuple[str, ...] = ("MSR", "WAL", "PACMAN", "DL", "LV", "LVC", "CKPT")
    fault_kinds: Tuple[str, ...] = FAULT_KINDS
    crash_points: Tuple[str, ...] = CRASH_POINTS
    #: worker-failure cells run per scheme (empty tuple disables them).
    worker_faults: Tuple[str, ...] = WORKER_FAULTS
    #: recovery milestones crashed at, per scheme that reaches them;
    #: the nested cell runs whenever this is non-empty.
    recovery_crash_points: Tuple[str, ...] = field(default_factory=recovery_points)
    #: cluster cells: placement strategies × correlated-kill targets,
    #: plus the overwhelm cell (an empty tuple disables the family).  A
    #: kill may name several simultaneous domains joined by ``+``.
    cluster_placements: Tuple[str, ...] = PLACEMENT_NAMES
    cluster_kills: Tuple[str, ...] = ("shard:0", "node:0.0", "rack:0")
    #: seed, workers, epochs, backend and cluster shape of every cell.
    scenario: CheckConfig = CHAOS_SCENARIO

    def __post_init__(self) -> None:
        # The scenario validates the swept schemes (NAT cannot recover).
        object.__setattr__(
            self, "scenario", replace(self.scenario, schemes=self.schemes)
        )
        kill_parts = [part for kill in self.cluster_kills for part in kill.split("+")]
        for axis, values, known in (
            ("fault kinds", self.fault_kinds, FAULT_KINDS),
            ("crash points", self.crash_points, CRASH_POINTS),
            ("worker faults", self.worker_faults, WORKER_FAULTS),
            ("recovery crash points", self.recovery_crash_points, recovery_points()),
            ("cluster placements", self.cluster_placements, PLACEMENT_NAMES),
            ("cluster kills", kill_parts, KILL_KINDS),
        ):
            if set(values) - set(known):
                raise ConfigError(f"{axis} must be among {known}")


@dataclass(frozen=True)
class ChaosCell:
    """One sweep cell: a schedule, the scenario it runs under, its labels."""

    schedule: Schedule
    scenario: CheckConfig
    #: report labels: the injected fault and where the crash lands.
    fault: str
    crash_point: str
    #: outcomes that pass the cell.
    expect: Tuple[str, ...] = DOCUMENTED_OUTCOMES

    @property
    def family(self) -> str:
        """The fault family the cell sweeps (storage grid by default)."""
        if self.schedule.scheme == CLUSTER_SCHEME:
            return FAMILY_KILL
        for family in (FAMILY_WORKER, FAMILY_RPOINT):
            if self.schedule.atoms_of(family):
                return family
        return FAMILY_STORAGE


@dataclass
class ChaosRun:
    """One cell of the sweep and how it ended."""

    scheme: str
    fault: str
    crash_point: str
    outcome: str
    ok: bool
    detail: str = ""
    #: the crash point that actually materialized (a mid-epoch crash
    #: cannot fire for a scheme that never writes the targeted store).
    actual_point: str = ""
    fault_fired: bool = False
    mid_crash: bool = False
    #: rung name -> epochs recovered via that rung.
    ladder: Dict[str, int] = field(default_factory=dict)
    checkpoint_fallbacks: int = 0
    #: virtual mean-time-to-recover, summed across every recover()
    #: attempt of this cell (crashed attempts included).
    mttr_seconds: float = 0.0
    #: recover() invocations this cell needed to converge.
    attempts: int = 1
    #: the final attempt resumed from a durable progress watermark.
    resumed: bool = False
    #: re-assignment rounds the resilient executor ran.
    reassign_rounds: int = 0
    #: chain tasks handed from dead workers to survivors.
    tasks_reassigned: int = 0
    #: recovery workers that died mid-replay.
    dead_workers: Tuple[int, ...] = ()
    #: events the final successful recovery replayed.
    events_replayed: int = 0
    #: events replayed by crashed attempts and replayed again later.
    wasted_events: int = 0
    #: chains re-executed because their chain mark was in flight.
    wasted_chains: int = 0
    #: wasted_events / (events_replayed + wasted_events).
    wasted_ratio: float = 0.0


@dataclass
class ChaosReport:
    """Sweep results plus the pass/fail verdict."""

    config: ChaosConfig
    runs: List[ChaosRun]

    @property
    def passed(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failures(self) -> List[ChaosRun]:
        return [run for run in self.runs if not run.ok]

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for run in self.runs:
            counts[run.outcome] = counts.get(run.outcome, 0) + 1
        return counts


def smoke_config(seed: int = 7) -> ChaosConfig:
    """The reduced sweep CI runs on every push.

    Includes two worker-failure kinds (a death and a straggler) and two
    crash-during-recovery milestones plus the nested double-crash cell,
    so the resumable-recovery machinery is exercised on every push.
    """
    return ChaosConfig(
        schemes=("MSR", "WAL", "PACMAN", "LVC", "CKPT"),
        fault_kinds=("none", "torn"),
        crash_points=("boundary", "mid-commit"),
        worker_faults=("die-early", "straggle"),
        recovery_crash_points=("recovery.epoch-replayed", "recovery.finalize"),
        cluster_kills=("node:0.0", "rack:0"),
        scenario=replace(CHAOS_SCENARIO, seed=seed),
    )


def chaos_cells(cfg: ChaosConfig) -> List[ChaosCell]:
    """The fixed schedule list one sweep runs, in report order."""

    def cell(
        scheme, atoms, fault="none", point="boundary",
        scenario=cfg.scenario, expect=DOCUMENTED_OUTCOMES,
    ) -> ChaosCell:
        return ChaosCell(Schedule(scheme, tuple(atoms)), scenario, fault, point, expect)

    cells = []
    for scheme in cfg.schemes:
        for fault in cfg.fault_kinds:
            for point in cfg.crash_points:
                atoms = [FaultAtom(FAMILY_STORAGE, fault)] if fault != "none" else []
                if point != "boundary":
                    atoms.append(FaultAtom(FAMILY_CRASH, point))
                cells.append(cell(scheme, atoms, fault, point))
    for scheme in cfg.schemes:
        for kind in cfg.worker_faults:
            cells.append(cell(scheme, [FaultAtom(FAMILY_WORKER, kind)], f"worker:{kind}"))
        for point in recovery_points(scheme):
            if point in cfg.recovery_crash_points:
                cells.append(cell(scheme, [FaultAtom(FAMILY_RPOINT, point)], point=point))
        if cfg.recovery_crash_points:
            # Kill the first recovery attempt after its first epoch
            # replay, then the *second* attempt at the same milestone —
            # the pass counter is shared across attempts, so nth=2 lands
            # in the resumed run.  Convergence despite nested failures.
            nested = [FaultAtom(FAMILY_RPOINT, NESTED_POINT, n) for n in (1, 2)]
            cells.append(cell(scheme, nested, point=NESTED_CELL))
    if not (cfg.cluster_placements and cfg.cluster_kills):
        return cells
    # Correlation width 2 against replication factor 1 (the overwhelm
    # cell): the cluster must refuse to fabricate state and fail loudly.
    overwhelm = replace(
        cfg.scenario, cluster_placement="checkpoint_spread", cluster_replication=1
    )
    kills = [
        (kill, replace(cfg.scenario, cluster_placement=placement), (OUTCOME_EXACT,))
        for placement in cfg.cluster_placements
        for kill in cfg.cluster_kills
    ] + [(OVERWHELM_KILL, overwhelm, (OUTCOME_FAILED_LOUD,))]
    for kill, scenario, expect in kills:
        label = f"{scenario.cluster_placement}/r{scenario.cluster_replication}"
        atoms = [FaultAtom(FAMILY_KILL, part) for part in kill.split("+")]
        cells.append(cell(CLUSTER_SCHEME, atoms, label, kill, scenario, expect))
    return cells


def grade(cell: ChaosCell, obs: RunObservation) -> ChaosRun:
    """The chaos verdict on one cell's observation."""
    outcome, detail = OUTCOME_UNEXPECTED, obs.detail
    if obs.outcome == OUTCOME_RECOVERED:
        if obs.schedule.scheme == CLUSTER_SCHEME:
            exact = obs.cluster_exact
        else:
            exact = obs.state_exact and obs.outputs_exact
        if exact:
            outcome = OUTCOME_DEGRADED if obs.degraded else OUTCOME_EXACT
            detail = obs.recovery_detail
        else:
            detail = f"SILENT DIVERGENCE: {obs.detail}"
    elif obs.outcome == OUTCOME_FAILED_LOUD:
        outcome = OUTCOME_FAILED_LOUD
    ok = outcome in cell.expect and not obs.installed_after_failure
    if outcome != OUTCOME_UNEXPECTED and outcome not in cell.expect:
        detail = f"expected {' or '.join(cell.expect)}: {detail}"
    replayed = obs.events_replayed + obs.wasted_events
    return ChaosRun(
        scheme=obs.schedule.scheme,
        fault=cell.fault,
        crash_point=cell.crash_point,
        outcome=outcome,
        ok=ok,
        detail=detail,
        actual_point=obs.actual_point,
        fault_fired=obs.fault_fired,
        mid_crash=obs.mid_crash,
        ladder=dict(obs.ladder),
        checkpoint_fallbacks=obs.checkpoint_fallbacks,
        mttr_seconds=obs.mttr_seconds,
        # A run that never got a report back made one attempt.
        attempts=max(1, obs.attempts),
        resumed=obs.resumed,
        reassign_rounds=obs.reassign_rounds,
        tasks_reassigned=obs.tasks_reassigned,
        dead_workers=obs.dead_workers,
        events_replayed=obs.events_replayed,
        wasted_events=obs.wasted_events,
        wasted_chains=obs.wasted_chains,
        wasted_ratio=obs.wasted_events / replayed if replayed else 0.0,
    )


def run_chaos(cfg: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run the full sweep; every cell is independent and seeded."""
    cfg = cfg or ChaosConfig()
    runs = [grade(c, run_schedule(c.schedule, c.scenario)) for c in chaos_cells(cfg)]
    return ChaosReport(config=cfg, runs=runs)


def chaos_payload(report: ChaosReport) -> Dict:
    """The JSON document ``repro chaos --json`` exports.

    Per cell: the verdict, the fallback-ladder rung histogram, the
    re-assignment counters, and the wasted-work ratio.  The summary
    aggregates the rung histogram and wasted re-execution across the
    whole sweep.
    """
    from repro.harness.stats import latency_summary

    ladder_total: Dict[str, int] = {}
    wasted_events = replayed_plus_wasted = 0
    for run in report.runs:
        for rung, count in run.ladder.items():
            ladder_total[rung] = ladder_total.get(rung, 0) + count
        wasted_events += run.wasted_events
        replayed_plus_wasted += run.events_replayed + run.wasted_events
    mttrs = [run.mttr_seconds for run in report.runs if run.mttr_seconds > 0]
    return {
        "schema": CHAOS_SCHEMA,
        "config": asdict(report.config),
        "passed": report.passed,
        "outcome_counts": report.outcome_counts(),
        "summary": {
            "cells": len(report.runs),
            "failures": len(report.failures),
            "ladder_histogram": ladder_total,
            "wasted_events": wasted_events,
            "wasted_ratio": (
                wasted_events / replayed_plus_wasted
                if replayed_plus_wasted
                else 0.0
            ),
            # The canonical latency digest (repro.harness.stats), so the
            # chaos MTTR sample quotes the same interpolated quantiles
            # as the soak trajectory.
            "mttr": latency_summary(mttrs),
        },
        "cells": [asdict(run) for run in report.runs],
    }


def load_chaos_payload(payload: Dict) -> Dict:
    """Validate a ``repro chaos --json`` document for downstream tooling.

    Same forward-compatibility stance as the soak trajectory loader in
    :mod:`repro.harness.slo`: the schema tag must match, the fields the
    consumer relies on must exist, and *unknown* fields are ignored so
    newer producers keep working with older consumers.
    """
    if not isinstance(payload, dict):
        raise ConfigError("chaos payload must be a JSON object")
    schema = payload.get("schema")
    if schema != CHAOS_SCHEMA:
        raise ConfigError(
            f"unsupported chaos schema {schema!r} (expected {CHAOS_SCHEMA})"
        )
    for key in ("passed", "cells", "summary"):
        if key not in payload:
            raise ConfigError(f"chaos payload missing field {key!r}")
    if not isinstance(payload["cells"], list):
        raise ConfigError("chaos payload cells must be a list")
    return payload
