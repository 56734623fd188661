"""The one fault-scenario pipeline: run a schedule, record what happened.

:func:`run_schedule` is the only code that executes a fault scenario:
inject → process → crash → recover (re-running ``recover()`` through
crashes inside recovery) → disarm and drain → verify against the
serial ground truth.  Two front ends drive it.  The explorer
(``repro check``, :mod:`repro.check.explorer`) enumerates schedules and
judges each observation with :mod:`repro.check.invariants`; the chaos
sweep (``repro chaos``, :mod:`repro.harness.chaos`) runs a fixed
schedule list and grades each observation as exact, exact-degraded or
failed-loud.

The runner owns the scenario: the canonical workload
(:func:`make_workload`), where storage damage and mid-epoch crashes
land (:func:`placed_fault_specs`), and when recovery workers die or
straggle (:func:`worker_fault_plan`).  It never judges the outcome; it
only *observes* (recovered state vs ground truth, watermark history,
ladder rungs taken, crash points crossed, degraded-read answers,
re-assignment and wasted-work counters).  Everything is seeded, so the
same (schedule, config) pair always yields the same observation — the
property replay and shrinking depend on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import SCHEMES
from repro.check.schedule import (
    CLUSTER_SCHEME,
    FAMILY_CRASH,
    FAMILY_KILL,
    FAMILY_RPOINT,
    FAMILY_STORAGE,
    FAMILY_WORKER,
    Schedule,
)
from repro.cluster import (
    ClusterFault,
    ClusterFaultPlan,
    ClusterTopology,
    ShardedCluster,
)
from repro.engine.refs import StateRef
from repro.errors import (
    ClusterDataLossError,
    ConfigError,
    InjectedCrash,
    ReassignmentError,
    ReproError,
    StorageError,
)
from repro.ft.base import RecoveryReport
from repro.harness.runner import ground_truth
from repro.sim.executor import WorkerFault
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stores import Disk
from repro.workloads.streaming_ledger import ACCOUNTS, StreamingLedger

#: Outcomes an observed run may end in.
OUTCOME_RECOVERED = "recovered"
OUTCOME_FAILED_LOUD = "failed-loud"
OUTCOME_NO_CONVERGE = "no-converge"
OUTCOME_UNEXPECTED = "unexpected-error"


@dataclass(frozen=True)
class CheckConfig:
    """One exploration: vocabulary scope, scenario knobs, run budget."""

    schemes: Tuple[str, ...] = ("MSR", "WAL", "PACMAN", "LVC", "CKPT")
    include_cluster: bool = True
    #: largest number of fault atoms combined in one schedule.
    max_depth: int = 2
    #: schedule executions the frontier may spend (baselines excluded).
    budget: int = 96
    #: orders the frontier among equal priorities; echoed on failures.
    seed: int = 7
    num_workers: int = 4
    epoch_len: int = 32
    snapshot_interval: int = 4
    total_epochs: int = 6
    gc_keep_checkpoints: int = 2
    max_recovery_attempts: int = 8
    cluster_shards: int = 4
    cluster_racks: int = 2
    cluster_nodes_per_rack: int = 2
    cluster_replication: int = 1
    cluster_placement: str = "checkpoint_spread"
    #: execution backend for single-scheme runs ("sim" or "real"); the
    #: cluster harness always runs sim (shards share one process).
    backend: str = "sim"
    #: fail the exploration when a registered recovery-domain crash
    #: point never fired across the whole run.
    require_coverage: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ConfigError(f"unknown schemes: {sorted(unknown)}")
        if "NAT" in self.schemes:
            raise ConfigError("NAT cannot recover; fault scenarios need FT schemes")
        if self.backend not in ("sim", "real"):
            raise ConfigError(
                f"unknown execution backend {self.backend!r} "
                "(expected 'sim' or 'real')"
            )
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.max_recovery_attempts < 1:
            raise ConfigError("max_recovery_attempts must be >= 1")
        if self.total_epochs <= self.snapshot_interval:
            raise ConfigError(
                "total_epochs must exceed snapshot_interval so crashes "
                "lose epochs past the checkpoint"
            )

    @property
    def num_events(self) -> int:
        return self.epoch_len * self.total_epochs

    def scenario_payload(self) -> Dict[str, object]:
        """The knobs that shape a run — fingerprinted with the schedule."""
        return {
            name: value
            for name, value in asdict(self).items()
            if name not in _EXPLORATION_KNOBS
        }


#: CheckConfig fields that pick what to explore, not how a run behaves.
_EXPLORATION_KNOBS = frozenset(
    ("schemes", "include_cluster", "max_depth", "budget", "require_coverage")
)


@dataclass
class RunObservation:
    """Everything the invariant registry and the chaos grading see of one run."""

    schedule: Schedule
    outcome: str = OUTCOME_UNEXPECTED
    detail: str = ""
    #: recovered state is bit-identical to the serial ground truth.
    state_exact: Optional[bool] = None
    #: delivered outputs match the ground truth exactly once.
    outputs_exact: Optional[bool] = None
    #: checkpoint epochs the ladder walked, newest first (empty when
    #: the final attempt resumed past the ladder).
    snapshot_candidates: List[int] = field(default_factory=list)
    checkpoint_epoch: Optional[int] = None
    checkpoint_fallbacks: int = 0
    ladder: Dict[str, int] = field(default_factory=dict)
    #: any rung below the fast path was taken.
    degraded: bool = False
    #: one-line account of the recovery: the first ladder fallback, or
    #: the shards recovered and the RTO of a cluster run.
    recovery_detail: str = ""
    #: durable (crash_epoch, next_epoch) watermark writes, in order.
    watermarks: List[Tuple[Optional[int], Optional[int]]] = field(
        default_factory=list
    )
    #: watermark slots found damaged and discarded (legitimate resets).
    watermark_degradations: int = 0
    #: degraded-read probe taken while crashed, or None if not probed.
    degraded_probe: Optional[Dict[str, object]] = None
    #: a loud failure left recovered state installed (it must not).
    installed_after_failure: bool = False
    #: crash-point name -> times crossed (armed or not).
    points_passed: Dict[str, int] = field(default_factory=dict)
    #: at least one scheduled fault fired (a kill that crashed the cluster).
    fault_fired: bool = False
    #: the stream died inside an epoch instead of at a boundary.
    mid_crash: bool = False
    #: where the crash materialized: the mid-epoch crash kind, or
    #: "boundary" when the targeted write never happened (e.g. CKPT
    #: commits no log segments); the kill epoch for a cluster run.
    actual_point: str = ""
    attempts: int = 0
    resumed: bool = False
    #: virtual recovery seconds, all attempts summed.
    mttr_seconds: float = 0.0
    events_processed: int = 0
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
    #: cluster-only observations.
    correlation_width: Optional[int] = None
    replication: Optional[int] = None
    data_loss: bool = False
    lost_shards: Tuple[int, ...] = ()
    cluster_exact: Optional[bool] = None


def make_workload() -> StreamingLedger:
    """The canonical fault-scenario workload.

    Every schedule stresses the same mix (transfers, multi-partition
    chains, forced aborts), so a schedule found by ``repro check`` can
    be discussed in chaos-cell terms and vice versa.
    """
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.4,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


def placed_fault_specs(
    fault_kind: str,
    crash_point: str,
    stream: Optional[str],
    *,
    snapshot_interval: int,
    total_epochs: int,
) -> List[FaultSpec]:
    """Place the faults so they hit segments recovery will need.

    Schemes group-commit one log segment per epoch, so the N-th log
    write is epoch N-1's segment (1-based).  Snapshot write #1 is the
    epoch ``-1`` initial checkpoint; #2 is the first interval
    checkpoint.  Placement per crash point:

    - ``boundary``: damage the last epoch's segment; the crash is an
      ordinary end-of-stream stoppage and recovery must replay it.
    - ``mid-commit``: damage the first post-checkpoint epoch's segment,
      then crash *inside* the next epoch's group commit (that flush is
      itself torn) — recovery discards the debris, degrades for the
      damaged epoch, and returns the sealed-but-unprocessed epoch to
      the ingress tail.
    - ``mid-checkpoint``: damage an early segment, then crash inside
      the first interval checkpoint flush — recovery must fall back to
      the initial checkpoint and replay everything.
    """
    specs: List[FaultSpec] = []
    if crash_point == "mid-commit":
        specs.append(
            FaultSpec(
                "crash",
                target="log",
                nth=snapshot_interval + 2,
                stream=stream,
            )
        )
    elif crash_point == "mid-checkpoint":
        specs.append(FaultSpec("crash", target="snapshot", nth=2))
    if fault_kind == "none":
        return specs
    if stream is None:
        # The scheme commits no log segments (CKPT): aim the damage at
        # the snapshot store instead, exercising the checkpoint rung of
        # the ladder — and, when the *only* checkpoint is hit, the
        # fail-loud bottom rung.
        if fault_kind == "read-error":
            specs.append(FaultSpec("read_error", target="snapshot", nth=1))
        elif crash_point == "mid-checkpoint":
            # Damage the initial checkpoint; the interval checkpoint is
            # the crash's own debris, so no readable restore point
            # remains and recovery must fail loudly.
            specs.append(FaultSpec(fault_kind, target="snapshot", nth=1))
        else:
            # Damage the interval checkpoint; the ladder walks back to
            # the initial one and replays every epoch.
            specs.append(FaultSpec(fault_kind, target="snapshot", nth=2))
        return specs
    if fault_kind == "read-error":
        specs.append(
            FaultSpec("read_error", target="log", nth=1, stream=stream)
        )
        return specs
    if crash_point == "boundary":
        nth = total_epochs
    elif crash_point == "mid-commit":
        nth = snapshot_interval + 1
    else:  # mid-checkpoint: an epoch replayed from the older checkpoint
        nth = 2
    specs.append(FaultSpec(fault_kind, target="log", nth=nth, stream=stream))
    return specs


def worker_fault_plan(
    kind: str, baseline_mttr: float, num_workers: int
) -> Tuple[WorkerFault, ...]:
    """The fault list for one worker-failure cell.

    Timing is anchored to the scheme's failure-free recovery time so
    the injected moment lands *inside* the parallel replay regardless
    of the cost model: ``die-early`` kills a worker before it runs a
    single chain, ``die-mid`` kills one roughly halfway through, and
    ``straggle`` slows one to a quarter speed from a quarter in.
    """
    if kind == "die-early":
        return (WorkerFault(1 % num_workers, "die", at_seconds=0.0),)
    if kind == "die-mid":
        return (
            WorkerFault(0, "die", at_seconds=0.5 * baseline_mttr),
        )
    if kind == "straggle":
        return (
            WorkerFault(
                0,
                "straggle",
                at_seconds=0.25 * baseline_mttr,
                slowdown=4.0,
            ),
        )
    raise ConfigError(f"unknown worker fault {kind!r}")


#: Failure-free recovery MTTR per (scheme, config) — anchors worker
#: fault timing so a mid-recovery death actually lands mid-recovery.
_BASELINE_MTTR: Dict[Tuple[str, CheckConfig], float] = {}


def baseline_mttr(scheme_name: str, cfg: CheckConfig) -> float:
    key = (scheme_name, cfg)
    if key not in _BASELINE_MTTR:
        obs = run_schedule(Schedule(scheme_name, ()), cfg)
        _BASELINE_MTTR[key] = obs.mttr_seconds
    return _BASELINE_MTTR[key]


def _kind(schedule: Schedule, family: str, default: str) -> str:
    """The kind of the schedule's (single) atom of ``family``."""
    atoms = schedule.atoms_of(family)
    return atoms[0].kind if atoms else default


def _schedule_specs(
    schedule: Schedule, cfg: CheckConfig, stream: Optional[str]
) -> List[FaultSpec]:
    specs = placed_fault_specs(
        _kind(schedule, FAMILY_STORAGE, "none"),
        _kind(schedule, FAMILY_CRASH, "boundary"),
        stream,
        snapshot_interval=cfg.snapshot_interval,
        total_epochs=cfg.total_epochs,
    )
    for atom in schedule.atoms_of(FAMILY_RPOINT):
        specs.append(
            FaultSpec("crash_point", target="any", nth=atom.nth, point=atom.kind)
        )
    return specs


def _probe_degraded(scheme, workload, events, cfg: CheckConfig) -> Dict[str, object]:
    """One stale read while the node is down, judged against the truth.

    The expected value is the serial ground truth at the *checkpoint*
    the read claims to be served from — if the label and the bytes
    disagree, the staleness contract is broken even though the value
    may look plausible.
    """
    ref = StateRef(ACCOUNTS, 0)
    try:
        dr = scheme.degraded_read(ref)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    prefix = events[: (dr.checkpoint_epoch + 1) * cfg.epoch_len]
    truth_state, _ = ground_truth(workload, prefix)
    return {
        "value": dr.value,
        "expected": truth_state.peek(ref),
        "checkpoint_epoch": dr.checkpoint_epoch,
        "staleness_epochs": dr.staleness_epochs,
        "crash_epoch": scheme._crash_epoch,
        "stale": dr.stale,
    }


def _fallback_summary(report: RecoveryReport) -> str:
    """The first rung below the fast path, in one line ("" if none)."""
    if report.fallbacks:
        first = report.fallbacks[0]
        return f"epoch {first.epoch_id} via {first.rung} ({first.error})"
    if report.checkpoint_fallbacks:
        return (
            f"fell back past {report.checkpoint_fallbacks} "
            f"checkpoint(s) to epoch {report.checkpoint_epoch}"
        )
    return ""


def _run_scheme_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    scheme_cls = SCHEMES[schedule.scheme]
    stream = scheme_cls.log_streams[0] if scheme_cls.log_streams else None
    injector = FaultInjector(_schedule_specs(schedule, cfg, stream), seed=cfg.seed)
    worker_atoms = schedule.atoms_of(FAMILY_WORKER)
    recovery_faults = ()
    if worker_atoms:
        recovery_faults = worker_fault_plan(
            worker_atoms[0].kind,
            baseline_mttr(schedule.scheme, cfg),
            cfg.num_workers,
        )
    scheme = scheme_cls(
        workload,
        num_workers=cfg.num_workers,
        epoch_len=cfg.epoch_len,
        snapshot_interval=cfg.snapshot_interval,
        disk=Disk(faults=injector),
        gc_keep_checkpoints=cfg.gc_keep_checkpoints,
        recovery_faults=recovery_faults,
        backend=cfg.backend,
    )
    obs = RunObservation(schedule=schedule)
    try:
        try:
            scheme.process_stream(events)
        except InjectedCrash:
            obs.mid_crash = True
        if not obs.mid_crash:
            # A boundary scenario, or the targeted mid-epoch write never
            # happened for this scheme: stop the node at the boundary.
            scheme.crash()
        obs.actual_point = (
            _kind(schedule, FAMILY_CRASH, "boundary") if obs.mid_crash else "boundary"
        )
        if not any(a.kind == "read-error" for a in schedule.atoms_of(FAMILY_STORAGE)):
            # Probing consumes nth-counted snapshot *read* faults meant
            # for recovery, so skip the probe when one is scheduled —
            # write damage is persistent and probes through it fine.
            obs.degraded_probe = _probe_degraded(scheme, workload, events, cfg)
        report = None
        attempts = 0
        while report is None:
            # Crashes inside recover() kill it; each re-run must resume
            # from the durable progress watermark.
            attempts += 1
            try:
                report = scheme.recover()
            except InjectedCrash:
                if attempts >= cfg.max_recovery_attempts:
                    obs.outcome = OUTCOME_NO_CONVERGE
                    obs.detail = (
                        "recovery did not converge within "
                        f"{cfg.max_recovery_attempts} attempts"
                    )
                    return obs
            except (StorageError, ReassignmentError) as exc:
                # The ladder (or the re-assignment budget) was exhausted:
                # recovery must fail loudly and install nothing.
                obs.outcome = OUTCOME_FAILED_LOUD
                obs.detail = f"{type(exc).__name__}: {exc}"
                obs.installed_after_failure = scheme.store is not None
                obs.watermarks = list(scheme.disk.progress.watermark_history)
                return obs
        obs.attempts = report.attempts
        obs.resumed = report.resumed
        obs.mttr_seconds = report.elapsed_total_seconds
        obs.snapshot_candidates = list(report.checkpoint_candidates)
        obs.checkpoint_epoch = report.checkpoint_epoch
        obs.checkpoint_fallbacks = report.checkpoint_fallbacks
        obs.ladder = dict(report.ladder)
        obs.degraded = report.degraded()
        obs.recovery_detail = _fallback_summary(report)
        obs.watermark_degradations = report.watermark_degradations
        obs.reassign_rounds = report.reassign_rounds
        obs.tasks_reassigned = report.tasks_reassigned
        obs.dead_workers = report.dead_workers
        obs.events_replayed = report.events_replayed
        obs.wasted_events = report.wasted_events
        obs.wasted_chains = report.wasted_chains
        # The scenario has played out; reprocess any epochs returned to
        # the ingress tail without further interference.
        injector.disarm()
        scheme.process_stream([])
        obs.watermarks = list(scheme.disk.progress.watermark_history)
        obs.events_processed = scheme._events_processed
        processed = events[: scheme._events_processed]
        expected_state, expected_outputs = ground_truth(workload, processed)
        obs.state_exact = scheme.store.equals(expected_state)
        obs.outputs_exact = scheme.sink.outputs() == expected_outputs
        obs.outcome = OUTCOME_RECOVERED
        if not obs.state_exact:
            obs.detail = "state diverges: " + scheme.store.diff(expected_state, 3)
        elif not obs.outputs_exact:
            obs.detail = "outputs diverge from exactly-once ground truth"
    except Exception as exc:  # noqa: BLE001 — the run must be observed, not die
        obs.outcome = OUTCOME_UNEXPECTED
        obs.detail = f"{type(exc).__name__}: {exc}"
    finally:
        obs.points_passed = injector.points_passed
        obs.fault_fired = bool(injector.injected)
    return obs


def _run_cluster_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    """Kill the scheduled domains at one epoch boundary, recover, verify.

    Several kill atoms die at the same boundary (one k-correlated
    event).
    """
    workload = make_workload()
    events = workload.generate(cfg.num_events, cfg.seed)
    kill_epoch = max(1, cfg.total_epochs // 2)
    topology = ClusterTopology(
        cfg.cluster_shards, cfg.cluster_racks, cfg.cluster_nodes_per_rack
    )
    plan = ClusterFaultPlan(
        kills=[
            ClusterFault(atom.kind, after_epoch=kill_epoch)
            for atom in schedule.atoms_of(FAMILY_KILL)
        ]
    )
    obs = RunObservation(schedule=schedule)
    obs.correlation_width = plan.correlation_width(topology)
    obs.replication = cfg.cluster_replication
    cluster = ShardedCluster(
        workload,
        topology,
        placement=cfg.cluster_placement,
        replication=cfg.cluster_replication,
        workers_per_shard=max(1, cfg.num_workers // 2),
        epoch_len=cfg.epoch_len,
        snapshot_interval=cfg.snapshot_interval,
        gc_keep_checkpoints=cfg.gc_keep_checkpoints,
        fault_plan=plan,
    )
    try:
        cluster.process_stream(events)
        if not cluster.crashed:
            obs.outcome = OUTCOME_UNEXPECTED
            obs.detail = "scheduled kill never fired"
            return obs
        obs.fault_fired = True
        obs.actual_point = f"after epoch {kill_epoch}"
        try:
            report = cluster.recover()
        except ClusterDataLossError as exc:
            obs.outcome = OUTCOME_FAILED_LOUD
            obs.data_loss = True
            obs.lost_shards = tuple(exc.lost_shards)
            obs.detail = (
                f"lost shards {list(exc.lost_shards)} ({exc.lost_events} events)"
            )
            return obs
        obs.attempts = max((r.attempts for r in report.per_shard), default=1)
        obs.resumed = any(r.resumed for r in report.per_shard)
        obs.mttr_seconds = report.rto_seconds
        obs.events_replayed = sum(r.events_replayed for r in report.per_shard)
        for record in report.per_shard:
            for rung, count in record.ladder.items():
                obs.ladder[rung] = obs.ladder.get(rung, 0) + count
        obs.recovery_detail = (
            f"shards {list(report.shards_killed)} recovered on "
            f"{report.recovery_nodes} nodes; "
            f"RTO {report.rto_seconds * 1e3:.2f}ms"
        )
        cluster.process_stream([])
        obs.cluster_exact = cluster.verify_exact()
        obs.outcome = OUTCOME_RECOVERED
        if not obs.cluster_exact:
            obs.detail = (
                "recovered cluster state does not match the serial "
                "single-instance run"
            )
    except Exception as exc:  # noqa: BLE001 — the run must be observed, not die
        obs.outcome = OUTCOME_UNEXPECTED
        obs.detail = f"{type(exc).__name__}: {exc}"
    return obs


def run_schedule(schedule: Schedule, cfg: CheckConfig) -> RunObservation:
    """Run one schedule to completion and observe it. Deterministic."""
    if schedule.scheme == CLUSTER_SCHEME:
        return _run_cluster_schedule(schedule, cfg)
    return _run_scheme_schedule(schedule, cfg)
