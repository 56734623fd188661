"""Closed-loop ingest → crash → recover rounds with a serial oracle.

One *round* hands a fresh scheme one stream, one epoch per
``process_stream`` call, and waits for each call to return.  After the
epochs listed by the workload's crash rule it calls ``crash()`` and
``recover()`` and checks the recovered state and the delivered outputs
against a serial ground truth.  A run repeats rounds over the same
seeded stream while another round fits in ``seconds``, so every round
does the same work and the virtual clock must read the same in each.

Only calls into the system are timed: ``process_stream`` (ingest) and
``crash()`` + ``recover()`` (recovery).  Each timed call is also scaled
to a reference host speed by :class:`HostClock`.  The oracle, the checks
and the construction of each round's scheme run outside those regions.
Set-up is timed in fresh interpreters (run this file as a script).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Everything the benchmark imports from the system under test.
REPRO_MODULES = ("repro", "repro.harness.figures", "repro.real.executor")

#: Rounds every run makes, however short ``seconds`` is.
MIN_ROUNDS = 2

#: Fresh interpreters per run that each time the set-up; ``setup_s`` is
#: their median.
SETUP_REPEATS = 5


def import_repro() -> None:
    """Import the system from this checkout's ``src/``, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    for name in REPRO_MODULES:
        __import__(name)


import_repro()

from repro import SCHEMES  # noqa: E402
from repro.engine.execution import preprocess  # noqa: E402
from repro.engine.serial import execute_serial  # noqa: E402
from repro.harness import figures  # noqa: E402

import spans  # noqa: E402


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: stream, scheme and crash schedule."""

    name: str
    why: str
    factory: Callable
    scheme: str
    epoch_len: int
    num_workers: int
    snapshot_interval: int
    #: crash after every epoch ``e`` with ``e % crash_every == crash_at``.
    crash_every: int
    crash_at: int
    #: epochs per round (one stream pass); >= 100 so that the epoch
    #: p90 has at least ten samples beyond it.
    epochs: int = 100
    backend: str = "sim"
    scheme_kwargs: Tuple[Tuple[str, object], ...] = ()

    def crashes_after(self, epoch_id: int) -> bool:
        return epoch_id % self.crash_every == self.crash_at

    def make_scheme(self, workload):
        return SCHEMES[self.scheme](
            workload,
            num_workers=self.num_workers,
            epoch_len=self.epoch_len,
            snapshot_interval=self.snapshot_interval,
            backend=self.backend,
            **dict(self.scheme_kwargs),
        )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="gs-msr-ingest",
            why=(
                "Grep&Sum under MSR, ingest-dominated: view logging re-encodes "
                "objects to size them, so storage encode and core log commit "
                "dominate ingest"
            ),
            factory=figures.gs_factory(),
            scheme="MSR",
            epoch_len=512,
            num_workers=8,
            snapshot_interval=4,
            # Two epochs past every checkpoint; 25 short recoveries take
            # about a quarter of a round's wall time.
            crash_every=4,
            crash_at=1,
        ),
        WorkloadSpec(
            name="tp-ckpt",
            why=(
                "Toll Processing under CKPT with periodic crashes: no command "
                "or view log, recovery reruns the engine/sim pipeline, so "
                "codec and core changes bypass it"
            ),
            factory=figures.tp_factory(),
            scheme="CKPT",
            epoch_len=512,
            num_workers=8,
            snapshot_interval=4,
            # Three epochs past every checkpoint.
            crash_every=4,
            crash_at=2,
        ),
        WorkloadSpec(
            name="sl-msr-recover",
            why=(
                "Streaming Ledger under MSR on the real backend with a crash "
                "4 epochs past every checkpoint: storage reads, core recovery "
                "and real workers dominate"
            ),
            factory=figures.sl_factory(),
            scheme="MSR",
            epoch_len=256,
            num_workers=2,
            snapshot_interval=5,
            # Four epochs past every checkpoint (epochs 4, 9, 14, ...).
            crash_every=5,
            crash_at=3,
            backend="real",
            scheme_kwargs=(("real_time_scale", 0.0),),
        ),
    )
}


class SerialOracle:
    """Serial ground truth, advanced epoch by epoch before any round runs.

    It keeps the state after each epoch in ``check_epochs`` and one map
    of every event's output, so checking a prefix builds no copies.
    ``seconds`` is the wall time of the serial execution itself
    (preprocess, ``execute_serial`` and postprocessing).
    """

    def __init__(self, workload, events, epoch_len: int, check_epochs):
        self._events = events
        self._epoch_len = epoch_len
        self.states: Dict[int, object] = {}
        self.outputs: Dict[int, tuple] = {}
        self.seconds = 0.0
        store = workload.initial_state()
        for epoch_id in range(max(check_epochs) + 1):
            first = epoch_id * epoch_len
            batch = events[first : first + epoch_len]
            started = perf_counter()
            txns = preprocess(batch, workload, 0)
            outcome = execute_serial(store, txns)
            for txn in txns:
                committed = txn.txn_id not in outcome.aborted
                self.outputs[txn.event.seq] = workload.output_for(
                    txn, committed, outcome.op_values
                )
            self.seconds += perf_counter() - started
            if epoch_id in check_epochs:
                self.states[epoch_id] = store.copy()

    def check(self, scheme, epoch_id: int) -> Optional[str]:
        """Compare the scheme's state and delivered outputs after ``epoch_id``."""
        state = self.states[epoch_id]
        if not scheme.store.equals(state):
            return f"state differs after epoch {epoch_id}: {scheme.store.diff(state, 3)}"
        delivered = scheme.sink.outputs()
        expected = self._events[: (epoch_id + 1) * self._epoch_len]
        wrong = [
            e.seq for e in expected if delivered.get(e.seq) != self.outputs[e.seq]
        ]
        if wrong or len(delivered) != len(expected):
            return (
                f"outputs differ after epoch {epoch_id}: {len(delivered)} "
                f"delivered, {len(expected)} expected, wrong seqs {wrong[:5]}"
            )
        return None


@dataclass
class RoundStats:
    """What one round measured, on both clocks."""

    traced: bool
    #: process_stream() wall time per epoch, and scaled by HostClock.
    epoch_walls: List[float] = field(default_factory=list)
    epoch_scaled: List[float] = field(default_factory=list)
    #: crash() + recover() wall time per injected crash, and scaled.
    crash_recover_walls: List[float] = field(default_factory=list)
    crash_recover_scaled: List[float] = field(default_factory=list)
    #: recover() alone, per injected crash, and scaled.
    recover_walls: List[float] = field(default_factory=list)
    recover_scaled: List[float] = field(default_factory=list)
    clock: Optional["HostClock"] = None
    events_ingested: int = 0
    events_replayed: int = 0
    virt_runtime_s: float = 0.0
    virt_recover_s: float = 0.0
    virt_buckets: Dict[str, float] = field(default_factory=dict)
    fallbacks: int = 0
    watermark_saves: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    tracer: Optional[spans.Tracer] = None

    @property
    def timed_scaled(self) -> float:
        return sum(self.epoch_scaled) + sum(self.crash_recover_scaled)

    def virtual_fingerprint(self) -> tuple:
        return (
            self.virt_runtime_s,
            self.virt_recover_s,
            tuple(sorted(self.virt_buckets.items())),
            self.events_replayed,
        )


#: Fixed input of host_probe(): sorting, hashing and iterating tuples,
#: the kind of work the pipeline does, with no code from the system.
_PROBE_ROWS = [(i % 97, str(i), i * 0.5) for i in range(4000)]

#: host_probe() wall time that defines the reference host speed.
REFERENCE_PROBE_S = 1.5e-3


def _probe_job() -> float:
    started = perf_counter()
    table = {}
    for a, b, c in sorted(_PROBE_ROWS, key=lambda row: (row[1], row[0])):
        table[(a, b)] = c
    total = 0.0
    for (a, _b), c in table.items():
        total += c if a & 1 else -c
    return perf_counter() - started


def host_probe() -> float:
    """Wall time of a fixed stdlib-only job: the host's momentary speed.

    The job runs twice and the second run is timed, so a timed call that
    evicted the probe's data from the caches does not slow its own
    probe.  Garbage collection is off while it runs, so the size of the
    system's heap does not leak into the probe.
    """
    gc.disable()
    try:
        _probe_job()
        return _probe_job()
    finally:
        gc.enable()


class HostClock:
    """Scales wall times to the reference host speed.

    The host's speed drifts by tens of percent within seconds.  The clock
    probes it before the first timed call and after every timed call;
    ``speed()`` is the mean of the two probes around the call that just
    ended, relative to ``REFERENCE_PROBE_S``.  Dividing a wall time by it
    gives the call's wall time at the reference speed.
    """

    def __init__(self) -> None:
        self.probes = [host_probe()]

    def speed(self) -> float:
        self.probes.append(host_probe())
        return (self.probes[-2] + self.probes[-1]) / (2 * REFERENCE_PROBE_S)


def run_round(spec: WorkloadSpec, scheme, events, oracle, traced: bool) -> RoundStats:
    """Drive one stream pass through ``scheme``; verify every recovery."""
    stats = RoundStats(traced=traced, clock=HostClock())
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install(type(scheme.workload))
        stats.tracer = tracer
    runtime_buckets: Dict[str, float] = {}
    try:
        for epoch_id in range(spec.epochs):
            first = epoch_id * spec.epoch_len
            batch = events[first : first + spec.epoch_len]
            stats.attempted += 1
            started = perf_counter()
            try:
                report = scheme.process_stream(batch)
            except Exception as exc:  # a failed ingest ends the round
                stats.failed += 1
                stats.errors.append(f"ingest epoch {epoch_id}: {exc!r}")
                return stats
            wall = perf_counter() - started
            stats.epoch_walls.append(wall)
            stats.epoch_scaled.append(wall / stats.clock.speed())
            stats.events_ingested += report.events_processed
            stats.virt_runtime_s += report.elapsed_seconds
            runtime_buckets = report.buckets
            if not spec.crashes_after(epoch_id):
                continue
            stats.attempted += 1
            started = perf_counter()
            try:
                scheme.crash()
                recovering = perf_counter()
                rec = scheme.recover()
            except Exception as exc:
                stats.failed += 1
                stats.errors.append(f"recover after epoch {epoch_id}: {exc!r}")
                return stats
            done = perf_counter()
            speed = stats.clock.speed()
            stats.crash_recover_walls.append(done - started)
            stats.crash_recover_scaled.append((done - started) / speed)
            stats.recover_walls.append(done - recovering)
            stats.recover_scaled.append((done - recovering) / speed)
            stats.events_replayed += rec.events_replayed
            stats.virt_recover_s += rec.elapsed_seconds
            for bucket, seconds in rec.buckets.items():
                stats.virt_buckets[bucket] = stats.virt_buckets.get(bucket, 0.0) + seconds
            stats.fallbacks += rec.checkpoint_fallbacks + sum(
                n for rung, n in rec.ladder.items() if rung != "fast"
            )
            stats.watermark_saves += rec.watermark_saves
            error = oracle.check(scheme, epoch_id)
            if error:
                stats.failed += 1
                stats.errors.append(error)
                return stats
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The round's last ingest is verified like a recovery.
    error = oracle.check(scheme, spec.epochs - 1)
    if error:
        stats.failed += 1
        stats.errors.append(error)
    for bucket in ("io", "track", "sync"):
        stats.virt_buckets["runtime." + bucket] = runtime_buckets.get(bucket, 0.0)
    return stats


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def stream_digest(events) -> str:
    return hashlib.sha256(repr(events).encode()).hexdigest()


def set_up(spec: WorkloadSpec, seed: int, repeats: int):
    """Time the system's set-up; return ``(setup, workload, events)``.

    ``repeats`` fresh interpreters each import the system, generate the
    stream and construct the scheme, which takes the initial snapshot
    (see :func:`_set_up_child`).  ``setup["walls"]`` is the median time
    from starting one to its scheme being built.  ``setup["scaled"]`` is
    the median of the same times, each divided by the host speed that
    this process probed just before starting the interpreter and the
    interpreter probed just after building its scheme.  The stream is
    then generated once here, outside any timed region, and every
    interpreter must have generated the identical one.
    """
    samples: List[Tuple[float, float]] = []
    digests = set()
    for _ in range(repeats):
        probe = host_probe()
        started = monotonic()
        child = subprocess.run(
            [sys.executable, __file__, spec.name, str(seed), str(spec.epochs)],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=120,
        )
        ready, child_probe, digest = child.stdout.split()
        wall = float(ready) - started
        speed = (probe + float(child_probe)) / (2 * REFERENCE_PROBE_S)
        samples.append((wall, wall / speed))
        digests.add(digest)
    workload = spec.factory()
    events = workload.generate(spec.epochs * spec.epoch_len, seed)
    if digests != {stream_digest(events)}:
        raise RuntimeError(f"{spec.name}: seed {seed} generated different streams")
    setup = {
        kind: statistics.median(sample[i] for sample in samples)
        for i, kind in enumerate(("walls", "scaled"))
    }
    return setup, workload, events


def _set_up_child(name: str, seed: int, epochs: int) -> None:
    """One timed set-up: this interpreter has imported the system (at
    module import), now generates the stream and builds the scheme.  It
    prints the ``monotonic()`` reading when the scheme is ready (the
    clock is system-wide, so the parent can subtract its own start time),
    then a host probe and the stream's digest, both taken after it."""
    spec = replace(WORKLOADS[name], epochs=epochs)
    workload = spec.factory()
    events = workload.generate(spec.epochs * spec.epoch_len, seed)
    scheme = spec.make_scheme(workload)
    ready = monotonic()
    print(repr(ready), repr(host_probe()), stream_digest(events))
    del scheme


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` files; ``unknown`` if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        nproc = os.cpu_count() or 0
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """Metrics of one run plus its check verdict."""

    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit); end-to-end or per-layer depending on mode.
    metrics: Dict[str, Tuple[float, str]]
    errors: List[str]
    rounds: int
    #: two-clock cross-check rows (traced runs only).
    xcheck: List[Tuple[str, float, float]] = field(default_factory=list)
    #: printed beside the metrics but not part of the result line.
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def _run_rounds(spec, events, oracle, trace, seconds):
    """Repeat rounds, each on a fresh scheme, while another one fits in
    ``seconds``.  A full collection before each round, outside the timed
    calls, starts every round from the same collector state."""
    rounds: List[RoundStats] = []
    started = perf_counter()
    while True:
        gc.collect()
        scheme = spec.make_scheme(spec.factory())
        traced = trace and len(rounds) % 2 == 1
        stats = run_round(spec, scheme, events, oracle, traced)
        scheme = None
        rounds.append(stats)
        if stats.failed:
            return rounds
        if stats.virtual_fingerprint() != rounds[0].virtual_fingerprint():
            stats.failed += 1
            stats.errors.append(
                f"round {len(rounds) - 1}: virtual clock differs from round 0"
            )
            return rounds
        elapsed = perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def _rss_mib(field_name: str) -> Optional[float]:
    """``VmRSS`` or ``VmHWM`` of this process in MiB; None without /proc."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _reset_peak_rss() -> None:
    """Set this process's peak resident set to its current one (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    epochs: Optional[int] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> RunResult:
    """Set up, then repeat rounds while another one fits in ``seconds``.

    A traced run alternates untraced and traced rounds, so the tracing
    overhead compares equal work.  ``epochs`` shrinks the stream (the
    self-test uses it); the crash rule stays the workload's.
    """
    spec = WORKLOADS[name]
    if epochs is not None:
        spec = replace(spec, epochs=epochs)
    setup, workload, events = set_up(spec, seed, setup_repeats)
    oracle = SerialOracle(
        workload,
        events,
        spec.epoch_len,
        [e for e in range(spec.epochs) if spec.crashes_after(e)] + [spec.epochs - 1],
    )
    generate_tracer = None
    if trace:
        # One traced generation measures the workloads layer's set-up share.
        with spans.Tracer() as generate_tracer:
            generate_tracer.install(type(workload))
            if workload.generate(len(events), seed) != events:
                raise RuntimeError(f"{name}: traced generation differs")

    # The stream and the oracle are the benchmark's, not the system's:
    # freeze them so the collector does not walk them during rounds, and
    # count the peak resident set from what the process holds now.
    gc.collect()
    gc.freeze()
    rss = {"before_rounds": _rss_mib("VmRSS")}
    _reset_peak_rss()
    started = perf_counter()
    try:
        rounds = _run_rounds(spec, events, oracle, trace, seconds)
    finally:
        gc.unfreeze()
    rss["peak"] = _rss_mib("VmHWM")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    common = {
        "fail_ratio": (failed / attempted, "ratio"),
        "baseline.serial_eps": (
            len(oracle.outputs) / oracle.seconds,
            "events/s",
        ),
    }
    if trace:
        metrics, xcheck = _layer_metrics(rounds, generate_tracer)
        metrics.update(common)
        extra = {}
    else:
        metrics, raw = _end_to_end(rounds, setup, rss, spec.epochs * spec.epoch_len)
        xcheck = []
        extra = {**common, **raw}
    return RunResult(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        errors=[e for r in rounds for e in r.errors],
        rounds=len(rounds),
        xcheck=xcheck,
        extra=extra,
        notes={
            "epochs_timed": sum(len(r.epoch_walls) for r in rounds),
            "crashes": sum(len(r.crash_recover_walls) for r in rounds),
            "measured_s": round(perf_counter() - started, 3),
        },
    )


def _end_to_end(rounds: List[RoundStats], setup, rss, per_round_events: int):
    """End-to-end metrics of complete rounds; returns ``(metrics, raw)``.

    Wall times are scaled by each round's :class:`HostClock`.  The
    throughputs divide the events of every round by the summed call
    times of every round; the percentiles pool the samples of every
    round.  Nothing is dropped as an outlier, so a cost the system pays
    once a round at varying points stays in.  ``raw`` holds the same
    statistics of the unscaled walls, the median host probe and the
    resident sets the peak is counted from.  A run without a complete
    round failed its checks and reports zeros.
    """
    complete = [r for r in rounds if not r.failed]
    if not complete:
        zeros = {name: (0.0, unit) for name, unit in END_TO_END_UNITS.items()}
        return zeros, {}
    first = complete[0]

    def timing(kind: str) -> Dict[str, float]:
        """Timing metrics over ``<sample>_walls`` or ``<sample>_scaled``."""

        def pooled(sample: str) -> List[float]:
            return [t for r in complete for t in getattr(r, f"{sample}_{kind}")]

        epochs = pooled("epoch")
        return {
            "setup_s": setup[kind],
            "ingest_eps": sum(r.events_ingested for r in complete) / sum(epochs),
            "epoch_p50_ms": statistics.median(epochs) * 1e3,
            "epoch_p90_ms": statistics.quantiles(epochs, n=10, method="inclusive")[8] * 1e3,
            "recover_p50_ms": statistics.median(pooled("crash_recover")) * 1e3,
            "recover_eps": sum(r.events_replayed for r in complete)
            / sum(pooled("recover")),
        }

    metrics = timing("scaled")
    if rss["before_rounds"] is not None and rss["peak"] is not None:
        peak = rss["peak"] - rss["before_rounds"]
    else:  # no /proc: the whole process's peak
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update(
        peak_rss_mb=peak,
        virt_ingest_eps=per_round_events / first.virt_runtime_s,
        virt_recover_s=first.virt_recover_s,
    )
    raw = {f"raw.{name}": (v, END_TO_END_UNITS[name]) for name, v in timing("walls").items()}
    probes = [p for r in complete for p in r.clock.probes]
    raw["raw.host_probe_ms"] = (statistics.median(probes) * 1e3, "ms")
    for key, value in rss.items():
        if value is not None:
            raw[f"raw.rss_{key}_mb"] = (value, "MiB")
    return {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}, raw


#: End-to-end metric -> unit, in reporting order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_eps": "events/s",
    "epoch_p50_ms": "ms",
    "epoch_p90_ms": "ms",
    "recover_p50_ms": "ms",
    "recover_eps": "events/s",
    "peak_rss_mb": "MiB",
    "virt_ingest_eps": "events/s",
    "virt_recover_s": "s",
}


#: Span name -> per-layer metric name (``_s`` is per-round self time).
SPAN_METRICS = {
    "ft.process_stream": "ft.process_stream_self_s",
    "ft.recover": "ft.recover_self_s",
}

#: Recovery bucket -> spans whose wall self time implements it.
XCHECK = (
    (
        "reload",
        (
            "storage.decode",
            "storage.verify",
            "storage.log_read",
            "storage.event_read",
            "storage.snapshot_load",
        ),
    ),
    ("construct", ("engine.build_tpg", "core.restructure")),
    ("execute", ("engine.execute_tpg", "sim.executor_run", "real.run_plan")),
    ("explore", ("core.explore",)),
)

#: Per-round counters reported as they are.
COUNT_METRICS = (
    "engine.ops",
    "engine.edges",
    "sim.spend_parallel_calls",
    "sim.tasks",
    "storage.encode_calls",
    "storage.encode_bytes",
    "storage.durable_bytes_written",
    "storage.decode_calls",
    "real.groups",
)


def _span_names() -> List[str]:
    names = [name for name, _t, _c in spans.SPANS]
    names += [name for name, _m, _c in spans.WORKLOAD_SPANS]
    return list(dict.fromkeys(names))


def _layer_metrics(rounds: List[RoundStats], generate_tracer: spans.Tracer):
    """Per-round averages over the complete traced rounds, plus the
    cross-check.  Without a complete traced round (a failed run) the
    measured values read 0."""
    traced = [r for r in rounds if r.traced and not r.failed]
    untraced = [r for r in rounds if not r.traced and not r.failed]
    n = len(traced) or 1
    by_phase: Dict[Tuple[str, str], float] = {}
    counts: Dict[str, float] = {}
    for r in traced:
        for key, seconds in r.tracer.self_times().items():
            by_phase[key] = by_phase.get(key, 0.0) + seconds / n
        for key, value in r.tracer.counts.items():
            counts[key] = counts.get(key, 0.0) + value / n
    for (name, _phase), seconds in generate_tracer.self_times().items():
        by_phase[(name, "setup")] = by_phase.get((name, "setup"), 0.0) + seconds

    def self_s(name: str, phase: Optional[str] = None) -> float:
        return sum(
            (s for (k, p), s in by_phase.items() if k == name and phase in (None, p)),
            0.0,
        )

    metrics: Dict[str, Tuple[float, str]] = {}
    for name in _span_names():
        metrics[SPAN_METRICS.get(name, name + "_s")] = (self_s(name), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0.0), "count")
    txns = counts.get("engine.txns", 0.0)
    metrics["engine.abort_ratio"] = (
        counts.get("engine.aborted", 0.0) / txns if txns else 0.0,
        "ratio",
    )
    durable = counts.get("storage.durable_bytes_written", 0.0)
    metrics["storage.encode_amplification"] = (
        counts.get("storage.encode_bytes", 0.0) / durable if durable else 0.0,
        "ratio",
    )
    recover_wall = sum(sum(r.recover_walls) for r in traced) / n
    metrics["real.share"] = (
        self_s("real.run_plan") / recover_wall if recover_wall else 0.0,
        "ratio",
    )
    first = rounds[0]
    metrics["ft.fallbacks"] = (float(first.fallbacks), "count")
    metrics["ft.watermark_saves"] = (float(first.watermark_saves), "count")
    for bucket in ("reload", "construct", "execute", "explore", "abort", "wait"):
        metrics[f"virt.{bucket}_s"] = (first.virt_buckets.get(bucket, 0.0), "s")
    for bucket in ("io", "track", "sync"):
        metrics[f"virt.{bucket}_s"] = (
            first.virt_buckets.get("runtime." + bucket, 0.0),
            "s",
        )
    metrics["trace.overhead"] = (
        statistics.median(r.timed_scaled for r in traced)
        / statistics.median(r.timed_scaled for r in untraced)
        if traced and untraced
        else 0.0,
        "ratio",
    )

    xcheck = [
        (
            bucket,
            first.virt_buckets.get(bucket, 0.0),
            sum(self_s(name, "recover") for name in names),
        )
        for bucket, names in XCHECK
    ]
    metrics["xcheck.rank_inversions"] = (float(rank_inversions(xcheck)), "count")
    return metrics, xcheck


def rank_inversions(rows: List[Tuple[str, float, float]]) -> int:
    """Bucket pairs the two clocks order oppositely (ties never count)."""
    inversions = 0
    for i, (_a, virt_a, wall_a) in enumerate(rows):
        for _b, virt_b, wall_b in rows[i + 1 :]:
            if (virt_a - virt_b) * (wall_a - wall_b) < 0:
                inversions += 1
    return inversions


if __name__ == "__main__":
    _set_up_child(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
