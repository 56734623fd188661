"""Timed wrappers around the layers' public functions.

The benchmark traces from outside: it never edits ``src/``.  Installing
a :class:`Tracer` replaces each function listed in :data:`SPANS` with a
wrapper that records one span ``(name, start, end, parent)``.  A
module-level function is replaced in *every* ``repro`` module that
imported it by name; a method is replaced on the class that defines
it.  :meth:`Tracer.uninstall` puts every original back, and
:func:`leaked_wrappers` proves that nothing was left behind.

A span's self time is its duration minus the time covered by its
direct children.  Each span is also attributed to the phase of its
outermost ancestor (``ingest`` under ``process_stream``, ``recover``
under ``recover``), which the two-clock cross-check needs.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper so a leak is detectable by scanning.
MARKER = "__perfbench_wrapper__"

#: Modules imported before patching, so lazily imported classes and
#: functions already exist (and are shared) when the wrappers go in.
PRELOAD = (
    "repro",
    "repro.core.morphstreamr",
    "repro.ft.checkpoint",
    "repro.real.executor",
    "repro.real.plan",
    "repro.storage.stores",
)


def _tpg_counts(counts, args, kwargs, tpg) -> None:
    counts["engine.ops"] += len(tpg.ops)
    counts["engine.edges"] += sum(tpg.edge_counts().values())


def _abort_counts(counts, args, kwargs, outcome) -> None:
    counts["engine.txns"] += len(args[1].txns)
    counts["engine.aborted"] += len(outcome.aborted)


def _task_counts(counts, args, kwargs, result) -> None:
    counts["sim.tasks"] += len(args[1])


def _call_count(key: str):
    def count(counts, args, kwargs, result) -> None:
        counts[key] += 1

    return count


def _encode_counts(counts, args, kwargs, blob) -> None:
    counts["storage.encode_calls"] += 1
    counts["storage.encode_bytes"] += len(blob)


def _group_counts(counts, args, kwargs, result) -> None:
    counts["real.groups"] += len(args[1])


def _write_counts(counts, args, kwargs, result) -> None:
    counts["storage.durable_bytes_written"] += args[1]


#: (span name, "module:function" or "module:Class.method", counter).
#: A name listed twice sums both functions into one layer metric.
SPANS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    # engine
    ("engine.preprocess", "repro.engine.execution:preprocess", None),
    ("engine.build_tpg", "repro.engine.tpg:build_tpg", _tpg_counts),
    ("engine.execute_tpg", "repro.engine.execution:execute_tpg", _abort_counts),
    ("engine.build_op_tasks", "repro.engine.execution:build_op_tasks", None),
    # sim
    ("sim.executor_run", "repro.sim.executor:ParallelExecutor.run", _task_counts),
    ("sim.executor_run", "repro.sim.executor:ResilientExecutor.run", _task_counts),
    (
        "sim.spend_parallel",
        "repro.sim.clock:Machine.spend_parallel",
        _call_count("sim.spend_parallel_calls"),
    ),
    # storage
    ("storage.encode", "repro.storage.codec:encode", _encode_counts),
    (
        "storage.decode",
        "repro.storage.codec:decode",
        _call_count("storage.decode_calls"),
    ),
    ("storage.verify", "repro.storage.integrity:verify", None),
    ("storage.event_append", "repro.storage.stores:EventStore.append_events", None),
    ("storage.event_read", "repro.storage.stores:EventStore.read_epochs", None),
    ("storage.event_read", "repro.storage.stores:EventStore.read_pending", None),
    ("storage.log_commit", "repro.storage.stores:LogStore.commit_epoch", None),
    ("storage.log_read", "repro.storage.stores:LogStore.read_epoch", None),
    ("storage.snapshot_put", "repro.storage.stores:SnapshotStore.put", None),
    ("storage.snapshot_put", "repro.storage.stores:SnapshotStore.put_delta", None),
    ("storage.snapshot_load", "repro.storage.stores:SnapshotStore.load", None),
    # core
    ("core.log_commit", "repro.core.logmanager:LoggingManager.commit", None),
    ("core.log_load", "repro.core.logmanager:LoggingManager.load_epoch", None),
    ("core.partition", "repro.core.partition:build_chain_graph", None),
    ("core.partition", "repro.core.partition:greedy_partition", None),
    ("core.restructure", "repro.core.restructure:restructure_operations", None),
    ("core.restructure", "repro.core.restructure:chains_by_partition", None),
    ("core.explore", "repro.core.shadow:explore_chains", None),
    ("core.assign", "repro.core.assignment:lpt_assign", None),
    ("core.assign", "repro.core.assignment:round_robin_assign", None),
    ("core.abort_pushdown", "repro.core.abortpushdown:push_down_aborts", None),
    # ft
    ("ft.process_stream", "repro.ft.base:FTScheme.process_stream", None),
    ("ft.recover", "repro.ft.base:FTScheme.recover", None),
    # real
    ("real.run_plan", "repro.real.executor:RealExecutor.run_plan", _group_counts),
)

#: Counter-only wrappers (no span): bytes the device was asked to store.
COUNTERS: Tuple[Tuple[str, Callable], ...] = (
    ("repro.storage.device:StorageDevice.write", _write_counts),
)

#: Workload methods, wrapped on the concrete workload class in use.
WORKLOAD_SPANS = (
    ("workloads.generate", "generate", None),
    ("workloads.build_txn", "build_transaction", None),
    ("workloads.output_for", "output_for", None),
)

#: Root span name -> phase label.
PHASES = {"ft.process_stream": "ingest", "ft.recover": "recover"}


def _resolve(target: str):
    """``"mod:func"`` -> (module, "func"); ``"mod:Cls.m"`` -> (Cls, "m")."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, method = path.split(".")
        return getattr(module, cls_name), method
    return module, path


def _repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in start order.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        #: (holder, attribute, original) for every replaced attribute.
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, count: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn: Callable, count: Callable):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def _replace(self, holder, attr: str, wrapper) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _patch(self, target: str, make_wrapper: Callable) -> None:
        holder, attr = _resolve(target)
        original = holder.__dict__[attr]
        wrapper = make_wrapper(original)
        if isinstance(holder, type):
            self._replace(holder, attr, wrapper)
            return
        # A function imported by name lives on in each importer's
        # namespace: replace every binding of the same object.
        for module in _repro_modules():
            if module.__dict__.get(attr) is original:
                self._replace(module, attr, wrapper)

    def install(self, workload_cls: type) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in PRELOAD:
            importlib.import_module(name)
        for name, target, count in SPANS:
            self._patch(
                target, lambda fn, n=name, c=count: self._span_wrapper(n, fn, c)
            )
        for target, count in COUNTERS:
            self._patch(target, lambda fn, c=count: self._count_wrapper(fn, c))
        for name, method, count in WORKLOAD_SPANS:
            owner = next(k for k in workload_cls.__mro__ if method in k.__dict__)
            self._replace(
                owner, method, self._span_wrapper(name, owner.__dict__[method], count)
            )

    def uninstall(self) -> None:
        """Restore every original, newest replacement first."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)
        if self._stack:
            raise RuntimeError(f"uninstalled with {len(self._stack)} open spans")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def self_times(self) -> Dict[Tuple[str, str], float]:
        """``(span name, phase) -> summed self seconds`` over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        root: List[str] = []
        totals: Dict[Tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            root.append(name if parent < 0 else root[parent])
            phase = PHASES.get(root[i], "other")
            totals[(name, phase)] += (end - start) - child[i]
        return dict(totals)


def leaked_wrappers() -> List[str]:
    """Every wrapper still reachable from a ``repro`` module or class."""
    leaks = []
    for module in _repro_modules():
        for attr, value in list(module.__dict__.items()):
            if getattr(value, MARKER, False):
                leaks.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for method, member in list(value.__dict__.items()):
                    if getattr(member, MARKER, False):
                        leaks.append(f"{module.__name__}.{attr}.{method}")
    return sorted(set(leaks))
