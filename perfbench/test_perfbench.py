"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import loop
import spans

BENCHMARK = json.loads((loop.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
#: Eight epochs hold a crash on every workload; one timed set-up.
TINY = dict(epochs=8, setup_repeats=1)


def _units(result):
    return {name: unit for name, (_value, unit) in result.metrics.items()}


def test_benchmark_json_names_every_workload():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        spec.name: spec.why for spec in loop.WORKLOADS.values()
    }


@pytest.mark.parametrize("name", list(loop.WORKLOADS))
def test_end_to_end_metrics_and_virtual_clock_repeat(name):
    first = loop.run(name, 3, 0, False, **TINY)
    again = loop.run(name, 3, 0, False, **TINY)
    assert first.correct, first.errors
    assert first.attempted > 0 and first.failed == 0
    assert first.extra["fail_ratio"][0] == 0
    assert _units(first) == END_TO_END
    # The peak resident set counts from what the process holds before the
    # rounds; in a process that already ran bigger rounds it can be 0.
    for metric in END_TO_END:
        if metric == "peak_rss_mb":
            assert first.metrics[metric][0] >= 0
        else:
            assert first.metrics[metric][0] > 0, metric
    assert first.extra["raw.rss_peak_mb"][0] >= first.extra["raw.rss_before_rounds_mb"][0] > 0
    for metric in ("virt_ingest_eps", "virt_recover_s"):
        assert first.metrics[metric][0] == again.metrics[metric][0]
    assert spans.leaked_wrappers() == []


@pytest.mark.parametrize("name", list(loop.WORKLOADS))
def test_per_layer_metrics_and_wrappers_removed(name):
    result = loop.run(name, 3, 0, True, **TINY)
    assert result.correct, result.errors
    assert result.metrics["fail_ratio"][0] == 0
    assert _units(result) == PER_LAYER
    assert result.metrics["trace.overhead"][0] > 0
    assert [bucket for bucket, _v, _w in result.xcheck] == [
        "reload", "construct", "execute", "explore"
    ]
    assert spans.leaked_wrappers() == []
    if name == "gs-msr-ingest":
        assert result.metrics["storage.encode_amplification"][0] > 1
    if name == "tp-ckpt":
        for metric in ("core.log_load_s", "core.restructure_s", "core.explore_s",
                       "core.assign_s", "core.abort_pushdown_s"):
            assert result.metrics[metric][0] == 0, metric
    if name == "sl-msr-recover":
        assert result.metrics["real.groups"][0] > 0


def test_tracer_replaces_every_binding_and_restores_it():
    from repro.engine import execution
    from repro.ft import base
    from repro.storage import codec, stores

    originals = (codec.encode, stores.encode, base.encode, execution.preprocess)
    tracer = spans.Tracer()
    tracer.install(loop.WORKLOADS["tp-ckpt"].factory().__class__)
    try:
        assert stores.encode is base.encode is not originals[0]
        assert spans.leaked_wrappers()
        base.encode({"k": 1.0})
        assert tracer.counts["storage.encode_calls"] == 1
    finally:
        tracer.uninstall()
    assert (codec.encode, stores.encode, base.encode, execution.preprocess) == originals
    assert spans.leaked_wrappers() == []


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 5.0, 6.0, 0),
                    ("ft.recover", 20.0, 22.0, -1), ("b", 20.5, 21.0, 3)]
    assert tracer.self_times() == {
        ("a", "other"): 6.0,
        ("b", "other"): 3.0,
        ("c", "other"): 1.0,
        ("ft.recover", "recover"): 1.5,
        ("b", "recover"): 0.5,
    }


def test_rank_inversions_ignores_ties():
    rows = [("x", 1.0, 3.0), ("y", 2.0, 2.0), ("z", 2.0, 1.0)]
    assert loop.rank_inversions(rows) == 2


def test_fails_without_the_system(tmp_path):
    shutil.copy(loop.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        loop.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tp-ckpt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_a_wrong_recovery_fails_the_run(monkeypatch):
    check = loop.SerialOracle.check

    def lying_check(self, scheme, epoch_id):
        return "forced mismatch" if epoch_id == 6 else check(self, scheme, epoch_id)

    monkeypatch.setattr(loop.SerialOracle, "check", lying_check)
    result = loop.run("tp-ckpt", 3, 0, False, **TINY)
    assert not result.correct
    assert result.failed == 1 and result.errors == ["forced mismatch"]
    assert result.extra["fail_ratio"][0] == 1 / result.attempted
