"""Golden pin of every byte count the system charges.

Each scheme runs a short seeded Streaming Ledger stream (two ingest
calls whose boundaries do not line up with epochs, a trailing partial
epoch, GC of old epochs), crashes once and recovers.  The byte counts
of the reports and of the device, and the virtual seconds they turn
into, must equal the values pinned below.  Floats are compared through
``float.hex`` so the pin is bit-exact.  Any change to how a store or a
scheme sizes what it persists shows up here.
"""

from __future__ import annotations

import pytest

from repro import SCHEMES
from repro.errors import RecoveryError
from repro.workloads.streaming_ledger import StreamingLedger

#: (scheme name, incremental snapshots).
CASES = [(name, False) for name in SCHEMES] + [("CKPT", True), ("MSR", True)]


def charged(name: str, incremental: bool) -> dict:
    workload = StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.5,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )
    events = workload.generate(7 * 40 + 13, seed=5)
    scheme = SCHEMES[name](
        workload,
        num_workers=4,
        epoch_len=40,
        snapshot_interval=2,
        incremental_snapshots=incremental,
    )
    scheme.process_stream(events[:150])
    runtime = scheme.process_stream(events[150:])
    pinned = {
        "bytes_logged": runtime.bytes_logged,
        "bytes_events": runtime.bytes_events,
        "bytes_snapshotted": runtime.bytes_snapshotted,
        "snapshot_bytes_written": runtime.snapshot_bytes_written,
        "peak_memory_bytes": runtime.peak_memory_bytes,
        "runtime_elapsed": runtime.elapsed_seconds.hex(),
    }
    scheme.crash()
    try:
        recovery = scheme.recover()
    except RecoveryError:
        recovery = None  # NAT keeps nothing to recover from
    if recovery is not None:
        pinned["recovery_elapsed"] = recovery.elapsed_seconds.hex()
        pinned["recovery_buckets"] = {
            bucket: seconds.hex() for bucket, seconds in sorted(recovery.buckets.items())
        }
    stats = scheme.disk.device.stats
    pinned["device"] = (stats.bytes_written, stats.bytes_read, stats.write_ops, stats.read_ops)
    return pinned


#: Captured before durable stores kept encoded bytes; must never move.
GOLDEN = {
    ("NAT", False): {
        "bytes_logged": 0,
        "bytes_events": 0,
        "bytes_snapshotted": 0,
        "snapshot_bytes_written": 0,
        "peak_memory_bytes": 1432,
        "runtime_elapsed": "0x1.962a79504df42p-10",
        "device": (0, 0, 0, 0),
    },
    ("CKPT", False): {
        "bytes_logged": 0,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 1432,
        "runtime_elapsed": "0x1.a6de164466bf6p-10",
        "recovery_elapsed": "0x1.e8b8a3908c80fp-12",
        "recovery_buckets": {
            "abort": "0x1.0c6f7a0b5ed8dp-18",
            "construct": "0x1.9ed110ff2bc4dp-14",
            "execute": "0x1.711947cfa26a0p-14",
            "explore": "0x1.a2976f1cee4d3p-15",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.01995b7be9bfep-14",
            "wait": "0x1.03353ea62dfbfp-13",
        },
        "device": (18418, 3541, 16, 3),
    },
    ("WAL", False): {
        "bytes_logged": 1514,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 2981,
        "runtime_elapsed": "0x1.d29e162cc76f5p-10",
        "recovery_elapsed": "0x1.fbab96f8fea43p-12",
        "recovery_buckets": {
            "execute": "0x1.5f45e0b4e11d9p-14",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.c8b52b9485121p-14",
            "wait": "0x1.07746887a8d60p-12",
        },
        "device": (29131, 3469, 23, 3),
    },
    ("PACMAN", False): {
        "bytes_logged": 1514,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 2981,
        "runtime_elapsed": "0x1.d29e162cc76f5p-10",
        "recovery_elapsed": "0x1.4a404f82478e1p-12",
        "recovery_buckets": {
            "construct": "0x1.9b0ab2e1693c1p-17",
            "execute": "0x1.5f45e0b4e11dbp-14",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.c8b52b9485121p-14",
            "wait": "0x1.24c32de799d7dp-14",
        },
        "device": (29131, 3469, 23, 3),
    },
    ("DL", False): {
        "bytes_logged": 3091,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 4896,
        "runtime_elapsed": "0x1.12b0e61f2ad68p-9",
        "recovery_elapsed": "0x1.3501a23e19452p-11",
        "recovery_buckets": {
            "construct": "0x1.455219a847b20p-12",
            "execute": "0x1.5f45e0b4e11dap-14",
            "explore": "0x1.853b3dc3afed9p-17",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.041fbffbe8752p-14",
            "wait": "0x1.55d5f56a7ac8dp-14",
        },
        "device": (41493, 5046, 23, 3),
    },
    ("LV", False): {
        "bytes_logged": 1970,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 3449,
        "runtime_elapsed": "0x1.01555b1f62229p-9",
        "recovery_elapsed": "0x1.c0e10ed6bb15dp-12",
        "recovery_buckets": {
            "execute": "0x1.5f45e0b4e11dap-14",
            "explore": "0x1.64ef6de184eacp-14",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.023e48bb04ce5p-14",
            "wait": "0x1.4a177b46c83b4p-13",
        },
        "device": (32371, 3925, 23, 3),
    },
    ("LVC", False): {
        "bytes_logged": 1834,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 3347,
        "runtime_elapsed": "0x1.ec8d83f7f6e09p-10",
        "recovery_elapsed": "0x1.c0d2747fcf5b3p-12",
        "recovery_buckets": {
            "execute": "0x1.5f45e0b4e11dap-14",
            "explore": "0x1.64ef6de184eacp-14",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.0203df5f55e3ep-14",
            "wait": "0x1.4a177b46c83b4p-13",
        },
        "device": (31489, 3789, 23, 3),
    },
    ("MSR", False): {
        "bytes_logged": 1622,
        "bytes_events": 2101,
        "bytes_snapshotted": 1440,
        "snapshot_bytes_written": 4296,
        "peak_memory_bytes": 3417,
        "runtime_elapsed": "0x1.bcf548a9d871ap-10",
        "recovery_elapsed": "0x1.02fa1bbf98143p-12",
        "recovery_buckets": {
            "abort": "0x1.d5c31593e5fb7p-19",
            "construct": "0x1.8bf13a6a5f19bp-15",
            "execute": "0x1.1eae40f08b180p-14",
            "explore": "0x1.995d33b7bd711p-20",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.5834d668b0575p-14",
            "wait": "0x1.1177f788623c0p-18",
        },
        "device": (30648, 5163, 31, 4),
    },
    ("CKPT", True): {
        "bytes_logged": 0,
        "bytes_events": 2101,
        "bytes_snapshotted": 5144,
        "snapshot_bytes_written": 3680,
        "peak_memory_bytes": 1432,
        "runtime_elapsed": "0x1.a6d1cbc62ecf5p-10",
        "recovery_elapsed": "0x1.14983d7907529p-11",
        "recovery_buckets": {
            "abort": "0x1.0c6f7a0b5ed8dp-18",
            "construct": "0x1.9ed110ff2bc4dp-14",
            "execute": "0x1.711947cfa26a0p-14",
            "explore": "0x1.a2976f1cee4d3p-15",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.01bc5c80f928ap-13",
            "wait": "0x1.03353ea62dfb7p-13",
        },
        "device": (17802, 7245, 16, 6),
    },
    ("MSR", True): {
        "bytes_logged": 1622,
        "bytes_events": 2101,
        "bytes_snapshotted": 5144,
        "snapshot_bytes_written": 3680,
        "peak_memory_bytes": 3417,
        "runtime_elapsed": "0x1.bce8fe2ba0817p-10",
        "recovery_elapsed": "0x1.4371f3211a381p-12",
        "recovery_buckets": {
            "abort": "0x1.d5c31593e5fb7p-19",
            "construct": "0x1.8bf13a6a5f19bp-15",
            "execute": "0x1.1eae40f08b180p-14",
            "explore": "0x1.995d33b7bd711p-20",
            "io": "0x1.51c35af7e2132p-15",
            "reload": "0x1.2d0a19f75c746p-13",
            "wait": "0x1.1177f78862380p-18",
        },
        "device": (30032, 8867, 31, 7),
    },
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{'-incremental' * c[1]}")
def test_charged_bytes_match_golden(case):
    assert charged(*case) == GOLDEN[case]
