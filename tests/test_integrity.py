"""Segment integrity: corrupted durable bytes must never recover silently."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.ft.checkpoint import GlobalCheckpoint
from repro.storage.codec import encode
from repro.storage.device import StorageDevice
from repro.storage.integrity import protect, verify
from repro.storage.stores import LogStore, SnapshotStore


class TestFraming:
    def test_round_trip(self):
        payload = b"hello durable world"
        assert verify(protect(payload)) == payload

    def test_empty_payload(self):
        assert verify(protect(b"")) == b""

    def test_bit_flip_detected(self):
        framed = bytearray(protect(b"some snapshot bytes"))
        framed[-1] ^= 0x01
        with pytest.raises(StorageError, match="checksum mismatch"):
            verify(bytes(framed))

    def test_header_corruption_detected(self):
        framed = bytearray(protect(b"payload"))
        framed[0] ^= 0xFF
        with pytest.raises(StorageError, match="checksum mismatch"):
            verify(bytes(framed))

    def test_truncated_frame_detected(self):
        with pytest.raises(StorageError, match="too short"):
            verify(b"\x01\x02")


class TestStoreIntegration:
    def test_snapshot_corruption_detected_on_load(self):
        store = SnapshotStore(StorageDevice())
        store.put(0, encode({"t": {1: 2.0}}))
        kind, blob, base = store._snapshots[0]
        corrupted = bytearray(blob)
        corrupted[10] ^= 0x40
        store._snapshots[0] = (kind, bytes(corrupted), base)
        with pytest.raises(StorageError, match="checksum mismatch"):
            store.load(0)

    def test_log_corruption_detected_on_read(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, encode([(0, "cmd", (1, 2))]))
        blob = bytearray(store._segments[("wal", 0)])
        blob[-2] ^= 0x08
        store._segments[("wal", 0)] = bytes(blob)
        with pytest.raises(StorageError, match="checksum mismatch"):
            store.read_epoch("wal", 0)

    def test_recovery_refuses_corrupt_checkpoint(self, sl):
        scheme = GlobalCheckpoint(
            sl, num_workers=2, epoch_len=50, snapshot_interval=2
        )
        scheme.process_stream(sl.generate(200, seed=0))
        scheme.crash()
        # Corrupt the latest snapshot on "disk".
        latest = scheme.disk.snapshots.latest_epoch()
        kind, blob, base = scheme.disk.snapshots._snapshots[latest]
        corrupted = bytearray(blob)
        corrupted[len(corrupted) // 2] ^= 0x10
        scheme.disk.snapshots._snapshots[latest] = (kind, bytes(corrupted), base)
        with pytest.raises(StorageError, match="checksum mismatch"):
            scheme.recover()
