"""Storage substrate: device model and crash-surviving stores."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, StorageError
from repro.storage.codec import encode
from repro.storage.device import StorageDevice
from repro.storage.stores import Disk, EventStore, LogStore, SnapshotStore


class TestStorageDevice:
    def test_write_time_is_latency_plus_bandwidth(self):
        device = StorageDevice(
            write_bandwidth=1e9, read_bandwidth=1e9, iops=1e9, latency=1e-5
        )
        assert device.write(1_000_000) == pytest.approx(1e-5 + 1e-3)

    def test_iops_floor(self):
        device = StorageDevice(iops=100.0, latency=0.0)
        # A tiny write cannot beat 1/iops.
        assert device.write(1) == pytest.approx(0.01)

    def test_read_uses_read_bandwidth(self):
        device = StorageDevice(
            write_bandwidth=1e9, read_bandwidth=2e9, iops=1e9, latency=0.0
        )
        assert device.read(2_000_000) == pytest.approx(1e-3)

    def test_stats_accumulate(self):
        device = StorageDevice()
        device.write(100)
        device.write(200)
        device.read(50)
        assert device.stats.bytes_written == 300
        assert device.stats.write_ops == 2
        assert device.stats.bytes_read == 50
        assert device.stats.read_ops == 1
        assert device.stats.write_seconds > 0

    def test_reset_stats(self):
        device = StorageDevice()
        device.write(100)
        device.reset_stats()
        assert device.stats.bytes_written == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError):
            StorageDevice().write(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            StorageDevice(write_bandwidth=0)
        with pytest.raises(ConfigError):
            StorageDevice(latency=-1e-6)


class TestEventStore:
    def test_append_seal_and_read_round_trip(self):
        store = EventStore(StorageDevice())
        events = [(0, "deposit", (1, 2.0)), (1, "transfer", (3, 4))]
        assert store.append_events(events) > 0
        store.seal_epoch(0, 2)
        out, seconds = store.read_epochs(0, 0)
        assert out == events
        assert seconds > 0

    def test_read_spans_multiple_epochs_in_order(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ())])
        store.seal_epoch(0, 1)
        store.seal_epoch(1, 1)
        out, _s = store.read_epochs(0, 1)
        assert [e[1] for e in out] == ["a", "b"]

    def test_double_seal_rejected(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ())])
        store.seal_epoch(0, 1)
        with pytest.raises(StorageError):
            store.seal_epoch(0, 0)

    def test_seal_beyond_pending_rejected(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ())])
        with pytest.raises(StorageError):
            store.seal_epoch(0, 2)

    def test_missing_epoch_rejected(self):
        store = EventStore(StorageDevice())
        with pytest.raises(StorageError):
            store.read_epochs(0, 0)

    def test_count_epoch(self):
        store = EventStore(StorageDevice())
        store.append_events([(0,), (1,), (2,)])
        store.seal_epoch(3, 3)
        assert store.count_epoch(3) == 3
        with pytest.raises(StorageError):
            store.count_epoch(4)

    def test_pending_tail_survives_and_is_readable(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ()), (2, "c", ())])
        store.seal_epoch(0, 2)
        assert store.pending_count == 1
        pending, seconds = store.read_pending()
        assert pending == [(2, "c", ())]
        assert seconds > 0

    def test_read_pending_empty_is_free(self):
        store = EventStore(StorageDevice())
        pending, seconds = store.read_pending()
        assert pending == [] and seconds == 0.0

    def test_truncate_frees_sealed_but_not_pending(self):
        store = EventStore(StorageDevice())
        store.append_events([(0, "a", ()), (1, "b", ()), (2, "c", ())])
        store.seal_epoch(0, 1)
        store.seal_epoch(1, 1)
        before = store.bytes_stored
        freed = store.truncate_before(1)
        assert freed > 0
        assert store.bytes_stored < before
        with pytest.raises(StorageError):
            store.read_epochs(0, 0)
        store.read_epochs(1, 1)  # epoch 1 survives
        assert store.pending_count == 1  # tail untouched


class TestSnapshotStore:
    def test_put_load_round_trip(self):
        store = SnapshotStore(StorageDevice())
        state = {"t": {1: 2.0, 2: 3.0}}
        store.put(5, encode(state))
        loaded, seconds = store.load(5)
        assert loaded == state
        assert seconds > 0

    def test_latest_epoch(self):
        store = SnapshotStore(StorageDevice())
        assert store.latest_epoch() is None
        store.put(1, encode({}))
        store.put(5, encode({}))
        assert store.latest_epoch() == 5

    def test_load_missing_rejected(self):
        with pytest.raises(StorageError):
            SnapshotStore(StorageDevice()).load(0)

    def test_truncate_keeps_target_epoch(self):
        store = SnapshotStore(StorageDevice())
        store.put(1, encode({"a": {}}))
        store.put(5, encode({"b": {}}))
        store.truncate_before(5)
        assert store.latest_epoch() == 5
        with pytest.raises(StorageError):
            store.load(1)


class TestLogStore:
    def test_commit_read_round_trip(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, encode([(0, "cmd")]))
        records, _s = store.read_epoch("wal", 0)
        assert records == [(0, "cmd")]

    def test_streams_are_independent(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("a", 0, encode(["a0"]))
        store.commit_epoch("b", 0, encode(["b0"]))
        assert store.read_epoch("a", 0)[0] == ["a0"]
        assert store.read_epoch("b", 0)[0] == ["b0"]
        assert store.bytes_for_stream("a") > 0

    def test_double_commit_rejected(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, encode([]))
        with pytest.raises(StorageError):
            store.commit_epoch("wal", 0, encode([]))

    def test_read_epochs_skips_gaps(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, encode(["x"]))
        store.commit_epoch("wal", 2, encode(["y"]))
        segments, _s = store.read_epochs("wal", 0, 2)
        assert segments == [["x"], ["y"]]

    def test_has_epoch(self):
        store = LogStore(StorageDevice())
        assert not store.has_epoch("wal", 0)
        store.commit_epoch("wal", 0, encode([]))
        assert store.has_epoch("wal", 0)

    def test_truncate_by_epoch(self):
        store = LogStore(StorageDevice())
        store.commit_epoch("wal", 0, encode(["x"]))
        store.commit_epoch("wal", 3, encode(["y"]))
        store.truncate_before(2)
        assert not store.has_epoch("wal", 0)
        assert store.has_epoch("wal", 3)


class TestDisk:
    def test_shared_device_accounting(self):
        disk = Disk()
        disk.events.append_events([(0, "e", ())])
        disk.snapshots.put(0, encode({"t": {}}))
        disk.logs.commit_epoch("wal", 0, encode([]))
        assert disk.device.stats.write_ops == 3
        assert disk.bytes_stored > 0
