"""Exact byte accounting of the event store.

The event store keeps encoded events and sizes itself from running
totals.  These tests hold it to the sizes of the objects it stores:
every size it reports or charges must equal ``len(encode(...))`` of the
same payloads, and every read must return what was appended.  The
file-backed store is driven through the same operations and must reopen
to the same events and sizes.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codec import encode
from repro.storage.filedisk import FileBackedDisk
from repro.storage.stores import Disk

_events = st.lists(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=6),
        st.tuples(st.integers(-300, 300), st.floats(allow_nan=False)),
    ),
    max_size=12,
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _events),
        st.tuples(st.just("seal"), st.floats(0.0, 1.0)),
        st.tuples(st.just("reopen"), st.none()),
        st.tuples(st.just("truncate"), st.integers(0, 12)),
        st.tuples(st.just("read"), st.integers(0, 12)),
        st.tuples(st.just("pending"), st.none()),
    ),
    max_size=40,
)


def _size(payloads) -> int:
    return len(encode(list(payloads)))


def _expected_bytes(sealed, pending) -> int:
    return sum(_size(p) for p in sealed.values()) + (_size(pending) if pending else 0)


def _apply(disk, op, arg, sealed, pending, next_epoch):
    """Run one operation on the disk and on the model; check every size.

    ``sealed`` (epoch -> events) and ``pending`` model what the store
    holds.  Returns the next epoch id to seal.
    """
    store, stats = disk.events, disk.device.stats
    written, read = stats.bytes_written, stats.bytes_read
    if op == "append":
        store.append_events(arg)
        pending.extend(arg)
        assert stats.bytes_written - written == _size(arg)
    elif op == "seal":
        count = int(arg * len(pending))
        store.seal_epoch(next_epoch, count)
        sealed[next_epoch] = pending[:count]
        del pending[:count]
        assert stats.bytes_written - written == len(encode((next_epoch, count)))
        next_epoch += 1
    elif op == "reopen" and sealed:
        newest = max(sealed)
        assert store.reopen_epoch(newest) == len(sealed[newest])
        pending[:0] = sealed.pop(newest)
    elif op == "truncate":
        freed = store.truncate_before(arg)
        stale = [e for e in sealed if e < arg]
        assert freed == sum(_size(sealed.pop(e)) for e in stale)
    elif op == "read" and sealed:
        first = sorted(sealed)[arg % len(sealed)]
        last = first
        while last + 1 in sealed:
            last += 1
        events, _seconds = store.read_epochs(first, last)
        expected = [sealed[e] for e in range(first, last + 1)]
        assert events == [event for epoch in expected for event in epoch]
        assert stats.bytes_read - read == sum(_size(p) for p in expected)
    elif op == "pending":
        events, _seconds = store.read_pending()
        assert events == pending
        assert stats.bytes_read - read == (_size(pending) if pending else 0)
    assert store.bytes_stored == _expected_bytes(sealed, pending)
    assert store.pending_count == len(pending)
    for epoch, events in sealed.items():
        assert store.count_epoch(epoch) == len(events)
    return next_epoch


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_event_store_charges_exactly_what_encoding_would(ops):
    disk = Disk()
    sealed, pending, next_epoch = {}, [], 0
    for op, arg in ops:
        next_epoch = _apply(disk, op, arg, sealed, pending, next_epoch)


@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_file_event_store_reopens_to_equal_events_and_sizes(ops):
    with tempfile.TemporaryDirectory() as root:
        disk = FileBackedDisk(root)
        sealed, pending, next_epoch = {}, [], 0
        for op, arg in ops:
            next_epoch = _apply(disk, op, arg, sealed, pending, next_epoch)
        reopened = FileBackedDisk(root).events
        assert reopened.bytes_stored == disk.events.bytes_stored
        assert reopened.read_pending()[0] == pending
        for epoch, events in sealed.items():
            assert reopened.read_epochs(epoch, epoch)[0] == events
