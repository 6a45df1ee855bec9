"""Unit tests for the FIFO primitives."""

import pytest

from repro.sim.fifo import AsyncFifo, FifoError, SyncFifo


def test_capacity_must_be_positive():
    with pytest.raises(FifoError):
        SyncFifo(0)
    with pytest.raises(FifoError):
        SyncFifo(-3)


def test_fifo_ordering():
    fifo = SyncFifo(8)
    for value in range(5):
        assert fifo.push(value)
    assert [fifo.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_empty_and_full_flags():
    fifo = SyncFifo(2)
    assert fifo.empty and not fifo.full
    fifo.push(1)
    assert not fifo.empty and not fifo.full
    fifo.push(2)
    assert fifo.full
    fifo.pop()
    assert not fifo.full


def test_push_while_full_drops_and_counts():
    fifo = SyncFifo(1)
    assert fifo.push(1)
    assert not fifo.push(2)
    assert fifo.drops == 1
    assert fifo.pop() == 1


def test_pop_empty_raises():
    with pytest.raises(FifoError):
        SyncFifo(4).pop()


def test_peek_does_not_consume():
    fifo = SyncFifo(4)
    fifo.push(42)
    assert fifo.peek() == 42
    assert len(fifo) == 1
    with pytest.raises(FifoError):
        SyncFifo(4).peek()


def test_almost_full_threshold():
    fifo = SyncFifo(10, almost_full_slack=4)
    for value in range(5):
        fifo.push(value)
    assert not fifo.almost_full  # remaining = 5 > 4
    fifo.push(5)
    assert fifo.almost_full  # remaining = 4
    fifo.pop()
    assert not fifo.almost_full


def test_almost_full_slack_zero_means_full():
    fifo = SyncFifo(2)
    fifo.push(1)
    assert not fifo.almost_full
    fifo.push(2)
    assert fifo.almost_full


def test_negative_slack_rejected():
    with pytest.raises(FifoError):
        SyncFifo(4, almost_full_slack=-1)


def test_clear_resets_contents_not_counters():
    fifo = SyncFifo(4)
    fifo.push(1)
    fifo.push(2)
    fifo.clear()
    assert fifo.empty
    assert fifo.pushes == 2


def test_drain_returns_in_order():
    fifo = SyncFifo(8)
    for value in (3, 1, 4):
        fifo.push(value)
    assert fifo.drain() == [3, 1, 4]
    assert fifo.empty


def test_max_occupancy_statistic():
    fifo = SyncFifo(8)
    for value in range(5):
        fifo.push(value)
    fifo.pop()
    fifo.pop()
    assert fifo.max_occupancy == 5


# ----------------------------------------------------------------------
# AsyncFifo: clock-domain bookkeeping
# ----------------------------------------------------------------------
def test_async_fifo_data_path_matches_sync():
    fifo = AsyncFifo(4)
    fifo.push(1)
    fifo.push(2)
    assert fifo.pop() == 1
    assert fifo.pop() == 2


def test_async_fifo_clear_empties():
    fifo = AsyncFifo(4, sync_stages=1)
    fifo.push(1)
    fifo.clear()
    assert fifo.empty
    assert fifo.sync_stages == 1


def test_async_fifo_records_domains():
    fifo = AsyncFifo(4, write_domain="lcd0", read_domain="static")
    assert fifo.write_domain == "lcd0"
    assert fifo.read_domain == "static"
