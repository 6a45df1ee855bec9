"""Property tests: FIFOs against a reference deque model."""

from collections import deque

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.fifo import AsyncFifo, SyncFifo

ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=200,
)


@given(capacity=st.integers(1, 64), operations=ops)
def test_sync_fifo_matches_reference_model(capacity, operations):
    fifo = SyncFifo(capacity)
    model = deque()
    drops = 0
    for op, value in operations:
        if op == "push":
            accepted = fifo.push(value)
            if len(model) < capacity:
                assert accepted
                model.append(value)
            else:
                assert not accepted
                drops += 1
        else:
            if model:
                assert fifo.pop() == model.popleft()
            else:
                assert fifo.empty
        assert len(fifo) == len(model)
        assert fifo.empty == (not model)
        assert fifo.full == (len(model) == capacity)
        assert fifo.drops == drops


@given(
    capacity=st.integers(1, 64),
    slack=st.integers(0, 64),
    pushes=st.integers(0, 64),
)
def test_almost_full_is_remaining_space_threshold(capacity, slack, pushes):
    fifo = SyncFifo(capacity, almost_full_slack=slack)
    for value in range(min(pushes, capacity)):
        fifo.push(value)
    assert fifo.almost_full == (fifo.remaining <= slack)


@given(
    words=st.lists(st.integers(0, 2**32 - 1), max_size=100),
    capacity=st.integers(1, 128),
)
def test_fifo_preserves_order_and_content(words, capacity):
    fifo = SyncFifo(capacity)
    accepted = [w for w in words if fifo.push(w)]
    assert fifo.drain() == accepted
    assert accepted == words[: min(len(words), capacity)]


@given(
    words=st.lists(st.integers(0, 255), min_size=1, max_size=50),
    sync_stages=st.integers(0, 4),
)
def test_async_fifo_data_path_matches_sync_fifo(words, sync_stages):
    """The synchroniser depth never changes what the data path holds."""
    fifo = AsyncFifo(256, sync_stages=sync_stages)
    twin = SyncFifo(256)
    for word in words:
        assert fifo.push(word) == twin.push(word)
        assert fifo.empty == twin.empty
    assert fifo.drain() == twin.drain() == words
