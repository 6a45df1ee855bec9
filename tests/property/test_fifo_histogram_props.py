"""Property tests: a metrics-bound FIFO's occupancy histogram.

A bound ``SyncFifo`` updates its ``repro_fifo_occupancy`` histogram
through a shared occupancy -> bucket table instead of
``Histogram.observe``.  These tests run push/pop/clear sequences beside a
twin histogram fed by ``observe`` and require identical counts, sum,
count and exposition text, for capacities below the last bucket bound
and above it (2048 reaches ``+Inf``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.sim.fifo import SyncFifo, occupancy_buckets

CAPACITIES = (8, 512, 2048)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(1, 600)),
        st.tuples(st.just("pop"), st.integers(1, 600)),
        st.tuples(st.just("clear"), st.just(1)),
    ),
    max_size=40,
)


@given(capacity=st.sampled_from(CAPACITIES), ops=operations)
@settings(max_examples=60, deadline=None)
def test_bound_fifo_histogram_matches_observe(capacity, ops):
    registry = MetricsRegistry()
    fifo = SyncFifo(capacity, name="f")
    fifo.bind_metrics(registry)
    twin_registry = MetricsRegistry()
    labels = {"fifo": "f"}
    twin = twin_registry.histogram("repro_fifo_occupancy", labels=labels)
    twin_drops = twin_registry.counter("repro_fifo_drops_total", labels=labels)
    for op, repeat in ops:
        for _ in range(repeat):
            if op == "push":
                if fifo.push(0):
                    twin.observe(len(fifo))
                else:
                    twin_drops.inc()
            elif op == "pop" and not fifo.empty:
                fifo.pop()
        if op == "clear":
            fifo.clear()
    hist = registry.get("repro_fifo_occupancy", labels)
    assert hist.counts == twin.counts
    assert hist.sum == twin.sum and type(hist.sum) is type(twin.sum)
    assert hist.count == twin.count
    assert prometheus_text(registry) == prometheus_text(twin_registry)


def test_full_fifo_above_last_bound_lands_in_inf_bucket():
    registry = MetricsRegistry()
    fifo = SyncFifo(2048, name="big")
    fifo.bind_metrics(registry)
    for value in range(2048):
        fifo.push(value)
    hist = registry.get("repro_fifo_occupancy", {"fifo": "big"})
    assert hist.counts[-1] == 2048 - 1024
    assert hist.count == 2048


def test_same_capacity_fifos_share_one_table():
    """Binding a system's FIFOs builds one table per capacity, not one
    per FIFO (a per-FIFO table slows every system build)."""
    registry = MetricsRegistry()
    before = occupancy_buckets.cache_info().misses
    fifos = [SyncFifo(333, name=f"f{index}") for index in range(50)]
    for fifo in fifos:
        fifo.bind_metrics(registry)
    assert occupancy_buckets.cache_info().misses - before <= 1
    assert len({id(fifo._occ_buckets) for fifo in fifos}) == 1
