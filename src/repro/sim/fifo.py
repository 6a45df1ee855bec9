"""FIFO primitives backing module interfaces and FSL links.

The paper's module interfaces and FSLs are built from Virtex-4 BlockRAM
FIFOs.  Two flavours are modelled:

* :class:`SyncFifo` -- single clock domain.
* :class:`AsyncFifo` -- dual clock domain, providing the isolation between a
  PRR local clock domain and the static-region clock (paper Section
  III.B.2).  Because the kernel serialises all events deterministically the
  data path is identical to the synchronous FIFO; the class additionally
  records its two clock domains and the depth of its gray-code
  flag synchroniser, which the CDC lint checks.

FIFOs count pushes, pops and *drops* (pushes while full).  The consumer
interface of the paper discards words arriving at a full FIFO; the drop
counter is what the back-pressure benchmarks assert to be zero.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache
from typing import Any, Deque, Hashable, List, Tuple


class FifoError(Exception):
    """Raised on misuse (popping an empty FIFO, bad capacity, ...)."""


@lru_cache(maxsize=None)
def occupancy_buckets(
    bounds: Tuple[float, ...], capacity: int
) -> Tuple[int, ...]:
    """Histogram bucket index of every occupancy ``0..capacity``.

    ``Histogram.observe`` bisects its bounds per sample; a bound FIFO
    indexes this table instead.  One table per (bounds, capacity) is
    shared by every FIFO, so binding a system's FIFOs builds each once.
    """
    return tuple(bisect_left(bounds, occ) for occ in range(capacity + 1))


class SyncFifo:
    """A bounded FIFO with occupancy flags and statistics.

    ``almost_full_slack`` configures the *remaining-space* threshold at
    which :attr:`almost_full` asserts; the consumer module interface sets it
    to ``2 * d`` (twice the number of switch boxes on the channel) so that
    the words already in flight on the pipelined streaming channel can still
    land after back-pressure asserts (paper Section III.B).
    """

    def __init__(
        self,
        capacity: int,
        name: str = "fifo",
        almost_full_slack: int = 0,
    ) -> None:
        if capacity <= 0:
            raise FifoError(f"FIFO capacity must be positive, got {capacity}")
        if almost_full_slack < 0:
            raise FifoError("almost_full_slack must be >= 0")
        self.capacity = capacity
        self.name = name
        self.almost_full_slack = almost_full_slack
        self._data: Deque[Any] = deque()
        self.pushes = 0
        self.pops = 0
        self.drops = 0
        self.max_occupancy = 0
        # optional obs instruments (see bind_metrics); None = zero cost
        self._occ_hist = None
        self._occ_buckets: Tuple[int, ...] = ()
        self._drop_counter = None
        # optional ECC shadow (repro.faults): a golden copy of the stored
        # words, so single-bit upsets injected into the BRAM contents are
        # corrected (and counted) at read time, modelling SECDED ECC.
        # None = zero cost on the data path beyond this check.
        self._ecc: Any = None
        self.ecc_corrected = 0

    def bind_metrics(self, registry, label: str = "") -> None:
        """Attach this FIFO to an obs metrics registry.

        Records an occupancy histogram sample per successful push and a
        drop counter per rejected push.  Unbound FIFOs pay only a None
        check on the data path.  A push updates the histogram's counts,
        sum and count directly, through the shared
        :func:`occupancy_buckets` table, exactly as ``observe`` would.
        """
        labels = {"fifo": label or self.name}
        self._occ_hist = registry.histogram(
            "repro_fifo_occupancy", labels=labels
        )
        self._occ_buckets = occupancy_buckets(
            self._occ_hist.buckets, self.capacity
        )
        self._drop_counter = registry.counter(
            "repro_fifo_drops_total", labels=labels
        )

    # ------------------------------------------------------------------
    # flags
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    @property
    def empty(self) -> bool:
        return not self._data

    @property
    def full(self) -> bool:
        return len(self._data) >= self.capacity

    @property
    def remaining(self) -> int:
        return self.capacity - len(self._data)

    @property
    def almost_full(self) -> bool:
        """True when remaining space has shrunk to the configured slack."""
        return self.remaining <= self.almost_full_slack

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def push(self, word: Any) -> bool:
        """Append ``word``; returns False (and counts a drop) when full."""
        data = self._data
        if len(data) >= self.capacity:
            self.drops += 1
            if self._drop_counter is not None:
                self._drop_counter.inc()
            return False
        data.append(word)
        self.pushes += 1
        if self._ecc is not None:
            self._ecc.append(word)
        occupancy = len(data)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        hist = self._occ_hist
        if hist is not None:
            hist.counts[self._occ_buckets[occupancy]] += 1
            hist.sum += occupancy
            hist.count += 1
        return True

    def pop(self) -> Any:
        """Remove and return the oldest word."""
        if not self._data:
            raise FifoError(f"pop from empty FIFO {self.name!r}")
        self.pops += 1
        word = self._data.popleft()
        if self._ecc is not None:
            golden = self._ecc.popleft()
            if word != golden:
                self.ecc_corrected += 1
                word = golden
        return word

    def peek(self) -> Any:
        if not self._data:
            raise FifoError(f"peek at empty FIFO {self.name!r}")
        return self._data[0]

    def clear(self) -> None:
        """Reset the FIFO contents (PRSocket ``FIFO_reset`` semantics)."""
        self._data.clear()
        if self._ecc is not None:
            self._ecc.clear()

    # ------------------------------------------------------------------
    # ECC shadow (repro.faults)
    # ------------------------------------------------------------------
    def enable_ecc(self) -> None:
        """Keep a golden copy of stored words; corrects at pop time."""
        if self._ecc is None:
            self._ecc = deque(self._data)

    def corrupt_word(self, index: int, mask: int) -> bool:
        """Flip bits of one stored word (fault injection).

        Only integer payloads are touched (FSL FIFOs store tuples).
        Returns True when a word was corrupted; with ECC enabled the
        corruption is corrected -- and counted -- when the word is read.
        """
        if not self._data:
            return False
        index %= len(self._data)
        if not isinstance(self._data[index], int):
            return False
        self._data[index] ^= mask
        return True

    # ------------------------------------------------------------------
    # steady-state replay (repro.sim.fastpath)
    # ------------------------------------------------------------------
    def steady_key(self) -> Hashable:
        """Occupancy, for a component's ``steady_key``.  With the ECC
        shadow armed the push count joins it, so the key repeats only
        while no word moves; past drops join it so a new one breaks it."""
        occupancy = len(self._data)
        if self._ecc is not None:
            return (occupancy, self.pushes, self.drops)
        return (occupancy, self.drops) if self.drops else occupancy

    def replay(self, entering: List[Any]) -> List[Any]:
        """Delay-line shift: ``entering`` is pushed in order while as
        many of the oldest words leave; returns the leavers.  Counters
        are the replay engine's to advance."""
        count = len(entering)
        if not count:
            return []
        data = self._data
        words = list(data)
        words += entering
        data.clear()
        data.extend(words[count:])
        return words[:count]

    def drain(self) -> List[Any]:
        """Pop everything, returning the words in order."""
        words = []
        while self._data:
            words.append(self.pop())
        return words

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}, {len(self._data)}/{self.capacity}"
            f", drops={self.drops})"
        )


class AsyncFifo(SyncFifo):
    """Dual-clock FIFO providing clock-domain isolation.

    ``write_domain`` / ``read_domain`` are informational names (e.g. the
    static-region clock and a PRR LCD).  ``sync_stages`` is the
    flag-synchroniser depth the CDC lint (VAP2xx) checks; the data path
    and flags are those of :class:`SyncFifo`.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "afifo",
        write_domain: str = "wr",
        read_domain: str = "rd",
        almost_full_slack: int = 0,
        sync_stages: int = 2,
    ) -> None:
        super().__init__(capacity, name, almost_full_slack)
        self.write_domain = write_domain
        self.read_domain = read_domain
        self.sync_stages = sync_stages


def interleave_status(fifos: List[SyncFifo]) -> List[Tuple[str, int, int, int]]:
    """Summarise a set of FIFOs as ``(name, occupancy, capacity, drops)``."""
    return [(f.name, len(f), f.capacity, f.drops) for f in fifos]
