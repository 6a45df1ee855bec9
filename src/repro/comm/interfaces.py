"""Producer and consumer module interfaces (paper Figure 2).

Every PRR/IOM connects to its switch box through FIFO-based module
interfaces:

* the **producer interface** holds the module's output FIFO.  When the
  PRSocket ``FIFO_ren`` bit is set and the channel is not back-pressured,
  one word per fabric cycle is read from the FIFO and *bit-extended* with
  the negated FIFO-empty flag as an extra MSB, so only valid words are
  written into the consumer FIFO at the far end;
* the **consumer interface** receives extended words from the channel; the
  MSB acts as the write enable of its FIFO (gated by ``FIFO_wen``).  Words
  arriving while the FIFO is full are discarded -- the feedback FIFO-full
  signal exists precisely so this never happens in normal operation.  The
  feedback asserts while the FIFO's remaining space is at most ``2*d``
  (``d`` = switch boxes on the channel), covering the words already in
  flight in both pipeline directions.

The FIFOs are asynchronous: the module side runs in the PRR's local clock
domain, the channel side in the static-region clock domain.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.fifo import AsyncFifo

#: Sentinel "invalid" extended word (valid MSB clear).
INVALID_WORD: Tuple[bool, int] = (False, 0)


class ProducerInterface:
    """Module output port: FIFO plus valid-bit extension logic."""

    def __init__(
        self,
        name: str,
        width: int = 32,
        depth: int = 512,
        module_domain: str = "lcd",
        fabric_domain: str = "static",
    ) -> None:
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        self.fifo = AsyncFifo(
            depth,
            name=f"{name}.fifo",
            write_domain=module_domain,
            read_domain=fabric_domain,
        )
        self.fifo_ren = False  # PRSocket FIFO_ren (Table 1 bit 5)
        self.words_sent = 0
        #: fault-injection hook (repro.faults): OR mask applied to every
        #: word driven onto the channel, modelling logic corrupted by a
        #: configuration-frame upset.  An OR mask (stuck-at-1) corrupts
        #: data words yet keeps the all-ones EOS word intact, so the
        #: Figure 5 drain/flush protocol still terminates on a faulted
        #: module.  Cleared when the frame fault is repaired.
        self.fault_or = 0

    # ------------------------------------------------------------------
    # module (PRR) side
    # ------------------------------------------------------------------
    def module_write(self, word: int) -> bool:
        """Module pushes a word; False when the FIFO is full (module stalls)."""
        fifo = self.fifo
        if len(fifo._data) >= fifo.capacity:  # full: stall, not a drop
            return False
        return fifo.push(word & self.mask)

    @property
    def module_can_write(self) -> bool:
        return not self.fifo.full

    # ------------------------------------------------------------------
    # fabric (channel) side
    # ------------------------------------------------------------------
    def drive(self, backpressured: bool) -> Tuple[bool, int]:
        """Produce one extended word for the channel this fabric cycle.

        Returns ``(valid, word)`` -- the hardware's ``{~empty, data}``
        bit-extension.  Reads the FIFO only when ``FIFO_ren`` is set and the
        delayed feedback-full signal is deasserted.
        """
        fifo = self.fifo
        if not self.fifo_ren or backpressured or not fifo._data:
            return INVALID_WORD
        word = fifo.pop()
        self.words_sent += 1
        if self.fault_or:
            word = (word | self.fault_or) & self.mask
        return (True, word)

    def reset(self) -> None:
        """PRSocket ``FIFO_reset`` semantics."""
        self.fifo.clear()

    def __repr__(self) -> str:
        return (
            f"ProducerInterface({self.name}, {len(self.fifo)}/"
            f"{self.fifo.capacity}, ren={self.fifo_ren})"
        )


class ConsumerInterface:
    """Module input port: FIFO written by the channel, read by the module."""

    def __init__(
        self,
        name: str,
        width: int = 32,
        depth: int = 512,
        module_domain: str = "lcd",
        fabric_domain: str = "static",
    ) -> None:
        self.name = name
        self.width = width
        self.mask = (1 << width) - 1
        self.fifo = AsyncFifo(
            depth,
            name=f"{name}.fifo",
            write_domain=fabric_domain,
            read_domain=module_domain,
        )
        self.fifo_wen = False  # PRSocket FIFO_wen (Table 1 bit 4)
        self.words_received = 0
        self.words_discarded = 0
        #: valid words that arrived while FIFO_wen was low (software bug
        #: indicator: the channel was fed before the consumer was enabled)
        self.words_gated = 0

    # ------------------------------------------------------------------
    # fabric (channel) side
    # ------------------------------------------------------------------
    def receive(self, valid: bool, word: int) -> None:
        """Accept one extended word arriving off the channel."""
        if not valid:
            return
        if not self.fifo_wen:
            self.words_gated += 1
            return
        fifo = self.fifo
        if len(fifo._data) >= fifo.capacity:
            # The paper: "all subsequent data words are discarded" -- the
            # feedback-full signal exists so this path is never exercised.
            self.words_discarded += 1
            return
        fifo.push(word & self.mask)
        self.words_received += 1

    def set_backpressure_slack(self, slack: int) -> None:
        """Configure the 2*d remaining-space threshold at channel setup."""
        self.fifo.almost_full_slack = slack

    @property
    def full_feedback(self) -> bool:
        """The feedback FIFO-full signal launched back up the channel
        (:meth:`StreamingChannel.sample` computes it inline)."""
        return self.fifo.almost_full

    # ------------------------------------------------------------------
    # module (PRR) side
    # ------------------------------------------------------------------
    @property
    def module_can_read(self) -> bool:
        return not self.fifo.empty

    def module_read(self) -> Optional[int]:
        """Module pops a word; None when empty (module blocks)."""
        fifo = self.fifo
        if not fifo._data:
            return None
        return fifo.pop()

    def module_peek(self) -> Optional[int]:
        return None if self.fifo.empty else self.fifo.peek()

    def reset(self) -> None:
        self.fifo.clear()
        self.words_discarded = 0

    def __repr__(self) -> str:
        return (
            f"ConsumerInterface({self.name}, {len(self.fifo)}/"
            f"{self.fifo.capacity}, wen={self.fifo_wen})"
        )
