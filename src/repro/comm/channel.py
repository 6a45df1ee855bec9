"""Pipelined streaming channels and the fabric that clocks them.

A streaming channel connects one producer interface to one consumer
interface through ``d`` switch boxes.  Data advances one switch-box
register per static-clock cycle; the consumer's feedback FIFO-full signal
travels the opposite way with the same latency.  Both pipelines are
modelled as shift registers owned by the channel -- the physical lanes the
words traverse are reserved exclusively for the channel by the router, so
the per-channel shift is cycle-exact.

:class:`SwitchFabric` is the clocked component that advances every
established channel each static-clock cycle.  It has only a sample
phase: each channel delivers its tails, drives its producer and shifts
its registers in one step, before any module or IOM commits, so the
modules at both ends observe consistent pre-edge state.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Dict, Hashable, List, Tuple

from repro.comm.interfaces import (
    INVALID_WORD,
    ConsumerInterface,
    ProducerInterface,
)
from repro.comm.switchbox import LaneRef
from repro.sim.clock import ClockedComponent
from repro.sim.fastpath import Replay, Stage


class StreamingChannel:
    """One established producer->consumer channel.

    ``hops`` are the switch-box output lanes the router allocated, in
    upstream-to-downstream order; ``d = len(hops)`` is the pipeline depth in
    both directions (the paper's *number of switches between the two
    communicating PRRs/IOMs*).
    """

    def __init__(
        self,
        channel_id: int,
        producer: ProducerInterface,
        consumer: ConsumerInterface,
        hops: List[LaneRef],
    ) -> None:
        if not hops:
            raise ValueError("a channel must traverse at least one switch box")
        self.channel_id = channel_id
        self.producer = producer
        self.consumer = consumer
        self.hops = list(hops)
        self.d = len(hops)
        # deques: the per-cycle shift is pop+appendleft, no list rebuilds
        self._forward: Deque[Tuple[bool, int]] = deque([INVALID_WORD] * self.d)
        self._backward: Deque[bool] = deque([False] * self.d)
        self.released = False
        self.words_delivered = 0
        #: fabric cycles the producer had data ready but the arrived
        #: feedback-full (credit) signal held the read back
        self.stall_cycles = 0
        #: fault-injection hooks (repro.faults): a stuck-at credit lane
        #: asserts permanent backpressure at the producer end; a stuck-at-1
        #: data lane ORs its mask onto every word at the delivery register
        self.fault_stuck_full = False
        self.fault_data_or = 0
        #: output-signature watchdog: per-word CRCs recorded at the
        #: pipeline head and checked at delivery, so data corrupted in
        #: transit (not at the producer) is caught
        self.check_signatures = False
        self.signature_mismatches = 0
        self._sent_sigs: Deque[int] = deque()
        self._sig_skip = 0
        consumer.set_backpressure_slack(2 * self.d)

    # ------------------------------------------------------------------
    # clocking (driven by SwitchFabric)
    # ------------------------------------------------------------------
    def sample(self) -> None:
        """One fabric cycle: deliver the pipeline tails and shift in the
        new heads.

        Shifting here rather than in a commit phase is safe because no
        other component's sample phase reads the channel's registers, and
        software observes them only after the instant's commits.
        """
        if self.released:
            return
        forward = self._forward
        backward = self._backward
        valid, word = forward.pop()
        if valid:
            if self.fault_data_or:
                word |= self.fault_data_or
            if self.check_signatures:
                if self._sig_skip:
                    self._sig_skip -= 1
                elif self._sent_sigs:
                    if self._sent_sigs.popleft() != self._signature(word):
                        self.signature_mismatches += 1
            self.consumer.receive(valid, word)
            self.words_delivered += 1
        # feedback that has reached the producer end gates the FIFO read
        backpressured = backward.pop() or self.fault_stuck_full
        producer = self.producer
        if producer.fifo_ren and producer.fifo._data:
            if backpressured:
                self.stall_cycles += 1
                head = INVALID_WORD
            else:
                head = producer.drive(False)
                if self.check_signatures:
                    self._sent_sigs.append(self._signature(head[1]))
        else:
            head = INVALID_WORD
        forward.appendleft(head)
        fifo = self.consumer.fifo
        backward.appendleft(
            fifo.capacity - len(fifo._data) <= fifo.almost_full_slack
        )

    def quiescent(self) -> bool:
        """True when an edge would at most count a stall: no valid word in
        flight, the feedback pipeline settled and nothing to drive."""
        if self.released:
            return True
        if (not self.consumer.full_feedback) in self._backward:
            return False
        if self._forward.count(INVALID_WORD) != self.d:
            return False
        producer = self.producer
        return not (
            producer.fifo_ren
            and not producer.fifo.empty
            and not (self._backward[-1] or self.fault_stuck_full)
        )

    def idle_advance(self, cycles: int) -> None:
        # quiescent, so a producer holding data is being backpressured
        producer = self.producer
        if not self.released and producer.fifo_ren and not producer.fifo.empty:
            self.stall_cycles += cycles

    # ------------------------------------------------------------------
    # steady-state replay (repro.sim.fastpath)
    # ------------------------------------------------------------------
    def steady_key(self) -> Hashable:
        """Valid and feedback bits, enables and both FIFOs' keys.  A
        fault hook or the signature watchdog adds the word counts, so the
        key then repeats only while no word moves; past discards join it
        so a new one breaks it."""
        if self.released:
            return 0
        producer = self.producer
        consumer = self.consumer
        key = (
            tuple([valid for valid, _ in self._forward]),
            tuple(self._backward),
            producer.fifo_ren,
            producer.fifo.steady_key(),
            consumer.fifo_wen,
            consumer.fifo.steady_key(),
            consumer.words_discarded,
            self.fault_stuck_full,
        )
        if self.fault_data_or or self.check_signatures or producer.fault_or:
            return (key, self.words_delivered, producer.words_sent)
        return key

    def steady_counters(self) -> Tuple[Tuple[object, Tuple[str, ...]], ...]:
        return (
            (self, ("words_delivered", "stall_cycles")),
            (self.producer, ("words_sent",)),
            (self.consumer, ("words_received", "words_gated")),
        )

    def steady_stages(self) -> Tuple[Stage, ...]:
        if self.released:
            return ()
        return (Stage(self.producer.fifo, self.consumer.fifo, self._replay),)

    def _replay(self, replay: Replay) -> None:
        """Delay line: the words read from the producer FIFO push the
        oldest in-flight words out to the consumer, which keeps them
        unless ``FIFO_wen`` is low (then they only count as gated)."""
        words = replay.take(self.producer.fifo)
        count = len(words)
        if not count:
            return
        forward = self._forward
        valid = [i for i in range(self.d - 1, -1, -1) if forward[i][0]]
        if valid:
            line = [forward[i][1] for i in valid] + words
            words = line[:count]
            for i, word in zip(valid, line[count:]):
                forward[i] = (True, word)
        consumer = self.consumer
        if consumer.fifo_wen:
            mask = consumer.mask
            # the producer FIFO holds words under the producer's mask, and
            # replay runs only without a fault OR, so a consumer at least
            # as wide keeps every word as it is
            if self.producer.mask & ~mask:
                words = [word & mask for word in words]
            replay.feed(consumer.fifo, words)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Valid words currently inside the pipeline registers."""
        return sum(1 for valid, _ in self._forward if valid)

    def release(self) -> int:
        """Tear the channel down; returns (and drops) the in-flight words.

        The switching methodology of Figure 5 only releases a channel after
        draining, so a non-zero return here indicates a protocol violation
        by the caller.
        """
        lost = self.in_flight
        self.released = True
        self._forward = deque([INVALID_WORD] * self.d)
        self._backward = deque([False] * self.d)
        self._sent_sigs.clear()
        return lost

    def enable_signature_check(self) -> None:
        """Arm the per-word output-signature watchdog.

        Words already in transit were staged without a signature; they
        are skipped so a mid-stream arm never produces false positives.
        """
        if self.check_signatures:
            return
        self.check_signatures = True
        self._sig_skip = self.in_flight
        self._sent_sigs.clear()

    @staticmethod
    def _signature(word: int) -> int:
        return zlib.crc32(word.to_bytes(8, "little"))

    def __repr__(self) -> str:
        path = "->".join(str(h) for h in self.hops)
        state = "released" if self.released else "active"
        return (
            f"StreamingChannel(#{self.channel_id} {self.producer.name}->"
            f"{self.consumer.name} via {path}, {state})"
        )


class SwitchFabric(ClockedComponent):
    """Clocked container advancing all channels of one RSB."""

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        self.channels: Dict[int, StreamingChannel] = {}
        # insertion-ordered snapshot iterated every cycle; rebuilt on
        # add/remove so sample avoids a dict-view walk per cycle
        self._channel_list: List[StreamingChannel] = []

    def add(self, channel: StreamingChannel) -> None:
        self.channels[channel.channel_id] = channel
        self._channel_list = list(self.channels.values())

    def remove(self, channel_id: int) -> None:
        self.channels.pop(channel_id, None)
        self._channel_list = list(self.channels.values())

    def sample(self) -> None:
        for channel in self._channel_list:
            channel.sample()

    def quiescent(self) -> bool:
        return all(channel.quiescent() for channel in self._channel_list)

    def idle_advance(self, cycles: int) -> None:
        for channel in self._channel_list:
            channel.idle_advance(cycles)

    def steady_key(self) -> Hashable:
        return tuple([channel.steady_key() for channel in self._channel_list])

    def steady_counters(self) -> List[Tuple[object, Tuple[str, ...]]]:
        return [
            pair
            for channel in self._channel_list
            for pair in channel.steady_counters()
        ]

    def steady_stages(self) -> List[Stage]:
        return [
            stage
            for channel in self._channel_list
            for stage in channel.steady_stages()
        ]

    @property
    def active_channels(self) -> List[StreamingChannel]:
        return [c for c in self.channels.values() if not c.released]
