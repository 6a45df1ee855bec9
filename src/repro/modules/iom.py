"""I/O modules (IOMs): the stream endpoints of an RSB.

IOMs live in the static region and interface directly to external pins or
peripherals (ADCs, DACs...).  Here the external world is a Python sample
iterator on the input side and a capture list on the output side.  Like a
PRR, an IOM pairs with one switch box through producer/consumer module
interfaces and owns an FSL pair to the MicroBlaze.

The IOM implements step 8 of the switching methodology: when it sees the
special end-of-stream word arrive on its consumer interface it notifies
the MicroBlaze with :data:`MSG_EOS` over its FSL.

Because the EOS word travels *in band* (0xFFFFFFFF is also the data value
-1), detection is **armed** explicitly: the MicroBlaze sends
:data:`CMD_ARM_EOS` over the IOM's t-FSL before commanding the old module
to flush, and the detector disarms itself after one hit.  While disarmed,
0xFFFFFFFF passes through as ordinary data -- a stream of -1 samples can
never falsely terminate a switch.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.comm.fsl import FslLink
from repro.modules.base import EOS_WORD, ModulePorts
from repro.modules.state import WORD_MASK, from_u32, from_u32_block, to_u32
from repro.sim.clock import ClockedComponent
from repro.sim.fastpath import Replay, Stage

#: FSL message (control bit set): an EOS word reached this IOM.
MSG_EOS = 0x000000E0
#: FSL command (control bit set): arm one-shot EOS detection (step 8).
CMD_ARM_EOS = 0x00000003


class Iom(ClockedComponent):
    """One I/O module, optionally sourcing and/or sinking a stream."""

    def __init__(
        self,
        name: str,
        source: Optional[Iterable[int]] = None,
        words_per_push: int = 1,
        push_interval: int = 1,
    ) -> None:
        if push_interval < 1 or words_per_push < 1:
            raise ValueError("push_interval and words_per_push must be >= 1")
        self.name = name
        self.ports: Optional[ModulePorts] = None
        self._source: Optional[Iterator[int]] = (
            iter(source) if source is not None else None
        )
        self.words_per_push = words_per_push
        self.push_interval = push_interval
        self.received: List[int] = []
        #: simulation timestamps (ps) per received word, when ``sim`` is set;
        #: the interruption analysis derives output gaps from these
        self.receive_times: List[int] = []
        #: timestamps per emitted word (same condition); with
        #: ``receive_times`` this yields end-to-end loop latency
        self.emit_times: List[int] = []
        self.sim = None
        self.words_emitted = 0
        self.eos_count = 0
        self.eos_armed = False
        self.source_exhausted = source is None
        self.cycles = 0
        #: source words a steady-state replay fetched ahead of pushing
        self._pulled: List[int] = []

    def bind(self, ports: ModulePorts) -> None:
        self.ports = ports

    def set_source(self, source: Iterable[int]) -> None:
        """Swap in a new external sample stream."""
        self._source = iter(source)
        self.source_exhausted = False

    # ------------------------------------------------------------------
    def arm_eos(self) -> None:
        """Arm one-shot end-of-stream detection (normally via CMD_ARM_EOS)."""
        self.eos_armed = True

    def commit(self) -> None:
        ports = self.ports
        if ports is None:
            return
        self.cycles += 1
        link = ports.fsl_in
        if link is not None and link.fifo._data:
            self._poll_commands(link)
        self._push_input()
        self._pull_output()

    def quiescent(self) -> bool:
        """Idle: no command, nothing arriving, and no source word that
        could be pushed (exhausted, absent, or the producer FIFO full)."""
        ports = self.ports
        if ports is None:
            return True
        if ports.fsl_in is not None and ports.fsl_in.can_read:
            return False
        if ports.consumers and ports.consumers[0].module_can_read:
            return False
        return (
            self._source is None
            or self.source_exhausted
            or not ports.producers
            or not ports.producers[0].module_can_write
        )

    def idle_advance(self, cycles: int) -> None:
        if self.ports is not None:
            self.cycles += cycles

    # -- steady-state replay (repro.sim.fastpath) -----------------------
    def steady_key(self) -> Hashable:
        """Port FIFO keys, the push phase and whether a source is live.
        An armed EOS detector adds the received-word count, so the key
        then repeats only while nothing arrives."""
        ports = self.ports
        if ports is None:
            return 0
        return (
            ports.fsl_in.fifo.steady_key() if ports.fsl_in else 0,
            self._source is None or self.source_exhausted,
            self.cycles % self.push_interval,
            tuple([port.fifo.steady_key() for port in ports.producers]),
            tuple([port.fifo.steady_key() for port in ports.consumers]),
            self.eos_armed and (len(self.received), self.eos_count),
        )

    def steady_counters(self) -> Tuple[Tuple[object, Tuple[str, ...]], ...]:
        return ((self, ("cycles", "words_emitted")),)

    def steady_stages(self) -> List[Stage]:
        ports = self.ports
        if ports is None:
            return []
        stages = []
        if ports.producers:
            stages.append(
                Stage(None, ports.producers[0].fifo, self._replay_source, self._pull)
            )
        if ports.consumers:
            stages.append(Stage(ports.consumers[0].fifo, None, self._replay_sink))
        return stages

    def _pull(self, replay: Replay) -> int:
        """Fetch the source words of ``replay.periods`` periods; returns
        the whole periods the source could supply."""
        per_period = replay.per_period(self, "words_emitted")
        if not per_period:
            self._pulled = []
            return replay.periods
        self._pulled = list(islice(self._source, replay.periods * per_period))
        return len(self._pulled) // per_period

    def _replay_source(self, replay: Replay) -> None:
        """Push the pulled words, stamp them at the offsets the last
        period showed, and put the surplus back in front of the source."""
        per_period = replay.per_period(self, "words_emitted")
        words = self._pulled
        self._pulled = []
        count = replay.periods * per_period
        if len(words) > count:
            self._source = chain(words[count:], self._source)
            del words[count:]
        if not words:
            return
        producer = self.ports.producers[0]
        mask = producer.mask & WORD_MASK
        replay.feed(producer.fifo, [word & mask for word in words])
        if self.sim is not None:
            _stamp(self.emit_times, per_period, replay)

    def _replay_sink(self, replay: Replay) -> None:
        words = replay.take(self.ports.consumers[0].fifo)
        if not words:
            return
        self.received.extend(from_u32_block(words))
        if self.sim is not None:
            _stamp(self.receive_times, len(words) // replay.periods, replay)

    def _poll_commands(self, link: FslLink) -> None:
        while link.can_read:
            data, control = link.slave_read()
            if control and data == CMD_ARM_EOS:
                self.arm_eos()
            # other words on an IOM's t-FSL are ignored

    def _push_input(self) -> None:
        if self._source is None or self.source_exhausted or not self.ports.producers:
            return
        if self.cycles % self.push_interval:
            return
        producer = self.ports.producers[0]
        fifo = producer.fifo
        for _ in range(self.words_per_push):
            if len(fifo._data) >= fifo.capacity:
                return
            try:
                sample = next(self._source)
            except StopIteration:
                self.source_exhausted = True
                return
            producer.module_write(to_u32(sample))
            self.words_emitted += 1
            if self.sim is not None:
                self.emit_times.append(self.sim._now)

    def _pull_output(self) -> None:
        if not self.ports.consumers:
            return
        consumer = self.ports.consumers[0]
        word = consumer.module_read()
        if word is None:
            return
        if word == EOS_WORD and self.eos_armed:
            self.eos_count += 1
            self.eos_armed = False  # one-shot
            if self.ports.fsl_out is not None:
                self.ports.fsl_out.master_write(MSG_EOS, control=True)
        else:
            self.received.append(from_u32(word))
            if self.sim is not None:
                self.receive_times.append(self.sim._now)

    def __repr__(self) -> str:
        return (
            f"Iom({self.name}, emitted={self.words_emitted}, "
            f"received={len(self.received)}, eos={self.eos_count})"
        )


def _stamp(times: List[int], per_period: int, replay: Replay) -> None:
    """Extend ``times`` by ``replay.periods`` copies of its last period's
    ``per_period`` entries, each a period later than the one before.

    The entries at one offset in the period form an arithmetic
    progression with step ``replay.span``, so each offset is one
    ``range`` assigned to every ``per_period``-th new slot."""
    last = times[-per_period:]
    step = len(last)
    start = len(times)
    periods = replay.periods
    span = replay.span
    times.extend(last * periods)
    for offset, t in enumerate(last):
        times[start + offset :: step] = range(t + span, t + periods * span + 1, span)
