"""The hardware-module contract and wrapper FSM.

Application designers encapsulate their logic inside a *module wrapper*
(paper Section III.B.1) that adapts it to the VAPRES port types: consumer
ports (read from a consumer interface), producer ports (write to a
producer interface), an FSL slave port (commands and restored state from
the MicroBlaze) and an FSL master port (monitoring words, saved state and
completion messages towards the MicroBlaze).

:class:`HardwareModule` is that wrapper.  Subclasses implement
:meth:`~HardwareModule.process` or its block form
:meth:`~HardwareModule.process_block` (and optionally declare state
registers);
the base class provides the per-cycle FSM with blocking-read /
blocking-write KPN semantics and the drain-and-terminate protocol of the
switching methodology (Figure 5):

* on ``CMD_FLUSH`` the module finishes the words remaining in its consumer
  FIFO, emits the special end-of-stream word :data:`EOS_WORD` downstream
  (step 5), pushes its state-register values to the MicroBlaze over the
  FSL (step 6) and halts;
* on ``CMD_CHECKPOINT`` the module quiesces the same way but **without**
  injecting an EOS word -- downstream consumers keep running -- and
  terminates its state push with the :data:`MSG_CKPT` marker so software
  has a completion signal even for modules with zero state registers;
* a freshly placed module accepts state words over its FSL slave port and
  begins processing on ``CMD_START`` (step 7).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple, Union

from repro.comm.fsl import FslLink
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.modules.state import WORD_MASK, from_u32, to_u32
from repro.sim.clock import ClockedComponent
from repro.sim.fastpath import Replay, Stage

#: Special end-of-stream word (the paper's 0xFFFFFFFF marker, step 5).
EOS_WORD = 0xFFFFFFFF
#: FSL command words (sent with the control bit set).
CMD_FLUSH = 0x00000001
CMD_START = 0x00000002
#: Quiescent-checkpoint command: drain input and push state, but emit no
#: EOS downstream (the rest of the chain keeps running).
CMD_CHECKPOINT = 0x00000004
#: Control word closing a checkpoint state push.  Always sent -- it is
#: the completion signal for modules with zero state registers.
MSG_CKPT = 0x000000C4

ProcessResult = Union[None, int, Sequence[Tuple[int, int]]]


def staged(module: "HardwareModule") -> "HardwareModule":
    """Mark a module to wait for ``CMD_START`` instead of free-running.

    Used for the replacement module of the switching methodology: it is
    placed, receives restored state over its FSL, and only then starts.
    """
    module.auto_start = False
    module.started = False
    return module


def _one_word(cls: type, block):
    """``cls.process``: ``block``, the class's own ``process_block``, on
    one word.  Bound to ``block`` rather than looked up on ``self``, so a
    subclass's ``super().process`` still runs this class's arithmetic."""

    def process(self: "HardwareModule", sample: int) -> ProcessResult:
        return block(self, (sample,))[0]

    process.__qualname__ = f"{cls.__qualname__}.process"
    process.__doc__ = f"One word through :meth:`{cls.__name__}.process_block`."
    return process


class ModuleError(Exception):
    """Raised on contract violations (unbound ports, bad state size, ...)."""


class ModulePorts:
    """The bundle of interfaces a PRR slot hands to its resident module."""

    def __init__(
        self,
        consumers: Optional[List[ConsumerInterface]] = None,
        producers: Optional[List[ProducerInterface]] = None,
        fsl_in: Optional[FslLink] = None,
        fsl_out: Optional[FslLink] = None,
    ) -> None:
        self.consumers = consumers or []
        self.producers = producers or []
        self.fsl_in = fsl_in
        self.fsl_out = fsl_out


class HardwareModule(ClockedComponent):
    """Base behavioural hardware module (one KPN node).

    Class attributes subclasses may override:

    ``cycles_per_sample``
        processing latency per input word in LCD cycles (>= 1);
    ``state_register_names``
        ordered attribute names forming the save/restore state;
    ``monitor_interval``
        emit a monitoring word every N processed samples (0 = never);
    ``auto_start``
        when False the module stays idle until ``CMD_START`` arrives
        (used for the pre-initialised replacement module of Figure 5);
    ``fixed_rate``
        True when :meth:`process` returns exactly one ``int`` per word
        and :meth:`select_input` always reads port 0, so steady-state
        replay may move words through the module: it hands each step's
        words to :meth:`process_block` in one call.  A subclass that
        redefines :meth:`process`, :meth:`process_block` or
        :meth:`select_input` without restating it is not fixed-rate.

    A subclass implements :meth:`process`, :meth:`process_block` or both.
    One that defines only :meth:`process_block` gets a :meth:`process`
    that runs that block method on one word, so its arithmetic exists
    once.  One that defines only :meth:`process` gets the per-word
    default :meth:`process_block`, never its parent's: the parent's
    block method runs the parent's arithmetic.
    """

    cycles_per_sample: int = 1
    state_register_names: Tuple[str, ...] = ()
    monitor_interval: int = 0
    auto_start: bool = True
    fixed_rate: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        per_word = "process" in own
        block = "process_block" in own
        if per_word and not block:
            cls.process_block = HardwareModule.process_block
        elif block and not per_word:
            cls.process = _one_word(cls, own["process_block"])
        if (per_word or block or "select_input" in own) and "fixed_rate" not in own:
            # the parent's rate describes the parent's process()
            cls.fixed_rate = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.ports: Optional[ModulePorts] = None
        self.in_reset = False
        self.halted = False
        self.flushing = False
        self.flush_complete = False
        self.checkpointing = False
        self.checkpoint_complete = False
        self.started = self.auto_start
        # FSM internals
        self._busy_cycles = 0
        self._in_flight: Optional[int] = None
        self._pending_out: List[Tuple[int, int]] = []
        self._eos_pending = False
        self._state_to_send: List[int] = []
        self._restore_buffer: List[int] = []
        # statistics
        self.lcd_cycles = 0
        self.samples_in = 0
        self.samples_out = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def process(self, sample: int) -> ProcessResult:
        """Transform one input word.

        May return ``None`` (no output), a single word (emitted on
        producer port 0) or a sequence of ``(port_index, word)`` pairs.
        """
        raise NotImplementedError

    def process_block(self, samples: Sequence[int]) -> List[ProcessResult]:
        """Transform a block of input words, oldest first: one result per
        word, each what :meth:`process` returns for it, and the state
        registers as :meth:`process` leaves them after the last word.

        The default calls :meth:`process` once per word.  A
        :attr:`fixed_rate` module may load its state registers into
        locals once, loop, and write them back once.
        """
        process = self.process
        return [process(sample) for sample in samples]

    def monitor_value(self) -> int:
        """The monitoring word periodically sent to the MicroBlaze."""
        return self.samples_in & 0xFFFFFFFF

    def select_input(self) -> int:
        """Which consumer port to fetch from this cycle (default: 0).

        An override must have no side effect when no consumer is readable:
        the fast path skips idle edges without calling it.
        """
        return 0

    def on_reset(self) -> None:
        """Subclass hook to clear algorithmic state."""

    # ------------------------------------------------------------------
    # binding and lifecycle
    # ------------------------------------------------------------------
    def bind(self, ports: ModulePorts) -> None:
        self.ports = ports

    def reset(self) -> None:
        """PRSocket ``PRR_reset`` semantics: back to the power-on state."""
        self.flushing = False
        self.flush_complete = False
        self.checkpointing = False
        self.checkpoint_complete = False
        self.halted = False
        self.started = self.auto_start
        self._busy_cycles = 0
        self._in_flight = None
        self._pending_out = []
        self._eos_pending = False
        self._state_to_send = []
        self._restore_buffer = []
        self.on_reset()

    # ------------------------------------------------------------------
    # state save / restore (switching methodology steps 6-7)
    # ------------------------------------------------------------------
    def save_state(self) -> List[int]:
        return [to_u32(int(getattr(self, n))) for n in self.state_register_names]

    def restore_state(self, words: Sequence[int]) -> None:
        if len(words) != len(self.state_register_names):
            raise ModuleError(
                f"{self.name}: restore_state got {len(words)} words, "
                f"expected {len(self.state_register_names)}"
            )
        for attr, word in zip(self.state_register_names, words):
            setattr(self, attr, from_u32(word))

    @property
    def state_word_count(self) -> int:
        return len(self.state_register_names)

    # ------------------------------------------------------------------
    # per-LCD-cycle FSM
    # ------------------------------------------------------------------
    def commit(self) -> None:
        ports = self.ports
        if self.in_reset or self.halted or ports is None:
            return
        self.lcd_cycles += 1
        link = ports.fsl_in
        if link is not None and link.fifo._data:
            self._poll_fsl_commands(link)
        if not self.started:
            return
        if self._pending_out or self._eos_pending or self._state_to_send:
            self._drain_pending()
            return
        if self._busy_cycles > 0:
            self._busy_cycles -= 1
            if self._busy_cycles == 0:
                self._complete_sample()
            return
        if self._fetch():
            return
        if self.flushing:
            self._finish_flush()
        elif self.checkpointing:
            self._finish_checkpoint()
        else:
            self.stall_cycles += 1

    def quiescent(self) -> bool:
        """Idle: reset, halted, unbound or not yet started with no FSL
        command waiting, or started with nothing to emit, no sample in
        progress, no drain under way and no readable consumer FIFO.

        :meth:`select_input` is not called here, so an override must have
        no side effect when no consumer is readable.
        """
        if self.in_reset or self.halted or self.ports is None:
            return True
        link = self.ports.fsl_in
        if link is not None and link.can_read:
            return False
        if not self.started:
            return True
        if (
            self._pending_out
            or self._eos_pending
            or self._state_to_send
            or self._busy_cycles
            or self.flushing
            or self.checkpointing
        ):
            return False
        return not any(c.module_can_read for c in self.ports.consumers)

    def idle_advance(self, cycles: int) -> None:
        if self.in_reset or self.halted or self.ports is None:
            return
        self.lcd_cycles += cycles
        if self.started:
            self.stall_cycles += cycles

    # -- steady-state replay (repro.sim.fastpath) -----------------------
    def steady_key(self) -> Hashable:
        """FSM phase, busy countdown, in-flight and pending-output
        occupancy, and the keys of every port FIFO.

        Words may move in a replay only through a :attr:`fixed_rate`
        module with a port on each side.  Any other module, and any module
        monitoring, flushing, checkpointing, restoring or pushing state,
        adds its word counters, so its key repeats only while it is idle.
        """
        ports = self.ports
        if self.in_reset or self.halted or ports is None:
            return 0
        key = (
            self.started,
            self._busy_cycles,
            self._in_flight is None,
            len(self._pending_out),
            tuple([port.fifo.steady_key() for port in ports.consumers]),
            tuple([port.fifo.steady_key() for port in ports.producers]),
            ports.fsl_in.fifo.steady_key() if ports.fsl_in else 0,
            ports.fsl_out.fifo.steady_key() if ports.fsl_out else 0,
        )
        if (
            self.fixed_rate
            and ports.consumers
            and ports.producers
            and not (
                self.monitor_interval
                or self.flushing
                or self.checkpointing
                or self._eos_pending
                or self._state_to_send
                or self._restore_buffer
            )
        ):
            return key
        return (key, self.samples_in, self.samples_out)

    def steady_counters(self) -> Tuple[Tuple[object, Tuple[str, ...]], ...]:
        return (
            (self, ("lcd_cycles", "samples_in", "samples_out", "stall_cycles")),
        )

    def steady_stages(self) -> Tuple[Stage, ...]:
        ports = self.ports
        if not (self.fixed_rate and ports and ports.consumers and ports.producers):
            return ()
        return (
            Stage(ports.consumers[0].fifo, ports.producers[0].fifo, self._replay),
        )

    def _replay(self, replay: Replay) -> None:
        """Two delay lines around ``process_block``: the words read queue
        behind the in-flight one, and the outputs behind the pending ones;
        as many leave each line as enter it."""
        words = replay.take(self.ports.consumers[0].fifo)
        count = len(words)
        if not count:
            return
        if self._in_flight is not None:
            words.insert(0, self._in_flight)
            self._in_flight = words.pop()
        outputs = self.process_block(words)
        if self._pending_out:
            queued = [word for _, word in self._pending_out] + outputs
            outputs = queued[:count]
            self._pending_out = [(0, word & WORD_MASK) for word in queued[count:]]
        producer = self.ports.producers[0]
        mask = producer.mask & WORD_MASK
        replay.feed(producer.fifo, [word & mask for word in outputs])

    # -- FSM pieces -----------------------------------------------------
    def _poll_fsl_commands(self, link: FslLink) -> None:
        while link.can_read:
            data, control = link.slave_read()
            if control:
                if data == CMD_FLUSH:
                    self.flushing = True
                elif data == CMD_START:
                    self.started = True
                elif data == CMD_CHECKPOINT:
                    self.checkpointing = True
                # unknown commands are ignored, as unknown opcodes would be
            elif not self.started and self.state_word_count:
                # pre-start data words are restored state (step 7)
                self._restore_buffer.append(data)
                if len(self._restore_buffer) == self.state_word_count:
                    self.restore_state(self._restore_buffer)
                    self._restore_buffer = []
            # post-start plain data words are module-specific; default: drop

    def _drain_pending(self) -> bool:
        """Push queued outputs, one word per cycle.  True if work was done."""
        if self._pending_out:
            port, word = self._pending_out[0]
            if self._producer(port).module_write(word):
                self._pending_out.pop(0)
                self.samples_out += 1
            else:
                self.stall_cycles += 1
            return True
        if self._eos_pending:
            if self._producer(0).module_write(EOS_WORD):
                self._eos_pending = False
                self._state_to_send = self.save_state()
                self._push_saved_state()
            else:
                self.stall_cycles += 1
            return True
        if self._state_to_send:
            self._push_saved_state()
            return True
        return False

    def _fetch(self) -> bool:
        port = self.select_input()
        if port is None:
            return False
        consumer = self._consumer(port)
        word = consumer.module_read()
        if word is None:
            return False
        self.samples_in += 1
        self._in_flight = word
        if self.cycles_per_sample <= 1:
            self._complete_sample()
        else:
            self._busy_cycles = self.cycles_per_sample - 1
        return True

    def _complete_sample(self) -> None:
        result = self.process(self._in_flight)
        self._in_flight = None
        if type(result) is int and not self._pending_out:
            # one word and nothing queued: what _drain_pending would do
            self._emit_monitoring()
            word = to_u32(result)
            if self._producer(0).module_write(word):
                self.samples_out += 1
            else:
                self._pending_out.append((0, word))
                self.stall_cycles += 1
            return
        if result is None:
            outputs: List[Tuple[int, int]] = []
        elif isinstance(result, int):
            outputs = [(0, to_u32(result))]
        else:
            outputs = [(port, to_u32(word)) for port, word in result]
        self._pending_out.extend(outputs)
        self._emit_monitoring()
        # same-cycle emit keeps 1-word/cycle throughput for 1-cycle modules
        self._drain_pending()

    def _finish_flush(self) -> None:
        """Input drained while flushing: emit EOS then save state."""
        self._eos_pending = True
        self._drain_pending()

    def _finish_checkpoint(self) -> None:
        """Input drained while checkpointing: push state, no EOS.

        The downstream module (or IOM) keeps running and must not see an
        end-of-stream; the state push is closed with :data:`MSG_CKPT` so
        software can detect completion even when ``save_state`` is empty.
        """
        self._state_to_send = self.save_state() + [MSG_CKPT]
        self._drain_pending()

    def _push_saved_state(self) -> None:
        """Write pending state words with blocking-write semantics.

        The r-FSL may be backed up with monitoring words; state words
        (steps 6-7 of the methodology) must not be dropped, so the module
        retries each cycle and only halts once every word is out.
        """
        link = self.ports.fsl_out
        if link is None:
            self._state_to_send = []
        while self._state_to_send:
            if not link.master_write(self._state_to_send[0], control=True):
                self.stall_cycles += 1
                return
            self._state_to_send.pop(0)
        self.halted = True
        if self.checkpointing:
            self.checkpoint_complete = True
        else:
            self.flush_complete = True

    def _emit_monitoring(self) -> None:
        if not self.monitor_interval:
            return
        if self.samples_in % self.monitor_interval:
            return
        link = self.ports.fsl_out
        if link is not None:
            link.master_write(to_u32(self.monitor_value()))  # best effort

    # ------------------------------------------------------------------
    def _consumer(self, index: int) -> ConsumerInterface:
        try:
            return self.ports.consumers[index]
        except IndexError:
            raise ModuleError(f"{self.name}: no consumer port {index}") from None

    def _producer(self, index: int) -> ProducerInterface:
        try:
            return self.ports.producers[index]
        except IndexError:
            raise ModuleError(f"{self.name}: no producer port {index}") from None

    def __repr__(self) -> str:
        state = (
            "reset" if self.in_reset
            else "halted" if self.halted
            else "flushing" if self.flushing
            else "checkpointing" if self.checkpointing
            else "running" if self.started
            else "waiting"
        )
        return (
            f"{type(self).__name__}({self.name}, {state}, "
            f"in={self.samples_in}, out={self.samples_out})"
        )
