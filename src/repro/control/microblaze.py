"""Behavioural MicroBlaze: executes software modules as coroutines.

The paper's application software runs on the soft-core MicroBlaze.  Here a
*software module* is a Python generator that ``yield``\\ s effect objects;
the :class:`Microblaze` drives each generator forward, charging realistic
cycle costs per operation and suspending on blocking operations (FSL reads
on an empty link resume event-driven when data arrives, with no polling).

Effects::

    yield Delay(cycles)              # burn CPU cycles
    yield DcrWrite(socket, value)    # PRSocket DCR write via the PLB bridge
    value = yield DcrRead(socket)
    yield FslPut(link, data[, control])   # blocking when the link is full
    word  = yield FslGet(link)            # blocking; returns (data, control)
    word  = yield FslGet(link, blocking=False)  # None when empty
    yield WaitFor(predicate[, poll_cycles])
    result = yield Call(subroutine_generator)   # or plain `yield from`
    result = yield Join(task)        # wait for another software task

Multiple software tasks may be live at once (the paper runs its RSPS
control software alongside monitoring threads); they interleave
cooperatively.  Cycle charging is per-task (optimistic concurrency): the
model does not serialise tasks onto the single issue pipeline, which is
accurate for the control-dominated, mostly-blocked workloads VAPRES runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from repro.comm.fsl import FslLink
from repro.control.dcr import BRIDGE_READ_CYCLES, BRIDGE_WRITE_CYCLES
from repro.control.prsocket import PRSocket
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator

#: Cycles for an FSL put/get instruction once the link is ready.
FSL_ACCESS_CYCLES = 2
#: Base dispatch overhead charged per effect.
EFFECT_OVERHEAD_CYCLES = 1


# ----------------------------------------------------------------------
# effects
# ----------------------------------------------------------------------
@dataclass
class Delay:
    cycles: int


@dataclass
class DcrWrite:
    socket: PRSocket
    value: int


@dataclass
class DcrRead:
    socket: PRSocket


@dataclass
class FslPut:
    link: FslLink
    data: int
    control: bool = False


@dataclass
class FslGet:
    link: FslLink
    blocking: bool = True


@dataclass
class WaitFor:
    predicate: Callable[[], bool]
    poll_cycles: int = 16


@dataclass
class Suspend:
    """Event-driven wait: ``register`` receives a resume callback.

    Used for long waits with hardware completion events (ICAP transfers)
    where polling would flood the event queue.
    """

    register: Callable[[Callable[[], None]], None]


@dataclass
class Call:
    subroutine: Generator


@dataclass
class Join:
    task: "SoftwareTask"


SoftwareModule = Generator  # a generator yielding the effects above


class SoftwareTask:
    """Handle for one running software module."""

    def __init__(self, name: str, generator: SoftwareModule) -> None:
        self.name = name
        self.generator = generator
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.cycles_charged = 0
        self._joiners: List[Callable[[], None]] = []
        self._stack: List[SoftwareModule] = [generator]

    def _finish(
        self, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self.done = True
        self.result = result
        self.error = error
        joiners, self._joiners = self._joiners, []
        for callback in joiners:
            callback()

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"SoftwareTask({self.name}, {state}, {self.cycles_charged} cycles)"


class Microblaze:
    """The controlling-region soft processor."""

    def __init__(self, sim: Simulator, clock: Clock, name: str = "microblaze") -> None:
        self.sim = sim
        self.clock = clock
        self.name = name
        self.tasks: List[SoftwareTask] = []
        self.dcr_reads = 0
        self.dcr_writes = 0

    # ------------------------------------------------------------------
    def spawn(self, generator: SoftwareModule, name: str = "task") -> SoftwareTask:
        """Start a software module; it begins running at the current time."""
        task = SoftwareTask(name, generator)
        self.tasks.append(task)
        self.sim.schedule(0, lambda: self._advance(task, None))
        return task

    def run_to_completion(self, generator: SoftwareModule, name: str = "task") -> Any:
        """Spawn and step the simulation until the task finishes.

        Convenience for scripted scenarios; raises the task's exception if
        it failed.  Free-running clocks keep the event queue non-empty, so
        the loop stops on task completion, not queue exhaustion.  The
        compiled-schedule fast path runs the clock edges and, among them,
        the task's own effects (bridge charges, ICAP completions, other
        timers), until an effect finishes the task or gates or retunes a
        clock; the loop steps the heap only in between.
        """
        task = self.spawn(generator, name)
        done = lambda: task.done  # noqa: E731
        while not task.done:
            self.sim.fast_forward(done)
            if not task.done and not self.sim.step():
                raise RuntimeError(
                    f"software task {name!r} did not finish (deadlock or "
                    "waiting on hardware that never responds)"
                )
        if task.error is not None:
            raise task.error
        return task.result

    # ------------------------------------------------------------------
    def _charge(
        self, task: SoftwareTask, cycles: int, then: Callable[[], None]
    ) -> None:
        task.cycles_charged += cycles
        self.sim.schedule(cycles * self.clock.period_ps, then)

    def _advance(self, task: SoftwareTask, send_value: Any) -> None:
        """Resume ``task`` with ``send_value`` and handle its next effect."""
        if task.done:
            return
        try:
            effect = task._stack[-1].send(send_value)
        except StopIteration as stop:
            task._stack.pop()
            if task._stack:
                self._advance(task, stop.value)
            else:
                task._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised at join
            task._finish(error=exc)
            return
        self._handle(task, effect)

    def _handle(self, task: SoftwareTask, effect: Any) -> None:
        resume = lambda value=None: self._advance(task, value)  # noqa: E731

        if isinstance(effect, Delay):
            self._charge(task, max(0, effect.cycles), resume)
        elif isinstance(effect, DcrWrite):
            self.dcr_writes += 1
            effect.socket.dcr_write(effect.value)
            self._charge(task, BRIDGE_WRITE_CYCLES, resume)
        elif isinstance(effect, DcrRead):
            self.dcr_reads += 1
            value = effect.socket.dcr_read()
            self._charge(task, BRIDGE_READ_CYCLES, lambda: self._advance(task, value))
        elif isinstance(effect, FslPut):
            self._fsl_put(task, effect)
        elif isinstance(effect, FslGet):
            self._fsl_get(task, effect)
        elif isinstance(effect, WaitFor):
            self._wait_for(task, effect)
        elif isinstance(effect, Suspend):
            effect.register(lambda: self._advance(task, None))
        elif isinstance(effect, Call):
            task._stack.append(effect.subroutine)
            self._charge(task, EFFECT_OVERHEAD_CYCLES, resume)
        elif isinstance(effect, Join):
            self._join(task, effect.task)
        else:
            task._finish(
                error=TypeError(f"software yielded unknown effect {effect!r}")
            )

    # ------------------------------------------------------------------
    def _fsl_put(self, task: SoftwareTask, effect: FslPut) -> None:
        def attempt() -> None:
            if effect.link.master_write(effect.data, effect.control):
                self._charge(task, FSL_ACCESS_CYCLES, lambda: self._advance(task, True))
            else:
                effect.link.wait_writable(attempt)

        attempt()

    def _fsl_get(self, task: SoftwareTask, effect: FslGet) -> None:
        def attempt() -> None:
            word = effect.link.slave_read()
            if word is not None:
                self._charge(
                    task, FSL_ACCESS_CYCLES, lambda: self._advance(task, word)
                )
            elif effect.blocking:
                effect.link.wait_readable(attempt)
            else:
                self._charge(
                    task, FSL_ACCESS_CYCLES, lambda: self._advance(task, None)
                )

        attempt()

    def _wait_for(self, task: SoftwareTask, effect: WaitFor) -> None:
        def poll() -> None:
            if effect.predicate():
                self._advance(task, None)
            else:
                self._charge(task, effect.poll_cycles, poll)

        poll()

    def _join(self, task: SoftwareTask, other: SoftwareTask) -> None:
        def finished() -> None:
            if other.error is not None:
                task._finish(error=other.error)
            else:
                self._advance(task, other.result)

        if other.done:
            finished()
        else:
            other._joiners.append(finished)
