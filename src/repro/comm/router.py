"""Channel establishment over the switch-box array.

This is the engine behind the paper's ``vapres_establish_channel`` API
(Table 2): given the producer's and consumer's switch-box indices it walks
the linear array in the needed direction, claims one free lane per hop and
programs each box's output multiplexer.  If any hop is exhausted the
partial allocation is rolled back and the attempt fails -- the API then
returns 0, exactly as in the paper.

A Figure 5 module switch *claims* its new routes first: an establish
that would leave a claimed route unroutable is rolled back the same way.

:class:`CommState` mirrors the ``comm_state`` structure the API threads
through calls: a snapshot of lane availability per switch box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.comm.channel import StreamingChannel, SwitchFabric
from repro.comm.interfaces import ConsumerInterface, ProducerInterface
from repro.comm.switchbox import (
    LEFT,
    MODULE_IN,
    MODULE_OUT,
    RIGHT,
    LaneRef,
    SourceRef,
    SwitchBox,
    SwitchBoxError,
)


class RoutingError(Exception):
    """Raised by :meth:`ChannelRouter.establish` when no path exists."""


@dataclass
class CommState:
    """Available lane counts per switch box (the API's ``comm_state``)."""

    free_right: List[int]
    free_left: List[int]
    free_module_out: List[int]

    @classmethod
    def snapshot(cls, boxes: List[SwitchBox]) -> "CommState":
        return cls(
            free_right=[len(b.free_lanes(RIGHT)) for b in boxes],
            free_left=[len(b.free_lanes(LEFT)) for b in boxes],
            free_module_out=[len(b.free_lanes(MODULE_OUT)) for b in boxes],
        )

    def can_route(self, src: int, dst: int) -> bool:
        """Feasibility check without mutating any switch box."""
        if src == dst:
            return self.free_module_out[dst] > 0
        if src < dst:
            span = range(src, dst)
            lanes = self.free_right
        else:
            span = range(dst + 1, src + 1)
            lanes = self.free_left
        if any(lanes[i] == 0 for i in span):
            return False
        return self.free_module_out[dst] > 0


class ChannelRouter:
    """Allocates and releases streaming channels over one RSB's boxes."""

    def __init__(self, boxes: List[SwitchBox], fabric: SwitchFabric) -> None:
        if not boxes:
            raise RoutingError("an RSB needs at least one switch box")
        self.boxes = list(boxes)
        self.fabric = fabric
        self._next_id = 0
        self._channel_hops: Dict[int, List[LaneRef]] = {}
        #: routes claimed by :meth:`claim` and not yet dropped
        self._claims: List[Tuple] = []

    # ------------------------------------------------------------------
    def establish(
        self,
        src_box: int,
        dst_box: int,
        producer: ProducerInterface,
        consumer: ConsumerInterface,
        src_port: int = 0,
        dst_port: int = 0,
    ) -> StreamingChannel:
        """Create a channel from the module at ``src_box`` to ``dst_box``.

        ``src_port``/``dst_port`` select which of the module's ``ko``
        producer / ``ki`` consumer lanes terminate the channel.  Raises
        :class:`RoutingError` when a hop has no free lane, or when the
        channel would leave a claimed route unroutable; the allocation is
        rolled back first.
        """
        self._check_index(src_box)
        self._check_index(dst_box)
        channel_id = self._next_id
        hops: List[LaneRef] = []
        try:
            hops = self._allocate_path(
                src_box, dst_box, channel_id, src_port, dst_port, hops
            )
            if not all(self._claim_holds(claim) for claim in self._claims):
                raise SwitchBoxError("lanes claimed by a module switch")
        except SwitchBoxError as exc:
            for ref in hops:
                self.boxes[ref.box].release(ref)
            raise RoutingError(str(exc)) from exc
        self._next_id += 1
        channel = StreamingChannel(channel_id, producer, consumer, hops)
        self._channel_hops[channel_id] = hops
        self.fabric.add(channel)
        return channel

    def try_establish(
        self,
        src_box: int,
        dst_box: int,
        producer: ProducerInterface,
        consumer: ConsumerInterface,
        src_port: int = 0,
        dst_port: int = 0,
    ) -> Optional[StreamingChannel]:
        """Like :meth:`establish` but returns None on failure (API style)."""
        try:
            return self.establish(
                src_box, dst_box, producer, consumer, src_port, dst_port
            )
        except RoutingError:
            return None

    def release(self, channel: StreamingChannel) -> int:
        """Tear down a channel, freeing its lanes; returns words lost."""
        hops = self._channel_hops.pop(channel.channel_id, None)
        if hops is None:
            raise RoutingError(f"channel {channel.channel_id} is not established")
        lost = channel.release()
        for ref in hops:
            self.boxes[ref.box].release(ref)
        self.fabric.remove(channel.channel_id)
        return lost

    # ------------------------------------------------------------------
    def _allocate_path(
        self,
        src: int,
        dst: int,
        channel_id: int,
        src_port: int,
        dst_port: int,
        hops: List[LaneRef],
    ) -> List[LaneRef]:
        """Allocate into ``hops`` in place so failures can be rolled back."""
        if src == dst:
            hops.append(
                self.boxes[dst].allocate_specific(
                    MODULE_OUT, dst_port, channel_id, SourceRef(MODULE_IN, src_port)
                )
            )
            return hops
        step = 1 if src < dst else -1
        direction = RIGHT if src < dst else LEFT
        prev_lane: Optional[int] = None
        box = src
        while box != dst:
            source = (
                SourceRef(MODULE_IN, src_port)
                if box == src
                else SourceRef(direction, prev_lane)
            )
            ref = self.boxes[box].allocate(direction, channel_id, source)
            hops.append(ref)
            prev_lane = ref.lane
            box += step
        hops.append(
            self.boxes[dst].allocate_specific(
                MODULE_OUT, dst_port, channel_id, SourceRef(direction, prev_lane)
            )
        )
        return hops

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.boxes):
            raise RoutingError(
                f"switch box index {index} out of range [0,{len(self.boxes)})"
            )

    # ------------------------------------------------------------------
    def comm_state(
        self, freeing: Iterable[Optional[StreamingChannel]] = ()
    ) -> CommState:
        """Lane availability, counting the lanes of the ``freeing``
        channels (about to be released) as free."""
        state = CommState.snapshot(self.boxes)
        for channel in freeing:
            if channel is None:
                continue
            for ref in self._channel_hops.get(channel.channel_id, ()):
                if ref.direction == RIGHT:
                    state.free_right[ref.box] += 1
                elif ref.direction == LEFT:
                    state.free_left[ref.box] += 1
                else:
                    state.free_module_out[ref.box] += 1
        return state

    def claim(
        self,
        src: int,
        dst: int,
        dst_port: int,
        freeing: Iterable[Optional[StreamingChannel]] = (),
    ) -> Optional[Tuple]:
        """Reserve the route ``src -> dst`` into consumer lane
        ``dst_port`` for an establish once ``freeing`` is released.

        Returns None when the route cannot be routed now.  Until
        :meth:`drop_claim`, :meth:`establish` refuses any channel that
        would take the route's consumer lane or the last lane of a hop.
        """
        claim = (src, dst, dst_port, tuple(c for c in freeing if c is not None))
        if not self._claim_holds(claim):
            return None
        self._claims.append(claim)
        return claim

    def drop_claim(self, claim: Tuple) -> None:
        self._claims.remove(claim)

    def _claim_holds(self, claim: Tuple) -> bool:
        src, dst, dst_port, freeing = claim
        freed = {None} | {channel.channel_id for channel in freeing}
        return self.boxes[dst].owner_of(MODULE_OUT, dst_port) in freed and (
            self.comm_state(freeing).can_route(src, dst)
        )

    def hops_of(self, channel: StreamingChannel) -> List[LaneRef]:
        return list(self._channel_hops.get(channel.channel_id, []))

    @property
    def established_count(self) -> int:
        return len(self._channel_hops)
