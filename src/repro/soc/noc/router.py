"""NoC routers.

Section IV-C: *"For the NoC itself, where a lot of arbitration has to be
done, we decided to model the routers using only non-decoupled SC_METHODs;
thus NoC routers continue to use regular FIFOs."*

:class:`Router` follows that modelling style: one method process per
router, regular (packet-granularity) FIFOs on every input port, fixed
priority arbitration, XY routing and a per-output ``busy_until`` date that
models the link occupation (one packet of ``n`` flits keeps the link busy
``n`` router cycles).  The method re-arms itself with a *kick* event when
it has to wait for a link to free up; it never suspends, so routers cost no
context switch.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ...fifo.regular_fifo import RegularFifo
from ...kernel.errors import SimulationError
from ...kernel.module import Module
from ...kernel.simtime import SimTime, ns
from ...kernel.simulator import Simulator
from .packet import Packet

#: Port identifiers, in fixed arbitration priority order.
PORTS = ("local", "north", "south", "east", "west")


class Link:
    """Downstream side of an output port: a packet FIFO plus its drain event."""

    def __init__(self, fifo: RegularFifo):
        self.fifo = fifo

    def can_accept(self) -> bool:
        return not self.fifo.is_full()

    def accept(self, packet: Packet) -> None:
        if not self.fifo.nb_write(packet):  # pragma: no cover - guarded
            raise SimulationError("link accepted a packet while full")

    @property
    def drained_event(self):
        return self.fifo.not_full_event


class Router(Module):
    """One mesh router modelled with a single non-decoupled method process."""

    def __init__(
        self,
        parent: Union[Simulator, Module],
        name: str,
        coords: Tuple[int, int],
        queue_depth: int = 4,
        cycle_time: SimTime = ns(2),
    ):
        super().__init__(parent, name)
        self.coords = coords
        self.cycle_time = cycle_time
        #: Input queue per port (filled by neighbours or the local NI).
        self.inputs: Dict[str, RegularFifo] = {
            port: RegularFifo(self, f"in_{port}", depth=queue_depth) for port in PORTS
        }
        #: Downstream link per output port, wired by the topology builder.
        self.outputs: Dict[str, Optional[Link]] = {port: None for port in PORTS}
        self._busy_until_fs: Dict[str, int] = {port: 0 for port in PORTS}
        self._kick = self.create_event("kick")
        self.packets_routed = 0
        self.flits_routed = 0
        self._process = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect_output(self, port: str, link: Link) -> None:
        if port not in self.outputs:
            raise SimulationError(f"router {self.full_name}: unknown port {port!r}")
        self.outputs[port] = link

    def input_link(self, port: str) -> Link:
        """Expose one of our input queues as a link for an upstream device."""
        return Link(self.inputs[port])

    def end_of_elaboration(self) -> None:
        """Create the routing method once all links are known."""
        sensitivity = [self._kick]
        sensitivity.extend(fifo.not_empty_event for fifo in self.inputs.values())
        for link in self.outputs.values():
            if link is not None:
                sensitivity.append(link.drained_event)
        self._process = self.create_method(
            self._route, name="route", sensitivity=sensitivity
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def output_port_for(self, dest: Tuple[int, int]) -> str:
        """Deterministic XY routing: move along X first, then Y."""
        x, y = self.coords
        dx, dy = dest
        if dx > x:
            return "east"
        if dx < x:
            return "west"
        if dy > y:
            return "south"
        if dy < y:
            return "north"
        return "local"

    def _hop_delay_fs(self, packet: Packet) -> int:
        return self.cycle_time.femtoseconds * packet.flit_count

    def _route(self) -> None:
        now_fs = self.sim.now_fs
        next_kick_fs: Optional[int] = None
        for port in PORTS:
            fifo = self.inputs[port]
            while not fifo.is_empty():
                packet = fifo.peek()
                out_port = self.output_port_for(packet.dest)
                link = self.outputs[out_port]
                if link is None:
                    raise SimulationError(
                        f"router {self.full_name}: no link on port {out_port!r} "
                        f"for destination {packet.dest}"
                    )
                busy_until = self._busy_until_fs[out_port]
                if busy_until > now_fs:
                    if next_kick_fs is None or busy_until < next_kick_fs:
                        next_kick_fs = busy_until
                    break
                if not link.can_accept():
                    # The method is statically sensitive to the downstream
                    # drain event, so it re-runs when room appears.
                    break
                fifo.nb_read()
                link.accept(packet)
                self.packets_routed += 1
                self.flits_routed += packet.flit_count
                self._busy_until_fs[out_port] = now_fs + self._hop_delay_fs(packet)
        if next_kick_fs is not None:
            self._kick.notify_fs(next_kick_fs - now_fs)
