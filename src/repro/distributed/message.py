"""The active-message layer (the GASNet analog).

Nodes register named handlers; a request invokes the handler *on the
destination node* and returns its response to the requester. Both request
and response payload bytes are charged to the requester's simulated clock
under the ``network`` category (the destination's disk/compute costs are
charged by the handler itself through the destination node's own meters,
exactly as a GASNet AM handler runs on the target). The handler runs in
the destination's fault scope too: a fault on its disk while it serves a
request is the destination's death, not the requester's.

Message counts and byte totals are tracked per (src, dst) pair so the
all-to-all shuffle volume of Fig. 10 can be reported.
"""

from __future__ import annotations

from typing import Any, Callable

from ..device.specs import NetworkSpec
from ..errors import DistributedProtocolError
from ..faults import plan as faults


#: Payload of a request: a small header (its arguments name a block or a
#: partition; the response carries the data).
REQUEST_BYTES = 64


def node_scope(node_id: int) -> str:
    """Fault-plan scope label of one node (shared by supervisor and layer)."""
    return f"node{node_id:02d}"

Handler = Callable[..., tuple[Any, int]]
"""A handler returns ``(response_object, response_payload_bytes)``."""


class ActiveMessageLayer:
    """Registry and dispatcher for inter-node requests."""

    def __init__(self, network: NetworkSpec):
        self.network = network
        self._handlers: dict[tuple[int, str], Handler] = {}
        self._clocks: dict[int, Any] = {}
        self.messages_sent = 0
        self.bytes_by_pair: dict[tuple[int, int], int] = {}

    def register_node(self, node_id: int, clock) -> None:
        """Attach a node's simulated clock (charged for its requests)."""
        self._clocks[node_id] = clock

    def register_handler(self, node_id: int, name: str, handler: Handler) -> None:
        """Expose ``handler`` as AM target ``name`` on ``node_id``."""
        self._handlers[(node_id, name)] = handler

    def request(self, src: int, dst: int, name: str, *args) -> Any:
        """Send an active message; returns the handler's response object.

        The request is :data:`REQUEST_BYTES`. Local requests (``src ==
        dst``) skip the network charge.
        """
        key = (dst, name)
        if key not in self._handlers:
            raise DistributedProtocolError(f"node {dst} has no handler {name!r}")
        if src not in self._clocks:
            raise DistributedProtocolError(f"unregistered source node {src}")
        # Node-level chaos: the delivery may kill the destination node
        # mid-request (FaultInjected unwinds to the sender).
        faults.deliver_message(node_scope(src), node_scope(dst), name)
        with faults.scoped(node_scope(dst)):
            response, response_bytes = self._handlers[key](*args)
        self.messages_sent += 1
        if src != dst:
            total = REQUEST_BYTES + response_bytes
            self._clocks[src].charge(
                "network", self.network.transfer_seconds(REQUEST_BYTES)
                + self.network.transfer_seconds(response_bytes))
            pair = (src, dst)
            self.bytes_by_pair[pair] = self.bytes_by_pair.get(pair, 0) + total
        return response

    @property
    def total_bytes(self) -> int:
        """All payload bytes that crossed the network."""
        return sum(self.bytes_by_pair.values())
