"""Two-dimensional wormhole-routed mesh interconnect model.

The paper's system connects four nodes with a 2D wormhole-routed mesh.
Rather than routing individual flits, this model computes per-transaction
network latency from hop distance (giving the paper's 160-180 cycle remote
and 280-310 cycle cache-to-cache ranges) and applies contention through
per-node network-interface occupancy counters.
"""

from __future__ import annotations

from typing import List


class MeshNetwork:
    """Hop-distance latency plus network-interface queueing."""

    def __init__(self, n_nodes: int, mesh_width: int = 2,
                 ni_occupancy: int = 4):
        if n_nodes > 1 and n_nodes % mesh_width:
            raise ValueError("n_nodes must be a multiple of mesh_width")
        self.n_nodes = n_nodes
        self.width = mesh_width if n_nodes > 1 else 1
        self._ni_occupancy = ni_occupancy
        self._ni_next_free: List[int] = [0] * n_nodes
        self.messages = 0

    def hops(self, src: int, dst: int) -> int:
        """Manhattan hop distance between two nodes."""
        if src == dst:
            return 0
        sx, sy = src % self.width, src // self.width
        dx, dy = dst % self.width, dst // self.width
        return abs(sx - dx) + abs(sy - dy)

    def inject(self, node: int, now: int) -> int:
        """Queue a message at ``node``'s network interface.

        Returns the cycle the message actually enters the network; the
        interface stays busy for ``ni_occupancy`` cycles per message, which
        is how bursts (e.g. useless stream-buffer prefetches) delay demand
        traffic.
        """
        start = max(now, self._ni_next_free[node])
        self._ni_next_free[node] = start + self._ni_occupancy
        self.messages += 1
        return start

    def reset_contention(self) -> None:
        self._ni_next_free = [0] * self.n_nodes
