"""2D torus topology with half-switches.

Per the paper's failed-switch fault model (Table 1 and Fig. 2), each node's
switch is split into an east-west half (X-dimension ring links) and a
north-south half (Y-dimension ring links), and the node has separate
injection paths to both halves.  Killing one half-switch therefore never
partitions the machine: traffic can be routed Y-first (or around the ring)
instead.

Every network vertex has a dense int id: node endpoints are ``0..N-1``
(the node id itself) and half-switches follow from ``N`` up, two per node,
so ``v >= num_nodes`` is the switch test and ``N + 2*node + (plane ==
"ns")`` the id of a half.  Every directed link has a dense int id too,
assigned once over the fault-free torus so ids stay valid after kills.
:meth:`TorusTopology.display` and :meth:`TorusTopology.vertex_id` convert
to and from the readable ``("node", n)`` / ``("sw", HalfSwitchId)`` form.

Neighbour lists keep the order the edges are first inserted in
:meth:`TorusTopology._edges` (endpoint injection, then the crossover,
per node in row-major order; then the ring links), which is part of the
routing tie-break contract (see :mod:`repro.interconnect.routing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple


@dataclass(frozen=True)
class HalfSwitchId:
    """Identifies one half-switch: ('ew'|'ns', x, y)."""

    plane: str  # "ew" or "ns"
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.plane not in ("ew", "ns"):
            raise ValueError(f"plane must be 'ew' or 'ns', got {self.plane!r}")

    def __repr__(self) -> str:
        return f"{self.plane}({self.x},{self.y})"


# Display form of a vertex: ("node", node_id) or ("sw", HalfSwitchId).
Vertex = Tuple[str, object]


class TorusTopology:
    """Owns the half-switch connectivity: int vertex and link ids, and the
    live adjacency after any half-switch kills.

    Connectivity is undirected for path computation; the network layer
    models each undirected edge as two directed links (two link ids) with
    independent occupancy.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 2 or height < 2:
            raise ValueError("torus must be at least 2x2")
        self.width = width
        self.height = height
        self.num_nodes = width * height
        self.num_vertices = 3 * self.num_nodes
        self._halves: List[HalfSwitchId] = list(self.all_half_switches())
        #: Dead half-switches as vertex ids.  Mutated in place, never
        #: rebound, so the network's per-hop liveness test can hold it.
        self.dead_vertices: Set[int] = set()
        #: ``link_ends[link_id] == (u, v)``; ids 2k and 2k+1 are the two
        #: directions of the k-th undirected edge.
        self.link_ends: List[Tuple[int, int]] = []
        self._link_ids: Dict[Tuple[int, int], int] = {}
        for u, v in self._edges():
            if (u, v) in self._link_ids:
                continue  # a 2-wide ring meets the same neighbour twice
            for a, b in ((u, v), (v, u)):
                self._link_ids[(a, b)] = len(self.link_ends)
                self.link_ends.append((a, b))
        self._adj: List[Tuple[int, ...]] = []
        self._rebuild()

    # ------------------------------------------------------------------
    # Coordinates and ids
    # ------------------------------------------------------------------
    def node_id(self, x: int, y: int) -> int:
        return y * self.width + x

    def coords(self, node_id: int) -> Tuple[int, int]:
        return node_id % self.width, node_id // self.width

    @property
    def num_links(self) -> int:
        return len(self.link_ends)

    def all_half_switches(self) -> Iterator[HalfSwitchId]:
        for y in range(self.height):
            for x in range(self.width):
                yield HalfSwitchId("ew", x, y)
                yield HalfSwitchId("ns", x, y)

    def switch_id(self, half: HalfSwitchId) -> int:
        """Vertex id of a half-switch."""
        if not (0 <= half.x < self.width and 0 <= half.y < self.height):
            raise ValueError(f"{half!r} is outside the "
                             f"{self.width}x{self.height} torus")
        return (self.num_nodes + 2 * self.node_id(half.x, half.y)
                + (half.plane == "ns"))

    def half_switch(self, vertex: int) -> HalfSwitchId:
        """The half-switch a switch vertex id names."""
        return self._halves[vertex - self.num_nodes]

    def display(self, vertex: int) -> Vertex:
        """Readable form of a vertex id: ``("node", n)`` or
        ``("sw", HalfSwitchId)``."""
        if vertex < self.num_nodes:
            return ("node", vertex)
        return ("sw", self._halves[vertex - self.num_nodes])

    def vertex_id(self, vertex: Vertex) -> int:
        """Inverse of :meth:`display`."""
        kind, ident = vertex
        if kind == "node":
            return ident  # type: ignore[return-value]
        return self.switch_id(ident)  # type: ignore[arg-type]

    def link_id(self, u: int, v: int) -> int:
        """Id of the directed link ``u -> v`` (KeyError if none exists)."""
        return self._link_ids[(u, v)]

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def _edges(self) -> Iterator[Tuple[int, int]]:
        """Every undirected edge of the fault-free torus, in insertion
        order."""
        n = self.num_nodes
        for nid in range(n):
            ew, ns = n + 2 * nid, n + 2 * nid + 1
            # Node connects to both halves (separate injection paths).
            yield nid, ew
            yield nid, ns
            # Crossover between the two halves of one switch, for
            # dimension turns (X-then-Y routing goes ew -> ns here).
            yield ew, ns
        # Ring links.
        for y in range(self.height):
            for x in range(self.width):
                nid = self.node_id(x, y)
                yield (n + 2 * nid,
                       n + 2 * self.node_id((x + 1) % self.width, y))
                yield (n + 2 * nid + 1,
                       n + 2 * self.node_id(x, (y + 1) % self.height) + 1)

    def _rebuild(self) -> None:
        """Live adjacency: link ids follow edge insertion order, so each
        vertex's neighbours come out in that order too."""
        dead = self.dead_vertices
        adj: List[List[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.link_ends:
            if u not in dead and v not in dead:
                adj[u].append(v)
        self._adj = [tuple(nbrs) for nbrs in adj]

    def vertices(self) -> List[int]:
        """Live vertex ids in construction order: each node endpoint
        followed by its live ew and ns halves."""
        n = self.num_nodes
        dead = self.dead_vertices
        order: List[int] = []
        for nid in range(n):
            order.append(nid)
            order.extend(v for v in (n + 2 * nid, n + 2 * nid + 1)
                         if v not in dead)
        return order

    def neighbors(self, vertex: int) -> Tuple[int, ...]:
        """Live neighbours of a vertex, in edge insertion order."""
        return self._adj[vertex]

    def has_link(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are joined by a live link."""
        return v in self._adj[u]

    # ------------------------------------------------------------------
    # Fault support
    # ------------------------------------------------------------------
    def kill_half_switch(self, half: HalfSwitchId) -> None:
        """Permanently remove a half-switch (the paper's hard fault)."""
        vertex = self.switch_id(half)
        if vertex in self.dead_vertices:
            return
        self.dead_vertices.add(vertex)
        self._rebuild()

    def is_dead(self, half: HalfSwitchId) -> bool:
        return self.switch_id(half) in self.dead_vertices

    @property
    def dead_switches(self) -> Set[HalfSwitchId]:
        return {self.half_switch(v) for v in self.dead_vertices}

    def is_connected(self) -> bool:
        """True if every pair of nodes can still communicate."""
        adj = self._adj
        reached = {0}
        frontier = [0]
        while frontier:
            for v in adj[frontier.pop()]:
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        return all(nid in reached for nid in range(self.num_nodes))
