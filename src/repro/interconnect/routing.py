"""Routing tables for the half-switch torus.

Fault-free routing is dimension-order (X on the east-west plane, then a
crossover to the north-south plane, then Y), which the shortest-path
computation on the half-switch graph produces naturally because the
edge weights bias the EW plane first.  After a half-switch dies, the
tables are recomputed on the surviving graph — the paper's
"reconfiguring the interconnect to route around the lost switch".

Each (src, dst) route is stored as two immutable int tuples: the vertex
ids it visits and the link ids it crosses (see
:mod:`repro.interconnect.topology` for the id scheme).

Tie-breaks.  Many routes have equal-weight alternatives (the two ways
round an even ring, say), and which one wins moves every hop's
contention.  The winner is fixed by replaying, exactly, the search the
tables were first computed with (a graph-library Dijkstra over a *copy*
of the topology graph):

* the search graph's neighbour order is the one a graph copy produces:
  vertices are visited in construction order and each edge is
  re-inserted the first time either endpoint's list reaches it
  (:meth:`RoutingTable._search_graph`);
* edge weights are the same floats: 1.0 plus ``_EW_BIAS`` per NS-plane
  endpoint;
* the heap holds ``(distance, push counter, vertex)`` and a tentative
  distance is replaced only on a strictly smaller one.

``tests/data/route_golden.json`` pins the result on six shapes and after
every single half-switch kill on two of them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.interconnect.topology import HalfSwitchId, TorusTopology

#: One route: (vertex ids from src to dst inclusive, link ids between them).
Route = Tuple[Tuple[int, ...], Tuple[int, ...]]


class RoutingError(RuntimeError):
    """Raised when no route exists between two endpoints."""


class RoutingTable:
    """Precomputed full paths between every pair of node endpoints.

    ``path(src, dst)`` returns the vertex ids from the source node
    endpoint to the destination node endpoint (inclusive); ``route``
    adds the link ids.  Recomputed on demand after topology changes via
    :meth:`recompute`.
    """

    # Edge-weight bias: prefer entering the EW plane first so fault-free
    # routes match classic X-then-Y dimension-order routing.
    _EW_BIAS = 0.0001

    def __init__(self, topology: TorusTopology) -> None:
        self._topology = topology
        self._routes: List[Optional[Route]] = []
        self.recompute()

    def recompute(self) -> None:
        """Rebuild all node-to-node paths on the current (surviving) graph."""
        topo = self._topology
        n = topo.num_nodes
        graph = self._search_graph()
        link_id = topo.link_id
        routes: List[Optional[Route]] = [None] * (n * n)
        for src in range(n):
            pred = self._shortest_path_tree(graph, src)
            for dst in range(n):
                if src == dst:
                    continue
                if dst not in pred:
                    raise RoutingError(
                        f"no route {src}->{dst}; torus partitioned "
                        f"(dead: {topo.dead_switches})"
                    )
                path = [dst]
                while path[-1] != src:
                    path.append(pred[path[-1]])
                path.reverse()
                routes[src * n + dst] = (
                    tuple(path),
                    tuple(link_id(u, v) for u, v in zip(path, path[1:])))
        self._routes = routes

    def _search_graph(self) -> Dict[int, List[Tuple[int, float]]]:
        """Weighted adjacency in graph-copy order (see module docstring)."""
        topo = self._topology
        n = topo.num_nodes
        order = topo.vertices()
        adj: Dict[int, Dict[int, None]] = {u: {} for u in order}
        for u in order:
            for v in topo.neighbors(u):
                adj[u][v] = None  # re-assigning keeps the first position
                adj[v][u] = None

        def weight(u: int, v: int) -> float:
            # Injection into the NS plane and NS ring hops cost epsilon
            # more, so ties resolve to X-first routes (dimension order).
            w = 1.0
            for vertex in (u, v):
                if vertex >= n and topo.half_switch(vertex).plane == "ns":
                    w += self._EW_BIAS
            return w

        return {u: [(v, weight(u, v)) for v in nbrs]
                for u, nbrs in adj.items()}

    @staticmethod
    def _shortest_path_tree(graph: Dict[int, List[Tuple[int, float]]],
                            src: int) -> Dict[int, int]:
        """Dijkstra from ``src``: the predecessor of every reached vertex."""
        done = set()
        seen: Dict[int, float] = {src: 0}
        pred: Dict[int, int] = {}
        push = count()
        fringe = [(0, next(push), src)]
        while fringe:
            dist, _, v = heappop(fringe)
            if v in done:
                continue
            done.add(v)
            for u, cost in graph[v]:
                if u in done:
                    continue
                alt = dist + cost
                if u not in seen or alt < seen[u]:
                    seen[u] = alt
                    pred[u] = v
                    heappush(fringe, (alt, next(push), u))
        return pred

    def route(self, src: int, dst: int) -> Route:
        """``(vertex ids, link ids)`` of the route from ``src`` to ``dst``
        (distinct nodes)."""
        route = None
        n = self._topology.num_nodes
        if src != dst and 0 <= src < n and 0 <= dst < n:
            route = self._routes[src * n + dst]
        if route is None:
            raise RoutingError(f"no route {src}->{dst}")
        return route

    def path(self, src: int, dst: int) -> Tuple[int, ...]:
        """Vertex ids from node ``src`` to node ``dst``, inclusive."""
        if src == dst:
            return (src,)
        return self.route(src, dst)[0]

    def hop_count(self, src: int, dst: int) -> int:
        """Number of switch-to-switch hops on the route (excludes
        injection/ejection)."""
        return max(0, len(self.path(src, dst)) - 2)

    def switches_on_path(self, src: int, dst: int) -> List[HalfSwitchId]:
        topo = self._topology
        n = topo.num_nodes
        return [topo.half_switch(v) for v in self.path(src, dst) if v >= n]
