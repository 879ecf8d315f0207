"""Tree-decomposition construction via elimination orderings.

The paper invokes Bodlaender's linear-time exact algorithm [3] as a black
box.  That algorithm is famously impractical; like every implementation
the paper's experiments rely on directly constructed or heuristic
decompositions (their Section 6 *generates* the decomposition together
with the data).  We substitute the classic greedy elimination heuristics
-- min-degree and min-fill -- which produce valid decompositions whose
width is near-optimal on the graph families used here, plus an exact
branch-and-bound in :mod:`repro.treewidth.exact` for small instances.

The greedy order is incremental (see :func:`_greedy_order`), so the
decomposition of a bounded-degree input takes O(n log n); a high-degree
hub makes it superlinear in the hub's degree.  Its output is
valid by construction and is not re-checked; the property suite in
``tests/treewidth/test_heuristics.py`` is the proof.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Sequence

from ..structures.graphs import Graph, gaifman_graph
from ..structures.structure import Structure
from .decomposition import RootedTree, TreeDecomposition

Vertex = Hashable


def _neighbor_sets(graph: Graph) -> dict[Vertex, set[Vertex]]:
    return {v: set(graph.neighbors(v)) - {v} for v in graph.vertices}


def _fill_in_count(adj: dict[Vertex, set[Vertex]], v: Vertex) -> int:
    """Number of edges that eliminating ``v`` would add."""
    nbrs = list(adj[v])
    missing = 0
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if b not in adj[a]:
                missing += 1
    return missing


def min_degree_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-degree vertex."""
    return _greedy_order(graph, lambda adj, v: len(adj[v]))


def min_fill_order(graph: Graph) -> list[Vertex]:
    """Greedy elimination order, always removing a minimum-fill-in vertex."""
    return _greedy_order(graph, _fill_in_count)


def _greedy_order(
    graph: Graph, cost: Callable[[dict[Vertex, set[Vertex]], Vertex], int]
) -> list[Vertex]:
    """Repeatedly eliminate a vertex of least ``cost``, ties broken by
    ``repr`` and then by first position in the vertex order (so the
    order is deterministic across runs).

    A heap with lazy deletion holds ``(cost, repr, position, vertex)``;
    an entry is live while its cost is the vertex's current cost.
    Eliminating ``v`` and filling ``N(v)`` into a clique changes only
    the neighbourhoods of ``N(v)`` and the adjacency among them, so
    only ``N(v) ∪ N(N(v))`` is re-costed -- both min-degree and min-fill
    costs read nothing farther away.  For bounded degree each step is
    O(log n), which makes the whole order O(n log n).  Bounded degree is
    the condition: eliminating a neighbour of a vertex of degree ``d``
    re-costs up to ``d`` vertices, and the min-fill cost of that vertex
    itself takes O(d²), so a hub (a star's centre, say) makes the order
    quadratic in its degree under min-degree and cubic under min-fill.
    """
    adj = _neighbor_sets(graph)
    keys = {v: (repr(v), i) for i, v in enumerate(adj)}
    current = {v: cost(adj, v) for v in adj}
    heap = [(c, *keys[v], v) for v, c in current.items()]
    heapq.heapify(heap)
    order: list[Vertex] = []
    while heap:
        c, _, _, v = heapq.heappop(heap)
        if current.get(v) != c:
            continue  # eliminated, or re-costed since this entry
        del current[v]
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
        touched = set(nbrs)
        for a in nbrs:
            touched |= adj[a]
        for u in touched:
            fresh = cost(adj, u)
            if fresh != current[u]:
                current[u] = fresh
                heapq.heappush(heap, (fresh, *keys[u], u))
    return order


def decomposition_from_order(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination order.

    Standard construction: eliminating ``v`` creates the bag
    ``{v} ∪ N(v)`` (neighbors at elimination time, which are then made a
    clique).  The bag of ``v`` hangs under the bag of the first-eliminated
    vertex among ``N(v)``; vertices with no later neighbor start new
    components that are stitched to the previous root (harmless for the
    TD axioms).
    """
    vertices = list(order)
    if set(vertices) != set(graph.vertices):
        raise ValueError("order must enumerate exactly the vertices")
    if not vertices:
        return TreeDecomposition.single_node(frozenset())

    adj = _neighbor_sets(graph)
    position = {v: i for i, v in enumerate(vertices)}
    bag_of: dict[Vertex, frozenset[Vertex]] = {}
    attach_to: dict[Vertex, Vertex | None] = {}
    for v in vertices:
        nbrs = adj.pop(v)
        bag_of[v] = frozenset(nbrs | {v})
        attach_to[v] = min(nbrs, key=lambda u: position[u]) if nbrs else None
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}

    # Build the tree: process in reverse elimination order so parents exist.
    tree = RootedTree()
    bags: dict[int, frozenset[Vertex]] = {}
    node_of: dict[Vertex, int] = {}
    reverse = list(reversed(vertices))
    root_vertex = reverse[0]
    node_of[root_vertex] = tree.root
    bags[tree.root] = bag_of[root_vertex]
    for v in reverse[1:]:
        anchor = attach_to[v]
        parent_node = node_of[anchor] if anchor is not None else node_of[root_vertex]
        node = tree.add_child(parent_node)
        node_of[v] = node
        bags[node] = bag_of[v]
    return TreeDecomposition(tree, bags)


def decompose_graph(graph: Graph, method: str = "min_fill") -> TreeDecomposition:
    """Heuristic tree decomposition of a graph.

    ``method`` is ``"min_fill"`` (default, usually smaller width) or
    ``"min_degree"`` (faster).  The result is always a *valid*
    decomposition; only its width is heuristic.  It is valid by
    construction and not re-checked here (callers that take a
    decomposition from outside validate that one instead).
    """
    if method == "min_fill":
        order = min_fill_order(graph)
    elif method == "min_degree":
        order = min_degree_order(graph)
    else:
        raise ValueError(f"unknown method {method!r}")
    return decomposition_from_order(graph, order)


def decompose_structure(
    structure: Structure, method: str = "min_fill"
) -> TreeDecomposition:
    """Heuristic tree decomposition of an arbitrary tau-structure.

    Decomposes the Gaifman graph; bags then automatically cover every
    relation tuple (each tuple's elements form a clique there).
    """
    return decompose_graph(gaifman_graph(structure), method=method)
