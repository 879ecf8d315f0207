"""Seeded inputs and their independent answer oracles.

Every workload draws its inputs from ``random.Random(f"{workload}/{seed}")``,
so the same seed gives the same inputs in any process.  Each input is
paired with the answer an oracle that shares no code with the solve
path computes for it, outside any timed region:

* forests (``forest-w1``, ``service-w1``): ``has_neighbor`` is read off
  the graph's adjacency;
* ladders (``ladder-w2``): direct MSO evaluation of ``has_neighbor`` on
  the fixed ladder, mapped through each relabeling;
* schemas (``primality-fig6``): the hand-coded Figure 6 dynamic program
  ``primality_direct``.
"""

from __future__ import annotations

import random

from repro.mso import formulas
from repro.mso import query as mso_query
from repro.problems import primality_direct, table1_schema
from repro.structures import Graph, graph_to_structure, relabel

#: probability that a forest vertex hangs below an earlier vertex
#: rather than starting a new tree
FOREST_ATTACH = 0.85


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def random_forest(rng: random.Random, vertices: int) -> Graph:
    """A random labelled forest; roots that get no child stay isolated."""
    labels = list(range(vertices))
    rng.shuffle(labels)
    graph = Graph(labels)
    for i in range(1, vertices):
        if rng.random() < FOREST_ATTACH:
            graph.add_edge(labels[i], labels[rng.randrange(i)])
    return graph


def adjacency_answers(graph: Graph) -> frozenset:
    """The ``has_neighbor`` answer set, read off the adjacency."""
    return frozenset(v for v in graph.vertices if graph.neighbors(v))


def forest_inputs(rng: random.Random, vertices: int, count: int) -> list:
    """``count`` (structure, expected answers) pairs of one size."""
    items = []
    for _ in range(count):
        graph = random_forest(rng, vertices)
        items.append((graph_to_structure(graph), adjacency_answers(graph)))
    return items


def ladder_graph(columns: int, isolated: int) -> Graph:
    """The 2 x ``columns`` ladder plus ``isolated`` lone vertices.

    The lone vertices keep the graph an induced subgraph of a longer
    ladder (so it stays in the width-2 grid class) and make the answer
    a proper subset of the domain."""
    graph = Graph.grid(2, columns)
    for i in range(isolated):
        graph.add_vertex(("lone", i))
    return graph


def ladder_inputs(
    rng: random.Random, columns: int, isolated: int, count: int
) -> list:
    """``count`` seeded relabelings of one fixed ladder, each paired
    with the direct-MSO answer on the ladder mapped through it."""
    base = ladder_graph(columns, isolated)
    want = mso_query(graph_to_structure(base), formulas.has_neighbor("x"), "x")
    vertices = sorted(base.vertices, key=repr)
    items = []
    for _ in range(count):
        names = list(range(len(vertices)))
        rng.shuffle(names)
        mapping = dict(zip(vertices, names))
        structure = graph_to_structure(relabel(base, mapping))
        items.append((structure, frozenset(mapping[v] for v in want)))
    return items


def plain_ladder_inputs(columns: int, count: int) -> list:
    """The 2 x ``columns`` ladder ``count`` times (the scaling probe),
    with its adjacency answers."""
    graph = ladder_graph(columns, 0)
    return [(graph_to_structure(graph), adjacency_answers(graph))] * count


def primality_inputs(rng: random.Random, gadgets: int):
    """The Table-1 gadget schema and a seeded order of all of its
    attributes, each paired with ``primality_direct``'s verdict."""
    schema = table1_schema(gadgets)
    attributes = list(schema.attributes)
    rng.shuffle(attributes)
    return schema, [(a, primality_direct(schema, a)) for a in attributes]
