"""3-Colorability over bounded-treewidth graphs (Section 5.1, Figure 5).

Three interchangeable solvers, cross-validated against each other in the
test-suite:

* :class:`ThreeColoringDatalog` -- the Figure 5 program, verbatim up to
  engine syntax, executed by the semi-naive datalog engine.  ``solve(s,
  R, G, B)`` is the succinct non-monadic predicate whose arguments are
  fixed-size subsets of the bag (Theorem 5.1 explains why this is a
  succinct monadic program); ``partition`` and ``allowed`` are the
  helper predicates the paper precomputes alongside the decomposition.
* :func:`three_coloring_direct` -- the same dynamic program hand-coded
  in Python ("one can of course go one step further and implement our
  algorithms directly in Java, C++, etc.", Section 1), including witness
  extraction.
* :func:`three_coloring_bruteforce` -- exhaustive search, the ground
  truth for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Mapping

from ..datalog.ast import Program, atom, pos, rule, var
from ..datalog.backends import solve as backend_solve
from ..datalog.evaluate import Database
from ..datalog.magic import adorned_base, is_magic_predicate
from ..structures.graphs import Graph, graph_to_structure
from ..structures.structure import Structure
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.encode import TDNode, encode_nice
from ..treewidth.heuristics import decompose_graph
from ..treewidth.nice import NiceNodeKind, NiceTreeDecomposition, make_nice
from .._util import powerset

Vertex = Hashable
Coloring = dict[Vertex, str]


# ----------------------------------------------------------------------
# Shared preparation
# ----------------------------------------------------------------------


def prepare_decomposition(
    graph: Graph, td: TreeDecomposition | None = None
) -> NiceTreeDecomposition:
    """Heuristic decomposition + Section 5 normal form."""
    if td is None:
        td = decompose_graph(graph)
    nice = make_nice(td)
    nice.validate(graph_to_structure(graph))
    return nice


def encode_for_three_coloring(
    graph: Graph, nice: NiceTreeDecomposition
) -> Structure:
    """``A_td`` plus the precomputed ``allowed`` facts and copy-node tags.

    ``allowed(s, X)`` holds iff ``X`` is a subset of the bag of ``s``
    containing no two adjacent vertices; the paper computes these "as
    part of the computation of the tree decomposition", which "fits into
    the linear time bound" for fixed w.
    """
    structure = graph_to_structure(graph)
    encoded = encode_nice(structure, nice)
    extra_domain: set = set()
    allowed: set[tuple] = set()
    copynode: set[tuple] = set()
    for node in nice.tree.nodes():
        bag = nice.bag(node)
        for subset in powerset(sorted(bag, key=repr)):
            chosen = frozenset(subset)
            if not _has_internal_edge(graph, chosen):
                allowed.add((TDNode(node), chosen))
                extra_domain.add(chosen)
        if nice.node_kind(node) is NiceNodeKind.COPY:
            copynode.add((TDNode(node),))
    signature = encoded.signature.extended({"allowed": 2, "copynode": 1})
    relations = {name: set(encoded.relation(name)) for name in encoded.signature}
    relations["allowed"] = allowed
    relations["copynode"] = copynode
    return Structure(
        signature, set(encoded.domain) | extra_domain, relations
    )


def _has_internal_edge(graph: Graph, vertices: frozenset) -> bool:
    for v in vertices:
        for u in graph.neighbors(v):
            if u in vertices:
                return True
    return False


# ----------------------------------------------------------------------
# The Figure 5 program
# ----------------------------------------------------------------------


def three_coloring_program() -> Program:
    """The datalog program of Figure 5.

    Data-independent: the same program runs on every encoded instance.
    ``⊎`` is the ``add`` built-in, ``partition`` is ``partition3``; the
    ``copy`` rule extends the paper's set to the equal-bag copy nodes
    that the Section 5.3 transformation introduces.
    """
    S, S1, S2 = var("S"), var("S1"), var("S2")
    X, XV, V = var("X"), var("XV"), var("V")
    R, G, B = var("R"), var("G"), var("B")
    R2, G2, B2 = var("R2"), var("G2"), var("B2")

    rules = [
        # leaf node
        rule(
            atom("solve", S, R, G, B),
            pos("leaf", S),
            pos("bag", S, X),
            pos("partition3", X, R, G, B),
            pos("allowed", S, R),
            pos("allowed", S, G),
            pos("allowed", S, B),
        ),
    ]
    # element introduction node: the new vertex joins R, G or B.
    for color, grown in (("R", R2), ("G", G2), ("B", B2)):
        old = {"R": R, "G": G, "B": B}
        head_args = [S] + [grown if c == color else old[c] for c in "RGB"]
        rules.append(
            rule(
                atom("solve", *head_args),
                pos("bag", S, XV),
                pos("child1", S1, S),
                pos("bag", S1, X),
                pos("add", X, V, XV),
                pos("solve", S1, R, G, B),
                pos("add", old[color], V, grown),
                pos("allowed", S, grown),
            )
        )
    # element removal node: the removed vertex was in R, G or B.
    for color, grown in (("R", R2), ("G", G2), ("B", B2)):
        old = {"R": R, "G": G, "B": B}
        body_args = [S1] + [grown if c == color else old[c] for c in "RGB"]
        rules.append(
            rule(
                atom("solve", S, R, G, B),
                pos("bag", S, X),
                pos("child1", S1, S),
                pos("bag", S1, XV),
                pos("add", X, V, XV),
                pos("solve", *body_args),
                pos("add", old[color], V, grown),
            )
        )
    rules += [
        # branch node
        rule(
            atom("solve", S, R, G, B),
            pos("bag", S, X),
            pos("child1", S1, S),
            pos("child2", S2, S),
            pos("bag", S1, X),
            pos("bag", S2, X),
            pos("solve", S1, R, G, B),
            pos("solve", S2, R, G, B),
        ),
        # copy node (equal-bag unary node; identity transition)
        rule(
            atom("solve", S, R, G, B),
            pos("copynode", S),
            pos("child1", S1, S),
            pos("solve", S1, R, G, B),
        ),
        # result (at the root node)
        rule(
            atom("success"),
            pos("root", S),
            pos("solve", S, R, G, B),
        ),
    ]
    return Program(rules, builtin_names=("add", "partition3"))


@dataclass
class ThreeColoringRun:
    colorable: bool
    solve_fact_count: int
    database: Database


class ThreeColoringDatalog:
    """Figure 5, executed by a pluggable datalog backend.

    ``backend`` names any evaluation backend registered in
    :mod:`repro.datalog.backends`; the magic-set backend is evaluated
    goal-directed on the 0-ary ``success`` predicate, in which case
    ``solve`` facts exist only in adorned form (counted all the same).
    """

    def __init__(self, backend: str = "semi-naive") -> None:
        self.program = three_coloring_program()
        self.backend_name = backend

    def run(
        self, graph: Graph, td: TreeDecomposition | None = None
    ) -> ThreeColoringRun:
        if graph.vertex_count() == 0:
            return ThreeColoringRun(True, 0, Database())
        nice = prepare_decomposition(graph, td)
        encoded = encode_for_three_coloring(graph, nice)
        # registry=None resolves to the shared standard registry so the
        # compiled-program cache hits across runs and instances
        db = backend_solve(
            self.program,
            encoded,
            backend=self.backend_name,
            query="success",
        )
        solve_facts = sum(
            len(db.relation(p))
            for p in db.predicates()
            if not is_magic_predicate(p) and adorned_base(p) == "solve"
        )
        return ThreeColoringRun(
            colorable=db.contains("success", ()),
            solve_fact_count=solve_facts,
            database=db,
        )

    def decide(self, graph: Graph, td: TreeDecomposition | None = None) -> bool:
        return self.run(graph, td).colorable


# ----------------------------------------------------------------------
# Direct dynamic program (the paper's "C++ implementation" analogue)
# ----------------------------------------------------------------------

State = tuple[frozenset, frozenset, frozenset]  # (R, G, B) projections


def three_coloring_direct(
    graph: Graph,
    td: TreeDecomposition | None = None,
    want_witness: bool = False,
) -> tuple[bool, Coloring | None]:
    """Bottom-up DP computing exactly the ``solve`` facts of Property A.

    Returns ``(colorable, witness)`` where the witness is a full
    3-coloring when requested and one exists.
    """
    if graph.vertex_count() == 0:
        return True, {} if want_witness else None
    nice = prepare_decomposition(graph, td)
    tree = nice.tree

    states: dict[int, set[State]] = {}
    # provenance for witness extraction: (node, state) -> choice record
    provenance: dict[tuple[int, State], tuple] = {}

    for node in tree.postorder():
        kind = nice.node_kind(node)
        bag = nice.bag(node)
        here: set[State] = set()
        if kind is NiceNodeKind.LEAF:
            for state in _leaf_states(graph, bag):
                here.add(state)
                provenance[(node, state)] = ("leaf",)
        elif kind is NiceNodeKind.INTRODUCTION:
            (child,) = tree.children(node)
            v = nice.introduced_element(node)
            for state in states[child]:
                for i in range(3):
                    grown = tuple(
                        part | {v} if j == i else part
                        for j, part in enumerate(state)
                    )
                    if _conflicts(graph, v, grown[i]):
                        continue
                    grown = (grown[0], grown[1], grown[2])
                    here.add(grown)
                    provenance.setdefault(
                        (node, grown), ("intro", state, v, "RGB"[i])
                    )
        elif kind is NiceNodeKind.REMOVAL:
            (child,) = tree.children(node)
            v = nice.removed_element(node)
            for state in states[child]:
                shrunk = tuple(part - {v} for part in state)
                shrunk = (shrunk[0], shrunk[1], shrunk[2])
                here.add(shrunk)
                provenance.setdefault((node, shrunk), ("forget", state))
        elif kind is NiceNodeKind.COPY:
            (child,) = tree.children(node)
            for state in states[child]:
                here.add(state)
                provenance.setdefault((node, state), ("copy", state))
        else:  # branch
            c1, c2 = tree.children(node)
            for state in states[c1] & states[c2]:
                here.add(state)
                provenance.setdefault((node, state), ("branch", state, state))
        states[node] = here

    root_states = states[tree.root]
    if not root_states:
        return False, None
    if not want_witness:
        return True, None
    coloring: Coloring = {}
    _reconstruct(
        nice, states, provenance, tree.root, next(iter(root_states)), coloring
    )
    return True, coloring


def _leaf_states(graph: Graph, bag: frozenset):
    items = sorted(bag, key=repr)
    for assignment in product(range(3), repeat=len(items)):
        parts: list[set] = [set(), set(), set()]
        for v, color in zip(items, assignment):
            parts[color].add(v)
        if any(_has_internal_edge(graph, frozenset(p)) for p in parts):
            continue
        yield (frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2]))


def _conflicts(graph: Graph, v: Vertex, part: frozenset) -> bool:
    return any(u in part for u in graph.neighbors(v)) or v in graph.neighbors(v)


def _reconstruct(
    nice: NiceTreeDecomposition,
    states: dict,
    provenance: dict,
    node: int,
    state: State,
    coloring: Coloring,
) -> None:
    for part, color in zip(state, "RGB"):
        for v in part:
            coloring[v] = color
    record = provenance[(node, state)]
    kind = record[0]
    children = nice.tree.children(node)
    if kind == "leaf":
        return
    if kind in ("forget", "copy"):
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
    elif kind == "intro":
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
    elif kind == "branch":
        _reconstruct(nice, states, provenance, children[0], record[1], coloring)
        _reconstruct(nice, states, provenance, children[1], record[2], coloring)


# ----------------------------------------------------------------------
# Brute force baseline
# ----------------------------------------------------------------------


def three_coloring_bruteforce(graph: Graph) -> bool:
    """Try all 3^n colorings; ground truth for small graphs."""
    vertices = sorted(graph.vertices, key=repr)
    for assignment in product(range(3), repeat=len(vertices)):
        color = dict(zip(vertices, assignment))
        if all(
            color[u] != color[v] for u, v in graph.edges() if u != v
        ) and not any(graph.has_edge(v, v) for v in vertices):
            return True
    return not vertices


def is_valid_coloring(graph: Graph, coloring: Mapping[Vertex, str]) -> bool:
    if set(coloring) != set(graph.vertices):
        return False
    return all(
        coloring[u] != coloring[v] for u, v in graph.edges() if u != v
    ) and not any(graph.has_edge(v, v) for v in graph.vertices)
