"""Unit and property tests for the elimination-order heuristics.

``decompose_graph`` / ``decompose_structure`` no longer re-check their
output against the Section 2.2 axioms: the decompositions are valid by
construction, and :class:`TestValidByConstruction` is the proof that
replaced the per-request re-check.  :class:`TestHeapOrderMatchesReference`
pins the incremental heap elimination to the original quadratic loop.
"""

import pytest
from hypothesis import given, strategies as st

from repro.structures import Graph, Signature, Structure, running_example
from repro.structures.graphs import gaifman_graph
from repro.treewidth import (
    decompose_graph,
    decompose_structure,
    decomposition_from_order,
    min_degree_order,
    min_fill_order,
    normalize,
    widen,
)
from repro.treewidth.heuristics import (
    _fill_in_count,
    _greedy_order,
    _neighbor_sets,
)

from ..conftest import small_graphs

METHODS = ("min_fill", "min_degree")


class SameRepr:
    """Distinct, unequal vertices that all print alike: the ``repr``
    tie-break cannot order them, so the vertex order must."""

    def __init__(self, key):
        self.key = key

    def __repr__(self) -> str:
        return "SameRepr"


def reference_greedy_order(graph, cost):
    """The original O(n^2) elimination loop: re-cost every remaining
    vertex at every step and take the first least ``(cost, repr)``."""
    adj = _neighbor_sets(graph)
    order = []
    while adj:
        v = min(adj, key=lambda u: (cost(adj, u), repr(u)))
        order.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
    return order


def degree(adj, v):
    return len(adj[v])


COSTS = {"min_degree": degree, "min_fill": _fill_in_count}

#: mixed-type domain elements (ints, strings, tuples, equal-repr objects)
ELEMENTS = st.one_of(
    st.integers(min_value=-3, max_value=9),
    st.text(alphabet="ab1", max_size=2),
    st.tuples(st.integers(min_value=0, max_value=2)),
    st.integers(min_value=0, max_value=3).map(SameRepr),
)


@st.composite
def random_graphs(draw, max_vertices: int = 12):
    """Graphs over mixed-type vertices, dense or sparse."""
    vertices = draw(st.lists(ELEMENTS, unique=True, max_size=max_vertices))
    graph = Graph(vertices)
    pairs = [
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]
    ]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            graph.add_edge(u, v)
    return graph


@st.composite
def small_structures(draw, max_elements: int = 8):
    """Structures with arity-1..3 relations over a mixed-type domain;
    elements no tuple mentions stay isolated, and empty and one-element
    domains are drawn too."""
    domain = draw(st.lists(ELEMENTS, unique=True, max_size=max_elements))
    arities = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    )
    signature = Signature({f"r{i}": a for i, a in enumerate(arities)})
    relations = {}
    if domain:
        for i, arity in enumerate(arities):
            tup = st.tuples(*[st.sampled_from(domain)] * arity)
            relations[f"r{i}"] = draw(st.lists(tup, max_size=6))
    return Structure(signature, domain, relations)


def assert_normalizes(td, structure):
    """Widened to each reachable width, the decomposition normalizes to
    a Definition 2.3 decomposition of ``structure``."""
    size = len(structure.domain)
    for width in {max(td.width, 0), td.width + 1}:
        if td.width <= width and size >= width + 1:
            normalize(widen(td, width)).validate(structure)


class TestOrders:
    @given(small_graphs())
    def test_orders_are_permutations(self, g):
        for order in (min_degree_order(g), min_fill_order(g)):
            assert sorted(order, key=repr) == sorted(g.vertices, key=repr)

    def test_min_degree_prefers_leaves(self):
        g = Graph.path(3)
        order = min_degree_order(g)
        assert order[0] in {0, 2}

    def test_min_fill_zero_on_chordal(self):
        # a triangle has no fill-in anywhere
        order = min_fill_order(Graph.complete(3))
        assert len(order) == 3


class TestDecompositionConstruction:
    def test_empty_graph(self):
        td = decompose_graph(Graph())
        assert td.width <= 0

    def test_wrong_order_raises(self):
        with pytest.raises(ValueError):
            decomposition_from_order(Graph.path(3), [0, 1])

    @given(small_graphs())
    def test_heuristic_decompositions_are_valid(self, g):
        for method in ("min_fill", "min_degree"):
            td = decompose_graph(g, method=method)
            td.validate_for_graph(g)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            decompose_graph(Graph.path(2), method="magic")

    def test_known_widths(self):
        assert decompose_graph(Graph.path(6)).width == 1
        assert decompose_graph(Graph.cycle(6)).width == 2
        assert decompose_graph(Graph.complete(5)).width == 4

    def test_disconnected_graph(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        td = decompose_graph(g)
        td.validate_for_graph(g)

    def test_structure_decomposition_covers_tuples(self):
        s = running_example().to_structure()
        td = decompose_structure(s)
        td.validate_for_structure(s)
        assert td.width == 2  # Example 2.2: tw of the schema structure is 2


class TestHeapOrderMatchesReference:
    @pytest.mark.parametrize("method", METHODS)
    @given(g=small_graphs(max_vertices=10))
    def test_integer_graphs(self, method, g):
        cost = COSTS[method]
        assert _greedy_order(g, cost) == reference_greedy_order(g, cost)

    @pytest.mark.parametrize("method", METHODS)
    @given(g=random_graphs())
    def test_mixed_and_equal_repr_vertices(self, method, g):
        cost = COSTS[method]
        assert _greedy_order(g, cost) == reference_greedy_order(g, cost)

    @pytest.mark.parametrize("method", METHODS)
    def test_all_vertices_print_alike(self, method):
        vertices = [SameRepr(i) for i in range(6)]
        g = Graph(vertices)
        for a, b in zip(vertices, vertices[1:]):
            g.add_edge(a, b)
        g.add_edge(vertices[0], vertices[3])
        cost = COSTS[method]
        assert _greedy_order(g, cost) == reference_greedy_order(g, cost)

    @pytest.mark.parametrize("method", METHODS)
    def test_larger_forests_and_grids(self, method):
        import random

        from repro.problems.generators import random_tree_graph

        rng = random.Random(7)
        graphs = [random_tree_graph(rng, 120) for _ in range(3)]
        graphs += [Graph.grid(4, 12), Graph.cycle(40), Graph.complete(6)]
        cost = COSTS[method]
        for g in graphs:
            assert _greedy_order(g, cost) == reference_greedy_order(g, cost)

    def test_public_orders_use_the_heap(self):
        g = Graph.grid(3, 5)
        assert min_fill_order(g) == reference_greedy_order(g, _fill_in_count)
        assert min_degree_order(g) == reference_greedy_order(g, degree)


class TestValidByConstruction:
    """The proof behind dropping the axiom re-checks from
    ``decompose_graph`` / ``decompose_structure``."""

    @pytest.mark.parametrize("method", METHODS)
    @given(g=random_graphs())
    def test_graph_decompositions_satisfy_the_axioms(self, method, g):
        td = decompose_graph(g, method=method)
        assert td.graph_violations(g) == []

    @pytest.mark.parametrize("method", METHODS)
    @given(s=small_structures())
    def test_structure_decompositions_satisfy_the_axioms(self, method, s):
        td = decompose_structure(s, method=method)
        assert td.structure_violations(s) == []
        assert td.graph_violations(gaifman_graph(s)) == []
        assert_normalizes(td, s)

    @pytest.mark.parametrize("method", METHODS)
    @given(g=small_graphs(max_vertices=9))
    def test_widened_normal_form_is_valid(self, method, g):
        from repro.structures import graph_to_structure

        s = graph_to_structure(g)
        td = decompose_structure(s, method=method)
        assert td.structure_violations(s) == []
        assert_normalizes(td, s)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("domain", [[], [0], ["a"], [(1,)], [SameRepr(0)]])
    def test_empty_and_one_element_domains(self, method, domain):
        s = Structure(Signature({"p": 1, "r": 3}), domain, {})
        td = decompose_structure(s, method=method)
        assert td.structure_violations(s) == []
        if domain:
            s = Structure(
                Signature({"p": 1, "r": 3}),
                domain,
                {"p": [(domain[0],)], "r": [(domain[0],) * 3]},
            )
            td = decompose_structure(s, method=method)
            assert td.structure_violations(s) == []
            assert_normalizes(td, s)

    @pytest.mark.parametrize("method", METHODS)
    def test_heuristics_run_no_axiom_check(self, method, monkeypatch):
        from repro.treewidth.decomposition import TreeDecomposition

        def refuse(*_args, **_kwargs):
            raise AssertionError("an axiom check ran on the heuristic path")

        s = running_example().to_structure()
        monkeypatch.setattr(TreeDecomposition, "structure_violations", refuse)
        monkeypatch.setattr(TreeDecomposition, "graph_violations", refuse)
        decompose_structure(s, method=method)
        decompose_graph(Graph.grid(3, 3), method=method)


def test_matches_networkx_quality_on_families():
    """Our heuristics should be no worse than networkx's on easy graphs."""
    import networkx as nx
    from networkx.algorithms.approximation import treewidth_min_fill_in

    for g in (Graph.cycle(8), Graph.grid(3, 4), Graph.path(9)):
        nxg = nx.Graph(list(g.edges()))
        nx_width, _ = treewidth_min_fill_in(nxg)
        ours = decompose_graph(g).width
        assert ours <= nx_width + 1
