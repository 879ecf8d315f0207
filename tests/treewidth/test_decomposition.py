"""Unit tests for repro.treewidth.decomposition."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.admission import load_corpus, tree_violations
from repro.errors import Violation
from repro.structures import Graph, graph_to_structure
from repro.structures.graphs import gaifman_graph
from repro.treewidth import (
    RootedTree,
    TreeDecomposition,
    decompose_graph,
    decompose_structure,
)

from ..conftest import small_graphs
from .test_heuristics import small_structures

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "malformed"
)


class TestRootedTree:
    def test_single_node(self):
        t = RootedTree()
        assert t.node_count() == 1
        assert t.is_leaf(t.root)

    def test_add_child(self):
        t = RootedTree()
        c = t.add_child(t.root)
        assert t.parent(c) == t.root
        assert t.children(t.root) == (c,)

    def test_add_existing_child_raises(self):
        t = RootedTree()
        c = t.add_child(t.root)
        with pytest.raises(ValueError):
            t.add_child(t.root, c)

    def test_insert_above_middle(self):
        t = RootedTree()
        c = t.add_child(t.root)
        mid = t.insert_above(c)
        assert t.parent(c) == mid
        assert t.parent(mid) == t.root

    def test_insert_above_root_changes_root(self):
        t = RootedTree()
        old_root = t.root
        new_root = t.insert_above(old_root)
        assert t.root == new_root
        assert t.parent(old_root) == new_root

    def test_insert_chain_above_is_top_down(self):
        t = RootedTree()
        c = t.add_child(t.root)
        chain = t.insert_chain_above(c, 3)
        # chain[0] is nearest the root, chain[-1] is the parent of c
        assert t.parent(chain[0]) == t.root
        assert t.parent(c) == chain[-1]
        assert t.parent(chain[1]) == chain[0]

    def test_orders(self):
        t = RootedTree()
        a = t.add_child(t.root)
        b = t.add_child(t.root)
        aa = t.add_child(a)
        pre = list(t.preorder())
        post = list(t.postorder())
        assert pre[0] == t.root
        assert post[-1] == t.root
        assert set(pre) == set(post) == {t.root, a, b, aa}
        assert post.index(aa) < post.index(a)

    def test_subtree_nodes(self):
        t = RootedTree()
        a = t.add_child(t.root)
        aa = t.add_child(a)
        b = t.add_child(t.root)
        assert set(t.subtree_nodes(a)) == {a, aa}

    def test_rerooted_preserves_node_set(self):
        t = RootedTree()
        a = t.add_child(t.root)
        aa = t.add_child(a)
        r = t.rerooted(aa)
        assert r.root == aa
        assert set(r.nodes()) == set(t.nodes())
        assert r.parent(a) == aa
        assert r.parent(t.root) == a

    def test_copy_independent(self):
        t = RootedTree()
        c = t.copy()
        c.add_child(c.root)
        assert t.node_count() == 1


def chain_td(bags):
    tree = RootedTree()
    mapping = {0: tree.root}
    for i in range(1, len(bags)):
        mapping[i] = tree.add_child(mapping[i - 1])
    return TreeDecomposition(tree, {mapping[i]: bags[i] for i in range(len(bags))})


class TestTreeDecomposition:
    def test_width(self):
        td = chain_td([{1, 2}, {2, 3, 4}])
        assert td.width == 2

    def test_validate_accepts_valid(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}, {1, 2}])
        td.validate_for_graph(g)

    def test_validate_rejects_uncovered_vertex(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}])
        with pytest.raises(ValueError, match="never covered"):
            td.validate_for_graph(g)

    def test_validate_rejects_uncovered_edge(self):
        g = Graph.path(3)
        td = chain_td([{0, 1}, {2}])
        with pytest.raises(ValueError, match="covered by no bag"):
            td.validate_for_graph(g)

    def test_validate_rejects_disconnected_occurrences(self):
        g = Graph(vertices=[0, 1, 2])
        td = chain_td([{0}, {1}, {0, 2}])
        with pytest.raises(ValueError, match="connectedness"):
            td.validate_for_graph(g)

    def test_validate_rejects_alien_elements(self):
        g = Graph.path(2)
        td = chain_td([{0, 1, 99}])
        with pytest.raises(ValueError, match="non-vertices"):
            td.validate_for_graph(g)

    def test_structure_validation_checks_tuples(self):
        s = graph_to_structure(Graph.path(3))
        td = chain_td([{0, 1}, {1, 2}])
        td.validate_for_structure(s)
        bad = chain_td([{0}, {1}, {2}])
        assert not bad.is_valid_for_structure(s)

    def test_subtree_and_envelope_elements(self):
        td = chain_td([{1, 2}, {2, 3}, {3, 4}])
        nodes = list(td.tree.preorder())
        mid = nodes[1]
        assert td.subtree_elements(mid) == frozenset({2, 3, 4})
        assert td.envelope_elements(mid) == frozenset({1, 2, 3})

    def test_induced_substructures(self):
        """Definition 3.2 on the running path example."""
        s = graph_to_structure(Graph.path(3))
        td = chain_td([{0, 1}, {1, 2}])
        nodes = list(td.tree.preorder())
        sub = td.induced_substructure(s, nodes[1])
        assert sub.domain == frozenset({1, 2})
        env = td.induced_envelope_substructure(s, nodes[1])
        assert env.domain == frozenset({0, 1, 2})

    def test_find_node_containing(self):
        td = chain_td([{1}, {2}])
        assert td.bags[td.find_node_containing(2)] == frozenset({2})
        with pytest.raises(ValueError):
            td.find_node_containing(99)

    @given(small_graphs(max_vertices=6))
    def test_rerooting_preserves_validity(self, g):
        if g.vertex_count() == 0:
            return
        td = decompose_graph(g)
        for node in list(td.tree.nodes()):
            td.rerooted(node).validate_for_graph(g)


# ----------------------------------------------------------------------
# The element->nodes index validator against the original scan-all-bags
# validator, kept here as the reference
# ----------------------------------------------------------------------


def reference_connectedness_violations(td):
    def connected(nodes):
        if not nodes:
            return True
        start = next(iter(nodes))
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            neighbors = list(td.tree.children(node))
            if td.tree.parent(node) is not None:
                neighbors.append(td.tree.parent(node))
            for nbr in neighbors:
                if nbr in nodes and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return seen == nodes

    return [
        element
        for element in td.all_elements()
        if not connected({n for n, bag in td.bags.items() if element in bag})
    ]


def _reference_violations(td, universe, noun, tuples):
    violations = []
    elements = td.all_elements()
    missing = universe - elements
    if missing:
        violations.append(
            Violation(
                "element-uncovered",
                f"{noun} never covered: {sorted(missing, key=repr)}",
                subject=tuple(sorted(missing, key=repr)),
                repairable=True,
            )
        )
    alien = elements - universe
    if alien:
        violations.append(
            Violation(
                "alien-element",
                f"bags mention non-{noun}: {sorted(alien, key=repr)}",
                subject=tuple(sorted(alien, key=repr)),
                repairable=True,
            )
        )
    for needed, message, subject in tuples:
        if not any(set(needed) <= bag for bag in td.bags.values()):
            violations.append(
                Violation(
                    "tuple-uncovered", message, subject=subject, repairable=True
                )
            )
    bad = reference_connectedness_violations(td)
    if bad:
        violations.append(
            Violation(
                "connectedness",
                f"connectedness violated for {sorted(bad, key=repr)}",
                subject=tuple(sorted(bad, key=repr)),
                repairable=True,
            )
        )
    return violations


def reference_structure_violations(td, structure):
    tuples = [
        (tup, f"tuple {name}{tup!r} covered by no bag", (name, tup))
        for name in structure.signature
        for tup in structure.relation(name)
    ]
    return _reference_violations(td, structure.domain, "elements", tuples)


def reference_graph_violations(td, graph):
    tuples = [
        ((u, v), f"edge ({u!r}, {v!r}) covered by no bag", (u, v))
        for u, v in graph.edges()
    ]
    return _reference_violations(td, graph.vertices, "vertices", tuples)


def assert_validators_agree(td, structure):
    assert td.structure_violations(structure) == reference_structure_violations(
        td, structure
    )
    if hasattr(structure, "gaifman_edges"):
        graph = gaifman_graph(structure)
        assert td.graph_violations(graph) == reference_graph_violations(td, graph)
    index = td.element_index()
    assert td.connectedness_violations(index) == reference_connectedness_violations(
        td
    )
    assert index == {
        element: {n for n, bag in td.bags.items() if element in bag}
        for element in td.all_elements()
    }


def _mutate(data, td, alien):
    """One random defect: drop a bag element, detach a subtree and hang
    it elsewhere, or plant an alien element."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    nodes = sorted(bags)
    kind = data.draw(st.sampled_from(["drop", "detach", "alien"]))
    if kind == "drop":
        full = [n for n in nodes if bags[n]]
        if full:
            node = data.draw(st.sampled_from(full))
            gone = data.draw(st.sampled_from(sorted(bags[node], key=repr)))
            bags[node] = bags[node] - {gone}
    elif kind == "detach" and len(nodes) > 2:
        node = data.draw(st.sampled_from([n for n in nodes if n != tree.root]))
        inside = set(tree.subtree_nodes(node))
        target = data.draw(st.sampled_from([n for n in nodes if n not in inside]))
        old = tree.parent(node)
        tree._children[old].remove(node)
        tree._children[target].append(node)
        tree._parent[node] = target
    else:
        node = data.draw(st.sampled_from(nodes))
        bags[node] = bags[node] | {alien}
    return TreeDecomposition(tree, bags)


#: corpus cases whose decomposition is a real tree (admission runs the
#: axioms only on those; a corrupt tree stops at ``tree_violations``)
AXIOM_CASES = [
    case
    for case in load_corpus(CORPUS_DIR)
    if case["td"] is not None and not tree_violations(case["td"])
]


class TestIndexValidatorMatchesReference:
    def test_corpus_has_axiom_cases(self):
        assert {"clean", "alien_elements", "disconnected"} <= {
            case["name"] for case in AXIOM_CASES
        }

    @pytest.mark.parametrize(
        "case", AXIOM_CASES, ids=[case["name"] for case in AXIOM_CASES]
    )
    def test_malformed_corpus(self, case):
        assert_validators_agree(case["td"], case["structure"])

    @given(s=small_structures(), data=st.data())
    def test_mutated_heuristic_decompositions(self, s, data):
        td = decompose_structure(s)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            td = _mutate(data, td, alien=("alien", 0))
        assert_validators_agree(td, s)

    @given(g=small_graphs(), data=st.data())
    def test_mutated_graph_decompositions(self, g, data):
        s = graph_to_structure(g)
        td = decompose_graph(g)
        td = _mutate(data, td, alien=99)
        assert_validators_agree(td, s)
