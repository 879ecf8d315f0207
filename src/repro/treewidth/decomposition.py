"""Tree decompositions of graphs and structures (Section 2.2).

A tree decomposition ``T = <T, (A_t)_{t in T}>`` of a structure ``A`` is a
rooted tree whose nodes carry *bags* of domain elements such that

1. every element appears in some bag,
2. for every relation tuple there is a bag containing all its elements,
3. the bags containing any fixed element form a connected subtree
   (the *connectedness condition*).

The width is ``max |A_t| - 1``; the treewidth of ``A`` is the minimum
width over all decompositions.

This module provides the rooted-tree container, the decomposition with
set-valued bags, and an executable validator for the three axioms (used
pervasively by the test-suite's property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..errors import InvalidDecomposition, Violation
from ..structures.graphs import Graph
from ..structures.structure import Element, Structure

NodeId = int


class RootedTree:
    """A rooted tree with ordered children and integer node ids."""

    __slots__ = ("root", "_children", "_parent", "_next_id")

    def __init__(self, root: NodeId = 0):
        self.root = root
        self._children: dict[NodeId, list[NodeId]] = {root: []}
        self._parent: dict[NodeId, NodeId | None] = {root: None}
        self._next_id = root + 1

    # -- construction ---------------------------------------------------

    def fresh_node(self) -> NodeId:
        node = self._next_id
        self._next_id += 1
        return node

    def add_child(self, parent: NodeId, child: NodeId | None = None) -> NodeId:
        """Append a (possibly fresh) child under ``parent``."""
        if child is None:
            child = self.fresh_node()
        if child in self._parent:
            raise ValueError(f"node {child} already in the tree")
        self._children[parent].append(child)
        self._children[child] = []
        self._parent[child] = parent
        return child

    def insert_above(self, node: NodeId) -> NodeId:
        """Insert a fresh node between ``node`` and its parent.

        If ``node`` is the root, the fresh node becomes the new root.
        Returns the fresh node.
        """
        fresh = self.fresh_node()
        parent = self._parent[node]
        self._children[fresh] = [node]
        self._parent[node] = fresh
        if parent is None:
            self.root = fresh
            self._parent[fresh] = None
        else:
            siblings = self._children[parent]
            siblings[siblings.index(node)] = fresh
            self._parent[fresh] = parent
        return fresh

    def insert_chain_above(self, node: NodeId, length: int) -> list[NodeId]:
        """Insert ``length`` fresh nodes between ``node`` and its parent.

        Returned top-down: the first entry is closest to the old parent.
        """
        return [self.insert_above(node) for _ in range(length)]

    # -- queries ----------------------------------------------------------

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._children[node])

    def parent(self, node: NodeId) -> NodeId | None:
        return self._parent[node]

    def is_leaf(self, node: NodeId) -> bool:
        return not self._children[node]

    def nodes(self) -> Iterator[NodeId]:
        yield from self.preorder()

    def node_count(self) -> int:
        return len(self._parent)

    def leaves(self) -> Iterator[NodeId]:
        for node in self.preorder():
            if self.is_leaf(node):
                yield node

    def preorder(self) -> Iterator[NodeId]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children[node]))

    def postorder(self) -> Iterator[NodeId]:
        """Children before parents (the order of bottom-up passes)."""
        result: list[NodeId] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(self._children[node])
        return reversed(result)

    def subtree_nodes(self, node: NodeId) -> Iterator[NodeId]:
        """All nodes of the subtree T_t rooted at ``node`` (Definition 3.1)."""
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(self._children[current])

    def copy(self) -> "RootedTree":
        clone = RootedTree.__new__(RootedTree)
        clone.root = self.root
        clone._children = {n: list(c) for n, c in self._children.items()}
        clone._parent = dict(self._parent)
        clone._next_id = self._next_id
        return clone

    def rerooted(self, new_root: NodeId) -> "RootedTree":
        """The same undirected tree, rooted at ``new_root``."""
        if new_root not in self._parent:
            raise ValueError(f"unknown node {new_root}")
        adjacency: dict[NodeId, list[NodeId]] = {n: [] for n in self._parent}
        for node, parent in self._parent.items():
            if parent is not None:
                adjacency[node].append(parent)
                adjacency[parent].append(node)
        clone = RootedTree.__new__(RootedTree)
        clone.root = new_root
        clone._children = {n: [] for n in self._parent}
        clone._parent = {new_root: None}
        clone._next_id = self._next_id
        stack = [new_root]
        seen = {new_root}
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    clone._children[node].append(nbr)
                    clone._parent[nbr] = node
                    stack.append(nbr)
        return clone


class TreeDecomposition:
    """A tree decomposition with set-valued bags.

    ``bags[t]`` is a frozenset of domain elements.  Tuple-bag
    (Definition 2.3) and nice (Section 5) refinements live in
    :mod:`repro.treewidth.normalize` and :mod:`repro.treewidth.nice`.
    """

    __slots__ = ("tree", "bags")

    def __init__(self, tree: RootedTree, bags: Mapping[NodeId, Iterable[Element]]):
        self.tree = tree
        self.bags = {n: frozenset(bags[n]) for n in tree.nodes()}
        if len(self.bags) != tree.node_count():
            raise ValueError("bags must cover exactly the tree nodes")

    @classmethod
    def single_node(cls, bag: Iterable[Element]) -> "TreeDecomposition":
        tree = RootedTree()
        return cls(tree, {tree.root: frozenset(bag)})

    # -- basic measures ---------------------------------------------------

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags.values()) - 1

    def node_count(self) -> int:
        return self.tree.node_count()

    def all_elements(self) -> frozenset[Element]:
        out: set[Element] = set()
        for bag in self.bags.values():
            out |= bag
        return frozenset(out)

    def element_index(self) -> dict[Element, set[NodeId]]:
        """Element -> the nodes whose bags hold it, in one pass over
        the bags; build it once and hand it to
        :meth:`connectedness_violations`."""
        index: dict[Element, set[NodeId]] = {}
        for node, bag in self.bags.items():
            for element in bag:
                nodes = index.get(element)
                if nodes is None:
                    index[element] = {node}
                else:
                    nodes.add(node)
        return index

    def copy(self) -> "TreeDecomposition":
        return TreeDecomposition(self.tree.copy(), dict(self.bags))

    def rerooted(self, new_root: NodeId) -> "TreeDecomposition":
        return TreeDecomposition(self.tree.rerooted(new_root), dict(self.bags))

    def find_node_containing(self, element: Element) -> NodeId:
        for node in self.tree.preorder():
            if element in self.bags[node]:
                return node
        raise ValueError(f"element {element!r} occurs in no bag")

    # -- validation -------------------------------------------------------

    def connectedness_violations(
        self, index: dict[Element, set[NodeId]]
    ) -> list[Element]:
        """Elements whose occurrence set is not a connected subtree;
        ``index`` is this decomposition's :meth:`element_index`."""
        return [
            element
            for element in self.all_elements()
            if not self._is_connected(index[element])
        ]

    def _is_connected(self, nodes: set[NodeId]) -> bool:
        # in a rooted tree every connected component of a node set has
        # exactly one node whose parent lies outside the set (its top)
        parent = self.tree.parent
        tops = 0
        for node in nodes:
            if parent(node) not in nodes:
                tops += 1
                if tops > 1:
                    return False
        return True

    def _covers(
        self, elements: set[Element], index: dict[Element, set[NodeId]]
    ) -> bool:
        """Whether some bag holds all of ``elements``; scans only the
        bags of the element with the fewest occurrences."""
        if not elements:
            return True
        rarest = min(elements, key=lambda e: len(index.get(e, ())))
        bags = self.bags
        return any(elements <= bags[node] for node in index.get(rarest, ()))

    def _coverage_violations(self, universe, noun: str) -> list[Violation]:
        """Conditions (1) and the no-alien-elements check, worded for
        ``noun`` ("vertices" of a graph, "elements" of a structure)."""
        violations: list[Violation] = []
        elements = self.all_elements()
        missing = universe - elements
        if missing:
            subject = tuple(sorted(missing, key=repr))
            violations.append(
                Violation(
                    "element-uncovered",
                    f"{noun} never covered: {sorted(missing, key=repr)}",
                    subject=subject,
                    repairable=True,
                )
            )
        alien = elements - universe
        if alien:
            subject = tuple(sorted(alien, key=repr))
            violations.append(
                Violation(
                    "alien-element",
                    f"bags mention non-{noun}: {sorted(alien, key=repr)}",
                    subject=subject,
                    repairable=True,
                )
            )
        return violations

    def _connectedness_violation(
        self, index: dict[Element, set[NodeId]]
    ) -> list[Violation]:
        bad = self.connectedness_violations(index)
        if not bad:
            return []
        subject = tuple(sorted(bad, key=repr))
        return [
            Violation(
                "connectedness",
                f"connectedness violated for {sorted(bad, key=repr)}",
                subject=subject,
                repairable=True,
            )
        ]

    def graph_violations(self, graph: Graph) -> list[Violation]:
        """All Section 2.2 axiom violations against ``graph`` (no raise).

        The messages preserve the historical first-fail phrasings
        (callers and tests substring-match on them); the codes and
        subjects are the machine-readable layer the admission control
        of :mod:`repro.admission` consumes.  One element->nodes index
        serves coverage and connectedness, so the check is linear in
        the total bag size for bounded width.
        """
        index = self.element_index()
        violations = self._coverage_violations(graph.vertices, "vertices")
        for u, v in graph.edges():
            if not self._covers({u, v}, index):
                violations.append(
                    Violation(
                        "tuple-uncovered",
                        f"edge ({u!r}, {v!r}) covered by no bag",
                        subject=(u, v),
                        repairable=True,
                    )
                )
        violations += self._connectedness_violation(index)
        return violations

    def structure_violations(self, structure: Structure) -> list[Violation]:
        """All Section 2.2 axiom violations against ``structure``.

        Checks conditions (1)-(3) directly against the relations
        (condition 2 is per-tuple, which on the Gaifman graph coincides
        with per-edge coverage only for arity <= 2; here we check the
        real thing).  Collects *every* violation instead of stopping at
        the first -- the admission layer repairs them as a set.  Like
        :meth:`graph_violations`, it builds one element->nodes index.
        """
        index = self.element_index()
        violations = self._coverage_violations(structure.domain, "elements")
        for name in structure.signature:
            for tup in structure.relation(name):
                if not self._covers(set(tup), index):
                    violations.append(
                        Violation(
                            "tuple-uncovered",
                            f"tuple {name}{tup!r} covered by no bag",
                            subject=(name, tup),
                            repairable=True,
                        )
                    )
        violations += self._connectedness_violation(index)
        return violations

    def validate_for_graph(self, graph: Graph) -> None:
        """Raise :class:`repro.errors.InvalidDecomposition` (a
        ``ValueError``) unless this is a valid TD of ``graph``."""
        violations = self.graph_violations(graph)
        if violations:
            raise InvalidDecomposition.from_violations(violations)

    def validate_for_structure(self, structure: Structure) -> None:
        """Raise :class:`repro.errors.InvalidDecomposition` (a
        ``ValueError``) unless this is a valid TD of ``structure``,
        reporting **all** violations of the Section 2.2 axioms."""
        violations = self.structure_violations(structure)
        if violations:
            raise InvalidDecomposition.from_violations(violations)

    def is_valid_for_structure(self, structure: Structure) -> bool:
        try:
            self.validate_for_structure(structure)
        except ValueError:
            return False
        return True

    # -- induced substructures (Definitions 3.1 / 3.2) --------------------

    def subtree_elements(self, node: NodeId) -> frozenset[Element]:
        """Elements occurring in the bags of T_t (the subtree at ``node``)."""
        out: set[Element] = set()
        for n in self.tree.subtree_nodes(node):
            out |= self.bags[n]
        return frozenset(out)

    def envelope_elements(self, node: NodeId) -> frozenset[Element]:
        """Elements occurring in the bags of the envelope T̄_t.

        The envelope removes the subtree at ``node`` except ``node``
        itself (Definition 3.1).
        """
        inside = set(self.tree.subtree_nodes(node)) - {node}
        out: set[Element] = set()
        for n in self.tree.nodes():
            if n not in inside:
                out |= self.bags[n]
        return frozenset(out)

    def induced_substructure(self, structure: Structure, node: NodeId) -> Structure:
        """I(A, T_t, t) without the distinguished tuple (Definition 3.2)."""
        return structure.induced(self.subtree_elements(node))

    def induced_envelope_substructure(
        self, structure: Structure, node: NodeId
    ) -> Structure:
        """I(A, T̄_t, t) without the distinguished tuple."""
        return structure.induced(self.envelope_elements(node))

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(nodes={self.node_count()}, width={self.width})"
        )


# ----------------------------------------------------------------------
# Shared validation for the normal-form refinements
# ----------------------------------------------------------------------


def refinement_violations(dec, extra: Iterable[Violation] = ()) -> list[Violation]:
    """Per-node normal-form violations of a refined decomposition.

    ``dec`` is anything exposing ``tree`` and a per-node ``node_kind``
    classifier that raises ``ValueError`` on malformed nodes -- i.e.
    :class:`repro.treewidth.nice.NiceTreeDecomposition` and
    :class:`repro.treewidth.normalize.NormalizedTreeDecomposition`,
    whose previously duplicated ``validate`` bodies both route here.
    ``extra`` prepends refinement-specific violations (e.g. the
    tuple-bag distinctness check).
    """
    violations = list(extra)
    for node in dec.tree.nodes():
        try:
            dec.node_kind(node)
        except ValueError as exc:
            violations.append(
                Violation("malformed-node", str(exc), subject=(node,))
            )
    return violations


def validate_refinement(
    dec, structure: Structure | None = None, extra: Iterable[Violation] = ()
) -> None:
    """The shared ``validate`` implementation of the nice/normalized
    refinements: normal-form shape first (every node classifiable,
    plus ``extra`` refinement-specific checks), then -- if a structure
    is supplied -- the Section 2.2 axioms against it.  Raises
    :class:`repro.errors.InvalidDecomposition` carrying all collected
    violations."""
    violations = refinement_violations(dec, extra)
    if violations:
        raise InvalidDecomposition.from_violations(violations)
    if structure is not None:
        dec.as_set_decomposition().validate_for_structure(structure)
