"""The modified ("nice") normal form of Section 5.

For the hand-crafted algorithms the paper refines Definition 2.3:
element replacement is split into an *element removal* node and an
*element introduction* node, bags become plain sets, permutation nodes
disappear, and bags need not have full size.  (This is the normal form
also considered in Kloks [23].)

Node kinds:

* ``leaf`` -- no children;
* ``introduction`` -- one child, ``bag = child_bag ⊎ {v}``;
* ``removal`` -- one child, ``bag = child_bag \\ {v}``;
* ``branch`` -- two children, both bags identical to the node's;
* ``copy`` -- one child with an identical bag.  Copy nodes arise from
  the Section 5.3 transformation that surrounds every branch node with
  equal-bag neighbours; the dynamic programs treat them as identity
  transitions.

This module also hosts the two PRIMALITY-specific refinements of
Sections 5.2/5.3: every bag containing an FD also contains the FD's
right-hand attribute, and (for the enumeration problem) every domain
element of interest occurs in at least one leaf bag.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Mapping

from ..structures.structure import Element, Structure
from .decomposition import (
    NodeId,
    RootedTree,
    TreeDecomposition,
    validate_refinement,
)


class NiceNodeKind(Enum):
    LEAF = "leaf"
    INTRODUCTION = "introduction"
    REMOVAL = "removal"
    BRANCH = "branch"
    COPY = "copy"


class NiceTreeDecomposition:
    """A Section 5 normal-form decomposition with set bags."""

    __slots__ = ("tree", "bags")

    def __init__(self, tree: RootedTree, bags: Mapping[NodeId, Iterable[Element]]):
        self.tree = tree
        self.bags = {n: frozenset(bags[n]) for n in tree.nodes()}

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def bag(self, node: NodeId) -> frozenset[Element]:
        return self.bags[node]

    def node_count(self) -> int:
        return self.tree.node_count()

    def as_set_decomposition(self) -> TreeDecomposition:
        return TreeDecomposition(self.tree.copy(), dict(self.bags))

    def node_kind(self, node: NodeId) -> NiceNodeKind:
        children = self.tree.children(node)
        if len(children) == 0:
            return NiceNodeKind.LEAF
        if len(children) == 2:
            here = self.bags[node]
            if any(self.bags[c] != here for c in children):
                raise ValueError(f"branch node {node} has unequal children bags")
            return NiceNodeKind.BRANCH
        if len(children) != 1:
            raise ValueError(f"node {node} has {len(children)} children")
        here, child = self.bags[node], self.bags[children[0]]
        if here == child:
            return NiceNodeKind.COPY
        if len(here) == len(child) + 1 and child < here:
            return NiceNodeKind.INTRODUCTION
        if len(here) == len(child) - 1 and here < child:
            return NiceNodeKind.REMOVAL
        raise ValueError(
            f"node {node} differs from its child by more than one element: "
            f"{sorted(here, key=repr)} vs {sorted(child, key=repr)}"
        )

    def introduced_element(self, node: NodeId) -> Element:
        """The element ``v`` with ``bag = child_bag ⊎ {v}``."""
        (child,) = self.tree.children(node)
        (v,) = self.bags[node] - self.bags[child]
        return v

    def removed_element(self, node: NodeId) -> Element:
        """The element ``v`` with ``bag = child_bag \\ {v}``."""
        (child,) = self.tree.children(node)
        (v,) = self.bags[child] - self.bags[node]
        return v

    def validate(self, structure: Structure | None = None) -> None:
        validate_refinement(self, structure)

    def __repr__(self) -> str:
        return (
            f"NiceTreeDecomposition(nodes={self.node_count()}, "
            f"width={self.width})"
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

SortKey = Callable[[Element], object]


def _contract_copy_edges(td: TreeDecomposition) -> TreeDecomposition:
    """Merge unary equal-bag edges left over from the input decomposition."""
    tree = td.tree.copy()
    bags = dict(td.bags)
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            children = tree.children(node)
            if len(children) == 1 and bags[children[0]] == bags[node]:
                (child,) = children
                grandchildren = tree.children(child)
                tree._children[node] = list(grandchildren)
                for g in grandchildren:
                    tree._parent[g] = node
                del tree._children[child]
                del tree._parent[child]
                del bags[child]
                changed = True
                break
    return TreeDecomposition(tree, bags)


def _binarize(td: TreeDecomposition) -> TreeDecomposition:
    from .normalize import binarize

    return binarize(td)


def _equalize_branches(td: TreeDecomposition) -> TreeDecomposition:
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        if len(tree.children(node)) != 2:
            continue
        for child in list(tree.children(node)):
            if bags[child] != bags[node]:
                mid = tree.insert_above(child)
                bags[mid] = bags[node]
    return TreeDecomposition(tree, bags)


def _interpolate(
    td: TreeDecomposition,
    removal_key: SortKey,
    introduction_key: SortKey,
) -> TreeDecomposition:
    """Expand each unary edge into single-element removal/introduction steps.

    Walking bottom-up from child bag ``B'`` to parent bag ``B``: first the
    elements of ``B' \\ B`` are removed one at a time (ordered by
    ``removal_key``), then the elements of ``B \\ B'`` are introduced
    (ordered by ``introduction_key``).  The keys let callers keep
    bag invariants along the chain -- the PRIMALITY refinement removes
    FDs before attributes and introduces attributes before FDs so that
    "f in bag implies rhs(f) in bag" survives interpolation.
    """
    tree = td.tree.copy()
    bags = dict(td.bags)
    for node in list(tree.nodes()):
        for child in list(tree.children(node)):
            if len(tree.children(node)) == 2:
                continue  # branch edges are already equal-bag
            removals = sorted(
                bags[child] - bags[node], key=lambda e: (removal_key(e), repr(e))
            )
            introductions = sorted(
                bags[node] - bags[child],
                key=lambda e: (introduction_key(e), repr(e)),
            )
            steps = len(removals) + len(introductions)
            if steps <= 1:
                continue
            chain = tree.insert_chain_above(child, steps - 1)
            # Fill bags bottom-up along the chain: child is lowest.
            current = bags[child]
            bottom_up = list(reversed(chain))
            i = 0
            for v in removals:
                current = current - {v}
                if i < len(bottom_up):
                    bags[bottom_up[i]] = current
                i += 1
            for v in introductions:
                current = current | {v}
                if i < len(bottom_up):
                    bags[bottom_up[i]] = current
                i += 1
            if current != bags[node]:
                raise AssertionError("interpolation did not reach the parent bag")
    return TreeDecomposition(tree, bags)


def make_nice(
    td: TreeDecomposition,
    removal_key: SortKey | None = None,
    introduction_key: SortKey | None = None,
) -> NiceTreeDecomposition:
    """Convert any valid decomposition into the Section 5 normal form.

    Width is preserved.  ``removal_key`` / ``introduction_key`` order
    the per-element interpolation steps (see :func:`_interpolate`).
    """
    removal_key = removal_key or (lambda e: 0)
    introduction_key = introduction_key or (lambda e: 0)
    before = td.width
    staged = _interpolate(
        _equalize_branches(_binarize(_contract_copy_edges(td))),
        removal_key,
        introduction_key,
    )
    nice = NiceTreeDecomposition(staged.tree, staged.bags)
    if nice.width != before:
        raise AssertionError(f"width changed: {before} -> {nice.width}")
    nice.validate()
    return nice


def surround_branches(nice: NiceTreeDecomposition) -> NiceTreeDecomposition:
    """Insert an equal-bag copy parent above every branch node.

    Section 5.3: "for every branch node s we insert a new node u as new
    parent of s, s.t. u and s have identical bags" -- so a branch node
    has equal-bag neighbours on all three sides and the root is never a
    branch node.
    """
    tree = nice.tree.copy()
    bags = dict(nice.bags)
    for node in list(tree.nodes()):
        if len(tree.children(node)) == 2:
            mid = tree.insert_above(node)
            bags[mid] = bags[node]
    return NiceTreeDecomposition(tree, bags)


def ensure_elements_in_leaves(
    td: TreeDecomposition, elements: Iterable[Element]
) -> TreeDecomposition:
    """Attach equal-bag leaf children so each element reaches a leaf bag.

    Used by the enumeration algorithm (Section 5.3), whose ``prime``
    rule fires at leaves: every attribute must occur in at least one
    leaf bag.
    """
    tree = td.tree.copy()
    bags = dict(td.bags)
    covered: set[Element] = set()
    for node in tree.nodes():
        if tree.is_leaf(node):
            covered |= bags[node]
    # the host is the first node in preorder holding the element; a
    # leaf added below stays after its host in preorder and holds a
    # copy of the host's bag, so the index of the input stays exact
    position = {node: i for i, node in enumerate(tree.preorder())}
    index = td.element_index()
    for element in sorted(set(elements) - covered, key=repr):
        host = min(index[element], key=position.__getitem__)
        leaf = tree.add_child(host)
        bags[leaf] = bags[host]
        covered |= bags[host]
    return TreeDecomposition(tree, bags)


def reroot_to_contain(
    td: TreeDecomposition, element: Element
) -> TreeDecomposition:
    """Reroot so that ``element`` occurs in the root bag.

    The PRIMALITY decision program expects the distinguished attribute
    ``a`` in the bag at the root (Section 5.2).
    """
    node = td.find_node_containing(element)
    return td.rerooted(node)
