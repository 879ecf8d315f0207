"""Tests for the CourcelleSolver facade (Corollary 4.6 end-to-end)."""

import pytest

from repro.core import CourcelleSolver, undirected_graph_filter
from repro.mso import formulas, query
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure


@pytest.fixture(scope="module")
def solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


class TestQuery:
    def test_on_path(self, solver):
        s = graph_to_structure(Graph.path(6))
        assert solver.query(s) == frozenset(range(6))

    def test_with_isolated_vertices(self, solver):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(1, 2)])
        s = graph_to_structure(g)
        want = query(s, formulas.has_neighbor("x"), "x")
        assert solver.query(s) == want == frozenset({1, 2})

    def test_small_structure_fallback(self, solver):
        """|dom| < w + 1 falls back to direct evaluation (the paper's
        'w.l.o.g.')."""
        s = graph_to_structure(Graph(vertices=[0]))
        assert solver.query(s) == frozenset()

    def test_narrow_decomposition_is_widened(self, solver):
        # stars have width 1 already; a 2-vertex graph needs widening? no --
        # it *is* width 1.  An edgeless 3-vertex graph has width 0.
        g = Graph(vertices=[0, 1, 2])
        s = graph_to_structure(g)
        assert solver.query(s) == frozenset()

    def test_decide_on_unary_solver_raises(self, solver):
        with pytest.raises(ValueError):
            solver.decide(graph_to_structure(Graph.path(2)))

    def test_too_wide_decomposition_rejected(self, solver):
        from repro.treewidth import decompose_structure

        g = Graph.complete(4)  # width 3 > compiled width 1
        s = graph_to_structure(g)
        td = decompose_structure(s)
        with pytest.raises(ValueError, match="exceeds"):
            solver.query(s, td)

    def test_explicit_decomposition_accepted(self, solver):
        from repro.treewidth import decompose_structure

        g = Graph.path(5)
        s = graph_to_structure(g)
        td = decompose_structure(s)
        assert solver.query(s, td) == frozenset(range(5))


class TestTrustBoundary:
    """Validate once, at the trust boundary: a caller-supplied
    decomposition is checked against the Section 2.2 axioms before it is
    widened and normalized; a heuristic one is trusted by construction."""

    def test_invalid_caller_td_raises_invalid_decomposition(self, solver):
        from repro.errors import InvalidDecomposition
        from repro.treewidth import RootedTree, TreeDecomposition

        s = graph_to_structure(Graph.path(4))
        tree = RootedTree()
        child = tree.add_child(tree.root)
        td = TreeDecomposition(tree, {tree.root: {0, 1}, child: {2, 3}})
        with pytest.raises(InvalidDecomposition) as err:
            solver.query(s, td)
        codes = {v.code for v in err.value.violations}
        assert codes == {"tuple-uncovered"}
        # the raw decomposition is what is reported: edge (1, 2) is the
        # caller's defect, named before any widening or normalization
        assert any(v.subject[1] in {(1, 2), (2, 1)} for v in err.value.violations)

    def test_caller_td_with_alien_elements_is_refused(self, solver):
        from repro.errors import InvalidDecomposition
        from repro.treewidth import RootedTree, TreeDecomposition

        s = graph_to_structure(Graph.path(3))
        tree = RootedTree()
        child = tree.add_child(tree.root)
        leaf = tree.add_child(child)
        td = TreeDecomposition(
            tree, {tree.root: {0, 1}, child: {1, 2}, leaf: {99}}
        )
        with pytest.raises(InvalidDecomposition, match="non-elements"):
            solver.query(s, td)

    def test_heuristic_path_runs_no_axiom_check(self, solver, monkeypatch):
        from repro.treewidth.decomposition import TreeDecomposition

        def refuse(*_args, **_kwargs):
            raise AssertionError("an axiom check ran on a trusted path")

        monkeypatch.setattr(TreeDecomposition, "structure_violations", refuse)
        monkeypatch.setattr(TreeDecomposition, "graph_violations", refuse)
        s = graph_to_structure(Graph.path(6))
        assert solver.query(s) == frozenset(range(6))

    def test_admitted_td_is_not_rechecked(self, solver, monkeypatch):
        from repro.admission import admit
        from repro.treewidth import decompose_structure
        from repro.treewidth.decomposition import TreeDecomposition

        s = graph_to_structure(Graph.path(5))
        result = admit(
            s,
            signature=GRAPH_SIGNATURE,
            width=1,
            td=decompose_structure(s),
        )
        calls = []
        original = TreeDecomposition.structure_violations

        def counting(self, structure):
            calls.append(structure)
            return original(self, structure)

        monkeypatch.setattr(TreeDecomposition, "structure_violations", counting)
        solver._prepare(result.structure, result.td, verified=True)
        assert calls == []
        solver._prepare(s, result.td)
        assert len(calls) == 1


class TestIsolatedQuery:
    def test_isolated(self):
        isolated_solver = CourcelleSolver(
            formulas.isolated("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1)])
        s = graph_to_structure(g)
        assert isolated_solver.query(s) == frozenset({2, 3})


class TestPluggableBackends:
    """The solver's backend= threading: every evaluation backend must
    return the same answers as the quasi-guarded default."""

    @pytest.mark.parametrize("backend", ["naive", "semi-naive", "magic"])
    def test_query_agrees_with_quasi_guarded(self, solver, backend):
        alt = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            backend=backend,
        )
        for g in [
            Graph.path(6),
            Graph(vertices=[0, 1, 2, 3], edges=[(1, 2)]),
            Graph(vertices=[0, 1, 2]),
        ]:
            s = graph_to_structure(g)
            assert alt.query(s) == solver.query(s), backend

    @pytest.mark.parametrize("backend", ["semi-naive", "magic"])
    def test_decide_sentence_across_backends(self, backend):
        """The 0-ary answer path: φ holds iff some p and some non-p."""
        from repro.mso import And, ExistsInd, Not, RelAtom, evaluate
        from repro.structures import Signature, Structure

        psig = Signature.of(p=1)
        sentence = ExistsInd(
            "x",
            And(RelAtom("p", ("x",)), ExistsInd("y", Not(RelAtom("p", ("y",))))),
        )
        s = CourcelleSolver(sentence, psig, width=1, backend=backend)
        mixed = Structure(psig, [0, 1, 2], {"p": {(0,)}})
        empty = Structure(psig, [0, 1, 2], {"p": set()})
        assert s.decide(mixed) == evaluate(mixed, sentence) is True
        assert s.decide(empty) == evaluate(empty, sentence) is False

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                backend="quantum",
            )
