"""End-to-end regression tests for the fully interned solve pipeline.

The quasi-guarded backends of :class:`CourcelleSolver` thread one
shared intern pool from structure load through grounding, unit
resolution, and (lazy) answer decoding.  These tests pin down that
interning changes *nothing observable* -- ``unary_answers`` on
3-coloring and primality instances equal direct MSO evaluation and
the elements of the schema structure -- and that there is exactly one
interning context per solve.

Scope note: the generic Theorem 4.5 compiler's practical envelope is
width 1 (wider signatures blow past its witness limits), so the
3-coloring instances run through compiled MSO queries on width-1
partial k-trees, and the primality instances -- whose schema structures
have width 2 over the richer ``SCHEMA_SIGNATURE`` -- run a Figure-style
quasi-guarded program over their ``A_td`` encoding directly.
"""

import random

import pytest

from repro.bench import atd_cover_program
from repro.core import (
    ANSWER_PREDICATE,
    CourcelleSolver,
    QuasiGuardedEvaluator,
    undirected_graph_filter,
)
from repro.datalog import td_key_dependencies
from repro.mso import formulas, query as direct_query
from repro.problems import random_partial_ktree
from repro.structures import (
    GRAPH_SIGNATURE,
    RelationalSchema,
    graph_to_structure,
    running_example,
)
from repro.treewidth import decompose_structure, encode_normalized, normalize


class TestThreeColoringInstances:
    """3-coloring instances (random partial k-trees, the graphs the
    3-coloring suite runs on) through the full CourcelleSolver."""

    @pytest.mark.parametrize("formula_name", ["has_neighbor", "isolated"])
    def test_unary_answers_identical_before_and_after_interning(
        self, formula_name
    ):
        formula = getattr(formulas, formula_name)("x")
        solvers = {
            backend: CourcelleSolver(
                formula,
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                backend=backend,
            )
            for backend in ("quasi-guarded", "quasi-guarded-eager")
        }
        rng = random.Random(0x3C01)
        for _ in range(4):
            graph, td = random_partial_ktree(rng, rng.randint(3, 9), 1)
            s = graph_to_structure(graph)
            streamed = solvers["quasi-guarded"].query(s, td)
            eager = solvers["quasi-guarded-eager"].query(s, td)
            assert streamed == eager == direct_query(s, formula, "x")


class TestPrimalityInstances:
    """Primality instances (relational schema structures, width 2) via
    the quasi-guarded pipeline over their ``A_td`` encoding."""

    SCHEMAS = [
        running_example(),
        RelationalSchema.parse("R = abcd; a -> b, b -> c, c -> d"),
        RelationalSchema.parse("R = abcde; ab -> c, cd -> e, e -> a"),
    ]

    @pytest.mark.parametrize(
        "schema", SCHEMAS, ids=lambda s: "".join(s.attributes)
    )
    def test_unary_answers_identical_before_and_after_interning(
        self, schema
    ):
        structure = schema.to_structure()
        td = decompose_structure(structure)
        encoded = encode_normalized(structure, normalize(td))
        program = atd_cover_program(td.width + 2)
        dependencies = td_key_dependencies(td.width + 2)
        for mode in ("streamed", "eager"):
            evaluator = QuasiGuardedEvaluator(
                program, dependencies=dependencies, mode=mode
            )
            result = evaluator.evaluate(encoded)
            assert result.holds("ok")
            # every element of the schema structure occurs in some bag
            assert result.unary_answers("covered") == frozenset(
                structure.domain
            )


class TestOneInternPoolPerSolve:
    """The tentpole invariant: one shared interning context per solve,
    and decoding never re-interns."""

    @pytest.fixture()
    def solver(self):
        return CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )

    def test_pool_and_interner_created_once_per_solve(
        self, solver, monkeypatch
    ):
        import repro.datalog.interning as interning
        import repro.datalog.setengine as setengine

        pools = []
        original_pool_init = interning.InternPool.__init__

        def counting_pool_init(self, interner=None):
            original_pool_init(self, interner)
            pools.append(self)

        monkeypatch.setattr(
            interning.InternPool, "__init__", counting_pool_init
        )

        loads = []
        original_from_edb = setengine.SetDatabase.from_edb.__func__

        def counting_from_edb(cls, edb):
            db = original_from_edb(cls, edb)
            loads.append(db)
            return db

        monkeypatch.setattr(
            setengine.SetDatabase,
            "from_edb",
            classmethod(counting_from_edb),
        )

        from repro.structures import Graph

        s = graph_to_structure(Graph.path(6))
        assert solver.query(s) == frozenset(range(6))
        assert len(pools) == 1, "expected exactly one InternPool per solve"
        assert len(loads) == 1, "expected exactly one interning load"
        assert pools[0].interner is loads[0].interner

    def test_decoding_never_reinterns(self, solver):
        from repro.structures import Graph

        s = graph_to_structure(Graph.path(5))
        encoded = solver._prepare(s, None)
        result = solver.evaluator.evaluate(encoded)
        pool = result.pool
        assert pool is not None
        values_before, atoms_before = len(pool.interner), len(pool)
        # decode every way the result can be read
        result.unary_answers(ANSWER_PREDICATE)
        result.holds(ANSWER_PREDICATE, 0)
        result.holds(ANSWER_PREDICATE, "never-interned")
        _ = result.facts
        assert len(pool.interner) == values_before
        assert len(pool) == atoms_before
