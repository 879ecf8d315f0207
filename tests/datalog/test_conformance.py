"""Cross-backend differential conformance suite.

Hypothesis generates random stratified programs (a dedicated monadic
strategy plus the shared mixed-arity one) and random extensional
databases, and asserts that every route to the least model lands on the
*same* model:

* ``semi-naive`` derives the ``naive`` oracle's relation for every
  intensional predicate;
* ``magic`` with an all-free query derives the full extent of the
  queried predicate;
* the Theorem 4.4 quasi-guarded pipeline -- the streamed+pruned
  production form and the eager form -- agrees with ``naive`` whenever
  the program is in its fragment (groundable guard-first), and
  demand-pruned streaming is exact on the demanded predicate;
* interning round-trips: decoding an interned database and re-interning
  it is the identity on relations, and the interned grounding -> horn
  boundary carries *only* dense integer ids (no raw-value tuples);
* ``CourcelleSolver.solve_many`` returns identical results for 1
  worker and a multiprocessing pool, in input order;
* compiled Theorem 4.5 queries answer exactly as direct MSO evaluation
  on every backend, folded or not, minimized or not.

CI runs this file through a dedicated gate step that fails if it is
skipped or collects zero tests, so a conftest regression can't silently
turn the suite off.
"""

from hypothesis import given, strategies as st

from repro.datalog import (
    Atom,
    Constant,
    CostModel,
    GroundingStats,
    InternPool,
    Literal,
    MagicSetBackend,
    NotGroundableError,
    PlanProfile,
    Program,
    ProgramCache,
    Rule,
    SetDatabase,
    Variable,
    evaluate_via_grounding,
    ground_program_ids,
    ground_program_streamed,
    horn_least_model_ids,
    is_magic_predicate,
    normalize_query,
    prepare_grounding,
    prepare_program,
    solve,
)
from repro.datalog.setengine import SetSemiNaiveEvaluator

from ..conftest import (
    EDB_ARITIES,
    DATALOG_DOMAIN,
    TC_TEXT,
    chain_edges,
    datalog_databases,
    datalog_programs,
)

#: the reference first: every other backend is compared against it
FULL_BACKENDS = ("naive", "semi-naive")

_VARS = [Variable(n) for n in ("X", "Y", "Z")]
_MONADIC_IDB = {"q": 1, "r": 1}


@st.composite
def monadic_programs(draw, max_rules: int = 5):
    """Random safe, stratified *monadic* programs: every IDB predicate
    is unary (the paper's fragment), EDB atoms may be wider."""
    rules = []
    all_preds = {**EDB_ARITIES, **_MONADIC_IDB}
    for _ in range(draw(st.integers(min_value=1, max_value=max_rules))):
        body: list[Literal] = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pred = draw(st.sampled_from(sorted(all_preds)))
            args = tuple(
                draw(st.sampled_from(_VARS))
                for _ in range(all_preds[pred])
            )
            body.append(Literal(Atom(pred, args)))
        bound = sorted(
            {a for lit in body for a in lit.atom.args},
            key=lambda v: v.name,
        )
        if draw(st.booleans()):  # optional negated EDB literal
            pred = draw(st.sampled_from(sorted(EDB_ARITIES)))
            args = tuple(
                draw(
                    st.one_of(
                        st.sampled_from(bound),
                        st.sampled_from(DATALOG_DOMAIN).map(Constant),
                    )
                )
                for _ in range(EDB_ARITIES[pred])
            )
            body.append(Literal(Atom(pred, args), positive=False))
        head_pred = draw(st.sampled_from(sorted(_MONADIC_IDB)))
        head_arg = draw(
            st.one_of(
                st.sampled_from(bound),
                st.sampled_from(DATALOG_DOMAIN).map(Constant),
            )
        )
        rules.append(Rule(Atom(head_pred, (head_arg,)), tuple(body)))
    return Program(rules)


def _derived_relations(db, program):
    return {
        predicate: db.relation(predicate)
        for predicate in program.intensional_predicates()
    }


def _naive_facts(program, db):
    """The ``naive`` oracle's derived facts, as the grounding pipelines
    decode them."""
    from repro.structures.structure import Fact

    model = solve(program, db, backend="naive")
    return {
        Fact(predicate, args)
        for predicate in program.intensional_predicates()
        for args in model.relation(predicate)
    }


def _groundable(program):
    """The prepared grounding if the program is in the Theorem 4.4
    fragment (orderable guard-first, no negated IDB), else None."""
    try:
        return prepare_grounding(program)
    except NotGroundableError:
        return None


class TestFullFixpointAgreement:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_monadic_backends_agree(self, program, db):
        cache = ProgramCache()
        reference = None
        for backend in FULL_BACKENDS:
            rels = _derived_relations(
                solve(program, db, backend=backend, cache=cache), program
            )
            if reference is None:
                reference = rels
            else:
                assert rels == reference, backend

    @given(program=datalog_programs(), db=datalog_databases())
    def test_mixed_arity_backends_agree(self, program, db):
        cache = ProgramCache()
        reference = None
        for backend in FULL_BACKENDS:
            rels = _derived_relations(
                solve(program, db, backend=backend, cache=cache), program
            )
            if reference is None:
                reference = rels
            else:
                assert rels == reference, backend

    @given(program=monadic_programs(), db=datalog_databases(), data=st.data())
    def test_magic_all_free_query_matches_full_extent(
        self, program, db, data
    ):
        cache = ProgramCache()
        reference = solve(program, db, backend="semi-naive", cache=cache)
        predicate = data.draw(
            st.sampled_from(sorted(program.intensional_predicates())),
            label="query predicate",
        )
        goal = solve(
            program, db, backend="magic", query=predicate, cache=cache
        )
        assert goal.relation(predicate) == reference.relation(predicate)


class TestQuasiGuardedAgreement:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_eager_pipeline_matches_naive(self, program, db):
        prepared = _groundable(program)
        if prepared is None:
            return  # outside the Theorem 4.4 fragment; nothing to check
        facts = evaluate_via_grounding(program, db, prepared=prepared)
        assert facts == _naive_facts(program, db)

    @given(program=monadic_programs(), db=datalog_databases())
    def test_no_raw_tuples_cross_the_grounding_horn_boundary(
        self, program, db
    ):
        """The grounding pipeline's rule stream is pure dense ids, and
        the Horn model over those ids decodes to the ``naive`` model."""
        prepared = _groundable(program)
        if prepared is None:
            return
        sdb = SetDatabase.from_edb(db)
        pool = InternPool(sdb.interner)
        rules = ground_program_ids(prepared, sdb, pool)
        for head, body in rules:
            assert type(head) is int
            assert all(type(b) is int for b in body)
        flags = horn_least_model_ids(rules, len(pool))
        decoded = {
            pool.decode_atom(i) for i, flag in enumerate(flags) if flag
        }
        assert decoded == _naive_facts(program, db)


class TestStreamedGroundingAgreement:
    """The streamed, demand-pruned emitter derives exactly the eager
    pipeline's model -- the tentpole differential of PR 4."""

    @given(program=monadic_programs(), db=datalog_databases())
    def test_streamed_matches_eager(self, program, db):
        prepared = _groundable(program)
        if prepared is None:
            return  # outside the Theorem 4.4 fragment; nothing to check
        sdb = SetDatabase.from_edb(db)
        pool = InternPool(sdb.interner)
        rules = ground_program_ids(prepared, sdb, pool)
        flags = horn_least_model_ids(rules, len(pool))
        eager = {pool.decode_atom(i) for i, f in enumerate(flags) if f}

        sdb2 = SetDatabase.from_edb(db)
        pool2 = InternPool(sdb2.interner)
        stats = GroundingStats()
        sink = ground_program_streamed(prepared, sdb2, pool2, stats=stats)
        streamed = {
            pool2.decode_atom(i)
            for i, f in enumerate(sink.flags(len(pool2)))
            if f
        }
        assert streamed == eager
        # streaming never *instantiates* more than the eager ground
        # program holds (it may re-derive an instance per driver event,
        # but only for supported bindings)
        assert stats.ground_rules <= len(rules)

    @given(program=monadic_programs(), db=datalog_databases(), data=st.data())
    def test_demand_pruned_streaming_is_exact_on_the_demanded_predicate(
        self, program, db, data
    ):
        prepared = _groundable(program)
        if prepared is None:
            return
        predicate = data.draw(
            st.sampled_from(sorted(program.intensional_predicates())),
            label="demanded predicate",
        )
        eager = evaluate_via_grounding(program, db, prepared=prepared)
        sdb = SetDatabase.from_edb(db)
        pool = InternPool(sdb.interner)
        sink = ground_program_streamed(
            prepared, sdb, pool, demand=predicate
        )
        flags = sink.flags(len(pool))
        streamed = {
            pool.decode_atom(i) for i, f in enumerate(flags) if f
        }
        want = {f for f in eager if f.predicate == predicate}
        got = {f for f in streamed if f.predicate == predicate}
        assert got == want
        # everything derived sits inside the relevance cone, never more
        assert streamed <= eager


class TestReplannedConformance:
    """The PR 8 differential: the profile -> replan -> re-index loop is
    observation-preserving.  A profile recorded from a static run feeds
    the cost model; the replanned (and minimally indexed) plans must
    derive exactly the static model on every route -- the set engine
    with and without shared lex indexes, the magic rewrite whose SIPS
    follows the replanned order, and both quasi-guarded modes."""

    @staticmethod
    def _profiled_reference(program, db):
        profile = PlanProfile()
        evaluator = SetSemiNaiveEvaluator(
            program, profile=profile, apply_index_selection=False
        )
        reference = _derived_relations(evaluator.evaluate(db), program)
        return profile, reference

    @given(program=monadic_programs(), db=datalog_databases())
    def test_replanned_set_engine_matches_static(self, program, db):
        profile, reference = self._profiled_reference(program, db)
        replanned = prepare_program(program, cost=CostModel(profile))
        with_selection = _derived_relations(
            SetSemiNaiveEvaluator.from_prepared(replanned).evaluate(db),
            program,
        )
        assert with_selection == reference
        without_selection = _derived_relations(
            SetSemiNaiveEvaluator.from_prepared(
                replanned, apply_index_selection=False
            ).evaluate(db),
            program,
        )
        assert without_selection == reference

    @given(program=monadic_programs(), db=datalog_databases(), data=st.data())
    def test_replanned_magic_matches_full_extent(self, program, db, data):
        profile, reference = self._profiled_reference(program, db)
        predicate = data.draw(
            st.sampled_from(sorted(program.intensional_predicates())),
            label="query predicate",
        )
        rewrite, prepared = ProgramCache().magic(
            program, normalize_query(program, predicate), profile=profile
        )
        derived = SetSemiNaiveEvaluator.from_prepared(prepared).evaluate(db)
        assert (
            derived.relation(rewrite.answer_predicate)
            == reference[predicate]
        )

    @given(program=monadic_programs(), db=datalog_databases())
    def test_replanned_quasi_guarded_modes_match_static(self, program, db):
        from repro.core import QuasiGuardedEvaluator

        profile, reference = self._profiled_reference(program, db)
        for mode in ("streamed", "eager"):
            try:
                evaluator = QuasiGuardedEvaluator(
                    program,
                    mode=mode,
                    replan=profile,
                    require_quasi_guarded=False,
                    cache=ProgramCache(),
                )
            except NotGroundableError:
                return  # outside the Theorem 4.4 fragment: nothing to pin
            facts = evaluator.evaluate(db).facts
            for predicate, want in reference.items():
                assert {
                    f.args for f in facts if f.predicate == predicate
                } == want, (mode, predicate)


class TestSolveManySharding:
    """solve_many: deterministic order, worker-count-invariant."""

    @classmethod
    def _solver(cls):
        solver = getattr(cls, "_cached_solver", None)
        if solver is None:
            from repro.core import CourcelleSolver, undirected_graph_filter
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            solver = CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
            )
            cls._cached_solver = solver
        return solver

    @classmethod
    def _structures(cls):
        import random

        from repro.problems import random_tree_graph
        from repro.structures import Graph, graph_to_structure

        rng = random.Random(0xD15C)
        graphs = [Graph.path(5), Graph.path(9)] + [
            random_tree_graph(rng, rng.randint(4, 12)) for _ in range(4)
        ]
        return [graph_to_structure(g) for g in graphs]

    def test_one_worker_matches_sequential_solves(self):
        solver = self._solver()
        structures = self._structures()
        batch = solver.solve_many(structures, workers=1)
        assert batch == [solver.query(s) for s in structures]

    def test_pool_results_identical_and_in_input_order(self):
        solver = self._solver()
        structures = self._structures()
        serial = solver.solve_many(structures, workers=1)
        sharded = solver.solve_many(structures, workers=2)
        assert serial == sharded
        # order is positional: a permuted input permutes the output
        reordered = solver.solve_many(list(reversed(structures)), workers=2)
        assert reordered == list(reversed(serial))

    def test_mismatched_tds_rejected(self):
        import pytest

        solver = self._solver()
        structures = self._structures()
        with pytest.raises(ValueError, match="decompositions"):
            solver.solve_many(structures, tds=[None])


class TestInterningRoundTrip:
    @given(program=monadic_programs(), db=datalog_databases())
    def test_decode_then_reintern_is_identity(self, program, db):
        evaluated = SetSemiNaiveEvaluator(program).run(
            SetDatabase.from_edb(db)
        )
        decoded = evaluated.decode()
        reinterned = SetDatabase.from_edb(decoded)
        assert {
            p: reinterned.decode_relation(p)
            for p in decoded.predicates()
        } == {p: decoded.relation(p) for p in decoded.predicates()}

    @given(db=datalog_databases())
    def test_interner_ids_round_trip(self, db):
        sdb = SetDatabase.from_edb(db)
        interner = sdb.interner
        for ident in range(len(interner)):
            assert interner.id_of(interner.value_of(ident)) == ident


class TestMagicStaysInterned:
    """The demand sets of the magic backend live as bitsets inside the
    set engine and the decode happens exactly once, at the very end."""

    def test_magic_decodes_exactly_once(self, monkeypatch):
        from repro.datalog import atom, const, parse_program, var
        import repro.datalog.setengine as setengine

        decodes = []
        original = setengine.SetDatabase.decode

        def counting(self):
            decodes.append(self)
            return original(self)

        monkeypatch.setattr(setengine.SetDatabase, "decode", counting)
        tc = parse_program(TC_TEXT)
        MagicSetBackend().evaluate(
            tc, chain_edges(12), query=atom("path", const(0), var("Y"))
        )
        assert len(decodes) == 1

    def test_magic_demand_predicates_are_bitsets(self):
        from repro.datalog import atom, const, parse_program, var

        tc = parse_program(TC_TEXT)
        sdb = MagicSetBackend().evaluate_interned(
            tc, chain_edges(12), query=atom("path", const(0), var("Y"))
        )
        magic_preds = [
            p for p in sdb.decode().predicates() if is_magic_predicate(p)
        ]
        assert magic_preds
        for predicate in magic_preds:
            rel = sdb.relation(predicate)
            arities = {len(args) for args in rel}
            assert arities <= {0, 1}  # demand is nullary or unary
            if arities == {1}:
                # the unary demand set is mirrored as a bitset
                assert sdb.bits(predicate) == sum(
                    1 << args[0] for args in rel
                )


class TestCompiledWidth2Conformance:
    """The Theorem 4.5 width-2 envelope, differentially verified.

    The ``has_neighbor`` query compiled at width 2 relative to the grid
    class (``grid_graph_filter``) must agree with *direct MSO
    evaluation* on ladder grids and on random small in-class
    structures, and with the hand-written ``A_td`` cover DP on the
    ladder's encoding -- the compiled program is the production route
    the grid solver benchmark now takes, so its answers are pinned
    here as well as in the benchmark gates.
    """

    _SOLVER_CACHE: list = []

    @classmethod
    def _solver(cls):
        # one compile per test session: the width-2 fixpoint is the
        # expensive part (seconds), every solve afterwards is cheap
        if not cls._SOLVER_CACHE:
            from repro.core import CourcelleSolver, grid_graph_filter
            from repro.mso import formulas
            from repro.structures import GRAPH_SIGNATURE

            cls._SOLVER_CACHE.append(
                CourcelleSolver(
                    formulas.has_neighbor("x"),
                    GRAPH_SIGNATURE,
                    width=2,
                    free_var="x",
                    structure_filter=grid_graph_filter,
                )
            )
        return cls._SOLVER_CACHE[0]

    def test_ladder_matches_direct_mso_and_cover_dp(self):
        from repro.bench import atd_cover_program
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog.guards import td_key_dependencies
        from repro.mso import formulas, query as mso_query
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import (
            decompose_structure,
            encode_normalized,
            normalize,
        )

        structure = graph_to_structure(Graph.grid(2, 7))
        td = decompose_structure(structure)
        assert td.width == 2  # the ladder is the width-2 grid family
        want = mso_query(structure, formulas.has_neighbor("x"), "x")
        assert self._solver().query(structure, td) == want
        encoded = encode_normalized(structure, normalize(td))
        dp = QuasiGuardedEvaluator(
            atd_cover_program(td.width + 2),
            dependencies=td_key_dependencies(td.width + 2),
        )
        assert dp.evaluate(encoded).unary_answers("covered") == want

    def test_random_grid_class_structures_match_direct_mso(self):
        import random

        from repro.core import grid_graph_filter
        from repro.mso import formulas, query as mso_query
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_structure

        solver = self._solver()
        rng = random.Random(0x5EED)
        checked = 0
        while checked < 12:
            n = rng.randint(2, 8)
            g = Graph(range(n))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.35:
                        g.add_edge(u, v)
            structure = graph_to_structure(g)
            if not grid_graph_filter(structure):
                continue
            if decompose_structure(structure).width > 2:
                continue
            want = mso_query(structure, formulas.has_neighbor("x"), "x")
            assert solver.query(structure) == want
            checked += 1

    def test_minimized_program_matches_unminimized(self):
        """Type minimization is an observation-preserving congruence:
        the class-level program and the one-predicate-per-type program
        must answer identically."""
        import random

        from repro.core import (
            CourcelleSolver,
            undirected_graph_filter,
        )
        from repro.mso import formulas
        from repro.problems import random_tree_graph
        from repro.structures import GRAPH_SIGNATURE, graph_to_structure

        minimized = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
        )
        unminimized = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            minimize=False,
            passes=(),  # the raw one-predicate-per-type ablation
        )
        assert len(minimized.compiled.program) < len(
            unminimized.compiled.program
        )
        rng = random.Random(0xABCD)
        for _ in range(6):
            structure = graph_to_structure(
                random_tree_graph(rng, rng.randint(2, 14))
            )
            assert minimized.query(structure) == unminimized.query(
                structure
            )

    def test_shrinking_passes_match_unoptimized(self):
        """Every route is conformance-pinned to direct MSO evaluation:
        the production solver on each evaluation backend, plus the
        fold-free (``passes=()``) and fully unoptimized solvers, must
        answer identically on random in-class structures."""
        import random

        from repro.core import (
            CourcelleSolver,
            undirected_graph_filter,
        )
        from repro.mso import formulas, query as mso_query
        from repro.problems import random_tree_graph
        from repro.structures import GRAPH_SIGNATURE, graph_to_structure

        def solver(**kw):
            return CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                **kw,
            )

        production = solver()  # streamed, folded
        variants = [
            production,
            *(
                production.with_backend(backend)
                for backend in (
                    "quasi-guarded-eager",
                    "naive",
                    "semi-naive",
                    "magic",
                )
            ),
            solver(passes=()),  # folding ablated
            solver(minimize=False, passes=()),  # fully unoptimized
        ]
        rng = random.Random(0xF01D)
        for _ in range(6):
            structure = graph_to_structure(
                random_tree_graph(rng, rng.randint(2, 14))
            )
            want = mso_query(structure, formulas.has_neighbor("x"), "x")
            for v in variants:
                assert v.query(structure) == want, (v.backend_name, v.passes)
