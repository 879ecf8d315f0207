"""The compiled-program cache: hits, misses, isolation."""

from repro.datalog import (
    BuiltinRegistry,
    Database,
    ProgramCache,
    atom,
    const,
    default_cache,
    make_check,
    parse_program,
    program_fingerprint,
    solve,
    var,
)

from ..conftest import TC_TEXT, chain_edges as chain_db


class TestFingerprint:
    def test_reparsed_program_same_fingerprint(self):
        assert program_fingerprint(parse_program(TC_TEXT)) == (
            program_fingerprint(parse_program(TC_TEXT))
        )

    def test_changed_program_different_fingerprint(self):
        other = parse_program(TC_TEXT + "\nloop(X) :- path(X, X).")
        assert program_fingerprint(parse_program(TC_TEXT)) != (
            program_fingerprint(other)
        )


class TestFingerprintCollisions:
    """str()-alike programs must not share cache entries."""

    def test_constant_type_distinguished(self):
        from repro.datalog import Atom, Constant, Literal, Program, Rule, Variable

        X = Variable("X")
        int_zero = Program(
            [Rule(Atom("q", (X,)), (Literal(Atom("edge", (X, Constant(0)))),))]
        )
        str_zero = Program(
            [Rule(Atom("q", (X,)), (Literal(Atom("edge", (X, Constant("0")))),))]
        )
        assert program_fingerprint(int_zero) != program_fingerprint(str_zero)
        db = Database()
        db.add("edge", (1, "0"))
        db.add("edge", (2, 0))
        cache = ProgramCache()
        assert solve(int_zero, db, cache=cache).relation("q") == {(2,)}
        assert solve(str_zero, db, cache=cache).relation("q") == {(1,)}

    def test_variable_vs_constant_query_key(self):
        from repro.datalog import Atom, Constant, Literal, Program, Rule, Variable

        X = Variable("X")
        program = Program(
            [Rule(Atom("q", (X,)), (Literal(Atom("edge", (X, Variable("A")))),))]
        )
        db = Database()
        db.add("edge", (1, "x"))
        cache = ProgramCache()
        free = solve(
            program, db, backend="magic",
            query=Atom("q", (Variable("A"),)), cache=cache,
        )
        bound = solve(
            program, db, backend="magic",
            query=Atom("q", (Constant("A"),)), cache=cache,
        )
        assert free.relation("q") == {(1,)}
        assert bound.relation("q") == set()


class TestCacheHits:
    def test_resolve_different_structure_hits(self):
        """Same program text, new Program object, new structure: the
        planning work is reused, only the data half re-runs."""
        cache = ProgramCache()
        first = solve(
            parse_program(TC_TEXT), chain_db(5), backend="semi-naive",
            cache=cache,
        )
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = solve(
            parse_program(TC_TEXT), chain_db(9), backend="semi-naive",
            cache=cache,
        )
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert len(first.relation("path")) == 5 * 4 // 2
        assert len(second.relation("path")) == 9 * 8 // 2

    def test_magic_rewrite_cached_per_query(self):
        cache = ProgramCache()
        query = atom("path", const(0), var("Y"))
        for n in (4, 7, 11):
            solve(
                parse_program(TC_TEXT), chain_db(n), backend="magic",
                query=query, cache=cache,
            )
        assert cache.stats.misses == 1 and cache.stats.hits == 2
        # a different binding pattern is a different rewrite
        solve(
            parse_program(TC_TEXT), chain_db(4), backend="magic",
            query="path", cache=cache,
        )
        assert cache.stats.misses == 2

    def test_program_change_misses(self):
        cache = ProgramCache()
        solve(parse_program(TC_TEXT), chain_db(4), cache=cache)
        solve(
            parse_program(TC_TEXT + "\nloop(X) :- path(X, X)."),
            chain_db(4),
            cache=cache,
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_eviction_is_bounded(self):
        cache = ProgramCache(maxsize=1)
        solve(parse_program(TC_TEXT), chain_db(4), cache=cache)
        solve(
            parse_program("p(X) :- edge(X, Y)."), chain_db(4), cache=cache
        )
        assert len(cache) == 1
        assert cache.stats.evictions == 1


class TestNoCrossContamination:
    def test_interleaved_programs_keep_their_answers(self):
        cache = ProgramCache()
        forward = parse_program("next(X, Y) :- edge(X, Y).")
        backward = parse_program("next(X, Y) :- edge(Y, X).")
        db = Database()
        db.add("edge", (1, 2))
        for _ in range(2):
            assert solve(forward, db, cache=cache).relation("next") == {
                (1, 2)
            }
            assert solve(backward, db, cache=cache).relation("next") == {
                (2, 1)
            }
        assert cache.stats.hits == 2 and cache.stats.misses == 2

    def test_same_named_builtins_different_semantics_do_not_collide(self):
        """Registries enter the key by identity: primality_registry-
        style schema-specific built-ins must not share plans/results."""
        program_text = "even(X) :- node(X), test(X)."
        db = Database()
        for i in range(6):
            db.add("node", (i,))
        cache = ProgramCache()

        def registry_with(test):
            registry = BuiltinRegistry()
            registry.register(make_check("test", 1, test))
            return registry

        evens = solve(
            parse_program(program_text),
            db,
            cache=cache,
            registry=registry_with(lambda x: x % 2 == 0),
        )
        odds = solve(
            parse_program(program_text),
            db,
            cache=cache,
            registry=registry_with(lambda x: x % 2 == 1),
        )
        assert evens.relation("even") == {(0,), (2,), (4,)}
        assert odds.relation("even") == {(1,), (3,), (5,)}
        assert cache.stats.misses == 2

    def test_evaluations_do_not_leak_facts_between_structures(self):
        cache = ProgramCache()
        program = parse_program(TC_TEXT)
        solve(program, chain_db(9), cache=cache)
        small = solve(program, chain_db(3), cache=cache)
        assert small.relation("path") == {(0, 1), (1, 2), (0, 2)}


class TestGroundingCache:
    def test_quasi_guarded_evaluators_share_plans(self):
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog import td_key_dependencies

        program = parse_program(
            """
            solve(V) :- leaf(V).
            solve(V) :- child1(V, W), solve(W).
            """
        )
        deps = td_key_dependencies(1)
        cache = ProgramCache()
        QuasiGuardedEvaluator(program, dependencies=deps, cache=cache)
        assert cache.stats.misses == 1
        QuasiGuardedEvaluator(program, dependencies=deps, cache=cache)
        assert cache.stats.hits == 1

    def test_sink_predicates_are_always_deferred(self):
        """Every prepared grounding marks the program's sink predicates
        (heads no rule body reads) for the fire-once epilogue; there is
        one cache entry per program, and a repeat hits it."""
        from repro.core import QuasiGuardedEvaluator
        from repro.datalog import td_key_dependencies

        program = parse_program(
            """
            solve(V) :- leaf(V).
            solve(V) :- child1(V, W), solve(W).
            top(V) :- leaf(V), solve(V).
            """
        )
        deps = td_key_dependencies(1)
        cache = ProgramCache()
        first = QuasiGuardedEvaluator(program, dependencies=deps, cache=cache)
        assert cache.stats.misses == 1
        assert first._prepared.deferred == frozenset({"top"})
        again = QuasiGuardedEvaluator(program, dependencies=deps, cache=cache)
        assert cache.stats.hits == 1
        assert again._prepared is first._prepared

    def test_differently_optimized_solvers_share_one_cache(self):
        """Folded and fold-free solver variants cached side by side
        answer identically: their programs have different fingerprints,
        and clones via with_backend keep the variant's own program (the
        regression for pass-config fingerprinting)."""
        from repro.core import CourcelleSolver, undirected_graph_filter
        from repro.mso import formulas
        from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure

        cache = ProgramCache()

        def build(passes):
            return CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=1,
                free_var="x",
                structure_filter=undirected_graph_filter,
                cache=cache,
                passes=passes,
            )

        optimized = build(None)
        ablated = build(())
        assert optimized.passes == ("fold",) and ablated.passes == ()
        structure = graph_to_structure(Graph.path(6))
        want = optimized.query(structure)
        assert ablated.query(structure) == want
        # backend clones inherit their parent's pass configuration and
        # answer the same; nothing leaks across the shared cache
        assert optimized.with_backend("semi-naive").query(structure) == want
        assert ablated.with_backend("semi-naive").query(structure) == want
        assert optimized.query(structure) == want
        assert ablated.query(structure) == want


class TestDefaultCache:
    def test_default_cache_is_shared(self):
        assert default_cache() is default_cache()


class TestThreadSafety:
    """The PR 6 race-regression suite.

    The solver service's scheduler/collector threads turned the
    previously latent single-threaded assumptions of ``ProgramCache``
    into real races: unlocked ``OrderedDict`` mutation, unaccounted
    double builds, torn LRU state.  These tests fail under the
    pre-lock implementation (no ``duplicate_builds`` accounting, and
    the lookup/build ledger below does not balance) and must keep
    passing under the locked one.
    """

    def test_concurrent_cold_lookups_balance_the_ledger(self):
        import threading
        import time

        cache = ProgramCache()
        build_calls = []
        start = threading.Event()
        keys = [("race", i) for i in range(4)]
        threads_per_key = 5
        returned = []

        def build_for(key):
            def build():
                build_calls.append(key)
                time.sleep(0.01)  # widen the miss->insert window
                return ("entry", key)

            return build

        def worker(key):
            start.wait()
            for _ in range(10):
                returned.append((key, cache._get_or_build(key, build_for(key))))

        threads = [
            threading.Thread(target=worker, args=(key,))
            for key in keys
            for _ in range(threads_per_key)
        ]
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()

        # every lookup observed exactly one winning entry per key
        for key, entry in returned:
            assert entry == ("entry", key)
        assert len(cache) == len(keys)
        # the ledger: every lookup is a hit or a miss ...
        total = len(keys) * threads_per_key * 10
        assert cache.stats.lookups == total
        # ... and every build beyond one-per-key was detected, counted,
        # and discarded (pre-lock: extra builds went unreported and
        # this identity does not hold)
        assert len(build_calls) == len(keys) + cache.stats.duplicate_builds
        assert cache.stats.misses == len(build_calls)
        assert cache.stats.hits == total - len(build_calls)

    def test_concurrent_eviction_churn_keeps_the_cache_bounded(self):
        import threading

        cache = ProgramCache(maxsize=3)
        start = threading.Event()
        errors = []

        def worker(seed):
            start.wait()
            try:
                for i in range(200):
                    key = ("churn", (seed * 7 + i) % 11)
                    entry = cache._get_or_build(key, lambda k=key: ("e", k))
                    assert entry == ("e", key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 3
        assert cache.stats.evictions > 0

    def test_concurrent_solves_share_one_plan(self):
        import threading

        cache = ProgramCache()
        start = threading.Event()
        results = []

        def worker(n):
            start.wait()
            results.append(
                len(
                    solve(
                        parse_program(TC_TEXT),
                        chain_db(n),
                        backend="semi-naive",
                        cache=cache,
                    ).relation("path")
                )
            )

        sizes = [4, 5, 6, 7]
        threads = [
            threading.Thread(target=worker, args=(n,)) for n in sizes
        ]
        for thread in threads:
            thread.start()
        start.set()
        for thread in threads:
            thread.join()
        assert sorted(results) == [n * (n - 1) // 2 for n in sizes]
        # one program text: exactly one cached plan survives, and the
        # stats ledger closes over all four solves
        assert len(cache) == 1
        assert cache.stats.lookups == len(sizes)
        assert (
            cache.stats.misses == 1 + cache.stats.duplicate_builds
        )
