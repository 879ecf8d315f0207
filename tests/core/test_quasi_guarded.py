"""Tests for the Theorem 4.4 evaluation pipeline."""

import pytest

from repro.core import QuasiGuardedEvaluator
from repro.datalog import Database, naive_least_fixpoint, parse_program


def tree_db():
    db = Database()
    db.add("root", ("n0",))
    db.add("leaf", ("n2",))
    db.add("child1", ("n1", "n0"))
    db.add("child1", ("n2", "n1"))
    db.add("bag", ("n0", "a", "b"))
    db.add("bag", ("n1", "b", "c"))
    db.add("bag", ("n2", "c", "d"))
    db.add("e", ("c", "d"))
    return db


PROG = parse_program(
    """
    t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
    t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
    ok :- root(V), t(V).
    """
)


class TestEvaluator:
    def test_requires_quasi_guardedness(self):
        tc = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        with pytest.raises(ValueError, match="quasi-guarded"):
            QuasiGuardedEvaluator(tc, bag_arity=3)

    def test_check_can_be_disabled(self):
        tc = parse_program("path(X, Y) :- edge(X, Y).")
        QuasiGuardedEvaluator(tc, require_quasi_guarded=False)

    def test_matches_semi_naive(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        reference = naive_least_fixpoint(PROG, tree_db())
        for predicate in ("t", "ok"):
            assert {
                f.args for f in result.facts if f.predicate == predicate
            } == reference.relation(predicate)

    def test_result_api(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        assert result.holds("ok")
        assert result.holds("t", "n1")
        assert not result.holds("t", "missing")
        assert result.unary_answers("t") == frozenset({"n0", "n1", "n2"})
        assert result.ground_rules == 4

    def test_streamed_and_eager_modes_agree(self):
        streamed = QuasiGuardedEvaluator(PROG, bag_arity=3).evaluate(
            tree_db()
        )
        eager = QuasiGuardedEvaluator(
            PROG, bag_arity=3, mode="eager"
        ).evaluate(tree_db())
        assert streamed.facts == eager.facts
        assert streamed.unary_answers("t") == eager.unary_answers("t")
        # on this fully-live program the streamed emitter instantiates
        # no more than the eager ground program
        assert streamed.ground_rules <= eager.ground_rules

    def test_default_mode_is_streamed(self):
        assert QuasiGuardedEvaluator(PROG, bag_arity=3).mode == "streamed"
        with pytest.raises(ValueError, match="unknown mode"):
            QuasiGuardedEvaluator(PROG, bag_arity=3, mode="raw")

    def test_demand_requires_streamed_mode(self):
        with pytest.raises(ValueError, match="streamed"):
            QuasiGuardedEvaluator(
                PROG, bag_arity=3, mode="eager", demand="ok"
            )

    def test_demand_pruned_solve_is_exact_on_the_demanded_cone(self):
        demanded = QuasiGuardedEvaluator(
            PROG, bag_arity=3, demand="ok"
        ).evaluate(tree_db())
        full = QuasiGuardedEvaluator(PROG, bag_arity=3).evaluate(tree_db())
        assert demanded.holds("ok")
        assert demanded.unary_answers("t") == full.unary_answers("t")
        assert demanded.stats is not None

    def test_facts_decode_lazily_and_cache(self):
        evaluator = QuasiGuardedEvaluator(PROG, bag_arity=3)
        result = evaluator.evaluate(tree_db())
        assert result._facts is None  # nothing decoded yet
        first = result.facts
        assert first is result.facts  # cached on first access
        assert {f.args for f in first if f.predicate == "t"} == {
            ("n0",),
            ("n1",),
            ("n2",),
        }

    @pytest.mark.parametrize("eager", [True, False])
    def test_unary_answers_validates_arity(self, eager):
        """A non-unary fact under the queried predicate must raise, not
        be silently truncated to its first argument."""
        binary = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).
            pair(V, X0) :- bag(V, X0, X1), t(V).
            """
        )
        mode = "eager" if eager else "streamed"
        evaluator = QuasiGuardedEvaluator(binary, bag_arity=3, mode=mode)
        result = evaluator.evaluate(tree_db())
        assert result.holds("pair", "n2", "c")
        with pytest.raises(ValueError, match="arity 2, not 1"):
            result.unary_answers("pair")
        # nullary facts are rejected the same way
        full = QuasiGuardedEvaluator(PROG, bag_arity=3, mode=mode).evaluate(
            tree_db()
        )
        with pytest.raises(ValueError, match="arity 0, not 1"):
            full.unary_answers("ok")
        # absent predicates simply have no answers
        assert full.unary_answers("nothing") == frozenset()
