"""Tests for guard-driven grounding (Theorem 4.4, first half)."""

import pytest

from repro.datalog import (
    Database,
    GroundingStats,
    InternPool,
    NotGroundableError,
    SetDatabase,
    evaluate_via_grounding,
    ground_program_ids,
    naive_least_fixpoint,
    parse_program,
    prepare_grounding,
)
from repro.structures import Fact


def ground_program(program, db, stats=None):
    """The eager grounder's ``(head, body)`` rules, decoded from atom
    ids to facts so the tests can read them."""
    prepared = prepare_grounding(program)
    sdb = SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    decode = pool.decode_atom
    return [
        (decode(head), tuple(decode(b) for b in body))
        for head, body in ground_program_ids(prepared, sdb, pool, stats)
    ]


def tree_db():
    """A 3-node chain with bags, as produced by the tau_td encoding."""
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


class TestGroundProgram:
    def test_ground_rule_shapes(self):
        rules = ground_program(PROG, tree_db())
        heads = {head for head, _ in rules}
        assert Fact("t", ("n2",)) in heads  # leaf rule, EDB satisfied
        assert Fact("ok", ()) in heads
        by_head = dict(rules)
        assert by_head[Fact("t", ("n1",))] == (Fact("t", ("n2",)),)

    def test_instance_count_linear_in_guard_matches(self):
        stats = GroundingStats()
        ground_program(PROG, tree_db(), stats=stats)
        # one leaf instance + two propagation instances + one root instance
        assert stats.ground_rules == 4

    def test_negation_evaluated_during_grounding(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V), not e(X0, X1).
            """
        )
        rules = ground_program(prog, tree_db())
        assert rules == []  # e(c, d) holds, so the negation kills it

    def test_negation_survives_when_atom_absent(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), root(V), not e(X0, X1).
            """
        )
        rules = ground_program(prog, tree_db())
        assert [head for head, _ in rules] == [Fact("t", ("n0",))]

    def test_not_groundable_raises(self):
        prog = parse_program("p(X, Z) :- p(X, Y), q(Y, Z).")
        with pytest.raises(NotGroundableError):
            ground_program(prog, Database())

    def test_negated_idb_rejected(self):
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1).
            s(V) :- bag(V, X0, X1), not t(V).
            """
        )
        with pytest.raises(NotGroundableError):
            ground_program(prog, tree_db())


class TestPipeline:
    def test_matches_semi_naive(self):
        """Grounding + LTUR derives the bottom-up least fixpoint (as
        computed by the ``naive`` oracle)."""
        db = tree_db()
        derived = evaluate_via_grounding(PROG, db)
        reference = naive_least_fixpoint(PROG, db)
        for predicate in ("t", "ok"):
            assert {f.args for f in derived if f.predicate == predicate} == (
                reference.relation(predicate)
            )

    def test_from_structure_input(self):
        from repro.structures import Graph, graph_to_structure
        from repro.treewidth import decompose_graph, normalize, encode_normalized

        g = Graph.path(4)
        structure = graph_to_structure(g)
        ntd = normalize(decompose_graph(g))
        encoded = encode_normalized(structure, ntd)
        prog = parse_program(
            """
            t(V) :- bag(V, X0, X1), leaf(V).
            t(V) :- bag(V, X0, X1), child1(V1, V), t(V1).
            ok :- root(V), t(V).
            """
        )
        derived = evaluate_via_grounding(prog, encoded)
        assert Fact("ok", ()) in derived
