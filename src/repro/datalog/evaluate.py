"""Bottom-up datalog evaluation: the shared planning layer and the
``naive`` oracle.

The least fixpoint of ``P ∪ A`` (Section 2.4) is computed bottom-up.
This module holds what every backend registered in
:mod:`repro.datalog.backends` shares -- the value-level
:class:`Database`, stratification, and the per-rule join plans of
:func:`prepare_program` -- plus the ``naive`` backend itself:

* ``naive`` -- :func:`naive_least_fixpoint`, Jacobi-style re-derivation
  each round, tuple at a time; the simple oracle the conformance suite
  pins every other route to;
* ``semi-naive`` and ``magic`` run the same prepared plans
  set-at-a-time in :mod:`repro.datalog.setengine` (``magic`` on the
  demand-rewritten program of :mod:`repro.datalog.magic`) -- the
  "interpreter" of Section 6, whose lazy behaviour is the paper's
  optimization (2): "generating only those ground instances of rules
  which actually produce new facts".

Stratification and per-rule join plans are computed once per program by
:func:`prepare_program` and reused across structures (and cached across
solver instances by :class:`repro.datalog.backends.ProgramCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ..structures.structure import Fact, Structure
from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .builtins import UNBOUND, BuiltinRegistry, standard_registry
from .passes import strongly_connected_components
from .profile import CostModel, IndexSelection, min_index_selection


class UnsafeRuleError(ValueError):
    """A rule whose body cannot bind all its variables."""


class NotStratifiableError(ValueError):
    """Negation through recursion."""


# ----------------------------------------------------------------------
# Fact storage
# ----------------------------------------------------------------------


class Database:
    """Facts per predicate with lazily-built hash indexes.

    Indexes are registered *per predicate*: inserting a fact touches
    only the indexes of that fact's predicate, not every index in the
    database (insertion cost is proportional to how indexed the one
    predicate is, which keeps bulk loads linear).
    """

    __slots__ = ("_facts", "_indexes")

    def __init__(self) -> None:
        self._facts: dict[str, set[tuple]] = {}
        #: predicate -> {positions -> {key -> rows}}
        self._indexes: dict[
            str, dict[tuple[int, ...], dict[tuple, list[tuple]]]
        ] = {}

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Database":
        db = cls()
        for fact in facts:
            db.add(fact.predicate, fact.args)
        return db

    @classmethod
    def from_structure(cls, structure: Structure) -> "Database":
        db = cls()
        for name in structure.signature:
            for tup in structure.relation(name):
                db.add(name, tup)
        return db

    @classmethod
    def from_relations(
        cls, relations: Mapping[str, set[tuple]]
    ) -> "Database":
        """Wrap already-built relations, taking ownership of the sets
        (no defensive copy -- the caller hands them over).  This is the
        bulk-decode path of the set-at-a-time engine."""
        db = cls()
        db._facts = dict(relations)
        return db

    def add(self, predicate: str, args: tuple) -> bool:
        """Insert; returns True iff the fact is new."""
        rel = self._facts.setdefault(predicate, set())
        if args in rel:
            return False
        rel.add(args)
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
        return True

    def contains(self, predicate: str, args: tuple) -> bool:
        return args in self._facts.get(predicate, ())

    def relation(self, predicate: str) -> set[tuple]:
        return self._facts.get(predicate, set())

    def predicates(self) -> Iterator[str]:
        return iter(self._facts)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._facts.values())

    def facts(self) -> Iterator[Fact]:
        for predicate in sorted(self._facts):
            for args in sorted(self._facts[predicate], key=repr):
                yield Fact(predicate, args)

    def match(self, predicate: str, pattern: Sequence) -> Iterator[tuple]:
        """All facts of ``predicate`` matching the pattern.

        ``pattern`` entries are concrete values or :data:`UNBOUND`.
        """
        if not self._facts.get(predicate):
            return iter(())
        positions = tuple(
            i for i, p in enumerate(pattern) if p is not UNBOUND
        )
        if not positions:
            return iter(self._facts[predicate])
        index = self.lookup(predicate, positions)
        key = tuple(pattern[i] for i in positions)
        return iter(index.get(key, ()))

    def lookup(
        self, predicate: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        """The hash index of ``predicate`` on ``positions`` (built
        lazily, then maintained incrementally by :meth:`add`).

        Exposed so relation-level joins (the set-at-a-time engine, the
        batch grounder) can probe one index per join step instead of
        re-resolving it per binding.
        """
        per_pred = self._indexes.setdefault(predicate, {})
        index = per_pred.get(positions)
        if index is None:
            index = {}
            for args in self._facts.get(predicate, ()):
                key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
            per_pred[positions] = index
        return index

    def copy(self) -> "Database":
        clone = Database()
        clone._facts = {p: set(rel) for p, rel in self._facts.items()}
        return clone


# ----------------------------------------------------------------------
# Stratification
# ----------------------------------------------------------------------


def stratify(program: Program) -> list[frozenset[str]]:
    """Partition the IDB predicates into strata.

    Raises :class:`NotStratifiableError` if some negation occurs inside
    a recursive cycle.  Extensional and built-in predicates do not
    participate.
    """
    idb = program.intensional_predicates()
    pos_edges: dict[str, set[str]] = {p: set() for p in idb}
    neg_edges: dict[str, set[str]] = {p: set() for p in idb}
    for r in program.rules:
        head = r.head.predicate
        for literal in r.body:
            p = literal.atom.predicate
            if p in idb:
                (pos_edges if literal.positive else neg_edges)[p].add(head)

    # iterate stratum numbers to a fixpoint (programs are small)
    stratum = {p: 0 for p in idb}
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > len(idb) + 1:
            raise NotStratifiableError("negation through recursion")
        for src in idb:
            for dst in pos_edges[src]:
                if stratum[dst] < stratum[src]:
                    stratum[dst] = stratum[src]
                    changed = True
            for dst in neg_edges[src]:
                if stratum[dst] < stratum[src] + 1:
                    stratum[dst] = stratum[src] + 1
                    changed = True
    if not idb:
        return []
    levels = max(stratum.values()) + 1
    return [
        frozenset(p for p in idb if stratum[p] == level)
        for level in range(levels)
    ]


def refine_strata(
    program: Program, strata: Sequence[frozenset[str]]
) -> tuple[frozenset[str], ...]:
    """Split each negation stratum into its positive-dependency SCCs.

    :func:`stratify` partitions by negation level only, so a level's
    predicates all share one fixpoint loop even when most of them never
    feed back into each other -- the compiled Theorem 4.5 programs land
    *everything*, including the nonrecursive ``phi`` selection rules,
    in a single stratum, and every delta round re-fires them all.
    Condensing each level by its positive intra-level edges and
    ordering the components topologically (dependencies first) is
    semantics-preserving -- every intra-level edge is positive, so the
    refined order is still a valid stratification and
    ``_check_negation_stratified`` keeps holding -- and it isolates
    the genuinely recursive cores: a singleton component without a
    self-loop has no recursive positions at all and takes the
    fire-once fast path of the evaluators.
    """
    idb = program.intensional_predicates()
    pos_deps: dict[str, set[str]] = {p: set() for p in idb}
    for rule in program.rules:
        head = pos_deps[rule.head.predicate]
        for literal in rule.body:
            name = literal.atom.predicate
            if literal.positive and name in idb:
                head.add(name)
    refined: list[frozenset[str]] = []
    for level in strata:
        members = sorted(level)
        # Tarjan emits components in reverse topological order of the
        # condensation -- dependencies first, which is evaluation order
        for component in strongly_connected_components(
            members, lambda p: sorted(pos_deps[p] & level)
        ):
            refined.append(frozenset(component))
    return tuple(refined)


# ----------------------------------------------------------------------
# Rule planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    literal: Literal
    body_index: int
    kind: str  # "relation" | "builtin" | "negation"


def plan_rule(
    rule: Rule,
    idb: frozenset[str],
    registry: BuiltinRegistry,
    *,
    initial_bound: Iterable[Variable] = (),
    cost: CostModel | None = None,
    delta_predicates: frozenset[str] = frozenset(),
) -> tuple[PlanStep, ...]:
    """Order the body so every step can run with earlier bindings.

    Greedy: prefer positive relation atoms (most bound slots first),
    then built-ins whose binding pattern is satisfied, then fully-bound
    negations.  Raises :class:`UnsafeRuleError` when stuck, which also
    catches the classic safety violations.

    ``initial_bound`` lists variables already bound before the body
    runs; the magic-set rewriting uses it as the sideways-information-
    passing order with the head's bound arguments pre-bound.

    Atoms with equal bound-slot scores tie-break on the ``cost``
    model's estimated output cardinality (feedback from a profiled
    run), so a tiny guard relation is joined before a huge one instead
    of whichever came first in the rule text; atoms the model knows
    nothing about, and all atoms when ``cost`` is None, keep body
    textual order.  ``delta_predicates`` names the predicates that are
    delta-restricted in the semi-naive rounds of this rule's stratum --
    their scan estimate is scaled down to a per-round delta so
    cardinality feedback never demotes a recursive atom behind a full
    extensional scan it would beat on every delta round.
    """
    remaining: list[tuple[int, Literal]] = list(enumerate(rule.body))
    bound: set[Variable] = set(initial_bound)
    plan: list[PlanStep] = []

    def atom_mask(a: Atom) -> tuple[bool, ...]:
        return tuple(
            isinstance(arg, Constant) or arg in bound for arg in a.args
        )

    while remaining:
        chosen: tuple[int, Literal, str] | None = None
        best_key: tuple | None = None
        for index, literal in remaining:
            a = literal.atom
            is_builtin = a.predicate in registry and a.predicate not in idb
            mask = atom_mask(a)
            if literal.positive and not is_builtin:
                score = sum(mask)
                est = float("inf")
                if cost is not None:
                    got = cost.estimate(
                        a.predicate,
                        len(a.args),
                        tuple(i for i, b in enumerate(mask) if b),
                        delta=a.predicate in delta_predicates,
                    )
                    if got is not None:
                        est = got
                key = (-score, est, index)
                if best_key is None or key < best_key:
                    best_key = key
                    chosen = (index, literal, "relation")
        if chosen is None:
            for index, literal in remaining:
                a = literal.atom
                is_builtin = a.predicate in registry and a.predicate not in idb
                mask = atom_mask(a)
                if literal.positive and is_builtin and registry.get(
                    a.predicate
                ).can_evaluate(mask):
                    chosen = (index, literal, "builtin")
                    break
        if chosen is None:
            for index, literal in remaining:
                if not literal.positive and all(atom_mask(literal.atom)):
                    chosen = (index, literal, "negation")
                    break
        if chosen is None:
            raise UnsafeRuleError(
                f"cannot order body of rule: {rule} (bound so far: "
                f"{sorted(v.name for v in bound)})"
            )
        index, literal, kind = chosen
        remaining.remove((index, literal))
        bound.update(literal.atom.variables())
        plan.append(PlanStep(literal, index, kind))

    unbound_head = set(rule.head.variables()) - bound
    if unbound_head:
        raise UnsafeRuleError(
            f"head variables {sorted(v.name for v in unbound_head)} "
            f"never bound in rule: {rule}"
        )
    return tuple(plan)


# ----------------------------------------------------------------------
# Join execution
# ----------------------------------------------------------------------

Binding = dict[Variable, object]


def _extend_with_fact(
    binding: Binding, atom: Atom, fact_args: tuple
) -> Binding | None:
    extended = binding
    copied = False
    for term, value in zip(atom.args, fact_args):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            known = extended.get(term, UNBOUND)
            if known is UNBOUND:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = value
            elif known != value:
                return None
    return extended


def _slots(atom: Atom, binding: Binding) -> tuple:
    return tuple(
        term.value
        if isinstance(term, Constant)
        else binding.get(term, UNBOUND)
        for term in atom.args
    )


@dataclass
class EvaluationStats:
    """Counters reported by the benchmark harness."""

    rule_firings: int = 0
    facts_derived: int = 0
    iterations: int = 0
    #: total bindings produced across all join-plan steps -- the
    #: planner-quality signal (a bad join order explodes this long
    #: before wall-clock makes the damage obvious)
    bindings_explored: int = 0


@dataclass(frozen=True)
class StratumPlan:
    """The rules of one stratum, pre-resolved for the fixpoint loop."""

    rule_indices: tuple[int, ...]
    #: per rule (parallel to ``rule_indices``): body positions holding a
    #: positive atom of this stratum -- the delta-restriction targets.
    recursive_positions: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PreparedProgram:
    """A program with stratification and join plans computed once.

    Building one of these is the per-program cost of evaluation (plan
    ordering, stratification, the safety checks); evaluating a prepared
    program over a structure is the per-structure cost.  Prepared
    programs are immutable and shared freely across evaluator instances
    -- :class:`repro.datalog.backends.ProgramCache` keeps them keyed by
    program fingerprint so repeated solves skip this work entirely.
    """

    program: Program
    registry: BuiltinRegistry
    idb: frozenset[str]
    strata: tuple[frozenset[str], ...]
    plans: tuple[tuple[PlanStep, ...], ...]  # parallel to program.rules
    stratum_plans: tuple[StratumPlan, ...]  # parallel to strata
    #: MinIndexSelection over the plans' extensional search signatures;
    #: installed on the SetDatabase by the set-at-a-time evaluator so
    #: nested access patterns share one lexicographic index
    index_selection: IndexSelection | None = None


def _search_signatures(
    program: Program,
    plans: Sequence[tuple[PlanStep, ...]],
    idb: frozenset[str],
) -> dict[str, set[tuple[int, ...]]]:
    """The extensional search signatures of the planned probe steps:
    predicate -> set of sorted bound-position tuples.  Mirrors the
    classification of ``setengine._compile_steps`` (constants plus
    already-bound variables form the probe key; a step with no free
    positions is a semi-join, not an index probe).  Intensional
    predicates are excluded -- they mutate every delta round, and the
    shared lexicographic indexes are rebuilt, not maintained."""
    signatures: dict[str, set[tuple[int, ...]]] = {}
    for rule, plan in zip(program.rules, plans):
        bound: set[Variable] = set()
        for step in plan:
            atom = step.literal.atom
            if step.kind == "relation" and atom.predicate not in idb:
                key: list[int] = []
                free = 0
                seen: set[Variable] = set()
                for pos, arg in enumerate(atom.args):
                    if isinstance(arg, Constant) or arg in bound:
                        key.append(pos)
                    elif arg not in seen:
                        seen.add(arg)
                        free += 1
                if key and free:
                    signatures.setdefault(atom.predicate, set()).add(
                        tuple(key)
                    )
            bound.update(step.literal.atom.variables())
    return signatures


def prepare_program(
    program: Program,
    registry: BuiltinRegistry | None = None,
    cost: CostModel | None = None,
) -> PreparedProgram:
    """Stratify, safety-check, and plan every rule of ``program``.

    ``cost`` replans with cardinality feedback: plan_rule tie-breaks on
    the model's estimates instead of body textual order, producing the
    "replanned" prepared program of the profile -> replan loop."""
    registry = registry if registry is not None else standard_registry()
    idb = program.intensional_predicates()
    overlap = idb & registry.names()
    if overlap:
        raise ValueError(
            f"predicates defined both by rules and built-ins: {sorted(overlap)}"
        )
    strata = refine_strata(program, stratify(program))
    _check_negation_stratified(program, idb, strata)
    stratum_of: dict[str, frozenset[str]] = {}
    for stratum in strata:
        for predicate in stratum:
            stratum_of[predicate] = stratum
    plans = tuple(
        plan_rule(
            rule,
            idb,
            registry,
            cost=cost,
            delta_predicates=stratum_of.get(
                rule.head.predicate, frozenset()
            ),
        )
        for rule in program.rules
    )
    stratum_plans = []
    for stratum in strata:
        indices = tuple(
            i
            for i, rule in enumerate(program.rules)
            if rule.head.predicate in stratum
        )
        recursive = tuple(
            tuple(
                pos
                for pos, literal in enumerate(program.rules[i].body)
                if literal.positive and literal.atom.predicate in stratum
            )
            for i in indices
        )
        stratum_plans.append(StratumPlan(indices, recursive))
    return PreparedProgram(
        program=program,
        registry=registry,
        idb=idb,
        strata=strata,
        plans=plans,
        stratum_plans=tuple(stratum_plans),
        index_selection=min_index_selection(
            _search_signatures(program, plans, idb)
        ),
    )


def _check_negation_stratified(
    program: Program,
    idb: frozenset[str],
    strata: Sequence[frozenset[str]],
) -> None:
    level = {}
    for i, stratum in enumerate(strata):
        for p in stratum:
            level[p] = i
    for rule in program.rules:
        head_level = level[rule.head.predicate]
        for literal in rule.body:
            p = literal.atom.predicate
            if p in idb and not literal.positive:
                if level[p] >= head_level:
                    raise NotStratifiableError(
                        f"negated IDB atom {literal} not on a lower stratum"
                    )


class SemiNaiveEvaluator:
    """Tuple-at-a-time rule firing over a prepared program.

    The machinery :func:`naive_least_fixpoint` runs on: a binding
    stream per rule plan (:meth:`_solutions`) and head instantiation
    (:meth:`_fire`).  The semi-naive delta loop itself runs
    set-at-a-time in :class:`repro.datalog.setengine.SetSemiNaiveEvaluator`.
    """

    def __init__(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        prepared: PreparedProgram | None = None,
    ):
        if prepared is None:
            prepared = prepare_program(program, registry)
        self.prepared = prepared
        self.program = prepared.program
        self.registry = prepared.registry
        self.idb = prepared.idb
        self.strata = list(prepared.strata)
        self.stats = EvaluationStats()

    @classmethod
    def from_prepared(cls, prepared: PreparedProgram) -> "SemiNaiveEvaluator":
        """An evaluator that skips all per-program work (cache hits)."""
        return cls(prepared.program, prepared=prepared)

    # -- rule evaluation ------------------------------------------------

    def _solutions(
        self, plan: Sequence[PlanStep], db: Database
    ) -> Iterator[Binding]:
        bindings: list[Binding] = [{}]
        for step in plan:
            atom = step.literal.atom
            new_bindings: list[Binding] = []
            if step.kind == "relation":
                for binding in bindings:
                    pattern = _slots(atom, binding)
                    for fact_args in db.match(atom.predicate, pattern):
                        extended = _extend_with_fact(binding, atom, fact_args)
                        if extended is not None:
                            new_bindings.append(extended)
            elif step.kind == "builtin":
                builtin = self.registry.get(atom.predicate)
                for binding in bindings:
                    pattern = _slots(atom, binding)
                    for solution in builtin.evaluate(pattern):
                        extended = _extend_with_fact(binding, atom, solution)
                        if extended is not None:
                            new_bindings.append(extended)
            else:  # negation
                for binding in bindings:
                    pattern = _slots(atom, binding)
                    if any(p is UNBOUND for p in pattern):
                        raise UnsafeRuleError(
                            f"negated atom {atom} not fully bound"
                        )
                    if atom.predicate in self.registry and (
                        atom.predicate not in self.idb
                    ):
                        held = any(self.registry.get(atom.predicate).evaluate(pattern))
                    else:
                        held = db.contains(atom.predicate, tuple(pattern))
                    if not held:
                        new_bindings.append(binding)
            bindings = new_bindings
            self.stats.bindings_explored += len(bindings)
            if not bindings:
                return
        yield from bindings

    def _fire(self, rule_index: int, db: Database, out: list[Fact]) -> None:
        rule = self.program.rules[rule_index]
        plan = self.prepared.plans[rule_index]
        for binding in self._solutions(plan, db):
            self.stats.rule_firings += 1
            head = rule.head.substitute(
                {v: Constant(val) for v, val in binding.items()}
            )
            out.append(head.to_fact())


def naive_least_fixpoint(
    program: Program,
    edb: Database | Iterable[Fact] | Structure,
    registry: BuiltinRegistry | None = None,
    stats: EvaluationStats | None = None,
    prepared: PreparedProgram | None = None,
) -> Database:
    """Naive (Jacobi-style) fixpoint: re-fire every rule each round.

    The tuple-at-a-time ``naive`` backend: deliberately the simplest
    evaluator, and the oracle the conformance suite pins every other
    route to.
    """
    evaluator = SemiNaiveEvaluator(program, registry, prepared=prepared)
    if stats is not None:
        evaluator.stats = stats
    if isinstance(edb, Structure):
        db = Database.from_structure(edb)
    elif isinstance(edb, Database):
        db = edb.copy()
    else:
        db = Database.from_facts(edb)
    for stratum_plan in evaluator.prepared.stratum_plans:
        changed = True
        while changed:
            changed = False
            evaluator.stats.iterations += 1
            derived: list[Fact] = []
            for rule_index in stratum_plan.rule_indices:
                evaluator._fire(rule_index, db, derived)
            for fact in derived:
                if db.add(fact.predicate, fact.args):
                    evaluator.stats.facts_derived += 1
                    changed = True
    return db
