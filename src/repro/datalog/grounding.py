"""Guard-driven grounding (the first half of Theorem 4.4).

For a quasi-guarded rule, instantiating the guard atom against the
database determines every variable of the rule (directly or through the
functional key constraints of ``A_td``), so the number of ground
instances is O(|A|) per rule and O(|P| * |A|) overall.  The extensional
part of each body -- positive atoms, negated atoms, built-ins -- is
resolved during grounding; what remains is a propositional Horn program
over the intensional atoms, which :mod:`repro.datalog.horn` solves in
linear time.

Both execution forms share the per-rule plans of
:func:`prepare_grounding` and one
:class:`~repro.datalog.interning.InternPool` per solve, so ground rules
are pure integers:

* the **streamed** form (:func:`ground_program_streamed`, the
  production path of
  :class:`repro.core.quasi_guarded.QuasiGuardedEvaluator`): a
  push-based emitter that instantiates ground rules *on demand* and
  feeds them one at a time into an online LTUR
  (:class:`repro.datalog.horn.StreamingHorn`).  Base rules (no
  intensional body atom) are instantiated up front; every other rule
  is *driven* by one designated intensional body literal and is only
  instantiated for the bindings its driver atom actually takes in the
  least model -- Section 6's optimization (2) ("generate only those
  ground instances of rules which actually produce new facts"),
  realized at grounding time.  Rules headed by a *sink* predicate (one
  no rule body reads, like the answer predicate ``phi``) fire once,
  after the fixpoint settles.  Demand pruning
  (:func:`repro.datalog.magic.demanded_predicates`) additionally skips
  whole rules whose heads cannot reach the query, and statically dead
  rules (a positive extensional literal over an empty relation) are
  never instantiated.  Peak live-rule residency is the LTUR's waiting
  frontier, not the ground program;
* the **eager** form (:func:`ground_program_ids`, the
  ``quasi-guarded-eager`` backend and the documented budget fallback):
  guard instantiation joins over a
  :class:`~repro.datalog.setengine.SetDatabase` of dense-int fact
  tuples and materializes the full ground program as
  ``(head_atom_id, body_atom_ids)`` pairs, which
  :func:`repro.datalog.horn.horn_least_model_ids` propagates over.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from ..structures.structure import Fact, Structure
from .ast import Atom, Constant, Literal, Program, Rule, Variable
from .builtins import UNBOUND, BuiltinRegistry, standard_registry
from .evaluate import Database
from .horn import StreamingHorn, horn_least_model_ids
from .interning import InternPool
from .profile import CostModel, IndexSelection, PlanProfile, min_index_selection
from .setengine import SetDatabase


class NotGroundableError(ValueError):
    """The extensional body part cannot bind all rule variables."""


@dataclass
class GroundingStats:
    ground_rules: int = 0
    killed_by_extensional: int = 0
    #: total rows surviving each extensional join step -- the
    #: O(|P| * |A|) *work* measure of Theorem 4.4 (a mis-ordered plan
    #: shows up here as a super-linear blow-up even when the final
    #: ground-rule count stays linear)
    bindings_explored: int = 0
    #: streamed path only: program rules never instantiated at all --
    #: head outside the demanded set (magic-style relevance), a
    #: positive extensional body literal over an empty/failing
    #: relation (statically dead for this structure), or a driver
    #: predicate that never derived a single atom (driver-starved)
    rules_pruned: int = 0
    #: streamed path only: the high-water mark of ground rules stored
    #: in the online LTUR's waiting frontier -- the streamed analogue
    #: of the eager pipeline's O(|ground program|) rule list
    peak_live_rules: int = 0


@dataclass(frozen=True)
class PreparedGrounding:
    """Per-rule extensional join orders, computed once per program.

    Grounding the same compiled program over many structures (the
    Theorem 4.5 amortization) re-runs only the data-dependent half;
    the body-ordering half lives here and is cached by
    :class:`repro.datalog.backends.ProgramCache`.  ``plans`` drives the
    eager form, ``stream_plans`` the streamed one (same greedy
    ordering, seeded with the driver literal's variables).
    """

    program: Program
    registry: BuiltinRegistry
    #: parallel to ``program.rules``: (ordered extensional literals,
    #: intensional body literals)
    plans: tuple[tuple[tuple[Literal, ...], tuple[Literal, ...]], ...]
    #: parallel to ``program.rules``: slot-indexed driver plans for
    #: :func:`ground_program_streamed`
    stream_plans: tuple["StreamRulePlan", ...] = ()
    #: MinIndexSelection over the plans' search signatures; installed
    #: on the SetDatabase by both forms so nested
    #: probe patterns share one lexicographic index
    index_selection: IndexSelection | None = None
    #: sink predicates (heads occurring in no rule body) whose driven
    #: rules the streamed grounder defers to a single post-fixpoint pass
    deferred: frozenset[str] = frozenset()


def prepare_grounding(
    program: Program,
    registry: BuiltinRegistry | None = None,
    cost: CostModel | None = None,
) -> PreparedGrounding:
    """Order every rule's extensional body ahead of time.

    ``cost`` (a :class:`~repro.datalog.profile.CostModel` over a
    recorded :class:`~repro.datalog.profile.PlanProfile`) breaks
    equal-bound-slot ties by estimated output cardinality; without it
    the ordering is the static greedy one (textual tie-break).

    The program's *sink* predicates -- heads that occur in no rule
    body, like the compiled queries' answer predicate ``phi`` -- are
    marked for the streamed grounder's deferred route: their rules
    fire exactly once after the recursive fixpoint settles instead of
    once per delta round, and their unresolved intensional body atoms
    are checked against the final model instead of being parked in
    the online LTUR's waiting frontier.
    """
    registry = registry if registry is not None else standard_registry()
    idb = program.intensional_predicates()
    plans = tuple(
        tuple(map(tuple, _plan_extensional(rule, idb, registry, cost)))
        for rule in program.rules
    )
    stream_plans = tuple(
        _stream_plan(rule, idb, registry, cost) for rule in program.rules
    )
    selection = min_index_selection(
        _grounding_signatures(plans, stream_plans, registry)
    )
    in_bodies = {
        literal.atom.predicate
        for rule in program.rules
        for literal in rule.body
    }
    deferred = frozenset(idb - in_bodies)
    return PreparedGrounding(
        program, registry, plans, stream_plans, selection, deferred
    )


def _grounding_signatures(
    plans, stream_plans, registry: BuiltinRegistry
) -> dict[str, set[tuple[int, ...]]]:
    """The search signatures (bound-position sets of index probes) of
    every extensional join step, across both the eager and streamed
    plans -- the MinIndexSelection input."""
    signatures: dict[str, set[tuple[int, ...]]] = {}

    def record(predicate: str, key: list[int], has_free: bool) -> None:
        # only steps with both a key and free positions probe an index;
        # fully-bound steps are membership checks, keyless ones scans
        if key and has_free:
            signatures.setdefault(predicate, set()).add(tuple(sorted(key)))

    for ordered, _idb_literals in plans:
        bound: set[Variable] = set()
        for literal in ordered:
            atom = literal.atom
            if literal.positive and atom.predicate not in registry:
                key: list[int] = []
                seen: set[Variable] = set()
                has_free = False
                for pos, arg in enumerate(atom.args):
                    if isinstance(arg, Constant) or arg in bound:
                        key.append(pos)
                    elif arg not in seen:
                        seen.add(arg)
                        has_free = True
                record(atom.predicate, key, has_free)
            bound.update(atom.variables())
    for plan in stream_plans:
        for step in plan.steps:
            if step.kind == "rel":
                key = [p for p, _ in step.consts] + [p for p, _ in step.bound]
                record(step.predicate, key, bool(step.free))
    return signatures


def _plan_extensional(
    rule: Rule,
    idb: frozenset[str],
    registry: BuiltinRegistry,
    cost: CostModel | None = None,
) -> tuple[list[Literal], list[Literal]]:
    """Order the non-IDB body so each step runs with earlier bindings.

    Returns (ordered extensional steps, IDB literals).  Raises
    :class:`NotGroundableError` if the extensional part cannot bind
    every variable -- i.e. the rule is not groundable guard-first, which
    for the programs of this paper coincides with not being
    quasi-guarded.
    """
    idb_literals: list[Literal] = []
    remaining: list[Literal] = []
    for literal in rule.body:
        name = literal.atom.predicate
        if name in idb:
            if not literal.positive:
                raise NotGroundableError(
                    f"negated intensional atom {literal} unsupported"
                )
            idb_literals.append(literal)
        else:
            remaining.append(literal)

    bound: set[Variable] = set()
    ordered = _order_body(remaining, bound, registry, rule, cost)

    needed = rule.variables()
    if not needed <= bound:
        missing = sorted(v.name for v in needed - bound)
        raise NotGroundableError(
            f"variables {missing} not bound by the extensional body of: {rule}"
        )
    return ordered, idb_literals


def _order_body(
    remaining: list[Literal],
    bound: set[Variable],
    registry: BuiltinRegistry,
    rule: Rule,
    cost: CostModel | None = None,
) -> list[Literal]:
    """Greedy bound-first ordering of ``remaining``; mutates ``bound``.

    Shared by the guard-first plan (``bound`` starts empty) and the
    streamed driver plans (``bound`` starts at the driver literal's
    variables).  With a ``cost`` model, equal bound-slot scores break
    by estimated output rows (profiled fanout / relation size) instead
    of body textual order.
    """
    remaining = list(remaining)
    ordered: list[Literal] = []

    def mask(atom: Atom) -> tuple[bool, ...]:
        return tuple(
            isinstance(a, Constant) or a in bound for a in atom.args
        )

    while remaining:
        chosen = None
        # prefer the relation atom with the most bound argument slots --
        # an unbound pick mid-join degenerates into a full-relation scan
        # and breaks the O(|P| * |A|) bound of Theorem 4.4.
        best_key = None
        for index, literal in enumerate(remaining):
            atom = literal.atom
            if literal.positive and atom.predicate not in registry:
                m = mask(atom)
                score = sum(m)
                est = float("inf")
                if cost is not None:
                    got = cost.estimate(
                        atom.predicate,
                        len(atom.args),
                        tuple(i for i, b in enumerate(m) if b),
                    )
                    if got is not None:
                        est = got
                key = (-score, est, index)
                if best_key is None or key < best_key:
                    best_key = key
                    chosen = literal
        if chosen is None:
            for literal in remaining:
                atom = literal.atom
                if (
                    literal.positive
                    and atom.predicate in registry
                    and registry.get(atom.predicate).can_evaluate(mask(atom))
                ):
                    chosen = literal
                    break
        if chosen is None:
            for literal in remaining:
                if not literal.positive and all(mask(literal.atom)):
                    chosen = literal
                    break
        if chosen is None:
            raise NotGroundableError(f"cannot order extensional body of: {rule}")
        remaining.remove(chosen)
        bound.update(chosen.atom.variables())
        ordered.append(chosen)
    return ordered


def _take_rows(columns: dict, keep) -> dict:
    if isinstance(keep, range):
        return columns
    return {v: [col[r] for r in keep] for v, col in columns.items()}


# ----------------------------------------------------------------------
# The eager form: joins over a SetDatabase of dense-int fact tuples,
# ground rules emitted as atom ids from a shared InternPool.  The join
# branches deliberately mirror the kernels in
# setengine._join/_builtin/_negate (classification, dup filters,
# semi-join vs index-probe split); a semantics fix in one must be
# applied to the other.
# ----------------------------------------------------------------------


def ground_program_ids(
    prepared: PreparedGrounding,
    db: SetDatabase,
    pool: InternPool,
    stats: GroundingStats | None = None,
    meter=None,
) -> list[tuple[int, tuple[int, ...]]]:
    """All supported ground instances, as ``(head_id, body_ids)`` pairs.

    The interned half of Theorem 4.4: ``db`` holds the extensional
    facts as dense-int tuples, ``pool`` (which must share ``db``'s
    interner) assigns dense ids to the ground intensional atoms, and
    the returned rules are pure integers -- ready for
    :func:`repro.datalog.horn.horn_least_model_ids` with no raw-value
    tuple crossing the boundary.  ``meter`` (a
    :class:`repro.datalog.budget.BudgetMeter`) is checked once per
    program rule.
    """
    if pool.interner is not db.interner:
        raise ValueError(
            "pool and database must share one interner -- the point of "
            "the interned pipeline is a single interning context per solve"
        )
    registry = prepared.registry
    stats = stats if stats is not None else GroundingStats()
    if prepared.index_selection is not None:
        db.use_index_selection(prepared.index_selection)
    intern = db.interner.intern
    ground_rules: list[tuple[int, tuple[int, ...]]] = []

    for rule, (ordered, idb_literals) in zip(
        prepared.program.rules, prepared.plans
    ):
        if meter is not None:
            meter.check(stats.ground_rules)
        columns, length = _instantiate_batch_ids(ordered, db, registry, stats)
        if not length:
            continue

        def arg_rows(atom: Atom):
            if not atom.args:
                return repeat((), length)
            sources = [
                repeat(intern(arg.value), length)
                if isinstance(arg, Constant)
                else columns[arg]
                for arg in atom.args
            ]
            return zip(*sources)

        # one bulk-intern pass per atom column, then C-speed zips pair
        # head ids with body-id tuples -- no per-row Python
        head_ids = pool.atom_ids(rule.head.predicate, arg_rows(rule.head))
        if not idb_literals:
            ground_rules.extend(zip(head_ids, repeat(())))
        else:
            body_id_columns = [
                pool.atom_ids(lit.atom.predicate, arg_rows(lit.atom))
                for lit in idb_literals
            ]
            ground_rules.extend(zip(head_ids, zip(*body_id_columns)))
        stats.ground_rules += length
    return ground_rules


def _instantiate_batch_ids(
    ordered: Sequence[Literal],
    db: SetDatabase,
    registry: BuiltinRegistry,
    stats: GroundingStats,
) -> tuple[dict[Variable, list[int]], int]:
    """Run one rule's extensional join order set-at-a-time.

    The bindings live in a columnar batch (variable -> parallel list of
    dense ids).  Relation steps probe the interned database's indexes,
    and only built-in steps touch raw values (decoded on the way in,
    fresh outputs interned on the way out, as in the set engine)."""
    columns: dict[Variable, list[int]] = {}
    length = 1  # the unit batch: one empty binding
    for literal in ordered:
        atom = literal.atom
        consts: list[tuple[int, object]] = []
        bound: list[tuple[int, Variable]] = []
        free: list[tuple[int, Variable]] = []
        dups: list[tuple[int, int]] = []
        first_pos: dict[Variable, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg.value))
            elif arg in columns:
                bound.append((pos, arg))
            elif arg in first_pos:
                dups.append((pos, first_pos[arg]))
            else:
                first_pos[arg] = pos
                free.append((pos, arg))

        if literal.positive and atom.predicate not in registry:
            columns, length = _join_relation_ids(
                columns, length, atom, consts, bound, free, dups, db
            )
        elif literal.positive:
            columns, length = _join_builtin_ids(
                columns,
                length,
                atom,
                consts,
                bound,
                free,
                dups,
                registry.get(atom.predicate),
                db,
            )
        else:
            if free or dups:
                raise NotGroundableError(
                    f"negated atom {atom} not bound during grounding"
                )
            columns, length = _filter_negation_ids(
                columns, length, atom, consts, bound, db, registry, stats
            )
        stats.bindings_explored += length
        if not length:
            break
    return columns, length


def _join_relation_ids(
    columns, length, atom, consts, bound, free, dups, db: SetDatabase
):
    intern = db.interner.intern
    consts = [(pos, intern(value)) for pos, value in consts]
    key_positions = tuple(
        sorted([pos for pos, _ in consts] + [pos for pos, _ in bound])
    )
    arity = atom.arity
    if not free and not dups:
        # semi-join: candidate fact tuples are fully determined
        if arity == 0:
            keep = (
                range(length) if () in db.relation(atom.predicate) else []
            )
            return _take_rows(columns, keep), len(keep)
        if arity == 1:
            bits = db.bits(atom.predicate)
            if consts:
                keep = range(length) if (bits >> consts[0][1]) & 1 else []
            else:
                column = columns[bound[0][1]]
                keep = [
                    r for r in range(length) if (bits >> column[r]) & 1
                ]
            return _take_rows(columns, keep), len(keep)
        rel = db.relation(atom.predicate)
        sources = [None] * arity
        for pos, cid in consts:
            sources[pos] = repeat(cid, length)
        for pos, var in bound:
            sources[pos] = columns[var]
        keep = [
            r for r, key in enumerate(zip(*sources)) if key in rel
        ]
        return _take_rows(columns, keep), len(keep)

    out_columns = {v: [] for v in columns}
    out_columns.update({var: [] for _, var in free})
    old = [(out_columns[v].append, columns[v]) for v in columns]
    new = [(out_columns[var].append, pos) for pos, var in free]
    count = 0

    if not key_positions:  # unrestricted scan / cross product
        facts = db.relation(atom.predicate)
        if dups:
            facts = [
                f for f in facts if all(f[p] == f[q] for p, q in dups)
            ]
        if not columns and length == 1:  # unit batch (the guard step):
            # the scan IS the result -- transpose at C speed instead of
            # appending per cell
            facts = list(facts)
            if not facts:
                return out_columns, 0
            transposed = list(zip(*facts))
            return {
                var: list(transposed[pos]) for pos, var in free
            }, len(facts)
        for r in range(length):
            for fact in facts:
                for append, col in old:
                    append(col[r])
                for append, pos in new:
                    append(fact[pos])
                count += 1
        return out_columns, count

    get, key_order = db.probe_plan(atom.predicate, key_positions)
    by_pos = {pos: cid for pos, cid in consts}
    for pos, var in bound:
        by_pos[pos] = columns[var]
    if len(key_order) == 1:
        # single-position indexes key on the bare id (hash and lex both)
        key_source = by_pos[key_order[0]]
        keys = (
            key_source
            if isinstance(key_source, list)
            else repeat(key_source, length)
        )
    else:
        keys = zip(
            *(
                by_pos[pos]
                if isinstance(by_pos[pos], list)
                else repeat(by_pos[pos], length)
                for pos in key_order
            )
        )
    for r, key in enumerate(keys):
        matches = get(key)
        if not matches:
            continue
        if dups:
            matches = [
                f for f in matches if all(f[p] == f[q] for p, q in dups)
            ]
        for fact in matches:
            for append, col in old:
                append(col[r])
            for append, pos in new:
                append(fact[pos])
        count += len(matches)
    return out_columns, count


def _join_builtin_ids(
    columns, length, atom, consts, bound, free, dups, builtin, db: SetDatabase
):
    # built-ins see raw values: decode bound ids on the way in, intern
    # fresh outputs on the way out (exactly as setengine._builtin does)
    interner = db.interner
    value_of = interner.value_of
    intern = interner.intern
    arity = atom.arity
    sources: list = [None] * arity
    for pos, value in consts:
        sources[pos] = repeat(value, length)
    for pos, var in bound:
        sources[pos] = [value_of(i) for i in columns[var]]
    for pos, _ in free:
        sources[pos] = repeat(UNBOUND, length)
    for pos, _ in dups:
        sources[pos] = repeat(UNBOUND, length)
    patterns = zip(*sources) if arity else repeat((), length)

    out_columns = {v: [] for v in columns}
    out_columns.update({var: [] for _, var in free})
    old = [(out_columns[v].append, columns[v]) for v in columns]
    new = [(out_columns[var].append, pos) for pos, var in free]
    count = 0
    for r, pattern in enumerate(patterns):
        for solution in builtin.evaluate(pattern):
            if dups and not all(
                solution[p] == solution[q] for p, q in dups
            ):
                continue
            for append, col in old:
                append(col[r])
            for append, pos in new:
                append(intern(solution[pos]))
            count += 1
    return out_columns, count


def _filter_negation_ids(
    columns, length, atom, consts, bound, db: SetDatabase, registry, stats
):
    arity = atom.arity
    if atom.predicate in registry:
        builtin = registry.get(atom.predicate)
        value_of = db.interner.value_of
        sources: list = [None] * arity
        for pos, value in consts:
            sources[pos] = repeat(value, length)
        for pos, var in bound:
            sources[pos] = [value_of(i) for i in columns[var]]
        patterns = zip(*sources) if arity else repeat((), length)
        held_flags = [
            bool(any(builtin.evaluate(pattern))) for pattern in patterns
        ]
    elif arity == 1:
        bits = db.bits(atom.predicate)
        if consts:
            cid = db.interner.intern(consts[0][1])
            held_flags = [bool((bits >> cid) & 1)] * length
        else:
            column = columns[bound[0][1]]
            held_flags = [
                bool((bits >> column[r]) & 1) for r in range(length)
            ]
    else:
        intern = db.interner.intern
        rel = db.relation(atom.predicate)
        sources = [None] * arity
        for pos, value in consts:
            sources[pos] = repeat(intern(value), length)
        for pos, var in bound:
            sources[pos] = columns[var]
        patterns = zip(*sources) if arity else repeat((), length)
        held_flags = [pattern in rel for pattern in patterns]
    keep = [r for r, held in enumerate(held_flags) if not held]
    stats.killed_by_extensional += length - len(keep)
    return _take_rows(columns, keep), len(keep)


# ----------------------------------------------------------------------
# The streamed form: a push-based emitter that instantiates ground
# rules on demand and feeds them into an online LTUR.  Every rule with
# an intensional body literal is *driven* by its first such literal:
# instances are generated exactly when the driver's atom derives (each
# derived atom is fresh exactly once, so each instance is generated
# exactly once), and instances still waiting on the rule's other
# intensional atoms are parked in the StreamingHorn until those derive.
# Rules whose driver predicate never derives are never instantiated at
# all -- that, together with magic-style head relevance and statically
# dead extensional literals, is the demand pruning measured by
# ``GroundingStats.rules_pruned``.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _StreamStep:
    """One extensional body literal, classified against the slot layout
    (static per program; interned/resolved per structure)."""

    kind: str  # "rel" | "builtin" | "neg" | "neg-builtin"
    predicate: str
    arity: int
    consts: tuple[tuple[int, object], ...]  # (pos, raw constant value)
    bound: tuple[tuple[int, int], ...]  # (pos, slot)
    free: tuple[tuple[int, int], ...]  # (pos, fresh slot)
    dups: tuple[tuple[int, int], ...]  # (pos, first-occurrence pos)


@dataclass(frozen=True)
class StreamRulePlan:
    """The static (per-program) half of one rule's streamed plan."""

    rule: Rule
    nslots: int
    #: the driving intensional body literal; ``None`` for base rules
    driver: Literal | None
    driver_consts: tuple[tuple[int, object], ...]  # (pos, raw value)
    driver_slots: tuple[tuple[int, int], ...]  # (pos, slot)
    driver_dups: tuple[tuple[int, int], ...]  # (pos, earlier pos)
    steps: tuple[_StreamStep, ...]
    #: (predicate, argsrc, raw consts): argsrc entries are slot indexes
    #: (>= 0) or ``-k-1`` references into the consts tuple
    head: tuple[str, tuple[int, ...], tuple]
    #: the non-driver intensional body literals, same encoding
    others: tuple[tuple[str, tuple[int, ...], tuple], ...]


def _stream_plan(
    rule: Rule,
    idb: frozenset[str],
    registry: BuiltinRegistry,
    cost: CostModel | None = None,
) -> StreamRulePlan:
    idb_literals: list[Literal] = []
    extensional: list[Literal] = []
    for literal in rule.body:
        if literal.atom.predicate in idb:
            if not literal.positive:
                raise NotGroundableError(
                    f"negated intensional atom {literal} unsupported"
                )
            idb_literals.append(literal)
        else:
            extensional.append(literal)

    slot_of: dict[Variable, int] = {}

    def slot(variable: Variable) -> int:
        found = slot_of.get(variable)
        if found is None:
            found = len(slot_of)
            slot_of[variable] = found
        return found

    driver = idb_literals[0] if idb_literals else None
    others = idb_literals[1:] if idb_literals else []
    driver_consts: list[tuple[int, object]] = []
    driver_slots: list[tuple[int, int]] = []
    driver_dups: list[tuple[int, int]] = []
    if driver is not None:
        first_pos: dict[Variable, int] = {}
        for pos, arg in enumerate(driver.atom.args):
            if isinstance(arg, Constant):
                driver_consts.append((pos, arg.value))
            elif arg in first_pos:
                driver_dups.append((pos, first_pos[arg]))
            else:
                first_pos[arg] = pos
                driver_slots.append((pos, slot(arg)))

    bound_vars = set(slot_of)
    ordered = _order_body(extensional, bound_vars, registry, rule, cost)
    needed = rule.variables()
    if not needed <= bound_vars:
        missing = sorted(v.name for v in needed - bound_vars)
        raise NotGroundableError(
            f"variables {missing} not bound by the extensional body of: {rule}"
        )

    steps: list[_StreamStep] = []
    for literal in ordered:
        atom = literal.atom
        consts: list[tuple[int, object]] = []
        bound: list[tuple[int, int]] = []
        free: list[tuple[int, int]] = []
        dups: list[tuple[int, int]] = []
        first_pos = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg.value))
            elif arg in first_pos:
                dups.append((pos, first_pos[arg]))
            elif arg in slot_of:
                bound.append((pos, slot_of[arg]))
            else:
                first_pos[arg] = pos
                free.append((pos, slot(arg)))
        if literal.positive:
            kind = "builtin" if atom.predicate in registry else "rel"
        else:
            if free or dups:
                raise NotGroundableError(
                    f"negated atom {atom} not bound during grounding"
                )
            kind = "neg-builtin" if atom.predicate in registry else "neg"
        steps.append(
            _StreamStep(
                kind,
                atom.predicate,
                atom.arity,
                tuple(consts),
                tuple(bound),
                tuple(free),
                tuple(dups),
            )
        )

    def emission_spec(atom: Atom) -> tuple[str, tuple[int, ...], tuple]:
        argsrc: list[int] = []
        const_values: list = []
        for arg in atom.args:
            if isinstance(arg, Constant):
                argsrc.append(-len(const_values) - 1)
                const_values.append(arg.value)
            else:
                argsrc.append(slot_of[arg])
        return (atom.predicate, tuple(argsrc), tuple(const_values))

    return StreamRulePlan(
        rule=rule,
        nslots=len(slot_of),
        driver=driver,
        driver_consts=tuple(driver_consts),
        driver_slots=tuple(driver_slots),
        driver_dups=tuple(driver_dups),
        steps=tuple(steps),
        head=emission_spec(rule.head),
        others=tuple(emission_spec(lit.atom) for lit in others),
    )


# compiled step opcodes (per-structure resolution of _StreamStep)
_OP_BITS = 0  # unary positive relation, bound slot: bitset test
_OP_SET = 1  # positive relation, fully bound: set membership
_OP_PROBE1 = 2  # index probe, single key position (bare-id key)
_OP_PROBE = 3  # index probe, multi-position key
_OP_SCAN = 4  # unrestricted scan / cross product
_OP_BUILTIN = 5  # builtin evaluation (decode in, intern out)
_OP_NEG_BITS = 6  # negated unary relation, bound slot
_OP_NEG_SET = 7  # negated relation, fully bound
_OP_NEG_BUILTIN = 8  # negated builtin, fully bound

_DEAD = object()  # sentinel: rule statically dead for this structure


class _CompiledStreamRule:
    """One rule's per-structure executable stream plan."""

    __slots__ = (
        "plan",
        "pool",
        "sink",
        "stats",
        "nslots",
        "driver_consts",
        "driver_slots",
        "driver_dups",
        "ops",
        "op_meta",
        "head",
        "others",
        "invoked",
        "finalize",
        "profile",
    )

    def __init__(
        self,
        plan,
        ops,
        head,
        others,
        driver_consts,
        pool,
        sink,
        stats,
        profile=None,
        op_meta=(),
    ):
        self.plan = plan
        self.pool = pool
        self.sink = sink
        self.stats = stats
        self.nslots = plan.nslots
        self.driver_consts = driver_consts  # (pos, interned id)
        self.driver_slots = plan.driver_slots
        self.driver_dups = plan.driver_dups
        self.ops = ops
        #: parallel to ``ops``: (predicate, sorted key positions) for
        #: index-probe ops, None otherwise -- profiling metadata only
        self.op_meta = op_meta
        self.head = head  # (predicate, argsrc, interned const ids)
        self.others = others
        self.invoked = False
        #: set by the deferred-sink epilogue of
        #: :func:`ground_program_streamed`: the fixpoint is complete, so
        #: ``_emit`` resolves the remaining intensional body atoms
        #: against the final model instead of parking the rule
        self.finalize = False
        self.profile = profile

    def fire(self, args: tuple[int, ...]) -> None:
        """Instantiate for one freshly derived driver atom."""
        self.fire_batch((args,))

    def fire_batch(self, batch) -> None:
        """Instantiate for a whole round's worth of driver atoms.

        One `_run` walks the op list for all of the round's rows
        together, so the per-event constants (op dispatch, handle
        loads, the emit prologue) are paid once per (rule, round)
        instead of once per derived driver atom -- the lever for
        fully-live programs like the grid cover DP, where every rule
        fires for nearly every node and the streamed emitter used to
        trail the eager batch pipeline on dispatch overhead alone.
        """
        self.invoked = True
        rows = []
        append = rows.append
        nslots = self.nslots
        driver_consts = self.driver_consts
        driver_dups = self.driver_dups
        driver_slots = self.driver_slots
        for args in batch:
            if driver_consts and any(
                args[pos] != cid for pos, cid in driver_consts
            ):
                continue
            if driver_dups and any(
                args[pos] != args[earlier] for pos, earlier in driver_dups
            ):
                continue
            row = [0] * nslots
            for pos, s in driver_slots:
                row[s] = args[pos]
            append(row)
        if rows:
            self._run(rows)

    def fire_base(self) -> None:
        """Instantiate a base rule (no intensional body literal)."""
        self.invoked = True
        self._run([[0] * self.nslots])

    def _run(self, rows: list[list[int]]) -> None:
        stats = self.stats
        profile = self.profile
        op_meta = self.op_meta
        for op_index, op in enumerate(self.ops):
            n_in = len(rows) if profile is not None else 0
            code = op[0]
            if code == _OP_BITS:
                _, bits, s = op
                rows = [r for r in rows if (bits >> r[s]) & 1]
            elif code == _OP_PROBE1:
                _, get, ksrc, free, dups = op
                out = []
                for r in rows:
                    matches = get(r[ksrc])
                    if not matches:
                        continue
                    for fact in matches:
                        if dups and any(
                            fact[p] != fact[q] for p, q in dups
                        ):
                            continue
                        fresh = r.copy()
                        for p, s in free:
                            fresh[s] = fact[p]
                        out.append(fresh)
                rows = out
            elif code == _OP_SET:
                _, rel, key_srcs = op
                rows = [
                    r
                    for r in rows
                    if tuple(
                        r[v] if is_slot else v for is_slot, v in key_srcs
                    )
                    in rel
                ]
            elif code == _OP_PROBE:
                _, get, key_srcs, free, dups = op
                out = []
                for r in rows:
                    matches = get(
                        tuple(
                            r[v] if is_slot else v
                            for is_slot, v in key_srcs
                        )
                    )
                    if not matches:
                        continue
                    for fact in matches:
                        if dups and any(
                            fact[p] != fact[q] for p, q in dups
                        ):
                            continue
                        fresh = r.copy()
                        for p, s in free:
                            fresh[s] = fact[p]
                        out.append(fresh)
                rows = out
            elif code == _OP_SCAN:
                _, facts, free, dups = op
                out = []
                for r in rows:
                    for fact in facts:
                        if dups and any(
                            fact[p] != fact[q] for p, q in dups
                        ):
                            continue
                        fresh = r.copy()
                        for p, s in free:
                            fresh[s] = fact[p]
                        out.append(fresh)
                rows = out
            elif code == _OP_BUILTIN:
                rows = self._builtin(op, rows)
            elif code == _OP_NEG_BITS:
                _, bits, s = op
                kept = [r for r in rows if not (bits >> r[s]) & 1]
                stats.killed_by_extensional += len(rows) - len(kept)
                rows = kept
            elif code == _OP_NEG_SET:
                _, rel, key_srcs = op
                kept = [
                    r
                    for r in rows
                    if tuple(
                        r[v] if is_slot else v for is_slot, v in key_srcs
                    )
                    not in rel
                ]
                stats.killed_by_extensional += len(rows) - len(kept)
                rows = kept
            else:  # _OP_NEG_BUILTIN
                _, builtin, pattern_srcs, value_of = op
                kept = [
                    r
                    for r in rows
                    if not any(
                        builtin.evaluate(
                            tuple(
                                value_of(r[v]) if is_slot else v
                                for is_slot, v in pattern_srcs
                            )
                        )
                    )
                ]
                stats.killed_by_extensional += len(rows) - len(kept)
                rows = kept
            if profile is not None:
                meta = op_meta[op_index]
                if meta is not None:
                    profile.record_probe(meta[0], meta[1], n_in, len(rows))
            if not rows:
                return
            stats.bindings_explored += len(rows)
        self._emit(rows)

    def _builtin(self, op, rows):
        # builtins see raw values: decode bound ids in, intern fresh
        # outputs (exactly as the eager forms do)
        _, builtin, pattern_srcs, free, dups, value_of, intern = op
        out = []
        for r in rows:
            pattern = tuple(
                value_of(r[v]) if is_slot else v
                for is_slot, v in pattern_srcs
            )
            for solution in builtin.evaluate(pattern):
                if dups and any(
                    solution[p] != solution[q] for p, q in dups
                ):
                    continue
                fresh = r.copy()
                for p, s in free:
                    fresh[s] = intern(solution[p])
                out.append(fresh)
        return out

    def _emit(self, rows: list[list[int]]) -> None:
        atom_id = self.pool.atom_id
        add_rule = self.sink.add_rule
        head_pred, head_src, head_consts = self.head
        others = self.others
        self.stats.ground_rules += len(rows)
        if others and self.finalize:
            # deferred-sink mode: the fixpoint below this rule's head
            # is already complete, so the remaining intensional body
            # atoms have their final truth -- check them against the
            # model (lookup_atom: an atom never interned was never
            # derived) and emit satisfied instances as facts; nothing
            # is ever parked in the waiting frontier
            lookup = self.pool.lookup_atom
            is_derived = self.sink.is_derived
            for r in rows:
                satisfied = True
                for pred, src, consts in others:
                    other = lookup(
                        pred,
                        tuple(
                            r[x] if x >= 0 else consts[-x - 1]
                            for x in src
                        ),
                    )
                    if other is None or not is_derived(other):
                        satisfied = False
                        break
                if not satisfied:
                    continue
                head = atom_id(
                    head_pred,
                    tuple(
                        r[x] if x >= 0 else head_consts[-x - 1]
                        for x in head_src
                    ),
                )
                add_rule(head, ())
            return
        for r in rows:
            head = atom_id(
                head_pred,
                tuple(
                    r[x] if x >= 0 else head_consts[-x - 1]
                    for x in head_src
                ),
            )
            if others:
                add_rule(
                    head,
                    tuple(
                        atom_id(
                            pred,
                            tuple(
                                r[x] if x >= 0 else consts[-x - 1]
                                for x in src
                            ),
                        )
                        for pred, src, consts in others
                    ),
                )
            else:
                add_rule(head, ())


def _compile_stream_rule(
    plan: StreamRulePlan,
    db: SetDatabase,
    pool: InternPool,
    registry: BuiltinRegistry,
    sink: StreamingHorn,
    stats: GroundingStats,
    profile: PlanProfile | None = None,
):
    """Resolve one plan against a structure: intern constants, fetch
    index/bitset/relation handles, statically resolve fully-constant
    steps.  Returns ``None`` when the rule is dead for this structure
    (a positive extensional literal can never hold)."""
    interner = db.interner
    intern = interner.intern
    value_of = interner.value_of
    ops: list[tuple] = []
    op_meta: list = []
    for step in plan.steps:
        # relation steps compare interned ids; builtin steps see raw
        # values, so their constants must NOT be interned (that would
        # grow the shared domain interner for nothing)
        if step.kind == "rel":
            consts = [(pos, intern(value)) for pos, value in step.consts]
            op = _compile_rel(step, consts, db)
        elif step.kind == "neg":
            consts = [(pos, intern(value)) for pos, value in step.consts]
            op = _compile_neg(step, consts, db)
        elif step.kind == "builtin":
            op = _compile_builtin(step, registry, value_of, intern)
        else:  # neg-builtin
            op = _compile_neg_builtin(step, registry, value_of)
        if op is _DEAD:
            return None
        if op is not None:
            ops.append(op)
            op_meta.append(
                (
                    step.predicate,
                    tuple(
                        sorted(
                            [p for p, _ in step.consts]
                            + [p for p, _ in step.bound]
                        )
                    ),
                )
                if op[0] in (_OP_PROBE1, _OP_PROBE)
                else None
            )

    def interned_spec(spec):
        predicate, argsrc, const_values = spec
        return (
            predicate,
            argsrc,
            tuple(intern(value) for value in const_values),
        )

    return _CompiledStreamRule(
        plan,
        tuple(ops),
        interned_spec(plan.head),
        tuple(interned_spec(spec) for spec in plan.others),
        tuple((pos, intern(value)) for pos, value in plan.driver_consts),
        pool,
        sink,
        stats,
        profile,
        tuple(op_meta),
    )


def _key_srcs(consts, bound):
    """(is_slot, value) pairs in sorted key-position order."""
    merged = [(pos, False, cid) for pos, cid in consts]
    merged += [(pos, True, s) for pos, s in bound]
    merged.sort()
    return tuple((is_slot, v) for _, is_slot, v in merged)


def _key_srcs_ordered(consts, bound, order):
    """(is_slot, value) pairs following an explicit probe key order
    (a shared lex index's chain column order)."""
    by_pos = {pos: (False, cid) for pos, cid in consts}
    by_pos.update({pos: (True, s) for pos, s in bound})
    return tuple(by_pos[p] for p in order)


def _compile_rel(step, consts, db: SetDatabase):
    arity = step.arity
    if not step.free and not step.dups:
        # fully determined: membership check
        if arity == 0:
            return None if () in db.relation(step.predicate) else _DEAD
        if arity == 1:
            bits = db.bits(step.predicate)
            if not bits:
                return _DEAD  # empty unary relation: can never hold
            if step.consts:
                return None if (bits >> consts[0][1]) & 1 else _DEAD
            return (_OP_BITS, bits, step.bound[0][1])
        rel = db.relation(step.predicate)
        if not rel:
            return _DEAD
        srcs = _key_srcs(consts, step.bound)
        if all(not is_slot for is_slot, _ in srcs):
            key = tuple(v for _, v in srcs)
            return None if key in rel else _DEAD
        return (_OP_SET, rel, srcs)
    # free variables: scan or index probe
    key_positions = tuple(
        sorted([pos for pos, _ in consts] + [pos for pos, _ in step.bound])
    )
    if not key_positions:
        facts = db.relation(step.predicate)
        if not facts:
            return _DEAD
        return (_OP_SCAN, tuple(facts), step.free, step.dups)
    if not db.relation(step.predicate):
        return _DEAD
    get, key_order = db.probe_plan(step.predicate, key_positions)
    if not step.bound:
        # constants-only key: resolve the probe now
        by_pos = {pos: cid for pos, cid in consts}
        if len(key_order) == 1:
            matches = get(by_pos[key_order[0]])
        else:
            matches = get(tuple(by_pos[pos] for pos in key_order))
        if not matches:
            return _DEAD
        return (_OP_SCAN, tuple(matches), step.free, step.dups)
    if len(key_order) == 1:
        return (_OP_PROBE1, get, step.bound[0][1], step.free, step.dups)
    return (
        _OP_PROBE,
        get,
        _key_srcs_ordered(consts, step.bound, key_order),
        step.free,
        step.dups,
    )


def _compile_neg(step, consts, db: SetDatabase):
    arity = step.arity
    if arity == 0:
        return _DEAD if () in db.relation(step.predicate) else None
    if arity == 1:
        bits = db.bits(step.predicate)
        if not bits:
            return None  # negating an empty relation always holds
        if step.consts:
            return _DEAD if (bits >> consts[0][1]) & 1 else None
        return (_OP_NEG_BITS, bits, step.bound[0][1])
    rel = db.relation(step.predicate)
    if not rel:
        return None
    srcs = _key_srcs(consts, step.bound)
    if all(not is_slot for is_slot, _ in srcs):
        key = tuple(v for _, v in srcs)
        return _DEAD if key in rel else None
    return (_OP_NEG_SET, rel, srcs)


def _pattern_srcs(step):
    """(is_slot, value) per argument position: raw consts, slots for
    bound vars, UNBOUND placeholders for free/dup positions."""
    srcs: list = [None] * step.arity
    for pos, value in step.consts:
        srcs[pos] = (False, value)
    for pos, s in step.bound:
        srcs[pos] = (True, s)
    for pos, _ in step.free:
        srcs[pos] = (False, UNBOUND)
    for pos, _ in step.dups:
        srcs[pos] = (False, UNBOUND)
    return tuple(srcs)


def _compile_builtin(step, registry, value_of, intern):
    builtin = registry.get(step.predicate)
    pattern_srcs = _pattern_srcs(step)
    if all(not is_slot for is_slot, _ in pattern_srcs) and not step.free:
        pattern = tuple(v for _, v in pattern_srcs)
        return None if any(builtin.evaluate(pattern)) else _DEAD
    return (
        _OP_BUILTIN,
        builtin,
        pattern_srcs,
        step.free,
        step.dups,
        value_of,
        intern,
    )


def _compile_neg_builtin(step, registry, value_of):
    builtin = registry.get(step.predicate)
    pattern_srcs = _pattern_srcs(step)
    if all(not is_slot for is_slot, _ in pattern_srcs):
        pattern = tuple(v for _, v in pattern_srcs)
        return _DEAD if any(builtin.evaluate(pattern)) else None
    return (_OP_NEG_BUILTIN, builtin, pattern_srcs, value_of)


def ground_program_streamed(
    prepared: PreparedGrounding,
    db: SetDatabase,
    pool: InternPool,
    sink: StreamingHorn | None = None,
    stats: GroundingStats | None = None,
    demand=None,
    relevant: frozenset[str] | None = None,
    meter=None,
    profile: PlanProfile | None = None,
) -> StreamingHorn:
    """Stream demand-pruned ground instances into an online LTUR.

    The push-based production form of Theorem 4.4: ground rules are
    emitted as they become *supported* (their driver atom derived) and
    consumed immediately by ``sink`` (a
    :class:`~repro.datalog.horn.StreamingHorn`, created on demand), so
    the full ground program is never materialized.  ``demand`` -- a
    query predicate name, query :class:`~repro.datalog.ast.Atom`, or
    iterable of predicate names -- additionally restricts grounding to
    rules whose heads can reach the demanded predicates
    (:func:`repro.datalog.magic.demanded_predicates`); the resulting
    model is exact for the demanded predicates and their relevance
    cone, and empty elsewhere.

    Returns the sink; the least model is ``sink.flags(len(pool))`` and
    the residency/pruning counters land in ``stats``.  Callers solving
    the same program over many structures should resolve the demand
    once via :func:`resolve_demand` and pass ``relevant=`` instead of
    re-deriving it per solve.

    ``meter`` (a :class:`repro.datalog.budget.BudgetMeter`) makes the
    fixpoint loop budget-cooperative: the caps are checked once per
    demand round (and, via the sink, every few thousand derivations
    inside a round), raising
    :class:`~repro.datalog.budget.BudgetExceeded` instead of letting a
    pathological structure run the process away.
    """
    if pool.interner is not db.interner:
        raise ValueError(
            "pool and database must share one interner -- the point of "
            "the interned pipeline is a single interning context per solve"
        )
    sink = sink if sink is not None else StreamingHorn()
    stats = stats if stats is not None else GroundingStats()
    if prepared.index_selection is not None:
        db.use_index_selection(prepared.index_selection)
    if meter is not None:
        sink.meter = meter
        meter.check(stats.ground_rules)
    if relevant is None:
        relevant = resolve_demand(prepared.program, demand, prepared.registry)

    base_rules: list[_CompiledStreamRule] = []
    driven: dict[str, list[_CompiledStreamRule]] = {}
    deferred_by_driver: dict[str, list[_CompiledStreamRule]] = {}
    defer_heads = prepared.deferred
    for rule, plan in zip(prepared.program.rules, prepared.stream_plans):
        if relevant is not None and rule.head.predicate not in relevant:
            stats.rules_pruned += 1
            continue
        compiled = _compile_stream_rule(
            plan, db, pool, prepared.registry, sink, stats, profile
        )
        if compiled is None:
            stats.rules_pruned += 1
            continue
        if plan.driver is None:
            base_rules.append(compiled)
        elif rule.head.predicate in defer_heads:
            # sink-headed rules feed nothing downstream: accumulate
            # their driver atoms and fire once after the fixpoint
            deferred_by_driver.setdefault(
                plan.driver.atom.predicate, []
            ).append(compiled)
        else:
            driven.setdefault(plan.driver.atom.predicate, []).append(
                compiled
            )

    for compiled in base_rules:
        compiled.fire_base()
    atom_of = pool.atom_of
    take_fresh = sink.take_fresh
    get_driven = driven.get
    get_deferred = deferred_by_driver.get
    deferred_batches: dict[str, list[tuple[int, ...]]] = {}
    rounds = 0
    while True:
        if meter is not None:
            meter.check(stats.ground_rules)
        fresh = take_fresh()
        if not fresh:
            break
        rounds += 1
        # batch the round's driver events per predicate, then hand each
        # driven rule its whole batch in one call: the rule's op list
        # is walked once per (rule, round) instead of once per event
        # (ROADMAP (f) -- the per-event constants were what kept the
        # streamed emitter behind eager on fully-live programs)
        batches: dict[str, list[tuple[int, ...]]] = {}
        for fresh_id in fresh:
            predicate, args = atom_of(fresh_id)
            if get_driven(predicate) is not None:
                batches.setdefault(predicate, []).append(args)
            if get_deferred(predicate) is not None:
                deferred_batches.setdefault(predicate, []).append(args)
        for predicate, batch in batches.items():
            for compiled in driven[predicate]:
                compiled.fire_batch(batch)
    # the deferred-sink epilogue: every deferred rule fires exactly once,
    # against all the driver atoms the whole fixpoint derived; the
    # model below the sinks is final, so finalize-mode emission checks
    # the remaining body atoms instead of parking ground rules
    if meter is not None and deferred_batches:
        meter.check(stats.ground_rules)
    for predicate, batch in deferred_batches.items():
        for compiled in deferred_by_driver[predicate]:
            compiled.finalize = True
            compiled.fire_batch(batch)
    for rules in (driven, deferred_by_driver):
        for group in rules.values():
            for compiled in group:
                if not compiled.invoked:
                    stats.rules_pruned += 1
    stats.peak_live_rules = max(
        stats.peak_live_rules, sink.peak_live_rules
    )
    if profile is not None:
        profile.record_sizes(db)
        profile.record_rounds(rounds)
    return sink


def resolve_demand(program, demand, registry=None):
    """Normalize a demand spec (query predicate name, query atom, or an
    iterable of either) into the relevant-predicate set, or ``None``
    for no pruning.  Per-program work -- resolve once and reuse across
    structures."""
    if demand is None:
        return None
    from .magic import demanded_predicates

    if isinstance(demand, (str, Atom)):
        return demanded_predicates(program, demand, registry)
    relevant: set[str] = set()
    for query in demand:
        relevant |= demanded_predicates(program, query, registry)
    return frozenset(relevant)


def evaluate_via_grounding(
    program: Program,
    db: "Database | Structure | SetDatabase",
    registry: BuiltinRegistry | None = None,
    stats: GroundingStats | None = None,
    prepared: PreparedGrounding | None = None,
) -> set[Fact]:
    """The Theorem 4.4 pipeline: ground, then linear-time Horn solving.

    Runs the interned pipeline (one shared :class:`InternPool` from
    load through decode) and decodes the derived model at the very end.
    Returns the derived intensional facts (the extensional database is
    unchanged and not repeated in the result).
    """
    if prepared is None:
        prepared = prepare_grounding(program, registry)
    sdb = db if isinstance(db, SetDatabase) else SetDatabase.from_edb(db)
    pool = InternPool(sdb.interner)
    rules = ground_program_ids(prepared, sdb, pool, stats)
    flags = horn_least_model_ids(rules, len(pool))
    decode = pool.decode_atom
    return {decode(i) for i, flag in enumerate(flags) if flag}
