"""Set-at-a-time semi-naive evaluation (the default engine).

The ``naive`` oracle in :mod:`repro.datalog.evaluate` walks a rule's
join plan one binding dict at a time: every extension copies a
``Binding`` dict, every head instantiation goes through
``Atom.substitute``.  Those per-tuple constant factors are exactly what
Section 6 of the paper warns decide the practical viability of the
monadic-datalog route, so this module executes the *same* join plans
(:func:`repro.datalog.evaluate.plan_rule` -- planning is shared, only
execution differs) relation-at-a-time:

* Constants are interned into dense integer ids
  (:class:`repro.datalog.interning.Interner`) when the extensional
  database is loaded, so facts are int tuples and unary relations are
  mirrored as big-int bitsets.
* Each plan step consumes and produces a *columnar batch* of bindings:
  a dict of variable -> column list (parallel lists, one entry per
  surviving binding), or -- while the batch tracks a single variable of
  a unary chain -- a plain bitset.  Monadic rule bodies such as
  ``q(X) :- p(X), r(X), not s(X)`` then run as word-parallel ``&`` /
  ``& ~`` on ints with no per-row Python at all.
* Relation steps are hash joins at the relation level: the bound
  positions are classified once per step (they are static given the
  plan), one incrementally-maintained index is fetched per step, and
  the batch probes it row by row, with no per-binding
  ``Database.match`` (pattern tuple + index resolution per tuple).

Control flow is stratified semi-naive: per stratum, a round 0 firing
every rule, then delta-restricted rounds; a nonrecursive stratum
fires once.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from ..structures.structure import Fact, Structure
from .ast import Atom, Constant, Program, Rule, Variable
from .builtins import UNBOUND, BuiltinRegistry
from .evaluate import (
    Database,
    EvaluationStats,
    PlanStep,
    PreparedProgram,
    UnsafeRuleError,
    prepare_program,
)
from .interning import Interner, iter_bits
from .profile import IndexSelection, PlanProfile

__all__ = [
    "Batch",
    "BitBatch",
    "IndexStats",
    "SetDatabase",
    "SetSemiNaiveEvaluator",
    "least_fixpoint",
]

_EMPTY_SET: frozenset = frozenset()

#: upper sentinel for lexicographic prefix probes: compares greater
#: than every interned id (ids are ints)
_SUP = float("inf")


@dataclass
class IndexStats:
    """Index build accounting for one :class:`SetDatabase`.

    ``rebuilds`` counts builds of a ``(predicate, positions)`` pattern
    that had already been built on this database -- i.e. an index that
    was invalidated and paid for again.  A healthy fixpoint keeps this
    flat: `copy_relation` extends existing indexes incrementally
    instead of dropping them, so churny delta rounds never rebuild."""

    builds: int = 0
    rebuilds: int = 0
    lex_builds: int = 0
    lex_rebuilds: int = 0


class _LexIndex:
    """One shared lexicographic index: the relation's facts sorted by a
    column permutation.  Every search signature covered by the owning
    MinChainCover chain probes the same sorted array on a key *prefix*
    (two binary searches per probe), which is what lets one index
    replace a hash index per access pattern."""

    __slots__ = ("order", "keys", "rows")

    def __init__(
        self, order: tuple[int, ...], facts: Iterable[tuple[int, ...]]
    ):
        pairs = sorted(
            (tuple(f[p] for p in order), f) for f in facts
        )
        self.order = order
        self.keys = [key for key, _ in pairs]
        self.rows = [row for _, row in pairs]

    def prober(self, prefix_len: int):
        """A ``get`` callable probing on the first ``prefix_len`` lex
        columns; takes a bare id when ``prefix_len == 1`` (matching the
        single-position hash-index contract), a tuple otherwise.
        Returns the matching rows or None."""
        keys = self.keys
        rows = self.rows
        if prefix_len == 1:

            def get(value):
                lo = bisect_left(keys, (value,))
                hi = bisect_left(keys, (value, _SUP), lo)
                return rows[lo:hi] if hi > lo else None

        else:

            def get(key):
                lo = bisect_left(keys, key)
                hi = bisect_left(keys, key + (_SUP,), lo)
                return rows[lo:hi] if hi > lo else None

        return get


# ----------------------------------------------------------------------
# Interned fact storage
# ----------------------------------------------------------------------


class SetDatabase:
    """Facts over interned ids, with bitset mirrors of unary relations
    and incrementally-maintained per-predicate hash indexes.

    ``add`` touches only the indexes of the inserted fact's predicate
    (they are registered per predicate), keeping bulk insertion linear.
    Arity-1 facts additionally set their element's bit in the
    predicate's bitset, which is what the monadic fast paths of the
    evaluator operate on.
    """

    __slots__ = (
        "interner",
        "_facts",
        "_bits",
        "_indexes",
        "_lex",
        "_selection",
        "_ever_built",
        "index_stats",
    )

    def __init__(self, interner: Interner | None = None):
        self.interner = interner if interner is not None else Interner()
        self._facts: dict[str, set[tuple[int, ...]]] = {}
        self._bits: dict[str, int] = {}
        #: predicate -> {positions -> {key -> rows}}; keys are scalar
        #: ids for single-position indexes, tuples otherwise.
        self._indexes: dict[str, dict[tuple[int, ...], dict]] = {}
        #: predicate -> {lex column order -> _LexIndex} (built lazily
        #: when an installed IndexSelection routes a probe here)
        self._lex: dict[str, dict[tuple[int, ...], _LexIndex]] = {}
        self._selection: IndexSelection | None = None
        #: (predicate, positions) patterns ever built on this database
        #: -- a second build of the same pattern is a rebuild
        self._ever_built: set = set()
        self.index_stats = IndexStats()

    @classmethod
    def from_edb(
        cls, edb: "Database | Structure | Iterable[Fact]"
    ) -> "SetDatabase":
        """Intern an extensional database.

        For a :class:`Structure` the whole domain is interned first (in
        a deterministic order), so the structure's elements occupy the
        dense low ids of every bitset; constants introduced later by
        built-ins extend the id space above them.

        When every constant is already a dense non-negative int (the
        shape every generated workload and the ``A_td`` encoding use),
        an identity interner is seeded instead and the input fact
        tuples are adopted as the interned tuples -- loading and
        decoding then copy sets at C speed with no per-tuple
        translation.
        """
        if isinstance(edb, SetDatabase):
            # already interned: snapshot instead of re-interning (the
            # cross-backend compare fast path -- load the structure
            # once, hand each backend a cheap copy)
            return edb.snapshot()
        if isinstance(edb, Structure):
            relations = {
                name: edb.relation(name) for name in edb.signature
            }
            domain = edb.domain
        elif isinstance(edb, Database):
            relations = {
                predicate: edb.relation(predicate)
                for predicate in edb.predicates()
            }
            domain = None
        else:
            relations = {}
            for fact in edb:
                relations.setdefault(fact.predicate, set()).add(fact.args)
            domain = None

        values: set = set() if domain is None else set(domain)
        for rel in relations.values():
            for tup in rel:
                values.update(tup)
        dense = values and all(
            type(v) is int and v >= 0 for v in values
        ) and max(values) < 8 * len(values) + 1024

        if dense:
            db = cls(Interner.identity(max(values) + 1))
            for predicate, rel in relations.items():
                for tup in rel:
                    db.add(predicate, tup)
            return db

        db = cls()
        intern = db.interner.intern
        if domain is not None:
            for element in sorted(domain, key=repr):
                intern(element)
        for predicate, rel in relations.items():
            for tup in rel:
                db.add(predicate, tuple(map(intern, tup)))
        return db

    def spawn_delta(self) -> "SetDatabase":
        """An empty database sharing this one's interner (the per-round
        delta of the semi-naive loop)."""
        return SetDatabase(self.interner)

    def snapshot(self) -> "SetDatabase":
        """A mutation-isolated copy sharing this one's interner.

        Fact sets and bitsets are copied at C speed (no per-tuple
        work); indexes are rebuilt lazily on the copy.  Sharing the
        interner is safe because it is append-only -- an evaluation
        that interns fresh builtin outputs on the snapshot extends the
        shared id space without disturbing existing ids.  This is what
        lets a benchmark compare run intern an EDB *once* and hand
        every backend its own evaluation copy.
        """
        copy = SetDatabase(self.interner)
        copy._facts = {
            predicate: set(rel) for predicate, rel in self._facts.items()
        }
        copy._bits = dict(self._bits)
        return copy

    def add_new(self, predicate: str, args: tuple[int, ...]) -> None:
        """Insert a fact the caller guarantees is absent (the delta
        side of the flush: the main database's ``add`` already
        deduplicated it).  Skips the membership test; indexes are
        still maintained."""
        self._facts.setdefault(predicate, set()).add(args)
        if len(args) == 1:
            self._bits[predicate] = self._bits.get(predicate, 0) | (
                1 << args[0]
            )
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    key = args[positions[0]]
                else:
                    key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
        if self._lex and predicate in self._lex:
            del self._lex[predicate]

    def add(self, predicate: str, args: tuple[int, ...]) -> bool:
        """Insert an interned fact; True iff new."""
        rel = self._facts.setdefault(predicate, set())
        if args in rel:
            return False
        rel.add(args)
        if len(args) == 1:
            self._bits[predicate] = self._bits.get(predicate, 0) | (
                1 << args[0]
            )
        indexes = self._indexes.get(predicate)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    key = args[positions[0]]
                else:
                    key = tuple(args[i] for i in positions)
                index.setdefault(key, []).append(args)
        if self._lex and predicate in self._lex:
            del self._lex[predicate]
        return True

    def relation(self, predicate: str) -> set[tuple[int, ...]]:
        return self._facts.get(predicate, _EMPTY_SET)

    def bits(self, predicate: str) -> int:
        """The bitset of an arity-1 predicate (0 when empty/absent)."""
        return self._bits.get(predicate, 0)

    def contains(self, predicate: str, args: tuple[int, ...]) -> bool:
        return args in self._facts.get(predicate, _EMPTY_SET)

    def fact_count(self) -> int:
        return sum(len(rel) for rel in self._facts.values())

    def predicates(self):
        return iter(self._facts)

    def _check_positions(
        self, predicate: str, positions: tuple[int, ...]
    ) -> None:
        """Validate index positions against the relation's arity at
        build time (an out-of-range position would otherwise silently
        produce an empty index and empty join results)."""
        rel = self._facts.get(predicate)
        if not rel:
            return  # empty relation: arity unknown, nothing to probe
        arity = len(next(iter(rel)))
        bad = [p for p in positions if p < 0 or p >= arity]
        if bad:
            raise ValueError(
                f"index positions {bad} out of range for predicate "
                f"{predicate!r} of arity {arity}"
            )

    def index_for(self, predicate: str, positions: tuple[int, ...]) -> dict:
        """The hash index of ``predicate`` on ``positions``; built
        lazily, maintained incrementally by :meth:`add`.  Single-
        position indexes use the bare id as key (no tuple allocation on
        the probe side)."""
        per_pred = self._indexes.setdefault(predicate, {})
        index = per_pred.get(positions)
        if index is None:
            self._check_positions(predicate, positions)
            stats = self.index_stats
            stats.builds += 1
            pattern = (predicate, positions)
            if pattern in self._ever_built:
                stats.rebuilds += 1
            else:
                self._ever_built.add(pattern)
            index = {}
            if len(positions) == 1:
                p = positions[0]
                for args in self._facts.get(predicate, ()):
                    index.setdefault(args[p], []).append(args)
            else:
                for args in self._facts.get(predicate, ()):
                    key = tuple(args[i] for i in positions)
                    index.setdefault(key, []).append(args)
            per_pred[positions] = index
        return index

    def use_index_selection(self, selection: IndexSelection | None) -> None:
        """Install a MinIndexSelection result: search signatures it
        covers with a shared lexicographic index resolve through
        :meth:`probe_plan` to prefix probes of one `_LexIndex` per
        chain; uncovered signatures keep per-pattern hash indexes."""
        self._selection = selection

    def _lex_for(
        self, predicate: str, order: tuple[int, ...]
    ) -> _LexIndex:
        per_pred = self._lex.setdefault(predicate, {})
        lex = per_pred.get(order)
        if lex is None:
            self._check_positions(predicate, order)
            stats = self.index_stats
            stats.lex_builds += 1
            pattern = (predicate, ("lex",) + order)
            if pattern in self._ever_built:
                stats.lex_rebuilds += 1
            else:
                self._ever_built.add(pattern)
            lex = _LexIndex(order, self._facts.get(predicate, ()))
            per_pred[order] = lex
        return lex

    def probe_plan(self, predicate: str, positions: tuple[int, ...]):
        """Resolve a search signature to ``(get, key_order)``.

        ``get`` maps a probe key to matching rows (or None);
        ``key_order`` lists the positions in the order the key tuple
        must be assembled -- sorted positions for a hash index, the
        chain's lexicographic column order for a shared lex index.  A
        bare id is accepted instead of a 1-tuple when the key has one
        position (both index kinds honour the single-position
        fast path)."""
        selection = self._selection
        if selection is not None:
            spec = selection.probe_spec(predicate, positions)
            if spec is not None:
                order, prefix_len = spec
                lex = self._lex_for(predicate, order)
                return lex.prober(prefix_len), order[:prefix_len]
        return self.index_for(predicate, positions).get, positions

    def decode_relation(self, predicate: str) -> set[tuple]:
        """Decode one relation to raw-value tuples (the lazy boundary:
        a goal-directed caller decodes its answer predicate and nothing
        else)."""
        rel = self._facts.get(predicate, _EMPTY_SET)
        if self.interner.is_identity:
            return set(rel)
        value_of = self.interner.value_of
        return {tuple(value_of(i) for i in args) for args in rel}

    def copy_relation(self, src: str, dst: str) -> None:
        """Alias ``src``'s facts under predicate ``dst`` -- entirely in
        interned-id space, and in bulk: the fact set is copied/unioned
        at C speed like :meth:`snapshot` (the old tuple-at-a-time loop
        through :meth:`add` re-maintained bitsets and indexes per
        fact), and the unary bitset is OR-ed in one big-int op.  Any
        existing hash indexes of ``dst`` are *extended* with the facts
        the union actually added (this used to invalidate them
        wholesale, so every copy/probe cycle rebuilt ``dst``'s indexes
        from scratch -- `IndexStats.rebuilds` now stays flat across
        such churn).  This is how the magic backend surfaces adorned
        answers under the original predicate name without decoding at
        the backend boundary."""
        src_rel = self._facts.get(src)
        if not src_rel:
            return
        dst_rel = self._facts.get(dst)
        if dst_rel:
            fresh: "set | frozenset" = src_rel - dst_rel
            dst_rel |= fresh
        else:
            fresh = src_rel
            self._facts[dst] = set(src_rel)
        if not fresh:
            return
        src_bits = self._bits.get(src)
        if src_bits is not None:
            self._bits[dst] = self._bits.get(dst, 0) | src_bits
        indexes = self._indexes.get(dst)
        if indexes:
            for positions, index in indexes.items():
                if len(positions) == 1:
                    p = positions[0]
                    for args in fresh:
                        index.setdefault(args[p], []).append(args)
                else:
                    for args in fresh:
                        key = tuple(args[i] for i in positions)
                        index.setdefault(key, []).append(args)
        if self._lex and dst in self._lex:
            del self._lex[dst]  # sorted arrays rebuild lazily

    def decode(self) -> Database:
        """Materialize a plain value-level :class:`Database`."""
        if self.interner.is_identity:
            return Database.from_relations(
                {
                    predicate: set(rel)
                    for predicate, rel in self._facts.items()
                }
            )
        value = self.interner.value_of
        return Database.from_relations(
            {
                predicate: {
                    tuple(value(i) for i in args) for args in rel
                }
                for predicate, rel in self._facts.items()
            }
        )


# ----------------------------------------------------------------------
# Columnar batches
# ----------------------------------------------------------------------


class Batch:
    """A set of bindings, stored columnar: variable -> parallel list."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[Variable, list[int]], length: int):
        self.columns = columns
        self.length = length


class BitBatch:
    """A single-variable batch stored as a bitset.

    Used while a rule body is a chain of unary steps over one variable
    -- the defining shape of monadic datalog -- so successive steps run
    as word-parallel ``&`` / ``& ~`` on one int.
    """

    __slots__ = ("var", "bits")

    def __init__(self, var: Variable, bits: int):
        self.var = var
        self.bits = bits


def _materialize(batch: BitBatch) -> Batch:
    column = list(iter_bits(batch.bits))
    return Batch({batch.var: column}, len(column))


def _size(batch: "Batch | BitBatch") -> int:
    if type(batch) is BitBatch:
        return batch.bits.bit_count()
    return batch.length


def _take(batch: Batch, keep: list[int]) -> Batch:
    if len(keep) == batch.length:
        return batch
    return Batch(
        {v: [col[r] for r in keep] for v, col in batch.columns.items()},
        len(keep),
    )


# ----------------------------------------------------------------------
# Step compilation: classify each atom position once per plan, not once
# per binding (the classification is static given the join order).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _CompiledStep:
    kind: str  # "relation" | "builtin" | "negation"
    body_index: int
    predicate: str
    arity: int
    atom: Atom
    consts: tuple[tuple[int, object], ...]  # (position, raw value)
    bound: tuple[tuple[int, Variable], ...]  # already-bound variables
    free: tuple[tuple[int, Variable], ...]  # first occurrences
    dups: tuple[tuple[int, int], ...]  # repeated free var: (pos, first pos)
    #: variables still needed by later steps or the head -- batch
    #: columns outside this set are projected away by the step
    live: frozenset[Variable]


@dataclass(frozen=True)
class _CompiledHead:
    predicate: str
    arity: int
    consts: tuple[tuple[int, object], ...]
    vars: tuple[tuple[int, Variable], ...]


def _compile_steps(
    rule: Rule, plan: tuple[PlanStep, ...]
) -> tuple[_CompiledStep, ...]:
    # live-after set per step: the head's variables plus everything a
    # later step still reads (classic projection push-down)
    acc = set(rule.head.variables())
    live_after: list[frozenset[Variable]] = [frozenset()] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        live_after[i] = frozenset(acc)
        acc.update(plan[i].literal.atom.variables())

    bound_vars: set[Variable] = set()
    out: list[_CompiledStep] = []
    for step_index, step in enumerate(plan):
        atom = step.literal.atom
        consts: list[tuple[int, object]] = []
        bound: list[tuple[int, Variable]] = []
        free: list[tuple[int, Variable]] = []
        dups: list[tuple[int, int]] = []
        first_pos: dict[Variable, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                consts.append((pos, arg.value))
            elif arg in bound_vars:
                bound.append((pos, arg))
            elif arg in first_pos:
                dups.append((pos, first_pos[arg]))
            else:
                first_pos[arg] = pos
                free.append((pos, arg))
        out.append(
            _CompiledStep(
                kind=step.kind,
                body_index=step.body_index,
                predicate=atom.predicate,
                arity=atom.arity,
                atom=atom,
                consts=tuple(consts),
                bound=tuple(bound),
                free=tuple(free),
                dups=tuple(dups),
                live=live_after[step_index],
            )
        )
        bound_vars.update(atom.variables())
    return tuple(out)


def _compile_head(head: Atom) -> _CompiledHead:
    consts: list[tuple[int, object]] = []
    hvars: list[tuple[int, Variable]] = []
    for pos, arg in enumerate(head.args):
        if isinstance(arg, Constant):
            consts.append((pos, arg.value))
        else:
            hvars.append((pos, arg))
    return _CompiledHead(
        head.predicate, head.arity, tuple(consts), tuple(hvars)
    )


def _fact_shaped_keys(cstep: _CompiledStep, batch: Batch, consts):
    """Per-row candidate fact tuples for fully-bound (semi-join /
    negation) steps; position order, so they compare against the
    stored facts directly."""
    n = batch.length
    sources: list = [None] * cstep.arity
    for pos, cid in consts:
        sources[pos] = repeat(cid, n)
    for pos, var in cstep.bound:
        sources[pos] = batch.columns[var]
    return zip(*sources)


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------


class SetSemiNaiveEvaluator:
    """Stratified semi-naive evaluation, executed set-at-a-time.

    :meth:`evaluate` returns a value-level :class:`Database` holding
    extensional plus derived facts; :meth:`run` keeps the result
    interned.  ``stats`` holds the :class:`EvaluationStats` counters
    -- ``rule_firings`` counts batch rows, so duplicate bindings
    collapsed by a bitset step are counted once.
    """

    def __init__(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        prepared: PreparedProgram | None = None,
        profile: PlanProfile | None = None,
        apply_index_selection: bool = True,
    ):
        if prepared is None:
            prepared = prepare_program(program, registry)
        self.prepared = prepared
        self.program = prepared.program
        self.registry = prepared.registry
        self.idb = prepared.idb
        self.strata = list(prepared.strata)
        self.stats = EvaluationStats()
        #: set to a PlanProfile to record per-step cardinalities and
        #: per-signature probe fanout during :meth:`run` (the
        #: profiling half of the profile -> replan loop)
        self.profile = profile
        self._apply_selection = apply_index_selection
        self._steps = tuple(
            _compile_steps(rule, plan)
            for rule, plan in zip(prepared.program.rules, prepared.plans)
        )
        self._heads = tuple(
            _compile_head(rule.head) for rule in prepared.program.rules
        )
        #: per (rule, step): the probe step's (predicate, sorted key
        #: positions) search signature, or None for non-probe steps --
        #: what the profiler keys probe counts by
        self._probe_sigs = tuple(
            tuple(
                (
                    cstep.predicate,
                    tuple(
                        sorted(
                            [p for p, _ in cstep.consts]
                            + [p for p, _ in cstep.bound]
                        )
                    ),
                )
                if cstep.kind == "relation"
                and cstep.free
                and (cstep.consts or cstep.bound)
                else None
                for cstep in steps
            )
            for steps in self._steps
        )

    @classmethod
    def from_prepared(
        cls, prepared: PreparedProgram, **kwargs
    ) -> "SetSemiNaiveEvaluator":
        return cls(prepared.program, prepared=prepared, **kwargs)

    # -- public API -----------------------------------------------------

    def evaluate(
        self, edb: "Database | Iterable[Fact] | Structure"
    ) -> Database:
        """Least fixpoint of ``P ∪ A`` as a value-level database."""
        return self.run(SetDatabase.from_edb(edb)).decode()

    def run(self, db: SetDatabase) -> SetDatabase:
        """The fixpoint over an already-interned database (kept
        interned; :meth:`evaluate` is the decoding wrapper)."""
        if (
            self._apply_selection
            and self.prepared.index_selection is not None
        ):
            db.use_index_selection(self.prepared.index_selection)
        for stratum_plan in self.prepared.stratum_plans:
            if not any(stratum_plan.recursive_positions):
                # fire-once route: an SCC-refined nonrecursive
                # stratum never consumes its own output, so one firing
                # is its fixpoint -- no delta database, no re-fire
                derived: list[tuple[str, tuple[int, ...]]] = []
                for rule_index in stratum_plan.rule_indices:
                    self._fire(rule_index, db, derived, None, None)
                stats = self.stats
                add = db.add
                for predicate, args in derived:
                    if add(predicate, args):
                        stats.facts_derived += 1
                continue
            # round 0: every rule once against the current database
            delta = db.spawn_delta()
            derived = []
            for rule_index in stratum_plan.rule_indices:
                self._fire(rule_index, db, derived, None, None)
            self._flush(db, delta, derived)

            # subsequent rounds: delta-restricted re-evaluation
            while delta.fact_count():
                self.stats.iterations += 1
                new_delta = db.spawn_delta()
                derived = []
                for rule_index, positions in zip(
                    stratum_plan.rule_indices,
                    stratum_plan.recursive_positions,
                ):
                    for body_index in positions:
                        self._fire(
                            rule_index, db, derived, body_index, delta
                        )
                self._flush(db, new_delta, derived)
                delta = new_delta
        if self.profile is not None:
            self.profile.record_sizes(db)
            self.profile.record_rounds(self.stats.iterations)
        return db

    def _flush(
        self,
        db: SetDatabase,
        delta: SetDatabase,
        derived: list[tuple[str, tuple[int, ...]]],
    ) -> None:
        stats = self.stats
        add = db.add
        delta_add = delta.add_new
        for predicate, args in derived:
            if add(predicate, args):
                delta_add(predicate, args)
                stats.facts_derived += 1

    # -- rule execution -------------------------------------------------

    def _fire(
        self,
        rule_index: int,
        db: SetDatabase,
        out: list[tuple[str, tuple[int, ...]]],
        delta_index: int | None,
        delta: SetDatabase | None,
    ) -> None:
        batch: Batch | BitBatch = Batch({}, 1)
        profile = self.profile
        stats = self.stats
        for step_index, cstep in enumerate(self._steps[rule_index]):
            n_in = _size(batch) if profile is not None else 0
            from_delta = (
                delta_index is not None
                and cstep.body_index == delta_index
            )
            if cstep.kind == "relation":
                source = delta if from_delta else db
                batch = self._join(batch, cstep, source, db.interner)
            elif cstep.kind == "builtin":
                batch = self._builtin(batch, cstep, db.interner)
            else:
                batch = self._negate(batch, cstep, db)
            n_out = _size(batch)
            stats.bindings_explored += n_out
            if profile is not None:
                profile.record_step(rule_index, step_index, n_in, n_out)
                sig = self._probe_sigs[rule_index][step_index]
                if sig is not None and not from_delta:
                    # fanout of the full relation only: a delta probe's
                    # hit rate says nothing about the stored index
                    profile.record_probe(sig[0], sig[1], n_in, n_out)
            if not n_out:
                return
        self._project(rule_index, batch, db.interner, out)

    # NOTE: _join/_builtin/_negate have a raw-value twin in
    # grounding._instantiate_batch (grounding runs before interning).
    # A semantics fix here must be mirrored there.
    def _join(
        self,
        batch: "Batch | BitBatch",
        cstep: _CompiledStep,
        source: SetDatabase,
        interner: Interner,
    ) -> "Batch | BitBatch":
        predicate = cstep.predicate
        if type(batch) is BitBatch:
            if cstep.arity == 1 and not cstep.free:
                if cstep.bound:  # p(V) with V the batch variable
                    return BitBatch(
                        batch.var, batch.bits & source.bits(predicate)
                    )
                cid = interner.intern(cstep.consts[0][1])
                if (source.bits(predicate) >> cid) & 1:
                    return batch
                return BitBatch(batch.var, 0)
            batch = _materialize(batch)

        n = batch.length
        columns = batch.columns
        consts = [
            (pos, interner.intern(value)) for pos, value in cstep.consts
        ]

        if not cstep.free:  # semi-join: every position already bound
            if cstep.arity == 0:
                rel = source.relation(predicate)
                return batch if () in rel else Batch(
                    {v: [] for v in columns}, 0
                )
            if cstep.arity == 1:
                bits = source.bits(predicate)
                if consts:
                    if (bits >> consts[0][1]) & 1:
                        return batch
                    return Batch({v: [] for v in columns}, 0)
                column = columns[cstep.bound[0][1]]
                keep = [
                    r for r in range(n) if (bits >> column[r]) & 1
                ]
                return _take(batch, keep)
            rel = source.relation(predicate)
            keep = [
                r
                for r, key in enumerate(
                    _fact_shaped_keys(cstep, batch, consts)
                )
                if key in rel
            ]
            return _take(batch, keep)

        dups = cstep.dups
        key_positions = tuple(
            sorted(
                [pos for pos, _ in consts] + [pos for pos, _ in cstep.bound]
            )
        )

        live = cstep.live
        if not key_positions:  # relation scan (round-0 first steps)
            facts = source.relation(predicate)
            if dups:
                facts = [
                    f
                    for f in facts
                    if all(f[p] == f[q] for p, q in dups)
                ]
            if not columns:  # unit batch: the scan IS the result
                if cstep.arity == 1:
                    return BitBatch(
                        cstep.free[0][1], source.bits(predicate)
                    )
                if not facts:
                    return Batch({var: [] for _, var in cstep.free}, 0)
                # transpose at C speed, then pick the needed columns
                transposed = list(zip(*facts))
                return Batch(
                    {
                        var: list(transposed[pos])
                        for pos, var in cstep.free
                        if var in live
                    },
                    len(facts),
                )
            # cross product against an unrestricted relation: rare (the
            # planner prefers bound steps), but keep it correct.
            facts = list(facts)
            out_columns = {v: [] for v in columns if v in live}
            out_columns.update(
                {var: [] for _, var in cstep.free if var in live}
            )
            old = [
                (out_columns[v].append, columns[v])
                for v in columns
                if v in live
            ]
            new = [
                (out_columns[var].append, pos)
                for pos, var in cstep.free
                if var in live
            ]
            for r in range(n):
                for fact in facts:
                    for append, col in old:
                        append(col[r])
                    for append, pos in new:
                        append(fact[pos])
            return Batch(out_columns, n * len(facts))

        # relation-level join: one index probe handle per step, probed
        # per row.  probe_plan resolves the search signature to either
        # the per-pattern hash index or a shared lexicographic index
        # (key assembled in the chain's column order, not sorted order)
        get, key_order = source.probe_plan(predicate, key_positions)
        by_pos: dict[int, object] = {pos: cid for pos, cid in consts}
        for pos, var in cstep.bound:
            by_pos[pos] = columns[var]
        if len(key_order) == 1:
            key_source = by_pos[key_order[0]]
            keys = (
                repeat(key_source, n)
                if not isinstance(key_source, list)
                else key_source
            )
        else:
            keys = zip(
                *(
                    repeat(by_pos[pos], n)
                    if not isinstance(by_pos[pos], list)
                    else by_pos[pos]
                    for pos in key_order
                )
            )

        out_columns = {v: [] for v in columns if v in live}
        out_columns.update(
            {var: [] for _, var in cstep.free if var in live}
        )
        old = [
            (out_columns[v].append, columns[v])
            for v in columns
            if v in live
        ]
        new = [
            (out_columns[var].append, pos)
            for pos, var in cstep.free
            if var in live
        ]
        count = 0
        for r, key in enumerate(keys):
            matches = get(key)
            if not matches:
                continue
            if dups:
                matches = [
                    f
                    for f in matches
                    if all(f[p] == f[q] for p, q in dups)
                ]
                if not matches:
                    continue
            for append, col in old:
                value = col[r]
                for _ in matches:
                    append(value)
            for append, pos in new:
                for fact in matches:
                    append(fact[pos])
            count += len(matches)
        return Batch(out_columns, count)

    def _negate(
        self,
        batch: "Batch | BitBatch",
        cstep: _CompiledStep,
        db: SetDatabase,
    ) -> "Batch | BitBatch":
        predicate = cstep.predicate
        if cstep.free or cstep.dups:
            raise UnsafeRuleError(
                f"negated atom {cstep.atom} not fully bound"
            )
        registry = self.registry
        is_builtin = predicate in registry and predicate not in self.idb
        interner = db.interner

        if type(batch) is BitBatch:
            if cstep.arity == 1 and not is_builtin:
                if cstep.bound:
                    # complement against the batch, which is a subset of
                    # the interned domain -- no unbounded ~ needed
                    return BitBatch(
                        batch.var, batch.bits & ~db.bits(predicate)
                    )
                cid = interner.intern(cstep.consts[0][1])
                if (db.bits(predicate) >> cid) & 1:
                    return BitBatch(batch.var, 0)
                return batch
            batch = _materialize(batch)

        n = batch.length
        columns = batch.columns
        consts = [
            (pos, interner.intern(value)) for pos, value in cstep.consts
        ]

        if is_builtin:
            builtin = registry.get(predicate)
            value_of = interner.value_of
            sources: list = [None] * cstep.arity
            for pos, value in cstep.consts:
                sources[pos] = repeat(value, n)
            for pos, var in cstep.bound:
                sources[pos] = [value_of(i) for i in columns[var]]
            patterns = (
                zip(*sources) if cstep.arity else repeat((), n)
            )
            keep = [
                r
                for r, pattern in enumerate(patterns)
                if not any(builtin.evaluate(pattern))
            ]
            return _take(batch, keep)

        if cstep.arity == 0:
            if () in db.relation(predicate):
                return Batch({v: [] for v in columns}, 0)
            return batch
        if cstep.arity == 1:
            bits = db.bits(predicate)
            if consts:
                if (bits >> consts[0][1]) & 1:
                    return Batch({v: [] for v in columns}, 0)
                return batch
            column = columns[cstep.bound[0][1]]
            keep = [
                r for r in range(n) if not (bits >> column[r]) & 1
            ]
            return _take(batch, keep)
        rel = db.relation(predicate)
        keep = [
            r
            for r, key in enumerate(_fact_shaped_keys(cstep, batch, consts))
            if key not in rel
        ]
        return _take(batch, keep)

    def _builtin(
        self,
        batch: "Batch | BitBatch",
        cstep: _CompiledStep,
        interner: Interner,
    ) -> Batch:
        if type(batch) is BitBatch:
            batch = _materialize(batch)
        builtin = self.registry.get(cstep.predicate)
        n = batch.length
        columns = batch.columns
        value_of = interner.value_of
        intern = interner.intern

        # built-ins see raw values; ids are decoded on the way in and
        # fresh values (e.g. built sets) interned on the way out
        sources: list = [None] * cstep.arity
        for pos, value in cstep.consts:
            sources[pos] = repeat(value, n)
        for pos, var in cstep.bound:
            sources[pos] = [value_of(i) for i in columns[var]]
        for pos, _ in cstep.free:
            sources[pos] = repeat(UNBOUND, n)
        for pos, _ in cstep.dups:
            sources[pos] = repeat(UNBOUND, n)
        patterns = zip(*sources) if cstep.arity else repeat((), n)

        live = cstep.live
        out_columns = {v: [] for v in columns if v in live}
        out_columns.update(
            {var: [] for _, var in cstep.free if var in live}
        )
        old = [
            (out_columns[v].append, columns[v])
            for v in columns
            if v in live
        ]
        new = [
            (out_columns[var].append, pos)
            for pos, var in cstep.free
            if var in live
        ]
        dups = cstep.dups
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
        return Batch(out_columns, count)

    def _project(
        self,
        rule_index: int,
        batch: "Batch | BitBatch",
        interner: Interner,
        out: list[tuple[str, tuple[int, ...]]],
    ) -> None:
        head = self._heads[rule_index]
        predicate = head.predicate
        if type(batch) is BitBatch:
            if head.arity == 1 and not head.consts:
                bits = batch.bits
                self.stats.rule_firings += bits.bit_count()
                out.extend((predicate, (i,)) for i in iter_bits(bits))
                return
            batch = _materialize(batch)
        n = batch.length
        self.stats.rule_firings += n
        if head.arity == 0:
            if n:
                out.append((predicate, ()))
            return
        sources: list = [None] * head.arity
        for pos, value in head.consts:
            sources[pos] = repeat(interner.intern(value), n)
        for pos, var in head.vars:
            sources[pos] = batch.columns[var]
        if head.arity == 1:
            out.extend((predicate, (x,)) for x in sources[0])
        else:
            out.extend((predicate, args) for args in zip(*sources))


def least_fixpoint(
    program: Program,
    edb: "Database | Iterable[Fact] | Structure",
    registry: BuiltinRegistry | None = None,
) -> Database:
    """Convenience wrapper: the semi-naive least fixpoint of ``P ∪ A``
    (extensional plus derived facts), set at a time."""
    return SetSemiNaiveEvaluator(program, registry).evaluate(edb)
