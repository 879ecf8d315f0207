"""The Theorem 4.4 evaluation pipeline.

A quasi-guarded program P over a structure A is evaluated in
O(|P| * |A|): instantiate each rule's guard against the database (at
most |A| instantiations, each determining every variable of the rule),
then solve the resulting ground program by linear-time unit resolution.
This module packages the two halves
(:mod:`repro.datalog.grounding` + :mod:`repro.datalog.horn`) behind a
checked facade and is what the generic Theorem 4.5 programs run on.

Two execution modes share the cached per-program plans:

* ``"streamed"`` (the default, the production path of
  :class:`repro.core.solver.CourcelleSolver`): grounding is a
  push-based emitter feeding an online LTUR
  (:class:`~repro.datalog.horn.StreamingHorn`) -- ground rules are
  instantiated on demand as their driving intensional atoms derive,
  whole rules are demand-pruned relative to ``demand`` (magic-style
  relevance at grounding time), rules headed by a sink predicate fire
  once after the fixpoint, and peak live-rule residency is the waiting
  frontier, not the ground program;
* ``"eager"`` (the ``quasi-guarded-eager`` backend, the service's
  budget fallback): the full ground program is materialized, then
  solved by batch LTUR.

Both modes thread one :class:`~repro.datalog.interning.InternPool`
from structure load through grounding, unit resolution, and result
decoding -- a fact is interned exactly once per solve, the grounding ->
horn boundary is pure integers, and :class:`QuasiGuardedResult` decodes
lazily on access (a ``query()`` for one unary predicate never
materializes the rest of the model).
"""

from __future__ import annotations

from ..datalog.ast import Program
from ..datalog.backends import ProgramCache, default_cache
from ..datalog.budget import as_meter
from ..datalog.builtins import BuiltinRegistry
from ..datalog.evaluate import Database
from ..datalog.grounding import (
    GroundingStats,
    ground_program_ids,
    ground_program_streamed,
    resolve_demand,
)
from ..datalog.guards import KeyDependency, is_quasi_guarded, td_key_dependencies
from ..datalog.horn import horn_least_model_ids
from ..datalog.interning import InternPool
from ..datalog.setengine import SetDatabase
from ..structures.structure import Fact, Structure

_MODES = ("streamed", "eager")
_UNRESOLVED = object()  # sentinel: derive the relevance set here


class QuasiGuardedResult:
    """The derived intensional model of one Theorem 4.4 solve.

    The model is kept as dense atom ids (``pool`` + ``flags``) and
    decoded **lazily**: ``holds`` and ``unary_answers`` answer straight
    off the interned model, and the full ``facts`` set is only
    materialized on first access.

    A *demand-pruned* solve (streamed mode with ``demand`` set) is
    exact only for the demanded predicates and their relevance cone;
    predicates outside it are simply absent from the model.

    ``stats`` carries the solve's :class:`GroundingStats` (pruning and
    residency counters for the streamed mode).
    """

    __slots__ = ("ground_rules", "pool", "stats", "_flags", "_facts")

    def __init__(
        self,
        pool: InternPool,
        flags: bytearray,
        ground_rules: int = 0,
        stats: GroundingStats | None = None,
    ):
        self.ground_rules = ground_rules
        #: the solve's shared interning context
        self.pool = pool
        self.stats = stats
        self._flags = flags
        self._facts: frozenset[Fact] | None = None

    @property
    def facts(self) -> frozenset[Fact]:
        """The derived facts, decoded (and cached) on first access."""
        if self._facts is None:
            decode = self.pool.decode_atom
            self._facts = frozenset(
                decode(i) for i, flag in enumerate(self._flags) if flag
            )
        return self._facts

    def holds(self, predicate: str, *args) -> bool:
        id_of = self.pool.interner.id_of
        ids = []
        for value in args:
            ident = id_of(value)
            if ident is None:  # value never occurred in this solve
                return False
            ids.append(ident)
        atom = self.pool.lookup_atom(predicate, tuple(ids))
        return atom is not None and bool(self._flags[atom])

    def unary_answers(self, predicate: str) -> frozenset:
        """The elements ``x`` with ``predicate(x)`` in the model.

        Raises :class:`ValueError` if the model holds a fact of
        ``predicate`` with arity != 1 -- silently truncating a
        non-unary fact to its first argument would mask a compiler or
        program bug.
        """
        pool = self.pool
        value_of = pool.interner.value_of
        return frozenset(
            value_of(i)
            for i in pool.unary_arg_ids(predicate, self._flags)
        )


class QuasiGuardedEvaluator:
    """Evaluate a quasi-guarded program per Theorem 4.4.

    ``dependencies`` are the key constraints used to witness functional
    dependence (Definition 4.3); they default to the ``A_td``
    constraints for the given bag arity.  ``mode`` selects the
    execution form (``"streamed"`` by default, or ``"eager"``).
    ``demand`` (streamed mode only) restricts grounding to rules
    relevant to the given query predicate(s); the result is then exact
    only for those predicates and their relevance cone.

    ``prepared`` / ``relevant`` hand pre-computed per-program artifacts
    straight in (the pickle-safe ``solve_many`` worker handoff: the
    parent resolves them once, workers skip the per-program work).

    ``profile`` (a :class:`~repro.datalog.profile.PlanProfile`) turns
    on profiling: solves record per-signature probe fanout and
    relation sizes into it.  ``replan`` feeds a previously recorded
    profile back: the per-rule join orders are re-derived under its
    cost model (cached per (program, profile fingerprint) in the
    program cache).
    """

    def __init__(
        self,
        program: Program,
        bag_arity: int | None = None,
        dependencies: tuple[KeyDependency, ...] | None = None,
        registry: BuiltinRegistry | None = None,
        require_quasi_guarded: bool = True,
        cache: ProgramCache | None = None,
        mode: str = "streamed",
        demand=None,
        prepared=None,
        relevant=_UNRESOLVED,
        profile=None,
        replan=None,
    ):
        self.program = program
        if dependencies is None:
            dependencies = (
                td_key_dependencies(bag_arity) if bag_arity is not None else ()
            )
        self.dependencies = dependencies
        self.registry = registry
        if mode not in _MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {_MODES}"
            )
        self.mode = mode
        if demand is not None and mode != "streamed":
            raise ValueError(
                "demand pruning is only available in streamed mode -- "
                "the eager pipeline materializes everything by design"
            )
        self.demand = demand
        if require_quasi_guarded and not is_quasi_guarded(program, dependencies):
            raise ValueError(
                "program is not quasi-guarded under the declared key "
                "dependencies (Definition 4.3)"
            )
        self.profile = profile
        if prepared is not None:
            self._prepared = prepared
        else:
            cache = cache if cache is not None else default_cache()
            # body ordering is per-program work; do once, share via cache
            self._prepared = cache.grounding(program, registry, profile=replan)
        if relevant is not _UNRESOLVED:
            self._relevant = relevant
        else:
            # demand resolution (the adorned relevance traversal) is
            # also per-program work: resolve it here, not per structure
            self._relevant = resolve_demand(
                program, demand, self._prepared.registry
            )

    def evaluate(
        self, data: Structure | Database | SetDatabase, budget=None
    ) -> QuasiGuardedResult:
        """Evaluate over one structure/database.

        ``budget`` -- a :class:`~repro.datalog.budget.SolveBudget` (armed
        here) or an already-armed
        :class:`~repro.datalog.budget.BudgetMeter` (so one clock can
        span decompose -> encode -> solve) -- makes the grounding and
        propagation loops raise
        :class:`~repro.datalog.budget.BudgetExceeded` cooperatively
        instead of running away on a pathological input."""
        meter = as_meter(budget)
        stats = GroundingStats()
        # one interning context per solve: structure load, grounding,
        # horn, and result decoding all share sdb.interner via the pool
        sdb = (
            data
            if isinstance(data, SetDatabase)
            else SetDatabase.from_edb(data)
        )
        pool = InternPool(sdb.interner)
        if self.mode == "eager":
            rules = ground_program_ids(
                self._prepared, sdb, pool, stats, meter=meter
            )
            flags = horn_least_model_ids(rules, len(pool))
            if self.profile is not None:
                # the eager path has no per-probe hooks; sizes alone
                # still give the cost model its scan estimates
                self.profile.record_sizes(sdb)
        else:
            sink = ground_program_streamed(
                self._prepared,
                sdb,
                pool,
                stats=stats,
                relevant=self._relevant,
                meter=meter,
                profile=self.profile,
            )
            flags = sink.flags(len(pool))
        return QuasiGuardedResult(pool, flags, stats.ground_rules, stats)
