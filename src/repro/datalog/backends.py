"""Pluggable evaluation backends and the compiled-program cache.

The engine exposes one narrow seam -- :class:`EvaluationBackend` -- so
callers (``core/solver.py``, the problem modules, the benchmark
harness) pick *how* a program is evaluated without knowing the
mechanics.  Three backends ship:

* ``naive``      -- Jacobi-style re-derivation each round, tuple at a
                    time: the simple conformance oracle;
* ``semi-naive`` -- stratified delta-driven fixpoint executed
                    set-at-a-time (:mod:`repro.datalog.setengine`:
                    interned constants, columnar batches, relation-level
                    hash joins, bitset unary relations); the default
                    engine;
* ``magic``      -- magic-set / demand transformation relative to a
                    query atom (:mod:`repro.datalog.magic`) followed by
                    set-at-a-time semi-naive evaluation of the
                    rewritten program: goal-directed, derives only
                    query-relevant facts.

All of them share :class:`ProgramCache`, keyed by ``(program
fingerprint, signature, width)`` (plus the query pattern for magic
rewrites), so repeated solves over different structures skip rule
planning, stratification, and the magic rewriting itself -- the
per-program cost that Theorem 4.5 amortizes over "any number of
structures".

Adding a backend is ``register_backend("name", factory)``; future
candidates (sharded, async, external-solver) plug in the same way.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from .ast import Atom, Program, Variable
from .builtins import BuiltinRegistry, standard_registry
from .evaluate import (
    Database,
    EvaluationStats,
    PreparedProgram,
    naive_least_fixpoint,
    prepare_program,
)
from .grounding import PreparedGrounding, prepare_grounding
from .magic import MagicRewrite, magic_rewrite, normalize_query
from .profile import CostModel, PlanProfile
from .setengine import SetDatabase, SetSemiNaiveEvaluator

#: the registry that ``registry=None`` resolves to inside the cache, so
#: default callers share cache entries instead of each fresh
#: ``standard_registry()`` object keying its own.
_SHARED_STANDARD = standard_registry()


# ----------------------------------------------------------------------
# Program fingerprinting and the compiled-program cache
# ----------------------------------------------------------------------


def _value_key(value) -> str:
    """A canonical, type-discriminating encoding of a constant value.

    ``str()``/``repr()`` alone are ambiguous (``0`` vs ``"0"``) or
    order-unstable (frozensets), which would let distinct programs
    collide in the cache; this recurses through the container values
    the set-valued programs of Section 5 use.
    """
    if isinstance(value, frozenset):
        return "fs{" + ",".join(sorted(map(_value_key, value))) + "}"
    if isinstance(value, tuple):
        return "t(" + ",".join(map(_value_key, value)) + ")"
    return f"{type(value).__qualname__}:{value!r}"


def _term_key(term) -> str:
    if isinstance(term, Variable):
        return f"v:{term.name}"
    return f"c:{_value_key(term.value)}"


def _atom_key(atom: Atom) -> str:
    return atom.predicate + "(" + ",".join(map(_term_key, atom.args)) + ")"


def _query_key(query: Atom) -> str:
    """Like :func:`_atom_key` but alpha-invariant: a free argument slot
    contributes only its position, so ``path(0, Y)`` and ``path(0, Z)``
    share one magic rewrite (variable names never reach the rewrite --
    only the adornment and the bound constants do)."""
    slots = (
        "f" if isinstance(arg, Variable) else "b:" + _value_key(arg.value)
        for arg in query.args
    )
    return query.predicate + "(" + ",".join(slots) + ")"


def program_fingerprint(program: Program) -> str:
    """A stable content hash of a program.

    Two programs with the same rules (in order) and built-in names get
    the same fingerprint regardless of object identity, so re-parsed or
    re-compiled programs hit the cache; constants of different types
    that print alike do not collide.
    """
    digest = hashlib.sha256()
    for rule in program.rules:
        digest.update(_atom_key(rule.head).encode())
        for literal in rule.body:
            digest.update(
                ("+" if literal.positive else "-").encode()
            )
            digest.update(_atom_key(literal.atom).encode())
        digest.update(b"\x00")
    for name in sorted(program.builtin_names):
        digest.update(name.encode())
        digest.update(b"\x01")
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: lookups that missed, built, and then found the entry already
    #: inserted by a concurrent thread (the build ran outside the lock,
    #: so two simultaneous first lookups may both pay it; the earlier
    #: insert wins and the later build is discarded -- and counted here)
    duplicate_builds: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class ProgramCache:
    """LRU cache of per-program compilation artifacts.

    Entries are keyed by ``(kind, program fingerprint, signature,
    width, registry)``; the magic-rewrite kind adds the query pattern
    (predicate, adornment, bound constants).  ``signature`` and
    ``width`` are the solver-level context -- the same datalog program
    compiled for a different signature or width is a different entry.

    Built-in registries enter the key by *identity*: two registries
    with the same predicate names may give them different semantics
    (``primality_registry`` bakes the schema into its built-ins), so
    name-based sharing would cross-contaminate.  ``registry=None``
    resolves to one shared standard registry, so default callers still
    share entries.  Cached artifacts keep their registry alive, which
    is what makes identity keys safe against id reuse.

    The cache is **thread-safe**: ``default_cache()`` is one
    process-wide instance and the solver service's scheduler threads
    hit it concurrently, so every touch of the LRU ``OrderedDict``s
    (get / ``move_to_end`` / insert / evict) happens under one
    re-entrant lock.  Builds run *outside* the lock -- planning a
    program can be expensive and must not serialize unrelated lookups
    -- so two threads racing on the same cold key may both build; the
    insert is re-checked under the lock, the first entry wins, and the
    loser is counted in ``stats.duplicate_builds``.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # fingerprint memo keyed by object identity; holding the
        # Program pins its id, so entries can never be misattributed
        self._fingerprints: OrderedDict[int, tuple[Program, str]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._fingerprints.clear()
            self.stats = CacheStats()

    def __getstate__(self):
        # locks don't pickle; a cache crossing a process boundary (the
        # service worker handoff) starts empty on the other side
        return {"maxsize": self.maxsize}

    def __setstate__(self, state):
        self.__init__(state["maxsize"])

    def _fingerprint_of(self, program: Program) -> str:
        """Per-lookup fingerprinting would re-hash the whole program on
        every solve -- exactly the per-structure cost this cache
        amortizes -- so memoize by identity."""
        with self._lock:
            entry = self._fingerprints.get(id(program))
            if entry is not None:
                self._fingerprints.move_to_end(id(program))
                return entry[1]
        fingerprint = program_fingerprint(program)
        with self._lock:
            self._fingerprints[id(program)] = (program, fingerprint)
            if len(self._fingerprints) > self.maxsize:
                self._fingerprints.popitem(last=False)
        return fingerprint

    def _get_or_build(self, key: tuple, build: Callable[[], object]):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
        entry = build()  # outside the lock: builds must not serialize
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # a concurrent thread built and inserted first; keep
                # its entry (callers may already hold references to it)
                self.stats.duplicate_builds += 1
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    @staticmethod
    def _resolve_registry(
        registry: BuiltinRegistry | None,
    ) -> BuiltinRegistry:
        return registry if registry is not None else _SHARED_STANDARD

    @staticmethod
    def _context_key(
        registry: BuiltinRegistry,
        signature=None,
        width: int | None = None,
    ) -> tuple:
        sig = str(signature) if signature is not None else None
        return (sig, width, id(registry))

    def prepared(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        *,
        signature=None,
        width: int | None = None,
        profile: PlanProfile | None = None,
    ) -> PreparedProgram:
        """Stratification + join plans, computed once per fingerprint.

        ``profile`` (a recorded :class:`PlanProfile`) replans with its
        cost model; profiled entries are keyed by the profile's bucketed
        fingerprint, so the static plans and any materially different
        replans coexist -- and warm service workers looking up the same
        (program, profile) pair hit the cached replanned entry."""
        registry = self._resolve_registry(registry)
        key = (
            "prepared",
            self._fingerprint_of(program),
            profile.fingerprint() if profile is not None else None,
        ) + self._context_key(registry, signature, width)
        cost = CostModel(profile) if profile is not None else None
        return self._get_or_build(
            key, lambda: prepare_program(program, registry, cost=cost)
        )

    def grounding(
        self,
        program: Program,
        registry: BuiltinRegistry | None = None,
        *,
        signature=None,
        width: int | None = None,
        profile: PlanProfile | None = None,
    ) -> PreparedGrounding:
        """Extensional join orders for the Theorem 4.4 pipeline."""
        registry = self._resolve_registry(registry)
        key = (
            "grounding",
            self._fingerprint_of(program),
            profile.fingerprint() if profile is not None else None,
        ) + self._context_key(registry, signature, width)
        cost = CostModel(profile) if profile is not None else None
        return self._get_or_build(
            key, lambda: prepare_grounding(program, registry, cost=cost)
        )

    def magic(
        self,
        program: Program,
        query: Atom,
        registry: BuiltinRegistry | None = None,
        *,
        signature=None,
        width: int | None = None,
        profile: PlanProfile | None = None,
    ) -> tuple[MagicRewrite, PreparedProgram]:
        """The magic rewrite for (program, query), plus its prepared form."""
        registry = self._resolve_registry(registry)
        query_key = _query_key(query)
        key = (
            "magic",
            self._fingerprint_of(program),
            query_key,
            profile.fingerprint() if profile is not None else None,
        ) + self._context_key(registry, signature, width)
        cost = CostModel(profile) if profile is not None else None

        def build() -> tuple[MagicRewrite, PreparedProgram]:
            rewrite = magic_rewrite(program, query, registry, cost=cost)
            return rewrite, prepare_program(
                rewrite.program, registry, cost=cost
            )

        return self._get_or_build(key, build)


_DEFAULT_CACHE = ProgramCache()


def default_cache() -> ProgramCache:
    """The process-wide compiled-program cache."""
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# The backend protocol and the three shipped backends
# ----------------------------------------------------------------------


@runtime_checkable
class EvaluationBackend(Protocol):
    """Anything that can compute (a query-relevant part of) the least
    fixpoint of ``P ∪ A`` and hand it back as a :class:`Database`."""

    name: str

    def evaluate(
        self,
        program: Program,
        edb,
        *,
        query: "Atom | str | None" = None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> Database: ...


class NaiveBackend:
    """Re-fire every rule each round until nothing changes."""

    name = "naive"

    def __init__(self, cache: ProgramCache | None = None):
        self.cache = cache if cache is not None else default_cache()

    def evaluate(
        self,
        program: Program,
        edb,
        *,
        query=None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> Database:
        prepared = self.cache.prepared(
            program, registry, signature=signature, width=width
        )
        return naive_least_fixpoint(
            program, edb, registry, stats=stats, prepared=prepared
        )


class SemiNaiveBackend:
    """Stratified delta-driven fixpoint, executed set-at-a-time (the
    default backend): interned constants, columnar batches,
    relation-level hash joins, bitset unary relations."""

    name = "semi-naive"

    def __init__(self, cache: ProgramCache | None = None):
        self.cache = cache if cache is not None else default_cache()

    def evaluate_interned(
        self,
        program: Program,
        edb,
        *,
        query=None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> SetDatabase:
        """The fixpoint, still in interned-id space.  Goal-directed
        callers (``CourcelleSolver``) decode only the relation they
        need instead of the whole database."""
        prepared = self.cache.prepared(
            program, registry, signature=signature, width=width
        )
        evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
        if stats is not None:
            evaluator.stats = stats
        return evaluator.run(SetDatabase.from_edb(edb))

    def evaluate(
        self,
        program: Program,
        edb,
        *,
        query=None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> Database:
        return self.evaluate_interned(
            program,
            edb,
            query=query,
            registry=registry,
            stats=stats,
            signature=signature,
            width=width,
        ).decode()


class MagicSetBackend:
    """Demand-transform relative to ``query``, then run semi-naive.

    The returned database holds the extensional facts, the magic and
    adorned bookkeeping predicates, and -- surfaced back under the
    original predicate name -- every fact of the query predicate that
    the demanded bindings reach.  Facts of *other* intensional
    predicates are only present in adorned form: this backend answers
    the query, it does not materialize the full least fixpoint (that is
    the point).
    """

    name = "magic"

    def __init__(self, cache: ProgramCache | None = None):
        self.cache = cache if cache is not None else default_cache()

    def evaluate_interned(
        self,
        program: Program,
        edb,
        *,
        query=None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> SetDatabase:
        """Demand-transform and evaluate without leaving id space.

        The magic predicates of a monadic program are nullary or unary,
        so the demand sets this evaluation propagates live as big-int
        bitsets inside the set engine from seed to answer; the adorned
        answers are aliased under the original predicate name while
        still interned.  Nothing is decoded here -- the caller picks
        the relation(s) it wants decoded (or calls :meth:`evaluate`
        for the full value-level database)."""
        if query is None:
            raise ValueError(
                "the magic-set backend is goal-directed: pass query="
                "either a predicate name or an Atom with bound constants"
            )
        query_atom = normalize_query(program, query)
        rewrite, prepared = self.cache.magic(
            program,
            query_atom,
            registry,
            signature=signature,
            width=width,
        )
        evaluator = SetSemiNaiveEvaluator.from_prepared(prepared)
        if stats is not None:
            evaluator.stats = stats
        db = evaluator.run(SetDatabase.from_edb(edb))
        db.copy_relation(rewrite.answer_predicate, query_atom.predicate)
        return db

    def evaluate(
        self,
        program: Program,
        edb,
        *,
        query=None,
        registry: BuiltinRegistry | None = None,
        stats: EvaluationStats | None = None,
        signature=None,
        width: int | None = None,
    ) -> Database:
        return self.evaluate_interned(
            program,
            edb,
            query=query,
            registry=registry,
            stats=stats,
            signature=signature,
            width=width,
        ).decode()


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

_BACKENDS: dict[str, Callable[..., EvaluationBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., EvaluationBackend]
) -> None:
    """Register a backend factory; ``factory(cache=...)`` must build an
    object satisfying :class:`EvaluationBackend`."""
    _BACKENDS[name] = factory


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend(
    name: str, cache: ProgramCache | None = None
) -> EvaluationBackend:
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return factory(cache=cache)


register_backend(NaiveBackend.name, NaiveBackend)
register_backend(SemiNaiveBackend.name, SemiNaiveBackend)
register_backend(MagicSetBackend.name, MagicSetBackend)


def solve(
    program: Program,
    edb,
    *,
    backend: str = "semi-naive",
    query: "Atom | str | None" = None,
    registry: BuiltinRegistry | None = None,
    stats: EvaluationStats | None = None,
    cache: ProgramCache | None = None,
) -> Database:
    """One-shot evaluation through a named backend."""
    return get_backend(backend, cache).evaluate(
        program, edb, query=query, registry=registry, stats=stats
    )
