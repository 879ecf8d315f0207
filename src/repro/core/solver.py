"""End-to-end Courcelle-style solving (Corollary 4.6).

``CourcelleSolver`` wires the whole pipeline together:

    structure  --decompose-->  TD  --normalize-->  Def. 2.3 form
              --encode-->  A_td  --compiled datalog-->  answers

The datalog program comes from the Theorem 4.5 compiler (built once per
(query, signature, width) and reusable over any number of structures,
which is what makes the data complexity linear), and is evaluated by the
Theorem 4.4 quasi-guarded pipeline.

Batch workloads go through :meth:`CourcelleSolver.solve_many`, which
shards independent structures across a ``multiprocessing`` pool: the
solver pickles as (formula, compiled program, backend) -- compilation
is *not* repeated per worker -- and results come back in input order
regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

from ..admission import POLICIES, MeterBudget, admit
from ..datalog.backends import ProgramCache, default_cache, get_backend
from ..datalog.budget import BudgetExceeded, as_meter
from ..datalog.guards import is_quasi_guarded
from ..errors import AdmissionRejected, WidthExceeded
from ..mso.syntax import Formula
from ..structures.signature import Signature
from ..structures.structure import Element, Structure, structure_fingerprint
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.encode import encode_normalized
from ..treewidth.heuristics import decompose_structure
from ..treewidth.normalize import normalize, widen
from .mso_to_datalog import (
    ANSWER_PREDICATE,
    CompiledQuery,
    compile_sentence,
    compile_unary_query,
)
from .quasi_guarded import _UNRESOLVED, QuasiGuardedEvaluator

#: CourcelleSolver backend name -> QuasiGuardedEvaluator mode
_QG_MODES = {
    "quasi-guarded": "streamed",
    "quasi-guarded-eager": "eager",
}


class CourcelleSolver:
    """Solve one MSO query over arbitrarily many width-w structures.

    ``backend`` selects how the compiled datalog program is evaluated
    per structure: ``"quasi-guarded"`` (the default) runs the streamed,
    demand-pruned Theorem 4.4 pipeline (ground rules instantiated on
    demand into an online LTUR, rules irrelevant to the answer
    predicate pruned at grounding time, answer rules fired once after
    the fixpoint, one shared intern pool from structure load to answer
    decoding); ``"quasi-guarded-eager"`` is the same pipeline
    materializing the full ground program (the service's budget
    fallback); any name registered in :mod:`repro.datalog.backends`
    (``"naive"``, ``"semi-naive"`` -- the set-at-a-time engine,
    ``"magic"``) runs that bottom-up backend instead, with the magic
    backend evaluating goal-directed on the answer predicate.  Backends that
    can stay in interned-id space (``semi-naive``, ``magic``) do, and
    only the answer relation is decoded.  All choices share the
    compiled-program cache, so per-program planning happens once per
    (program fingerprint, signature, width).
    """

    def __init__(
        self,
        formula: Formula,
        signature: Signature,
        width: int,
        free_var: str | None = None,
        max_witness_size: int = 16,
        structure_filter=None,
        backend: str = "quasi-guarded",
        cache: ProgramCache | None = None,
        minimize: bool = True,
        passes=None,
        profile=None,
        replan=None,
        admission: str | None = None,
        admission_budget=None,
    ):
        self._formula = formula
        self.backend_name = backend
        self.cache = cache if cache is not None else default_cache()
        #: default admission policy (``"strict"`` / ``"repair"`` /
        #: ``"degrade"``); ``None`` keeps the legacy trusting paths --
        #: no verification, first-fail ``ValueError`` on bad input
        if admission is not None and admission not in POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"expected one of {POLICIES}"
            )
        self.admission = admission
        self.admission_budget = admission_budget
        #: set via ``profile=`` (a PlanProfile): interned quasi-guarded
        #: solves record probe fanout / relation sizes into it; hand it
        #: to :meth:`replanned` (or a fresh solver's ``replan=``) to
        #: close the profile -> replan loop
        self.plan_profile = profile
        self._replan = replan
        if (profile is not None or replan is not None) and (
            backend not in _QG_MODES
        ):
            raise ValueError(
                "profile=/replan= apply to the quasi-guarded backends; "
                f"backend {backend!r} plans through the program cache "
                "directly (use ProgramCache.prepared(profile=...))"
            )
        if free_var is None:
            self.compiled: CompiledQuery = compile_sentence(
                formula,
                signature,
                width,
                max_witness_size=max_witness_size,
                structure_filter=structure_filter,
                minimize=minimize,
                passes=passes,
            )
        else:
            self.compiled = compile_unary_query(
                formula,
                signature,
                width,
                free_var=free_var,
                max_witness_size=max_witness_size,
                structure_filter=structure_filter,
                minimize=minimize,
                passes=passes,
            )
        #: the shrinking-pass configuration actually applied (``passes=None``
        #: resolved to the production default by the compiler)
        self.passes = self.compiled.passes
        self._wire_backend()

    def _wire_backend(self, prepared=None, relevant=_UNRESOLVED) -> None:
        """Build the per-backend evaluation machinery.

        ``prepared`` / ``relevant`` are the pickle handoff: a
        ``solve_many`` worker rebuilds from the parent's per-program
        artifacts (and trusts the parent's quasi-guardedness check)
        instead of re-deriving them."""
        backend = self.backend_name
        trusted = prepared is not None
        if not trusted and not is_quasi_guarded(
            self.compiled.program, self.compiled.dependencies()
        ):
            raise AssertionError(
                "compiled program is not quasi-guarded -- Theorem 4.5 violated"
            )
        if backend in _QG_MODES:
            self._backend = None
            mode = _QG_MODES[backend]
            self.evaluator = QuasiGuardedEvaluator(
                self.compiled.program,
                dependencies=self.compiled.dependencies(),
                cache=self.cache,
                mode=mode,
                demand=ANSWER_PREDICATE if mode == "streamed" else None,
                require_quasi_guarded=not trusted,
                prepared=prepared,
                relevant=relevant,
                profile=self.plan_profile,
                replan=self._replan,
            )
        else:
            self._backend = get_backend(backend, self.cache)
            self.evaluator = None
            if backend != "magic":
                # pay the planning cost now, not on the first solve
                # (magic plans its rewritten program instead)
                self.compiled.prepared(cache=self.cache)

    # -- pickling (the solve_many handoff) -----------------------------

    def __getstate__(self):
        # carry the compiled program and its per-program solve
        # artifacts (grounding plans + demand relevance), not the
        # runtime wiring: caches hold locks/closures, and a worker must
        # neither recompile the Theorem 4.5 program nor re-derive the
        # plans it hands to every solve
        state = {
            "formula": self._formula,
            "compiled": self.compiled,
            "backend": self.backend_name,
            "admission": self.admission,
            "admission_budget": self.admission_budget,
        }
        if self.evaluator is not None:
            # the builtin registry holds closures; CourcelleSolver
            # always evaluates with the standard registry, so ship the
            # plans bare and re-attach it on the other side
            state["prepared"] = dataclasses.replace(
                self.evaluator._prepared, registry=None
            )
            state["relevant"] = self.evaluator._relevant
        return state

    def __setstate__(self, state):
        self._formula = state["formula"]
        self.compiled = state["compiled"]
        self.passes = getattr(self.compiled, "passes", ())
        self.backend_name = state["backend"]
        self.admission = state.get("admission")
        self.admission_budget = state.get("admission_budget")
        self.cache = default_cache()
        # profiles stay in the parent process; the *replanned plans*
        # cross the boundary inside the prepared artifact below
        self.plan_profile = None
        self._replan = None
        prepared = state.get("prepared")
        if prepared is not None and prepared.registry is None:
            from ..datalog.builtins import standard_registry

            prepared = dataclasses.replace(
                prepared, registry=standard_registry()
            )
        self._wire_backend(
            prepared=prepared,
            relevant=state.get("relevant", _UNRESOLVED),
        )

    def _backend_answers(self, encoded) -> frozenset:
        """Evaluate via the pluggable backend; the set of phi-tuples.

        Backends exposing ``evaluate_interned`` keep the whole fixpoint
        in interned-id space and only the answer relation is decoded --
        the backend-boundary analogue of the quasi-guarded path's lazy
        result decoding."""
        program = self.compiled.program
        if ANSWER_PREDICATE not in program.intensional_predicates():
            return frozenset()  # the compiler emitted no answer rules
        context = dict(
            query=ANSWER_PREDICATE,
            signature=str(self.compiled.signature),
            width=self.compiled.width,
        )
        interned = getattr(self._backend, "evaluate_interned", None)
        if interned is not None:
            sdb = interned(program, encoded, **context)
            return frozenset(sdb.decode_relation(ANSWER_PREDICATE))
        db = self._backend.evaluate(program, encoded, **context)
        return frozenset(db.relation(ANSWER_PREDICATE))

    # ------------------------------------------------------------------

    def _prepare(
        self,
        structure: Structure,
        td: TreeDecomposition | None,
        verified: bool = False,
    ):
        if td is None:
            td = decompose_structure(structure)
        if td.width > self.compiled.width:
            raise WidthExceeded(
                f"decomposition width {td.width} exceeds the compiled "
                f"width {self.compiled.width} "
                f"(structure {structure_fingerprint(structure)})",
                width=td.width,
                limit=self.compiled.width,
                fingerprint=structure_fingerprint(structure),
            )
        if td.width < self.compiled.width:
            td = widen(td, self.compiled.width)
        ntd = normalize(td)
        # admission already checked the Section 2.2 axioms against the
        # structure; re-check only the Definition 2.3 shape then
        ntd.validate(None if verified else structure)
        return encode_normalized(structure, ntd)

    def _too_small(self, structure: Structure) -> bool:
        """Theorem 4.5 assumes |dom| >= w + 1; below that threshold the
        structure has constant size and direct evaluation is the
        "w.l.o.g." escape hatch (still O(1) per structure)."""
        return len(structure.domain) < self.compiled.width + 1

    def _finish(self, encoded, budget=None):
        """Evaluate an encoded structure and decode the answer
        (``decide`` boolean or ``query`` answer set)."""
        if self._backend is not None:
            answers = self._backend_answers(encoded)
            if self.compiled.is_sentence:
                return () in answers
            return frozenset(args[0] for args in answers)
        result = self.evaluator.evaluate(encoded, budget=budget)
        if self.compiled.is_sentence:
            return result.holds(ANSWER_PREDICATE)
        return result.unary_answers(ANSWER_PREDICATE)

    def _direct_answer(self, structure: Structure, budget=None):
        """Direct MSO evaluation -- the small-structure escape hatch
        and the admission ladder's degraded serving path."""
        from ..mso.eval import evaluate
        from ..mso.eval import query as direct_query

        if self.compiled.is_sentence:
            return evaluate(structure, self.compiled_formula(), budget=budget)
        return direct_query(
            structure,
            self.compiled_formula(),
            self.compiled.free_var,
            budget=budget,
        )

    def decide(
        self,
        structure: Structure,
        td: TreeDecomposition | None = None,
        budget=None,
        admission: str | None = None,
    ) -> bool:
        """Evaluate a compiled *sentence* on a structure.

        ``budget`` (a :class:`repro.datalog.SolveBudget`) makes the
        quasi-guarded fixpoint loops raise
        :class:`repro.datalog.BudgetExceeded` cooperatively instead of
        running away; the O(1) small-structure path and the bottom-up
        ablation backends ignore it.

        ``admission`` (or the solver-wide ``admission=`` default) routes
        the request through :func:`repro.admission.admit` first: the
        input is verified, repaired or degraded per the policy, and
        unservable requests raise
        :class:`repro.errors.AdmissionRejected` instead of whatever the
        trusting pipeline would have hit."""
        if not self.compiled.is_sentence:
            raise ValueError("compiled query is unary; use .query()")
        policy = admission if admission is not None else self.admission
        if policy is not None:
            answer, _ = self.solve_admitted(
                structure, td, policy=policy, budget=budget
            )
            return answer
        if self._too_small(structure):
            return self._direct_answer(structure)
        encoded = self._prepare(structure, td)
        return self._finish(encoded, budget)

    def query(
        self,
        structure: Structure,
        td: TreeDecomposition | None = None,
        budget=None,
        admission: str | None = None,
    ) -> frozenset[Element]:
        """Evaluate a compiled *unary query*: the set of answers.

        ``budget`` and ``admission`` behave as in :meth:`decide`."""
        if self.compiled.is_sentence:
            raise ValueError("compiled query is a sentence; use .decide()")
        policy = admission if admission is not None else self.admission
        if policy is not None:
            answer, _ = self.solve_admitted(
                structure, td, policy=policy, budget=budget
            )
            return answer
        if self._too_small(structure):
            return self._direct_answer(structure)
        encoded = self._prepare(structure, td)
        return self._finish(encoded, budget)

    def solve_admitted(
        self,
        structure,
        td: TreeDecomposition | None = None,
        *,
        policy: str | None = None,
        budget=None,
    ):
        """Solve one request through the admission ladder.

        Returns ``(answer, report)`` -- the ``decide``/``query`` answer
        plus the :class:`repro.admission.AdmissionReport` saying how the
        input was served (``admitted`` / ``repaired`` / ``degraded``).
        Raises :class:`repro.errors.AdmissionRejected` when the policy
        ladder runs out: on any violation under ``"strict"``, when
        repair and re-decomposition fail under ``"repair"``, and when
        even the budgeted direct evaluation cannot finish under
        ``"degrade"``.

        ``budget`` spans the whole request -- admission work, the
        compiled solve *and* the degraded direct evaluation all draw on
        one meter; ``None`` leaves the solve unbudgeted and bounds only
        the admission layer's own work
        (:data:`repro.admission.DEFAULT_ADMISSION_BUDGET`, overridable
        per solver via ``admission_budget=``).
        """
        policy = policy if policy is not None else (self.admission or "repair")
        meter = as_meter(budget)
        result = admit(
            structure,
            signature=self.compiled.signature,
            width=self.compiled.width,
            td=td,
            policy=policy,
            budget=meter if meter is not None else self.admission_budget,
        )
        report = result.report
        if result.action == "direct":
            return self._direct_answer(result.structure), report
        if result.action == "degrade":
            try:
                answer = self._direct_answer(
                    result.structure,
                    budget=(
                        MeterBudget(result.meter)
                        if result.meter is not None
                        else None
                    ),
                )
            except BudgetExceeded as exc:
                report.verdict = "rejected"
                report.degrade_reason = (
                    f"{report.degrade_reason}; degraded evaluation "
                    f"exhausted its budget ({exc})"
                )
                raise AdmissionRejected(
                    f"admission rejected (policy {policy}, structure "
                    f"{report.fingerprint}): degraded evaluation "
                    f"exhausted its budget ({exc})",
                    report.violations,
                    report=report,
                ) from exc
            return answer, report
        encoded = self._prepare(result.structure, result.td, verified=True)
        return self._finish(encoded, budget=meter), report

    def solve_many(
        self,
        structures,
        tds=None,
        workers: "int | str | None" = None,
        chunksize: int | None = None,
        service=None,
        admission: str | None = None,
    ) -> list:
        """Solve a batch of independent structures, optionally sharded.

        Returns one result per structure **in input order** --
        ``query()`` answer sets for unary queries, ``decide()`` booleans
        for sentences.  ``workers=None`` or ``1`` solves serially in
        process; ``workers > 1`` shards the batch across a
        ``multiprocessing`` pool, handing each worker the pickled
        compiled program once (compilation is never repeated) and
        mapping structures in order, so the result list is identical
        whatever the worker count (ROADMAP item (c): batch workloads
        scale with cores because each structure's decompose -> encode
        -> solve chain is independent).  ``workers="auto"`` resolves to
        :func:`default_worker_count` capped at the batch size.

        ``service`` routes the batch through a caller-held persistent
        :class:`repro.service.SolverService` instead of the one-shot
        pool above: the workers are already running and hold this
        solver's compiled program warm, so repeated small batches skip
        the pool startup and solver re-pickle that the one-shot path
        pays on every call (``workers``/``chunksize`` are then ignored
        -- the service owns its worker count).

        ``admission`` (or the solver-wide default) runs every item
        through the admission ladder and turns the batch's failure mode
        per-item: a malformed structure no longer kills the whole
        batch; its slot holds the :class:`repro.errors.AdmissionRejected`
        instance (report attached) while every other slot holds its
        answer.
        """
        structures = list(structures)
        if tds is None:
            tds = [None] * len(structures)
        else:
            tds = list(tds)
            if len(tds) != len(structures):
                raise ValueError(
                    f"{len(structures)} structures but {len(tds)} "
                    "decompositions"
                )
        policy = admission if admission is not None else self.admission
        if service is not None:
            return service.solve_many(self, structures, tds, admission=policy)
        if workers == "auto":
            workers = default_worker_count(len(structures))
        elif workers is None:
            workers = 1
        if workers <= 1 or len(structures) <= 1:
            return [
                _solve_item(self, s, td, policy)
                for s, td in zip(structures, tds)
            ]
        import multiprocessing

        workers = min(workers, len(structures))
        if chunksize is None:
            chunksize = max(1, len(structures) // (workers * 4))
        payload = pickle.dumps(self)
        context = multiprocessing.get_context()
        with context.Pool(
            workers, initializer=_solve_many_init, initargs=(payload,)
        ) as pool:
            # Pool.map preserves input order, so the shard assignment
            # (and any interleaving of completions) cannot reorder or
            # change the results
            return pool.map(
                _solve_many_task,
                [(s, td, policy) for s, td in zip(structures, tds)],
                chunksize,
            )

    def with_backend(self, backend: str) -> "CourcelleSolver":
        """A sibling solver over the *same* compiled program.

        The clone shares ``compiled`` (and the cache), so no
        recompilation happens -- only the evaluation wiring differs.
        This is the service layer's budget-fallback route: e.g. retry a
        ``BudgetExceeded`` streamed solve on the eager pipeline.  The
        quasi-guardedness check is trusted from this solver's own
        construction."""
        if backend == self.backend_name:
            return self
        clone = object.__new__(CourcelleSolver)
        clone._formula = self._formula
        clone.compiled = self.compiled
        clone.passes = self.passes
        clone.backend_name = backend
        clone.cache = self.cache
        clone.admission = self.admission
        clone.admission_budget = self.admission_budget
        clone.plan_profile = (
            self.plan_profile if backend in _QG_MODES else None
        )
        clone._replan = self._replan if backend in _QG_MODES else None
        if backend in _QG_MODES and self.evaluator is not None:
            clone._wire_backend(
                prepared=self.evaluator._prepared,
                relevant=(
                    self.evaluator._relevant
                    if _QG_MODES[backend] == "streamed"
                    else None
                ),
            )
        else:
            clone._wire_backend(
                prepared=self.cache.grounding(
                    self.compiled.program,
                    self.evaluator.registry if self.evaluator else None,
                    profile=clone._replan,
                )
                if backend in _QG_MODES
                else None,
            )
        return clone

    def replanned(self, profile=None) -> "CourcelleSolver":
        """A sibling solver whose join plans are re-derived under a
        recorded profile's cost model -- the replan half of the
        profile -> replan loop.

        ``profile`` defaults to this solver's own ``plan_profile``
        (populated by solves made with ``profile=`` set).  Like
        :meth:`with_backend`, the clone shares the compiled program and
        the cache; only the per-rule join orders (and the index
        selection derived from them) differ, and the replanned prepared
        plans ride the same pickle handoff to ``solve_many`` workers.
        """
        profile = profile if profile is not None else self.plan_profile
        if profile is None:
            raise ValueError(
                "no profile to replan from: pass profile= or run solves "
                "on a solver constructed with profile=PlanProfile()"
            )
        if self.backend_name not in _QG_MODES:
            raise ValueError(
                "replanned() applies to the quasi-guarded backends; "
                f"backend {self.backend_name!r} plans through the "
                "program cache (use ProgramCache.prepared(profile=...))"
            )
        clone = object.__new__(CourcelleSolver)
        clone._formula = self._formula
        clone.compiled = self.compiled
        clone.passes = self.passes
        clone.backend_name = self.backend_name
        clone.cache = self.cache
        clone.admission = self.admission
        clone.admission_budget = self.admission_budget
        clone.plan_profile = None
        clone._replan = profile
        clone._wire_backend(
            prepared=self.cache.grounding(
                self.compiled.program,
                self.evaluator.registry if self.evaluator else None,
                profile=profile,
            ),
            relevant=(
                self.evaluator._relevant
                if self.evaluator is not None
                else _UNRESOLVED
            ),
        )
        return clone

    def compiled_formula(self) -> Formula:
        return self._formula


def default_worker_count(batch_size: int | None = None) -> int:
    """A sensible ``workers=`` for :meth:`CourcelleSolver.solve_many`:
    the scheduler-visible CPU count, capped at ``batch_size`` so small
    batches on big machines don't drown in pool startup (a 4-structure
    batch on a 64-core machine gets 4 workers, not 64)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    if batch_size is not None:
        cpus = min(cpus, batch_size)
    return max(1, cpus)


#: per-worker solver rebuilt once from the pickled handoff
_WORKER_SOLVER: CourcelleSolver | None = None


def _solve_many_init(payload: bytes) -> None:
    global _WORKER_SOLVER
    _WORKER_SOLVER = pickle.loads(payload)


def _solve_item(solver, structure, td, admission):
    """One batch slot: the answer, or -- under admission -- the
    ``AdmissionRejected`` instance as a per-item verdict."""
    if admission is not None:
        try:
            answer, _ = solver.solve_admitted(structure, td, policy=admission)
            return answer
        except AdmissionRejected as exc:
            return exc
    solve_one = (
        solver.decide if solver.compiled.is_sentence else solver.query
    )
    return solve_one(structure, td)


def _solve_many_task(item):
    structure, td, admission = (
        item if len(item) == 3 else (item[0], item[1], None)
    )
    return _solve_item(_WORKER_SOLVER, structure, td, admission)
