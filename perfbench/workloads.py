"""The four workloads: their inputs, set-up, one request, and the traced
form of that request.

A workload's ``solve`` is the call a user makes.  Its ``traced`` form
makes, in order, the same public calls that call makes, each wrapped in
a span, and returns the request's counters beside the answer.  Spans
are taken only here, from outside the program.
"""

from __future__ import annotations

import multiprocessing

from repro.core import (
    ANSWER_PREDICATE,
    CourcelleSolver,
    grid_graph_filter,
    undirected_graph_filter,
)
from repro.datalog import EvaluationStats, ProgramCache, get_backend
from repro.mso import formulas
from repro.problems import (
    PrimalityDatalog,
    encode_for_primality,
    prepare_decision_decomposition,
    primality_program,
)
from repro.structures import GRAPH_SIGNATURE
from repro.treewidth import (
    decompose_structure,
    encode_normalized,
    normalize,
    widen,
)

import inputs
import timing


def passthrough(_name, fn, *args):
    """The untraced stand-in for a span recorder."""
    return fn(*args)


def _normalize(td, width):
    if td.width < width:
        td = widen(td, width)
    return normalize(td)


def traced_query(solver, structure, span):
    """``CourcelleSolver.query`` on an inside-the-class structure, one
    public call per span; returns ``(answers, counters)``."""
    width = solver.compiled.width
    cache = solver.cache.stats
    hits, lookups = cache.hits, cache.lookups
    td = span("treewidth.decompose_ms", decompose_structure, structure)
    if td.width > width:
        raise ValueError(f"decomposition width {td.width} exceeds {width}")
    ntd = span("treewidth.normalize_ms", _normalize, td, width)
    span("treewidth.validate_ms", ntd.validate, structure)
    encoded = span("treewidth.encode_ms", encode_normalized, structure, ntd)
    result = span("datalog.evaluate_ms", solver.evaluator.evaluate, encoded)
    answers = span("core.decode_ms", result.unary_answers, ANSWER_PREDICATE)
    stats = result.stats
    counters = {
        "treewidth.td_nodes": ntd.node_count(),
        "treewidth.atd_facts": encoded.fact_count(),
        "datalog.ground_rules": stats.ground_rules,
        "datalog.bindings_explored": stats.bindings_explored,
        "datalog.rules_pruned": stats.rules_pruned,
        "datalog.peak_live_rules": stats.peak_live_rules,
        "_cache_hits": cache.hits - hits,
        "_cache_lookups": cache.lookups - lookups,
    }
    return answers, counters


def compile_counters(solver) -> dict:
    stats = solver.compiled.stats
    return {
        "core.program_rules": len(solver.compiled.program.rules),
        "core.program_classes": stats.up_classes + stats.down_classes,
    }


class _CompiledWorkload:
    """A ``has_neighbor`` solver compiled once, queried per request."""

    width: int
    structure_filter = None
    #: the scaling probe's input family (see :mod:`loops`)
    probe = None
    #: whether requests go through ``SolverService``
    service = False
    #: set-ups per end-to-end run; ``setup_s`` is their median
    setup_repeats = 9

    def __init__(self, tiny: bool = False, plan=None):
        self.tiny = tiny

    def build(self, span=passthrough):
        return span(
            "core.compile_ms",
            lambda: CourcelleSolver(
                formulas.has_neighbor("x"),
                GRAPH_SIGNATURE,
                width=self.width,
                free_var="x",
                structure_filter=self.structure_filter,
                cache=ProgramCache(),
            ),
        )

    def warm(self, solver, items) -> None:
        solver.query(items[0][0])

    def solve(self, solver, structure):
        return solver.query(structure)

    def traced(self, solver, structure, span):
        return traced_query(solver, structure, span)

    def stop(self, solver) -> None:
        pass


class ForestW1(_CompiledWorkload):
    """Width-1 query on random forests of one size: the quadratic
    decomposition and validation are the layers that grow fastest."""

    name = "forest-w1"
    width = 1
    structure_filter = staticmethod(undirected_graph_filter)
    probe = "forest"

    def inputs(self, seed: int) -> list:
        rng = inputs.rng_for(self.name, seed)
        vertices, count = (30, 4) if self.tiny else (300, 32)
        return inputs.forest_inputs(rng, vertices, count)


class LadderW2(_CompiledWorkload):
    """Width-2 grid-class query on relabelings of one ladder: the
    compiler dominates set-up and grounding+LTUR each request."""

    name = "ladder-w2"
    width = 2
    structure_filter = staticmethod(grid_graph_filter)
    probe = "ladder"
    # the compile takes ~10 s; more set-ups would dominate the run
    setup_repeats = 3

    def inputs(self, seed: int) -> list:
        rng = inputs.rng_for(self.name, seed)
        columns, count = (6, 4) if self.tiny else (50, 16)
        return inputs.ladder_inputs(rng, columns, 4, count)


class PrimalityFig6:
    """A fresh ``PrimalityDatalog(schema).decide(attribute)`` per
    request on one Table-1 gadget schema."""

    name = "primality-fig6"
    probe = None
    service = False
    setup_repeats = 9

    def __init__(self, tiny: bool = False, plan=None):
        self.tiny = tiny
        self.schema = None

    def inputs(self, seed: int) -> list:
        rng = inputs.rng_for(self.name, seed)
        self.schema, items = inputs.primality_inputs(
            rng, 2 if self.tiny else 8
        )
        return items

    def build(self, span=passthrough):
        return span("problems.construct_ms", PrimalityDatalog, self.schema)

    def warm(self, solver, items) -> None:
        solver.decide(items[0][0])

    def solve(self, _solver, attribute):
        return PrimalityDatalog(self.schema).decide(attribute)

    def traced(self, _solver, attribute, span):
        """``PrimalityDatalog.decide`` made call by call; its private
        per-instance program cache is replaced by an equal fresh one."""
        schema = self.schema

        def construct():
            return PrimalityDatalog(schema), primality_program(attribute)

        solver, program = span("problems.construct_ms", construct)
        nice = span(
            "problems.prepare_ms",
            prepare_decision_decomposition,
            schema,
            attribute,
        )
        encoded = span("problems.encode_ms", encode_for_primality, schema, nice)
        cache = ProgramCache()
        stats = EvaluationStats()
        backend = get_backend(solver.backend_name, cache)
        db = span(
            "datalog.seminaive_evaluate_ms",
            lambda: backend.evaluate(
                program,
                encoded,
                registry=solver.registry,
                query="success",
                stats=stats,
            ),
        )
        counters = {
            "datalog.facts_derived": stats.facts_derived,
            "datalog.bindings_explored": stats.bindings_explored,
            "_cache_hits": cache.stats.hits,
            "_cache_lookups": cache.stats.lookups,
        }
        return db.contains("success", ()), counters

    def stop(self, _solver) -> None:
        pass


class ServiceW1(_CompiledWorkload):
    """The forest program behind ``SolverService`` on small forests:
    queueing, dispatch and IPC are a visible share of each request."""

    name = "service-w1"
    width = 1
    structure_filter = staticmethod(undirected_graph_filter)
    probe = "forest"
    service = True

    def __init__(self, tiny: bool = False, plan=None):
        super().__init__(tiny)
        self.plan = plan if plan is not None else timing.CpuPlan()

    def inputs(self, seed: int) -> list:
        rng = inputs.rng_for(self.name, seed)
        vertices, count = (20, 4) if self.tiny else (100, 32)
        return inputs.forest_inputs(rng, vertices, count)

    def workers(self) -> int:
        return len(self.plan.workers)

    def build(self, span=passthrough):
        from repro.service import SolverService

        solver = super().build(span)
        service = SolverService(workers=self.workers())
        # the previous set-up's workers are joined, so the live children
        # are this service's workers
        self.plan.pin_workers(p.pid for p in multiprocessing.active_children())
        return _ServiceContext(solver, service, service.register(solver))

    def warm(self, ctx, items) -> None:
        # one request per worker, so every worker holds the program
        structures = [items[i % len(items)][0] for i in range(self.workers())]
        ctx.handle.solve_many(structures)

    # the in-process forms run the service's own solver, for the
    # in-process reference answers and the traced run

    def solve(self, ctx, structure):
        return ctx.solver.query(structure)

    def traced(self, ctx, structure, span):
        return traced_query(ctx.solver, structure, span)

    def stop(self, ctx) -> None:
        ctx.service.shutdown()


class _ServiceContext:
    __slots__ = ("solver", "service", "handle")

    def __init__(self, solver, service, handle):
        self.solver = solver
        self.service = service
        self.handle = handle


WORKLOADS = {
    w.name: w for w in (ForestW1, LadderW2, PrimalityFig6, ServiceW1)
}
