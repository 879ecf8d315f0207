"""Solve budgets: cooperative caps on the Theorem 4.4 pipeline.

The linear-time guarantee only holds inside the bounded-treewidth
envelope; a serving layer facing arbitrary inputs bounds each solve
with a :class:`SolveBudget` instead of letting a pathological one run
away.  This suite pins the meter itself (trip conditions, consumption
reporting), the budget threading through all three quasi-guarded
modes and ``CourcelleSolver.decide/query``, and the
``with_backend`` sibling-clone used as the service's fallback route.
"""

import time

import pytest

from repro.core import CourcelleSolver, undirected_graph_filter
from repro.datalog import BudgetExceeded, BudgetMeter, SolveBudget, as_meter
from repro.mso import formulas
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure


@pytest.fixture(scope="module")
def solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


def chain(n):
    return graph_to_structure(Graph.path(n))


class TestSolveBudget:
    def test_validation_rejects_non_positive_caps(self):
        with pytest.raises(ValueError):
            SolveBudget(max_seconds=0)
        with pytest.raises(ValueError):
            SolveBudget(max_ground_rules=-1)
        with pytest.raises(ValueError):
            SolveBudget(max_memory_mb=0)

    def test_unlimited(self):
        assert SolveBudget().unlimited
        assert not SolveBudget(max_seconds=1).unlimited

    def test_is_immutable_and_picklable(self):
        import pickle

        budget = SolveBudget(max_seconds=1, max_ground_rules=10)
        with pytest.raises(Exception):
            budget.max_seconds = 2
        assert pickle.loads(pickle.dumps(budget)) == budget

    def test_as_meter_normalization(self):
        assert as_meter(None) is None
        assert as_meter(SolveBudget()) is None  # unlimited -> no meter
        meter = as_meter(SolveBudget(max_seconds=5))
        assert isinstance(meter, BudgetMeter)
        assert as_meter(meter) is meter  # armed meters pass through
        with pytest.raises(TypeError):
            as_meter(42)


class TestBudgetMeter:
    def test_time_cap_trips(self):
        meter = SolveBudget(max_seconds=0.01).start()
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded) as info:
            meter.check()
        assert info.value.dimension == "seconds"
        assert info.value.limit == 0.01
        assert info.value.consumed["seconds"] > 0.01

    def test_ground_rule_cap_trips(self):
        meter = SolveBudget(max_ground_rules=100).start()
        meter.check(ground_rules=100)  # at the cap: fine
        with pytest.raises(BudgetExceeded) as info:
            meter.check(ground_rules=101)
        assert info.value.dimension == "ground_rules"
        assert info.value.consumed["ground_rules"] == 101

    def test_memory_cap_trips_against_peak_rss(self):
        # 0.001 MB is far below any live Python process's peak RSS
        meter = SolveBudget(max_memory_mb=0.001).start()
        with pytest.raises(BudgetExceeded) as info:
            meter.check()
        assert info.value.dimension == "memory_mb"

    def test_snapshot_reports_all_dimensions(self):
        meter = SolveBudget(max_seconds=10).start()
        meter.check(ground_rules=7)
        snapshot = meter.snapshot()
        assert snapshot["ground_rules"] == 7
        assert snapshot["seconds"] >= 0
        assert snapshot["memory_mb"] > 0  # POSIX: rusage is available

    def test_within_budget_never_raises(self):
        meter = SolveBudget(
            max_seconds=60, max_ground_rules=10**9, max_memory_mb=10**6
        ).start()
        for rules in (0, 10, 1000):
            meter.check(ground_rules=rules)


class TestSolverBudgetThreading:
    """The budget reaches the fixpoint loops of every mode, and an
    over-budget solve raises instead of running away."""

    @pytest.mark.parametrize(
        "backend",
        ["quasi-guarded", "quasi-guarded-eager"],
    )
    def test_ground_rule_cap_trips_in_every_mode(self, backend):
        solver = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=1,
            free_var="x",
            structure_filter=undirected_graph_filter,
            backend=backend,
        )
        tight = SolveBudget(max_ground_rules=5)
        with pytest.raises(BudgetExceeded) as info:
            solver.query(chain(40), budget=tight)
        assert info.value.dimension == "ground_rules"
        # the partially-consumed budget is reported at the checkpoint
        assert info.value.consumed["ground_rules"] > 5

    def test_in_budget_solve_is_unchanged(self, solver):
        roomy = SolveBudget(max_seconds=120, max_ground_rules=10**8)
        structure = chain(25)
        assert solver.query(structure, budget=roomy) == solver.query(structure)

    def test_unlimited_budget_is_free(self, solver):
        structure = chain(10)
        assert solver.query(structure, budget=SolveBudget()) == solver.query(
            structure
        )

    def test_budget_ignored_below_size_threshold(self, solver):
        # |dom| < w+1 takes the O(1) direct-evaluation path: no
        # grounding happens, so no cap can trip
        tiny = graph_to_structure(Graph.path(1))
        assert solver.query(tiny, budget=SolveBudget(max_ground_rules=1)) == (
            frozenset()
        )

    def test_one_meter_can_span_multiple_solves(self, solver):
        # an armed meter accumulates across calls: the second solve
        # sees the clock the first one started
        meter = SolveBudget(max_seconds=120).start()
        first = solver.query(chain(8), budget=meter)
        second = solver.query(chain(8), budget=meter)
        assert first == second


class TestWithBackend:
    """``with_backend`` -- the service's budget-fallback route."""

    def test_same_backend_returns_self(self, solver):
        assert solver.with_backend("quasi-guarded") is solver

    def test_sibling_shares_compiled_program(self, solver):
        eager = solver.with_backend("quasi-guarded-eager")
        assert eager.compiled is solver.compiled  # no recompilation
        assert eager.backend_name == "quasi-guarded-eager"
        assert solver.backend_name == "quasi-guarded"  # original untouched

    @pytest.mark.parametrize(
        "backend",
        ["quasi-guarded-eager", "semi-naive"],
    )
    def test_fallback_conformance(self, solver, backend):
        # the sibling must answer exactly like the primary on in-budget
        # inputs -- the conformance pin behind graceful degradation
        sibling = solver.with_backend(backend)
        for n in (2, 7, 19):
            assert sibling.query(chain(n)) == solver.query(chain(n))

    def test_sibling_survives_pickling(self, solver):
        import pickle

        sibling = solver.with_backend("quasi-guarded-eager")
        clone = pickle.loads(pickle.dumps(sibling))
        assert clone.query(chain(9)) == solver.query(chain(9))
