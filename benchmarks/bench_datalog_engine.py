"""Engine internals: the evaluation backends head-to-head.

Not a paper table, but the substrate claim behind the MD column:
Section 6 stresses that the viability of the monadic-datalog route
hinges on the interpreter's constant factors.  This benchmark pits the
backends against each other on three reachability workloads:

* ``chain-N``  -- an N-node path graph (the magic-set showcase);
* ``grid-K``   -- a K x K grid with right/down edges (denser joins,
  many alternative derivations per fact);
* ``tree-N``   -- a random N-node tree, seeded (branching fan-out).

Backends compared:

* ``naive``      -- Jacobi re-derivation, tuple at a time (the
  conformance oracle; capped, it is O(n^3)-ish here);
* ``semi-naive`` -- the set-at-a-time engine (interned ids, columnar
  batches, relation-level hash joins, bitset unary relations);
* ``magic``      -- demand transformation + set-at-a-time evaluation,
  goal-directed on a single-source query.

Alongside the engine backends, the **solver workloads** benchmark the
Theorem 4.4 pipeline (grounding + linear-time Horn) on the same three
workload families, in its two execution forms: the streamed,
demand-pruned production path (``quasi-guarded``: ground rules
instantiated on demand into an online LTUR) and the eager
materialization (``quasi-guarded-eager``, the service's budget
fallback):

* ``solve-chain-N`` / ``solve-tree-N`` -- the compiled Theorem 4.5
  ``has_neighbor`` MSO program, evaluated over the ``A_td`` encoding
  of a path graph / random tree (width 1);
* ``solve-grid2x-N`` -- the *width-2* grid family: a 2 x N ladder
  grid solved through the real Theorem 4.5 path (``has_neighbor``
  compiled at width 2 relative to the grid class --
  ``grid_graph_filter``).  Runs the streamed production form (the
  folded program, ~770 rules) against the ``passes=()`` ablation (the
  ~20k-rule fold-free program), so the arm isolates class folding
  alone; the eager form grounds the full cross product -- 1.4M ground
  rules at N=40 -- and is benchmarked on the width-1 workloads
  instead.  Gated on exact agreement with *direct MSO evaluation* and
  with the hand-written cover DP over the same ``A_td`` encoding, and
  on the folded program beating the ablation by
  ``GRID2X_PASSES_SPEEDUP``;
* ``solve-grid-K`` -- a K x K grid is decomposed at its natural width
  (≈ K, far outside the compiler's envelope), and a Figure-style
  quasi-guarded dynamic program over its wide-bag ``A_td`` encoding
  stands in for the compiled MSO solve: same rule shapes
  (bag-guarded leaf/child1/child2 recursion + monadic projections),
  genuinely wide guards.

A **solve_many** workload shards a batch of independent tree
structures through ``CourcelleSolver.solve_many`` with 1 worker vs a
small multiprocessing pool and digests the canonicalized answers --
the results must be identical whatever the worker count (wall-clock is
recorded, not gated: CI cores vary).

Two entry points:

* ``pytest benchmarks/bench_datalog_engine.py --benchmark-only`` --
  pytest-benchmark timings of each backend;
* ``python benchmarks/bench_datalog_engine.py [--quick]`` -- the
  head-to-head table (the CI smoke test).  It writes the
  machine-readable baseline ``BENCH_engine.json`` to the repo root
  (``--out`` overrides) and exits non-zero if a contract regresses:

  1. all full-fixpoint backends derive *identical* ``path`` relations,
     and magic's answers match the single-source slice of them;
  2. magic derives strictly fewer facts than semi-naive;
  3. **regression gate** (v9): every engine run reproduces the
     checked-in baseline's ``facts_derived`` / ``rule_firings``
     exactly, and semi-naive on the largest chain stays within
     ``TIMING_DRIFT`` of its baseline time;
  4. on the largest chain, magic is >= 2x faster than full semi-naive;
  5. both quasi-guarded forms derive identical unary answers; the
     streamed form prunes rules (``rules_pruned > 0``) on the chain,
     tree and grid2x solves, is >= 2x faster than the eager form on
     the tree solve and >= 1.3x on the chain solve; every solver arm
     reproduces the baseline's ``ground_rules`` / ``peak_live_rules``
     / ``bindings_explored`` exactly and stays within
     ``TIMING_DRIFT`` of its baseline time (the v9 **regression
     gate**); the grid2x answers equal direct MSO
     evaluation and the hand-written cover DP on the same encoding,
     and the folded grid2x solve beats the ``passes=()`` ablation by
     >= ``GRID2X_PASSES_SPEEDUP``;
  6. ``solve_many`` returns identical (canonically serialized)
     results for 1 worker and N workers;
  7. the checked-in ``BENCH_engine.json`` must match the harness's
     schema version and workload/backend shape (drift fails CI until
     the baseline is regenerated);
  8. the **planner workloads** gate the feedback loop (PR 8): a
     profiled replan derives identical relations, is never slower
     than the static textual plans (1.25x jitter tolerance), clears
     >= 1.5x wall-clock on the skewed join, and MinIndexSelection
     covers every search signature of the nested-signature workload
     with strictly fewer indexes than one-per-pattern.
"""

import argparse
import json
import random
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running as a plain script without install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench import compare_backends, format_ms, format_table, time_ms
from repro.datalog import (
    CostModel,
    Database,
    EvaluationStats,
    PlanProfile,
    ProgramCache,
    SetDatabase,
    SetSemiNaiveEvaluator,
    atom,
    const,
    naive_least_fixpoint,
    parse_program,
    prepare_program,
    solve,
    td_key_dependencies,
    var,
)
from repro.datalog.evaluate import _search_signatures

TC = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    """
)

#: the query-driven workload: reachability *from one source*; full
#: evaluation materializes all path facts, demand-driven evaluation
#: needs only the ones rooted at the source (node 0 in every workload).
SOURCE_QUERY = atom("path", const(0), var("Y"))

SIZES = [30, 60, 120]

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

FULL_BACKENDS = ["naive", "semi-naive"]
ALL_BACKENDS = FULL_BACKENDS + ["magic"]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def chain_db(n):
    """An n-node path graph: 0 -> 1 -> ... -> n-1."""
    db = Database()
    for i in range(n - 1):
        db.add("edge", (i, i + 1))
    return db


def grid_db(k):
    """A k x k grid, edges right and down; node (i, j) is i * k + j."""
    db = Database()
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                db.add("edge", (v, v + 1))
            if i + 1 < k:
                db.add("edge", (v, v + k))
    return db


def random_tree_db(n, seed=0xC0FFEE):
    """A random n-node tree, edges parent -> child, rooted at 0."""
    rng = random.Random(seed)
    db = Database()
    for v in range(1, n):
        db.add("edge", (rng.randint(0, v - 1), v))
    return db


def workloads(quick):
    """(name, database, include-naive) triples, largest chain last in
    the chain group so the speedup contracts read off the end."""
    if quick:
        chains, grid_k, tree_n, naive_cap = [100, 200, 400], 8, 300, 100
    else:
        chains, grid_k, tree_n, naive_cap = [100, 200, 400, 800], 16, 2000, 100
    out = [(f"chain-{n}", chain_db(n), n <= naive_cap) for n in chains]
    out.append((f"grid-{grid_k}", grid_db(grid_k), False))
    out.append((f"tree-{tree_n}", random_tree_db(tree_n), False))
    return out


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - pytest always present in CI
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("n", SIZES, ids=lambda n: f"chain{n}")
    def test_set_semi_naive_transitive_closure(benchmark, n):
        db = chain_db(n)
        result = benchmark.pedantic(
            solve, args=(TC, db), rounds=3, iterations=1
        )
        assert len(result.relation("path")) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", SIZES[:2], ids=lambda n: f"chain{n}")
    def test_naive_transitive_closure(benchmark, n):
        db = chain_db(n)
        result = benchmark.pedantic(
            naive_least_fixpoint, args=(TC, db), rounds=2, iterations=1
        )
        assert len(result.relation("path")) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", SIZES, ids=lambda n: f"chain{n}")
    def test_magic_single_source(benchmark, n):
        db = chain_db(n)
        result = benchmark.pedantic(
            solve,
            args=(TC, db),
            kwargs={"backend": "magic", "query": SOURCE_QUERY},
            rounds=3,
            iterations=1,
        )
        assert len(result.relation("path")) == n - 1

    def test_firing_counts_gap(benchmark):
        """Semi-naive fires each derivation O(1) times; naive re-fires
        everything every round; magic only fires what the query needs."""
        n = 40
        evaluator = SetSemiNaiveEvaluator(TC)
        evaluator.evaluate(chain_db(n))
        semi = evaluator.stats.rule_firings
        naive_stats = EvaluationStats()
        naive_least_fixpoint(TC, chain_db(n), stats=naive_stats)
        magic_stats = EvaluationStats()
        solve(
            TC,
            chain_db(n),
            backend="magic",
            query=SOURCE_QUERY,
            stats=magic_stats,
        )
        benchmark.extra_info["semi_naive_firings"] = semi
        benchmark.extra_info["naive_firings"] = naive_stats.rule_firings
        benchmark.extra_info["magic_firings"] = magic_stats.rule_firings
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert naive_stats.rule_firings > 5 * semi
        assert magic_stats.rule_firings * 5 < semi


# ----------------------------------------------------------------------
# Standalone head-to-head comparison (the CI smoke test)
# ----------------------------------------------------------------------


def check_agreement(name, db, include_naive, cache, failures):
    """All full-fixpoint backends must derive the *same* path relation,
    and magic's single-source answers must be its source-0 slice."""
    reference = None
    backends = FULL_BACKENDS if include_naive else FULL_BACKENDS[1:]
    for backend in backends:
        rel = solve(TC, db, backend=backend, cache=cache).relation("path")
        if reference is None:
            reference = rel
        elif rel != reference:
            failures.append(
                f"{name}: backend {backend!r} derived a different path "
                f"relation ({len(rel)} facts vs {len(reference)})"
            )
    goal = solve(
        TC, db, backend="magic", query=SOURCE_QUERY, cache=cache
    ).relation("path")
    want = {t for t in reference if t[0] == 0}
    got = {t for t in goal if t[0] == 0}
    if got != want:
        failures.append(
            f"{name}: magic single-source answers disagree "
            f"({len(got)} vs {len(want)} facts from source 0)"
        )
    return reference


def run_comparison(quick, repeat=3, baseline=None):
    """Compare the backends on the reachability workloads.

    ``baseline`` is the checked-in ``workloads`` section (``None`` when
    there is no comparable baseline): every run's counters must match
    it, and semi-naive on the largest chain must stay within
    ``TIMING_DRIFT`` of it.  Returns (table rows, per-workload results
    dict, contract violations).
    """
    cache = ProgramCache()
    rows = []
    failures = []
    results = {}
    largest_chain = None
    for name, db, include_naive in workloads(quick):
        check_agreement(name, db, include_naive, cache, failures)
        backends = list(ALL_BACKENDS)
        if not include_naive:
            backends.remove("naive")
        runs = {
            r.backend: r
            for r in compare_backends(
                TC, db, SOURCE_QUERY, backends, repeat=repeat, cache=cache
            )
        }
        results[name] = {
            backend: {
                "ms": round(run.ms, 3),
                "facts_derived": run.facts_derived,
                "rule_firings": run.rule_firings,
            }
            for backend, run in runs.items()
        }
        semi = runs["semi-naive"]
        for backend in ALL_BACKENDS:
            run = runs.get(backend)
            if run is None:
                rows.append([name, backend, "-", "-", "-"])
                continue
            speedup = semi.ms / run.ms if run.ms else float("inf")
            # sub-1x would truncate to a meaningless "0.0x"
            shown = (
                f"{speedup:.1f}x" if speedup >= 1 else f"1/{1 / speedup:.0f}x"
            )
            rows.append(
                [name, backend, run.facts_derived, format_ms(run.ms), shown]
            )
        if not runs["magic"].facts_derived < semi.facts_derived:
            failures.append(
                f"{name}: magic derived {runs['magic'].facts_derived} "
                f"facts, semi-naive {semi.facts_derived} -- not strictly "
                "fewer"
            )
        if name.startswith("chain-"):
            largest_chain = name
        if baseline is not None:
            for backend, run in results[name].items():
                failures.extend(
                    check_regression(
                        f"{name}/{backend}",
                        run,
                        baseline.get(name, {}).get(backend),
                        ENGINE_COUNTERS,
                        timed=False,
                    )
                )

    # contracts on the largest chain
    name = largest_chain
    semi, magic = results[name]["semi-naive"], results[name]["magic"]
    if baseline is not None:
        failures.extend(
            check_regression(
                f"{name}/semi-naive",
                semi,
                baseline.get(name, {}).get("semi-naive"),
                (),
            )
        )
    if magic["ms"] * 2 > semi["ms"]:
        failures.append(
            f"{name}: magic {magic['ms']:.1f}ms vs semi-naive "
            f"{semi['ms']:.1f}ms -- less than the required 2x speedup"
        )
    return rows, results, failures


#: the regression gates' timing bound: an arm may run at most this many
#: times its checked-in baseline time (host differences and timer
#: noise stay well inside it; reinstating a route the size of the
#: deleted raw-value or tuple-at-a-time paths -- 3-10x -- does not)
TIMING_DRIFT = 3.0

#: deterministic counters the engine regression gate pins
ENGINE_COUNTERS = ("facts_derived", "rule_firings")

#: deterministic counters the solver regression gate pins, where an
#: arm records them (``peak_live_rules`` is streamed-only)
SOLVER_COUNTERS = ("ground_rules", "peak_live_rules", "bindings_explored")


def check_regression(label, run, baseline, counters, timed=True):
    """The v9 regression gate for one arm against its checked-in
    baseline record: each deterministic counter must match exactly,
    and (``timed``) the wall clock must stay within ``TIMING_DRIFT``
    of the baseline's.  An arm missing from the baseline is the drift
    gate's business, not this one's."""
    failures = []
    if baseline is None:
        return failures
    for counter in counters:
        if counter in baseline and run.get(counter) != baseline[counter]:
            failures.append(
                f"{label}: {counter} = {run.get(counter)} drifted from "
                f"the baseline's {baseline[counter]}"
            )
    if timed and run["ms"] > baseline["ms"] * TIMING_DRIFT:
        failures.append(
            f"{label}: {run['ms']:.1f}ms is over {TIMING_DRIFT:g}x the "
            f"baseline's {baseline['ms']:.1f}ms"
        )
    return failures


# ----------------------------------------------------------------------
# Solver workloads: the Theorem 4.4 pipeline -- streamed+pruned vs the
# eager materialization -- on chain/grid/tree families.
# ----------------------------------------------------------------------

SCHEMA_VERSION = "bench-engine/v9"

#: the gate on the grid2x solve: the folded program must beat the
#: passes=() ablation (the fold-free ~20k-rule program) by this factor
GRID2X_PASSES_SPEEDUP = 3.0

SOLVER_BACKENDS = ["quasi-guarded", "quasi-guarded-eager"]

#: backend name -> QuasiGuardedEvaluator mode (mirrors CourcelleSolver)
SOLVER_MODES = {
    "quasi-guarded": "streamed",
    "quasi-guarded-eager": "eager",
}


def graph_grid(k):
    # int-labelled (unlike Graph.grid's (row, col) tuples) so the
    # dense-int identity-interner fast path stays exercised
    from repro.structures import Graph

    g = Graph(range(k * k))
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                g.add_edge(v, v + 1)
            if i + 1 < k:
                g.add_edge(v, v + k)
    return g


def solver_workloads(quick):
    """Workload dicts -- encoding and MSO compilation happen here,
    outside the timed region, so the timings isolate the grounding +
    Horn pipeline the backends differ on.

    Keys: ``name``, ``program``, ``dependencies``, ``encoded`` (the
    ``A_td``), ``answer_predicate``, ``expected`` (answer count),
    ``backends`` (the quasi-guarded forms to run), and optionally
    ``reference`` -- the exact answer set from *direct MSO
    evaluation*, cross-checked against the hand-written cover DP on
    the same encoding for the grid2x workload (the Theorem 4.5
    conformance contract of the width-2 envelope).
    """
    from repro.bench import atd_cover_program
    from repro.core import (
        ANSWER_PREDICATE,
        QuasiGuardedEvaluator,
        compile_unary_query,
        grid_graph_filter,
        undirected_graph_filter,
    )
    from repro.mso import formulas
    from repro.mso import query as mso_query
    from repro.problems import random_tree_graph
    from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure
    from repro.treewidth import (
        decompose_structure,
        encode_normalized,
        normalize,
        widen,
    )

    def encode(graph, min_width=None):
        s = graph_to_structure(graph)
        td = decompose_structure(s)
        if min_width is not None and td.width < min_width:
            td = widen(td, min_width)
        return s, encode_normalized(s, normalize(td)), td.width

    chain_n, tree_n, grid_k, ladder_n = (
        (120, 100, 8, 20) if quick else (400, 300, 12, 40)
    )
    compiled = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    out = []
    for name, graph, n in (
        (f"solve-chain-{chain_n}", Graph.path(chain_n), chain_n),
        (
            f"solve-tree-{tree_n}",
            random_tree_graph(random.Random(0xC0FFEE), tree_n),
            tree_n,
        ),
    ):
        _, encoded, _ = encode(graph, min_width=1)
        out.append(
            {
                "name": name,
                "program": compiled.program,
                "dependencies": compiled.dependencies(),
                "encoded": encoded,
                "answer_predicate": ANSWER_PREDICATE,
                "expected": n,
                "backends": SOLVER_BACKENDS,
            }
        )

    # the width-2 grid family through the real Theorem 4.5 path
    # (ROADMAP (d)): compile at width 2 relative to the grid class,
    # solve a ladder, and pin the answers to direct MSO evaluation and
    # to the hand-written cover DP over the same A_td encoding
    compiled2 = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
    )
    # the passes=() ablation: the very same query compiled without
    # class folding (ROADMAP D).  The gate times it on the same
    # encoding; the folded program must beat it by
    # GRID2X_PASSES_SPEEDUP.
    compiled2_ablated = compile_unary_query(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=2,
        free_var="x",
        structure_filter=grid_graph_filter,
        passes=(),
    )
    structure, encoded, width = encode(Graph.grid(2, ladder_n), min_width=2)
    reference = mso_query(structure, formulas.has_neighbor("x"), "x")
    dp = QuasiGuardedEvaluator(
        atd_cover_program(width + 2),
        dependencies=td_key_dependencies(width + 2),
    )
    dp_answers = dp.evaluate(encoded).unary_answers("covered")
    out.append(
        {
            "name": f"solve-grid2x-{ladder_n}",
            "program": compiled2.program,
            "dependencies": compiled2.dependencies(),
            "encoded": encoded,
            "answer_predicate": ANSWER_PREDICATE,
            "expected": 2 * ladder_n,
            # streamed only: the eager form grounds the full program x
            # structure cross product (1.4M ground rules at N=40) --
            # demand pruning is precisely what makes the width-2
            # compiled program practical
            "backends": ["quasi-guarded"],
            "reference": reference,
            "dp_answers": dp_answers,
            "ablation_program": compiled2_ablated.program,
            "ablation_dependencies": compiled2_ablated.dependencies(),
        }
    )

    _, encoded, width = encode(graph_grid(grid_k))
    out.append(
        {
            "name": f"solve-grid-{grid_k}",
            "program": atd_cover_program(width + 2),
            "dependencies": td_key_dependencies(width + 2),
            "encoded": encoded,
            "answer_predicate": "covered",
            "expected": grid_k * grid_k,
            "backends": SOLVER_BACKENDS,
        }
    )
    return out


def run_solver_comparison(quick, repeat=3, baseline=None):
    """The Theorem 4.4 pipeline: streamed vs eager.

    ``baseline`` is the checked-in ``solver_workloads`` section, or
    ``None`` when there is no comparable baseline.  Returns (table
    rows, per-workload results dict, contract violations).
    Contracts: identical unary answers across both forms; the streamed
    form prunes rules and beats eager on the chain and tree solves;
    every arm matches its baseline counters and timing drift bound.
    """
    from repro.core import QuasiGuardedEvaluator

    rows = []
    results = {}
    failures = []
    for workload in solver_workloads(quick):
        name = workload["name"]
        encoded = workload["encoded"]
        answer_pred = workload["answer_predicate"]
        answers = {}
        runs = {}
        for backend in workload["backends"]:
            mode = SOLVER_MODES[backend]
            evaluator = QuasiGuardedEvaluator(
                workload["program"],
                dependencies=workload["dependencies"],
                mode=mode,
                demand=answer_pred if mode == "streamed" else None,
            )
            warm = evaluator.evaluate(encoded)  # warm-up / cache fill
            answers[backend] = warm.unary_answers(answer_pred)
            ms = time_ms(
                lambda: evaluator.evaluate(encoded).unary_answers(
                    answer_pred
                ),
                repeat=repeat,
            )
            runs[backend] = {
                "ms": round(ms, 3),
                "ground_rules": warm.ground_rules,
                "bindings_explored": warm.stats.bindings_explored,
                "answers": len(answers[backend]),
            }
            if mode == "streamed":
                runs[backend]["rules_pruned"] = warm.stats.rules_pruned
                runs[backend]["peak_live_rules"] = (
                    warm.stats.peak_live_rules
                )
        if "ablation_program" in workload:
            # the passes=() arm: same query, fold-free program
            evaluator = QuasiGuardedEvaluator(
                workload["ablation_program"],
                dependencies=workload["ablation_dependencies"],
                mode="streamed",
                demand=answer_pred,
            )
            warm = evaluator.evaluate(encoded)
            answers["quasi-guarded-nopasses"] = warm.unary_answers(
                answer_pred
            )
            ms = time_ms(
                lambda: evaluator.evaluate(encoded).unary_answers(
                    answer_pred
                ),
                repeat=repeat,
            )
            runs["quasi-guarded-nopasses"] = {
                "ms": round(ms, 3),
                "ground_rules": warm.ground_rules,
                "bindings_explored": warm.stats.bindings_explored,
                "answers": len(answers["quasi-guarded-nopasses"]),
                "rules_pruned": warm.stats.rules_pruned,
                "peak_live_rules": warm.stats.peak_live_rules,
            }
        results[name] = runs
        streamed_run = runs["quasi-guarded"]
        arms = list(runs)
        for backend in arms:
            run = runs[backend]
            speedup = (
                run["ms"] / streamed_run["ms"]
                if streamed_run["ms"]
                else float("inf")
            )
            rows.append(
                [
                    name,
                    backend,
                    run["answers"],
                    run["ground_rules"],
                    run.get("rules_pruned", "-"),
                    format_ms(run["ms"]),
                    f"{speedup:.1f}x",
                ]
            )
        reference = answers["quasi-guarded"]
        for backend in arms:
            if answers[backend] != reference:
                failures.append(
                    f"{name}: {backend} disagrees with the streamed "
                    f"pipeline ({len(answers[backend])} vs "
                    f"{len(reference)} answers)"
                )
        if len(reference) != workload["expected"]:
            failures.append(
                f"{name}: expected {workload['expected']} answers, got "
                f"{len(reference)}"
            )
        # conformance pins (the grid2x workload): the compiled width-2
        # program must agree exactly with direct MSO evaluation and
        # with the hand-written cover DP over the same encoding
        if "reference" in workload and reference != workload["reference"]:
            failures.append(
                f"{name}: compiled answers disagree with direct MSO "
                f"evaluation ({len(reference)} vs "
                f"{len(workload['reference'])} answers)"
            )
        if (
            "dp_answers" in workload
            and reference != workload["dp_answers"]
        ):
            failures.append(
                f"{name}: compiled answers disagree with the "
                f"hand-written cover DP ({len(reference)} vs "
                f"{len(workload['dp_answers'])} answers)"
            )
        failures.extend(
            check_solver_contracts(
                name,
                runs,
                baseline.get(name) if baseline is not None else None,
            )
        )
    return rows, results, failures


def check_solver_contracts(name, runs, baseline=None):
    """The perf contracts of one solver workload; separated out so the
    test-suite can exercise the gate logic on synthetic timings.

    The streamed form must dominate on the compiled-MSO chain/tree
    solves, where most of the eager ground program is dead weight: >=
    2x on the tree solve, >= 1.3x on the chain solve (the minimized
    Theorem 4.5 programs shrank eager's dead weight).  The grid cover
    DP is the counter-case: its ground program is fully live, so there
    is nothing to prune and no ratio is gated -- streamed runs at
    ~0.7x of eager there (ROADMAP (J) step 5).  Every arm is instead
    held to its ``baseline`` record (the checked-in
    ``solver_workloads`` entry, when comparable) by
    :func:`check_regression`.  The grid2x workload (width-2
    Theorem 4.5 path) runs the streamed form only; its gates are
    pruning engagement and the folded program beating the
    ``passes=()`` ablation -- the answer conformance pins live in
    ``run_solver_comparison``.
    """
    failures = []
    streamed = runs["quasi-guarded"]
    eager = runs.get("quasi-guarded-eager")
    chain_or_tree = name.startswith(("solve-chain-", "solve-tree-"))
    if chain_or_tree:
        required = 2.0 if name.startswith("solve-tree-") else 1.3
        if streamed["ms"] * required > eager["ms"]:
            failures.append(
                f"{name}: streamed {streamed['ms']:.1f}ms vs eager "
                f"{eager['ms']:.1f}ms -- less than the required "
                f"{required:g}x speedup"
            )
    if (
        chain_or_tree or name.startswith("solve-grid2x-")
    ) and streamed.get("rules_pruned", 0) <= 0:
        failures.append(
            f"{name}: streamed grounding pruned no rules -- demand "
            "pruning is not engaging"
        )
    nopasses = runs.get("quasi-guarded-nopasses")
    if nopasses is not None and (
        streamed["ms"] * GRID2X_PASSES_SPEEDUP > nopasses["ms"]
    ):
        failures.append(
            f"{name}: folded program {streamed['ms']:.1f}ms vs "
            f"passes=() ablation {nopasses['ms']:.1f}ms -- less than "
            f"the required {GRID2X_PASSES_SPEEDUP:g}x speedup from "
            "class folding"
        )
    if baseline is not None:
        for backend, run in runs.items():
            failures.extend(
                check_regression(
                    f"{name}/{backend}",
                    run,
                    baseline.get(backend),
                    SOLVER_COUNTERS,
                )
            )
    return failures


# ----------------------------------------------------------------------
# Feedback-directed planning: profile -> replan -> re-index (PR 8)
# ----------------------------------------------------------------------

SKEW_PROGRAM = parse_program("match(X, Z) :- big(X, Y), tiny(Y, Z).")

NESTED_PROGRAM = parse_program(
    """
    viaA(Z) :- arc(0, Y, Z).
    viaB(Z) :- arc(0, 1, Z).
    """
)


def skew_db(n):
    """A skewed join: ``big`` is n facts, ``tiny`` is 10.  The textual
    body order scans ``big`` and probes ``tiny`` (n probes, 10 hits);
    the profiled replan scans ``tiny`` and probes ``big``."""
    db = Database()
    for i in range(n):
        db.add("big", (i, i))
    for j in range(10):
        db.add("tiny", (j, j))
    return db


def nested_db(n):
    """A ternary relation probed on the nested signatures {0} and
    {0, 1} -- the MinChainCover showcase: one shared lexicographic
    index replaces two per-pattern hash indexes."""
    db = Database()
    for i in range(n):
        db.add("arc", (i % 50, i % 7, i))
    return db


def planner_workloads(quick):
    big_n, arc_n = (20_000, 20_000) if quick else (60_000, 50_000)
    return [
        ("skew-join", SKEW_PROGRAM, skew_db(big_n)),
        ("nested-sigs", NESTED_PROGRAM, nested_db(arc_n)),
    ]


def _planner_arm(prepared, db, apply_selection, profile=None):
    evaluator = SetSemiNaiveEvaluator.from_prepared(
        prepared, profile=profile, apply_index_selection=apply_selection
    )
    evaluator.run(db)
    return evaluator


def run_planner_comparison(quick, repeat=3):
    """The profile -> replan -> re-index loop on the set engine.

    Per workload: a profiled static run (textual plans, no shared
    indexes) feeds the cost model; the replanned prepared program (with
    its MinIndexSelection installed) re-runs the same workload.  Each
    arm interns and warms its database once, outside the timed region;
    the timings are warm re-evaluations of the full fixpoint, so they
    compare the *plans and probes*, not EDB interning (identical in
    both arms by construction).  Returns (table rows, per-workload
    results dict, contract violations).  Contracts: identical derived
    relations; replanned never slower than static (1.25x tolerance for
    timer jitter); >= 1.5x wall-clock on the skewed join;
    MinIndexSelection covers every search signature of the nested
    workload with strictly fewer indexes than one-per-pattern.
    """
    rows = []
    results = {}
    failures = []
    for name, program, db in planner_workloads(quick):
        static_prepared = prepare_program(program)
        profile = PlanProfile()
        static_db = SetDatabase.from_edb(db)
        static_eval = _planner_arm(
            static_prepared, static_db, False, profile=profile
        )
        replanned = prepare_program(program, cost=CostModel(profile))
        replan_db = SetDatabase.from_edb(db)
        replan_eval = _planner_arm(replanned, replan_db, True)
        for predicate in program.intensional_predicates():
            if replan_db.decode_relation(predicate) != static_db.decode_relation(
                predicate
            ):
                failures.append(
                    f"{name}: replanned plans derive a different "
                    f"{predicate!r} relation"
                )
        static_ms = time_ms(
            lambda: _planner_arm(static_prepared, static_db, False),
            repeat=repeat,
        )
        replanned_ms = time_ms(
            lambda: _planner_arm(replanned, replan_db, True),
            repeat=repeat,
        )
        selection = replanned.index_selection
        signatures = _search_signatures(
            replanned.program, replanned.plans, replanned.idb
        )
        covered = all(
            selection.covers(predicate, sig)
            for predicate, sigs in signatures.items()
            for sig in sigs
        )
        results[name] = {
            "static_ms": round(static_ms, 3),
            "replanned_ms": round(replanned_ms, 3),
            "speedup": round(static_ms / replanned_ms, 2)
            if replanned_ms
            else float("inf"),
            "bindings_static": static_eval.stats.bindings_explored,
            "bindings_replanned": replan_eval.stats.bindings_explored,
            "indexes_before": selection.n_signatures,
            "indexes_after": selection.n_indexes,
            "lex_indexes": len(selection.lex_specs),
            "covered": covered,
        }
        for arm, ms, stats in (
            ("static", static_ms, static_eval.stats),
            ("replanned", replanned_ms, replan_eval.stats),
        ):
            rows.append(
                [
                    name,
                    arm,
                    stats.facts_derived,
                    stats.bindings_explored,
                    format_ms(ms),
                    f"{static_ms / ms:.1f}x" if ms else "inf",
                ]
            )
        failures.extend(check_planner_contracts(name, results[name]))
    return rows, results, failures


def check_planner_contracts(name, record):
    """The perf and coverage contracts of one planner workload;
    separated out so the test-suite can exercise the gate logic on
    synthetic records.

    The replanned arm must never lose to static (1.25x tolerance: the
    nested workload's arms run the same plans, so the comparison is
    shared-lex vs per-pattern-hash index builds and sits near 1x).
    The skewed join is where feedback pays: the profiled replan scans
    the 10-row guard first, so >= 1.5x wall-clock and strictly fewer
    explored bindings are both required.  MinIndexSelection must cover
    every search signature, and on the nested workload with strictly
    fewer indexes than the one-hash-per-pattern baseline.
    """
    failures = []
    if record["replanned_ms"] > record["static_ms"] * 1.25:
        failures.append(
            f"{name}: replanned ({record['replanned_ms']:.1f}ms) is "
            f"slower than static ({record['static_ms']:.1f}ms)"
        )
    if not record["covered"]:
        failures.append(
            f"{name}: MinIndexSelection left a search signature "
            "uncovered"
        )
    if name == "skew-join":
        if record["replanned_ms"] * 1.5 > record["static_ms"]:
            failures.append(
                f"{name}: replanned {record['replanned_ms']:.1f}ms vs "
                f"static {record['static_ms']:.1f}ms -- less than the "
                "required 1.5x speedup"
            )
        if not record["bindings_replanned"] < record["bindings_static"]:
            failures.append(
                f"{name}: replanned explored "
                f"{record['bindings_replanned']} bindings, static "
                f"{record['bindings_static']} -- not strictly fewer"
            )
    if name == "nested-sigs":
        if not record["indexes_after"] < record["indexes_before"]:
            failures.append(
                f"{name}: MinIndexSelection kept "
                f"{record['indexes_after']} indexes for "
                f"{record['indexes_before']} signatures -- no sharing"
            )
    return failures


# ----------------------------------------------------------------------
# solve_many: sharded batch solving (ROADMAP item (c))
# ----------------------------------------------------------------------


def _canonical_digest(results) -> str:
    """A worker-count-independent digest of a solve_many result list."""
    import hashlib

    canonical = repr(
        [tuple(sorted(answers, key=repr)) for answers in results]
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_solve_many_comparison(quick):
    """``CourcelleSolver.solve_many`` with 1 worker vs a small pool.

    Returns (results dict, contract violations).  Gated on result
    identity (canonical digests must match); wall-clock for both
    worker counts is recorded but not gated -- CI machines differ in
    core count, and on a single-core runner the pool can only add
    overhead.
    """
    import os

    from repro.core import CourcelleSolver, undirected_graph_filter
    from repro.mso import formulas
    from repro.problems import random_tree_graph
    from repro.structures import GRAPH_SIGNATURE, graph_to_structure

    batch_size, tree_n = (8, 48) if quick else (16, 120)
    rng = random.Random(0xBEEF)
    structures = [
        graph_to_structure(random_tree_graph(rng, tree_n))
        for _ in range(batch_size)
    ]
    solver = CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )
    workers = max(2, min(4, os.cpu_count() or 1))
    # capture the timed run's results: solving (and spawning the pool)
    # twice per worker setting would double a multi-second CI step
    serial_runs, sharded_runs = [], []
    serial_ms = time_ms(
        lambda: serial_runs.append(solver.solve_many(structures, workers=1)),
        repeat=1,
    )
    sharded_ms = time_ms(
        lambda: sharded_runs.append(
            solver.solve_many(structures, workers=workers)
        ),
        repeat=1,
    )
    serial, sharded = serial_runs[-1], sharded_runs[-1]
    digest_serial = _canonical_digest(serial)
    digest_sharded = _canonical_digest(sharded)
    identical = serial == sharded and digest_serial == digest_sharded
    failures = []
    if not identical:
        failures.append(
            f"solve_many: 1-worker and {workers}-worker results differ "
            f"(digests {digest_serial[:12]} vs {digest_sharded[:12]})"
        )
    results = {
        "batch_size": batch_size,
        "tree_n": tree_n,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "ms_workers_1": round(serial_ms, 3),
        f"ms_workers_{workers}": round(sharded_ms, 3),
        "identical": identical,
        "digest": digest_serial[:16],
    }
    return results, failures


# ----------------------------------------------------------------------
# Baseline drift: the checked-in JSON must match the harness
# ----------------------------------------------------------------------


def check_baseline_drift(previous, payload):
    """Compare the checked-in baseline against a fresh payload.

    Timings are expected to move; the *shape* is not: a schema-version
    bump or a workload/backend set change without a regenerated
    ``BENCH_engine.json`` fails CI here rather than silently
    gatekeeping against a stale baseline.
    """
    failures = []
    if previous is None:
        return failures  # first run: nothing checked in yet
    if previous.get("schema") != payload["schema"]:
        failures.append(
            f"baseline drift: checked-in schema "
            f"{previous.get('schema')!r} != harness schema "
            f"{payload['schema']!r} -- regenerate BENCH_engine.json"
        )
        return failures  # shape comparisons are meaningless across schemas
    if previous.get("quick") == payload["quick"]:
        for section in ("workloads", "solver_workloads", "planner"):
            old_keys = set(previous.get(section, ()))
            new_keys = set(payload.get(section, ()))
            if old_keys != new_keys:
                failures.append(
                    f"baseline drift: {section} changed "
                    f"{sorted(old_keys)} -> {sorted(new_keys)} -- "
                    "regenerate BENCH_engine.json"
                )
    for name, backends in payload.get("solver_workloads", {}).items():
        old = previous.get("solver_workloads", {}).get(name)
        if old is not None and set(old) != set(backends):
            failures.append(
                f"baseline drift: solver backends for {name} changed "
                f"{sorted(old)} -> {sorted(backends)} -- regenerate "
                "BENCH_engine.json"
            )
    return failures


def build_payload(
    results,
    solver_results,
    solve_many_results,
    quick,
    planner_results=None,
    service_throughput=None,
    service_resilience=None,
    admission=None,
):
    """The machine-readable perf trajectory consumed by later PRs.

    ``solver_speedups`` records the eager-vs-streamed grounding ratio;
    the service sections -- ``service_throughput`` (v4),
    ``service_resilience`` (v5, the fault-injection goodput record)
    and ``admission`` (v7, the untrusted-input overhead + containment
    record) -- are *owned* by ``bench_solver_service.py``; this
    harness carries the checked-in records through unchanged so the
    benchmarks can regenerate the baseline in either order."""
    payload = {
        "schema": SCHEMA_VERSION,
        "benchmark": "benchmarks/bench_datalog_engine.py",
        "quick": quick,
        "query": str(SOURCE_QUERY),
        "program": "transitive closure (right-linear)",
        "workloads": results,
        "solver_program": (
            "Theorem 4.5 has_neighbor, minimized + folded "
            "(chain/tree at width 1; grid2x ladder at width 2 via "
            "grid_graph_filter, streamed folded program vs passes=() "
            "ablation, conformance-pinned to direct MSO + cover DP); "
            "A_td cover DP at natural width (grid)"
        ),
        "solver_workloads": solver_results,
        "solver_speedups": {
            name: round(
                backends["quasi-guarded-eager"]["ms"]
                / backends["quasi-guarded"]["ms"],
                2,
            )
            for name, backends in solver_results.items()
            if backends.get("quasi-guarded", {}).get("ms")
            and "quasi-guarded-eager" in backends
        },
        "solve_many": solve_many_results,
    }
    if planner_results is not None:
        payload["planner"] = planner_results
        payload["planner_speedups"] = {
            name: record["speedup"]
            for name, record in planner_results.items()
        }
    if service_throughput is not None:
        payload["service_throughput"] = service_throughput
    if service_resilience is not None:
        payload["service_resilience"] = service_resilience
    if admission is not None:
        payload["admission"] = admission
    return payload


def write_baseline(path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes and fewer repeats (the CI smoke test)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=BENCH_JSON,
        help=f"where to write the JSON baseline (default {BENCH_JSON})",
    )
    args = parser.parse_args(argv)
    repeat = 2 if args.quick else 3
    previous = None
    failures = []
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except json.JSONDecodeError:
            failures.append(f"baseline drift: {args.out} is not valid JSON")
    # the regression gates compare like with like: same schema, same
    # workload sizes
    comparable = (
        previous is not None
        and previous.get("schema") == SCHEMA_VERSION
        and previous.get("quick") == args.quick
    )
    if not comparable:
        print("no comparable baseline: regression gates skipped")

    print(f"reachability workloads, query = {SOURCE_QUERY}")
    rows, results, engine_failures = run_comparison(
        args.quick,
        repeat=repeat,
        baseline=previous.get("workloads", {}) if comparable else None,
    )
    failures.extend(engine_failures)
    print(
        format_table(
            ["workload", "backend", "facts", "ms", "vs semi-naive"], rows
        )
    )
    print(
        "\nsolver workloads (Theorem 4.4 pipeline: "
        "streamed+pruned vs eager)"
    )
    solver_rows, solver_results, solver_failures = run_solver_comparison(
        args.quick,
        repeat=repeat,
        baseline=(
            previous.get("solver_workloads", {}) if comparable else None
        ),
    )
    failures.extend(solver_failures)
    print(
        format_table(
            [
                "workload",
                "backend",
                "answers",
                "ground rules",
                "pruned",
                "ms",
                "vs streamed",
            ],
            solver_rows,
        )
    )
    print(
        "\nplanner workloads (feedback-directed replan + "
        "MinIndexSelection vs static plans)"
    )
    planner_rows, planner_results, planner_failures = (
        run_planner_comparison(args.quick, repeat=repeat)
    )
    failures.extend(planner_failures)
    print(
        format_table(
            [
                "workload",
                "arm",
                "facts",
                "bindings",
                "ms",
                "vs static",
            ],
            planner_rows,
        )
    )
    print("\nsolve_many (sharded batch, 1 worker vs pool)")
    solve_many_results, solve_many_failures = run_solve_many_comparison(
        args.quick
    )
    failures.extend(solve_many_failures)
    for key, value in sorted(solve_many_results.items()):
        print(f"  {key}: {value}")
    payload = build_payload(
        results,
        solver_results,
        solve_many_results,
        args.quick,
        planner_results=planner_results,
        service_throughput=(
            previous.get("service_throughput")
            if previous is not None
            else None
        ),
        service_resilience=(
            previous.get("service_resilience")
            if previous is not None
            else None
        ),
        admission=(
            previous.get("admission") if previous is not None else None
        ),
    )
    failures.extend(check_baseline_drift(previous, payload))
    out = write_baseline(args.out, payload)
    print(f"\nwrote {out}")
    if failures:
        print("\nCONTRACT VIOLATIONS:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "\nok: identical derived facts across full backends; magic derives "
        "strictly fewer facts and is >= 2x faster on the largest chain; "
        "the streamed quasi-guarded pipeline matches the eager form's "
        "answers, prunes rules, and beats eager >= 2x on the tree solve "
        "and >= 1.3x on the chain solve; the width-2 grid2x solve matches "
        "direct MSO evaluation and the hand-written cover DP and beats "
        "the passes=() ablation; every engine and solver arm matches the "
        "baseline's counters within the timing drift bound (when a "
        "comparable baseline is checked in); the profiled replan matches "
        "static plans, clears 1.5x on the skewed join, and "
        "MinIndexSelection shares indexes across nested signatures; "
        "solve_many is worker-count-invariant; the baseline schema "
        "matches the harness"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
