"""Substrate: decomposition construction cost and quality.

The paper assumes Bodlaender's linear-time algorithm [3]; the
:mod:`repro.treewidth.heuristics` docstring records the substitution by
greedy heuristics.  This bench tracks their
cost on growing partial 2-trees, the width quality against the exact DP
on small instances, and the exponential growth of the exact algorithm.

Run:  pytest benchmarks/bench_treewidth.py --benchmark-only
"""

import random

import pytest

from repro.problems import random_partial_ktree
from repro.structures import Graph
from repro.treewidth import (
    decompose_graph,
    make_nice,
    normalize,
    treewidth_exact,
)

SIZES = [25, 50, 100, 200]


@pytest.fixture(scope="module")
def graphs():
    rng = random.Random(31415)
    return {n: random_partial_ktree(rng, n, 2, 0.6)[0] for n in SIZES}


@pytest.mark.parametrize("method", ["min_fill", "min_degree"])
@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_heuristic_cost(benchmark, graphs, method, n):
    td = benchmark(decompose_graph, graphs[n], method)
    benchmark.extra_info["width"] = td.width


@pytest.mark.parametrize("n", [25, 50], ids=lambda n: f"n{n}")
def test_normalization_cost(benchmark, graphs, n):
    td = decompose_graph(graphs[n])
    ntd = benchmark(normalize, td)
    benchmark.extra_info["nodes"] = ntd.node_count()


@pytest.mark.parametrize("n", [25, 50], ids=lambda n: f"n{n}")
def test_nice_form_cost(benchmark, graphs, n):
    td = decompose_graph(graphs[n])
    nice = benchmark(make_nice, td)
    benchmark.extra_info["nodes"] = nice.node_count()


@pytest.mark.parametrize("n", [8, 11, 14], ids=lambda n: f"n{n}")
def test_exact_dp_growth(benchmark, n):
    rng = random.Random(n)
    graph, _ = random_partial_ktree(rng, n, 2, 0.7)
    width = benchmark.pedantic(
        treewidth_exact, args=(graph,), rounds=2, iterations=1
    )
    benchmark.extra_info["width"] = width


def test_heuristic_quality_vs_exact(benchmark):
    """min-fill matches the exact width on most small partial 2-trees."""
    rng = random.Random(999)
    gaps = []
    for _ in range(10):
        graph, _ = random_partial_ktree(rng, 9, 2, 0.7)
        gaps.append(decompose_graph(graph).width - treewidth_exact(graph))
    benchmark.extra_info["max_gap"] = max(gaps)
    benchmark.extra_info["mean_gap"] = sum(gaps) / len(gaps)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert max(gaps) <= 1
