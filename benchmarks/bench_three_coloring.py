"""Section 5.1: 3-Colorability scales linearly for fixed treewidth.

Theorem 5.1 promises O(f(w) * |(V, E)|).  We grow random partial
2-trees and benchmark both the direct DP and the datalog-interpreted
Figure 5 program; doubling n should roughly double the time.

Run:  pytest benchmarks/bench_three_coloring.py --benchmark-only
"""

import random

import pytest

from repro.problems import ThreeColoringDatalog, random_partial_ktree
from repro.problems.three_coloring import three_coloring_direct

SIZES = [20, 40, 80, 160]


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(12345)
    return {n: random_partial_ktree(rng, n, 2, edge_probability=0.6) for n in SIZES}


@pytest.mark.parametrize("n", SIZES, ids=lambda n: f"n{n}")
def test_direct_dp_scaling(benchmark, instances, n):
    graph, td = instances[n]
    colorable, _ = benchmark(three_coloring_direct, graph, td)
    benchmark.extra_info["vertices"] = n
    benchmark.extra_info["colorable"] = colorable


@pytest.mark.parametrize("n", SIZES[:3], ids=lambda n: f"n{n}")
def test_datalog_scaling(benchmark, instances, n):
    graph, td = instances[n]
    solver = ThreeColoringDatalog()
    benchmark.pedantic(
        solver.decide, args=(graph, td), rounds=3, iterations=1
    )


def test_linearity_of_direct_dp(benchmark, instances):
    """A single benchmark wrapping the whole sweep so that the fitted
    slope and log-log exponent land in the report's extra_info."""
    from repro.bench import fit_linear, time_ms

    times = {
        n: time_ms(
            lambda n=n: three_coloring_direct(*instances[n]), repeat=3
        )
        for n in SIZES
    }
    fit = fit_linear(list(times), list(times.values()))
    benchmark.extra_info["r_squared"] = round(fit.r_squared, 3)
    benchmark.extra_info["ms_per_vertex"] = round(fit.slope, 4)
    benchmark.extra_info["exponent"] = round(fit.exponent, 3)
    print(
        f"direct DP vs n: R^2 = {fit.r_squared:.3f}, "
        f"log-log exponent = {fit.exponent:.2f}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert fit.is_convincingly_linear or fit.r_squared > 0.8
