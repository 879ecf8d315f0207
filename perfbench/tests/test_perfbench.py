"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _fingerprint(items):
    def key(x):
        return sorted(x.relation("e")) if hasattr(x, "relation") else x

    return [
        (key(x), sorted(e) if isinstance(e, frozenset) else e)
        for x, e in items
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    first = _fingerprint(WORKLOADS[name](tiny=True).inputs(7))
    again = _fingerprint(WORKLOADS[name](tiny=True).inputs(7))
    other = _fingerprint(WORKLOADS[name](tiny=True).inputs(8))
    assert first == again
    assert first != other


def test_forest_oracle_reads_adjacency():
    graph = inputs.random_forest(inputs.rng_for("t", 1), 50)
    isolated = {v for v in graph.vertices if not graph.neighbors(v)}
    assert isolated  # the generator leaves lone roots
    assert inputs.adjacency_answers(graph) == graph.vertices - isolated


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_calibration_kernel_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "time"}
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; import calibrate; calibrate.kernel_ms(); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))",
        ],
        cwd=HERE,
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "[]"


def test_sampler_runs_the_kernel_inside_a_unit_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with timing.Sampler() as sampler:
        start = timing.now()
        while timing.since_ms(start) < 3000 * timing.SAMPLE_INTERVAL_S:
            pass
    assert len(sampler.kernels_ms) >= 2
    assert sampler.paused_ms >= sum(sampler.kernels_ms)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_answers_everything(name, trace):
    result, diagnostics = run.run(name, 3, 0.2, trace, tiny=True)
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    assert result["correct"]
    assert diagnostics["failed_share"] == 0
    if not trace:
        for metric in result["metrics"].values():
            assert metric["value"] > 0


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forest-w1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
