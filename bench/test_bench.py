"""Self-tests of the benchmark: python3 -m pytest bench/"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

import coupled_completion as cc  # noqa: E402
# every layer module is loaded up front, so binding snapshots see the same modules
from coupled_completion import baselines, harness, norms, solver, tensor_ops  # noqa: E402,F401

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_problem():
    spec = cc.SyntheticSpec.low_noise(dims=(5, 5, 5), multilinear_rank=(2, 2, 2),
                                      matrix_cols=6, matrix_rank=2, shared=2, seed=3)
    T, M = cc.gen_instance(spec)
    t_train, _, _ = cc.gen_masks(T.shape, cc.MaskSpec(0.5, 0.1, 1))
    m_train, _, _ = cc.gen_masks(M.shape, cc.MaskSpec(0.5, 0.1, 2))
    return cc.CoupledProblem(T, t_train, M, m_train), cc.SolverOptions(lam=0.1, tol_primal=1e-4, tol_dual=1e-4)


def test_tracer_patches_imported_names_and_restores_them():
    before = tracer.bindings("coupled_completion")
    originals = (solver.svd, solver.unfold, baselines.solve, baselines.svt, norms.svt,
                 norms.ComponentLayout.regularized_modes, tensor_ops.ObservationMask.indicator)
    problem, opts = _tiny_problem()
    reference = solver.solve(problem, cc.parse_descriptor("1:(S,S,S)"), opts)
    with tracer.Tracer("coupled_completion") as tr:
        patched = (solver.svd, solver.unfold, baselines.solve, baselines.svt, norms.svt,
                   norms.ComponentLayout.regularized_modes, tensor_ops.ObservationMask.indicator)
        traced = solver.solve(problem, cc.parse_descriptor("1:(S,S,S)"), opts)
        baselines.complete_tensor(problem.tensor, problem.tensor_mask, "overlapped", 0.1, opts)
    assert all(p is not o for p, o in zip(patched, originals))
    assert tracer.bindings("coupled_completion") == before
    # tracing observes the work without changing it
    assert np.array_equal(traced.tensor, reference.tensor)
    assert tr.names.count("solver.solve") == 2
    solve_iters = [tr.info[i][0] for i, name in enumerate(tr.names) if name == "solver.solve"]
    assert solve_iters[0] == traced.iterations
    assert tr.names.count("solver.update_auxiliaries") == sum(solve_iters)
    assert "prox.svd" in tr.names and "tensor_ops.ObservationMask.indicator" in tr.names


def test_tracer_restores_bindings_when_the_traced_code_raises():
    before = tracer.bindings("coupled_completion")
    with pytest.raises(ValueError):
        with tracer.Tracer("coupled_completion"):
            cc.svt(np.ones((2, 2)), -1.0)
    assert tracer.bindings("coupled_completion") == before


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_reports_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                "--trace", trace, "--small", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    record = json.loads((tmp_path / f"{workload}-seed1-trace{trace}-small.json").read_text())
    assert record["context"]["seed"] == 1 and record["fits"]


def test_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "--workload", "solve-large", "--seed", "2", "--seconds", "0.1",
                    "--trace", "1", "--small", "--out", str(tmp_path))
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "calls/iter")})
    assert counts[0] == counts[1] and counts[0]["solver.iters"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
