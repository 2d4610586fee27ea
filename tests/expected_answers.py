"""Expected answers of the package, committed under ``tests/data/``.

Four computations whose answers the paper's results rest on:

- two sweeps, ``results.csv`` and ``summary.csv`` of each: the 10^3 and the
  20^3 config of the benchmark's ``sweep-paper`` workload at seed 1 (seven
  norms, one repetition, train fraction 0.3);
- the certified ``norms.bracket`` of the nine solver-supported descriptors
  on one fixed 8^3 instance, with ``solver.decompose``'s iteration count
  for each, in ``brackets.json``;
- one ``solver.solve`` of ``1:(O,O,O)`` at 20^3, its iterations,
  convergence flag and final values, in ``solve.json``.

``tests/test_expected_answers.py`` recomputes them.  A change that moves an
answer on purpose regenerates the files, from the repository root, with::

    PYTHONPATH=src python tests/expected_answers.py

and the diff of ``tests/data/`` shows the move.  It refuses to write a
bracket that is disjoint from the committed one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from coupled_completion import datagen, harness, norms, solver

DATA = Path(__file__).resolve().parent / "data"
SWEEP_NORMS = ("1:(O,O,O)", "1:(S,O,O)", "1:(S,S,S)", "OTN", "SLTN", "MTN", "CP")
DESCRIPTORS = (
    "1:(O,O,O)", "1:(L,L,L)", "1:(S,S,S)",
    "1:(L,O,O)", "1:(O,L,O)", "1:(O,O,L)",
    "1:(S,O,O)", "1:(O,S,O)", "1:(O,O,S)",
)
BRACKET_TOL = 1e-6


# name: the tensor's side n, the rank and the lambda grid's length
SWEEPS = {"sweep-10": (10, 2, 3), "sweep-20": (20, 5, 8)}


def sweep_config(n: int, rank: int, count: int) -> harness.ExperimentConfig:
    """The ``sweep-paper`` config at ``n^3``, with ``count`` lambdas from 1e-3 to 5."""
    return harness.ExperimentConfig(
        norms=SWEEP_NORMS,
        synthetic=datagen.SyntheticSpec.low_noise(
            dims=(n, n, n), multilinear_rank=(rank,) * 3, matrix_cols=n + n // 2,
            matrix_rank=rank, shared=rank, seed=1,
        ),
        lambda_grid=harness.LambdaGrid(0.001, 5.0, count, "log"),
        train_fractions=(0.3,),
        validation_fraction=0.1,
        repetitions=1,
        seed=1,
        solver=solver.SolverOptions(tol_primal=1e-4, tol_dual=1e-4),
    )


def sweep(name: str, out_dir: Path) -> dict[str, Path]:
    """Run the sweep ``name`` of :data:`SWEEPS` and write its CSVs to ``out_dir``."""
    return harness.emit_report(harness.run(sweep_config(*SWEEPS[name])), out_dir)


def brackets() -> dict[str, dict]:
    """Each descriptor's norm on the 8^3 + 8 x 12 instance of seed 3: its bracket and its cost.

    ``lower`` and ``upper`` are the certified ends of ``norms.bracket``, and
    ``iterations`` the count of ``solver.decompose``, which computes the
    latent ones (0 for the closed-form ``1:(O,O,O)``).
    """
    T, M = datagen.gen_instance(datagen.SyntheticSpec.low_noise(
        dims=(8, 8, 8), multilinear_rank=(3, 3, 3), matrix_cols=12, matrix_rank=3, shared=3, seed=3,
    ))
    out = {}
    for text in DESCRIPTORS:
        d = norms.parse_descriptor(text)
        if d.has_latent():
            _, lower, upper, iterations = solver.decompose(T, M, norms.layout(d, T.shape), BRACKET_TOL)
        else:
            (lower, upper), iterations = norms.bracket(T, M, d, BRACKET_TOL), 0
        out[text] = {"lower": lower, "upper": upper, "iterations": iterations}
    return out


def disjoint(new: dict[str, dict], committed: dict[str, dict]) -> list[str]:
    """The descriptors whose ``new`` bracket shares no point with the ``committed`` one.

    Both certify the same norm value, so each such pair holds a broken
    certificate.
    """
    return [
        d for d, ends in new.items()
        if d in committed and (ends["upper"] < committed[d]["lower"] or committed[d]["upper"] < ends["lower"])
    ]


def solve() -> dict:
    """One ``1:(O,O,O)`` solve at 20^3, 30% observed, lam = beta = 0.1, tolerance 1e-4."""
    spec = datagen.SyntheticSpec.low_noise(
        dims=(20, 20, 20), multilinear_rank=(5, 5, 5), matrix_cols=30, matrix_rank=5, shared=5, seed=4,
    )
    T, M = datagen.gen_instance(spec)
    t_train, _, t_test = datagen.gen_masks(T.shape, datagen.MaskSpec(0.3, 0.1, 8))
    m_train, _, m_test = datagen.gen_masks(M.shape, datagen.MaskSpec(0.3, 0.1, 9))
    res = solver.solve(
        solver.CoupledProblem(T, t_train, M, m_train), norms.parse_descriptor("1:(O,O,O)"),
        solver.SolverOptions(lam=0.1, beta=0.1, tol_primal=1e-4, tol_dual=1e-4),
    )
    return {
        "iterations": res.iterations,
        "converged": res.converged,
        "final_primal_residual": res.final_primal_residual,
        "final_dual_residual": res.final_dual_residual,
        "tensor_norm": float(np.linalg.norm(res.tensor)),
        "matrix_norm": float(np.linalg.norm(res.matrix)),
        "test_mse_tensor": float(np.mean((T - res.tensor)[t_test.as_tuple()] ** 2)),
        "test_mse_matrix": float(np.mean((M - res.matrix)[m_test.as_tuple()] ** 2)),
    }


def write() -> None:
    """Recompute every expected answer and write it under ``tests/data/``.

    Refuses, writing nothing, when a new bracket is :func:`disjoint` from
    the committed one.
    """
    answers = {"brackets": brackets(), "solve": solve()}
    broken = disjoint(answers["brackets"], json.loads((DATA / "brackets.json").read_text()))
    if broken:
        raise SystemExit(f"brackets disjoint from the committed ones, a broken certificate: {', '.join(broken)}")
    # raises on a non-finite number
    texts = {name: json.dumps(value, indent=1, allow_nan=False) + "\n" for name, value in answers.items()}
    for name in SWEEPS:
        written = sweep(name, DATA / name)
        # the other two CSVs depend on the host's speed or repeat summary.csv
        for key in ("plotdata", "timings"):
            written[key].unlink()
    for name, text in texts.items():
        (DATA / f"{name}.json").write_text(text)


if __name__ == "__main__":
    write()
