"""Reference completion methods: individual matrix trace-norm completion
(MTN), individual tensor completion with the overlapped (OTN) and scaled
latent (SLTN) norms, and non-convex coupled CP factorization by masked
alternating least squares (CP).  CP checks its inputs as the solver's
:class:`CoupledProblem` does, and reports ``converged`` only when ALS met
its tolerance within its sweep cap."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .norms import NormDescriptor
# svt is not called here; bench/test_bench.py patches and checks baselines.svt
from .prox import svt  # noqa: F401
from .solver import CoupledProblem, PathFit, SolverOptions, solve
from .tensor_ops import ObservationMask, check_settings, unfold

__all__ = [
    "CpFactors",
    "individual_problem",
    "complete_tensor",
    "coupled_cp_als",
]

RIDGE = 1e-8
# CP-ALS stops once a sweep lowers its objective by at most this, relative
CP_TOL = 1e-10


# the tags under which the coupled solver fits each individual convex baseline
_TAGS = {"MTN": ("O", "O", "O"), "OTN": ("O", "O", "O"), "SLTN": ("S", "S", "S")}


def individual_problem(
    norm_id: str, X: np.ndarray, mask: ObservationMask
) -> tuple[CoupledProblem, NormDescriptor]:
    """The coupled problem and descriptor that fit the individual baseline ``norm_id`` to ``X``.

    MTN fits the matrix ``X`` beside an empty ``(n1, 0, 0)`` tensor: under
    ``1:(O,O,O)`` only the coupled mode-1 block, which is the matrix
    itself, carries a trace norm.  OTN and SLTN fit the tensor ``X`` beside
    a 0-column matrix, under ``1:(O,O,O)`` and ``1:(S,S,S)``.
    """
    if norm_id not in _TAGS:
        raise ValueError(f"norm_id must be one of {sorted(_TAGS)}, got {norm_id!r}")
    X = np.asarray(X, dtype=float)
    if norm_id == "MTN":
        empty = np.zeros((X.shape[0], 0, 0))
        problem = CoupledProblem(empty, ObservationMask.empty(empty.shape), X, mask, coupled_mode=1)
    else:
        empty = np.zeros((X.shape[0], 0))
        problem = CoupledProblem(X, mask, empty, ObservationMask.empty(empty.shape), coupled_mode=1)
    return problem, NormDescriptor(1, _TAGS[norm_id])


# kept for bench/test_bench.py, which calls it and counts the span of the module-global solve it calls
def complete_tensor(
    T_obs: np.ndarray,
    mask: ObservationMask,
    norm: str,
    lam: float,
    opts: SolverOptions = SolverOptions(),
) -> PathFit:
    """Tensor-only completion: :func:`solver.solve` on its :func:`individual_problem`.

    ``norm`` is "overlapped" (OTN) or "scaled_latent" (SLTN).
    """
    ids = {"overlapped": "OTN", "scaled_latent": "SLTN"}
    if norm not in ids:
        raise ValueError(f"norm must be one of {sorted(ids)}, got {norm!r}")
    return solve(*individual_problem(ids[norm], T_obs, mask), replace(opts, lam=lam))


@dataclass
class CpFactors:
    """Shared-mode coupled CP model: T ~ [[A, B, C]], M ~ A @ V.T."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    V: np.ndarray
    rank: int
    objective_trace: np.ndarray
    converged: bool  # ALS met its tolerance within its sweep cap

    def reconstruct_tensor(self) -> np.ndarray:
        return np.einsum("ir,jr,kr->ijk", self.A, self.B, self.C)

    def reconstruct_matrix(self) -> np.ndarray:
        return self.A @ self.V.T


def _masked_ls_rows(design: np.ndarray, target: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Row-wise ridge least squares restricted to observed entries.

    design: (n_cols, R); target, obs: (n_rows, n_cols), target zero where obs
    is.  One product forms every row's Gram matrix; one batched solve.
    """
    R = design.shape[1]
    outer = (design[:, :, None] * design[:, None, :]).reshape(-1, R * R)
    G = (obs @ outer).reshape(-1, R, R) + RIDGE * np.eye(R)
    return np.linalg.solve(G, (target @ design)[..., None])[..., 0]


def coupled_cp_als(
    T_obs: np.ndarray,
    M_obs: np.ndarray,
    tensor_mask: ObservationMask,
    matrix_mask: ObservationMask,
    rank: int,
    iters: int = 100,
    seed: int = 0,
) -> CpFactors:
    """Masked ALS for the coupled CP model with a shared mode-1 factor.

    Each sweep minimizes the blocks A, B, C, V exactly (with a tiny ridge),
    so the objective is non-increasing.  Deterministic given ``seed``.
    """
    check_settings(locals(), rank=1, iters=1, seed=0)
    problem = CoupledProblem(T_obs, tensor_mask, M_obs, matrix_mask)
    rng = np.random.default_rng(seed)
    dims = (*problem.dims, problem.matrix.shape[1])
    A, B, C, V = (rng.standard_normal((n, rank)) / np.sqrt(rank) for n in dims)

    def khatri_rao(P, Q):
        # columnwise Kronecker, rows ordered to match Fortran-order unfolding
        return (Q[:, None, :] * P[None, :, :]).reshape(-1, rank)

    T_data, t_ind = problem.tensor_observed, problem.tensor_indicator
    M_data, m_ind = problem.matrix_observed, problem.matrix_indicator
    # A fits the tensor's mode-1 unfolding and the matrix rows jointly
    data_A, obs_A = unfold(T_data, 1, M_data), unfold(t_ind, 1, m_ind)
    data_B, obs_B = unfold(T_data, 2), unfold(t_ind, 2)
    data_C, obs_C = unfold(T_data, 3), unfold(t_ind, 3)

    trace, prev, converged = [], np.inf, False
    design_A = np.vstack([khatri_rao(B, C), V])
    for _ in range(iters):
        A = _masked_ls_rows(design_A, data_A, obs_A)
        B = _masked_ls_rows(khatri_rao(A, C), data_B, obs_B)
        C = _masked_ls_rows(khatri_rao(A, B), data_C, obs_C)
        V = _masked_ls_rows(A, M_data.T, m_ind.T)
        design_A = np.vstack([khatri_rao(B, C), V])
        # masked squared residual of the tensor and the matrix, on A's layout
        obj = float(np.sum((obs_A * (A @ design_A.T) - data_A) ** 2))
        trace.append(obj)
        if np.isfinite(prev) and prev - obj <= CP_TOL * max(1.0, prev):
            converged = True
            break
        prev = obj
    return CpFactors(A, B, C, V, rank, np.array(trace), converged)
