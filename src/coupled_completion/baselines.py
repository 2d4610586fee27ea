"""Reference completion methods: individual matrix trace-norm completion
(MTN), individual tensor completion with the overlapped (OTN) and scaled
latent (SLTN) norms, and non-convex coupled CP factorization by masked
alternating least squares."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .norms import NormDescriptor
# svt is not called here; bench/test_bench.py patches and checks baselines.svt
from .prox import svt  # noqa: F401
from .solver import CompletionResult, CoupledProblem, SolverOptions, solve
from .tensor_ops import ObservationMask, mask_apply, unfold

__all__ = [
    "CpFactors",
    "complete_matrix_mtn",
    "complete_tensor",
    "coupled_cp_als",
]

RIDGE = 1e-8


def _solve_alone(
    tensor: np.ndarray,
    tensor_mask: ObservationMask,
    matrix: np.ndarray,
    matrix_mask: ObservationMask,
    tags: tuple[str, str, str],
    lam: float,
    opts: SolverOptions,
) -> CompletionResult:
    """The coupled solver on a problem whose tensor or matrix part is empty."""
    if opts.lam != lam:
        opts = replace(opts, lam=lam)
    problem = CoupledProblem(tensor, tensor_mask, matrix, matrix_mask, coupled_mode=1)
    return solve(problem, NormDescriptor(1, tags), opts)


def complete_matrix_mtn(
    M_obs: np.ndarray,
    mask: ObservationMask,
    lam: float,
    opts: SolverOptions = SolverOptions(),
) -> CompletionResult:
    """Trace-norm regularized matrix completion (MTN).

    The coupled solver with an empty ``(n1, 0, 0)`` tensor: under
    ``1:(O,O,O)`` only the coupled mode-1 block, which is the matrix
    itself, carries a trace norm.
    """
    M_obs = np.asarray(M_obs, dtype=float)
    empty = np.zeros((M_obs.shape[0], 0, 0))
    return _solve_alone(
        empty, ObservationMask.empty(empty.shape), M_obs, mask, ("O", "O", "O"), lam, opts
    )


def complete_tensor(
    T_obs: np.ndarray,
    mask: ObservationMask,
    norm: str,
    lam: float,
    opts: SolverOptions = SolverOptions(),
) -> CompletionResult:
    """Tensor-only completion: the coupled solver with a 0-column matrix.

    ``norm`` is "overlapped" (OTN) or "scaled_latent" (SLTN).
    """
    tags = {"overlapped": ("O", "O", "O"), "scaled_latent": ("S", "S", "S")}
    if norm not in tags:
        raise ValueError(f"norm must be one of {sorted(tags)}, got {norm!r}")
    T_obs = np.asarray(T_obs, dtype=float)
    empty = np.zeros((T_obs.shape[0], 0))
    return _solve_alone(
        T_obs, mask, empty, ObservationMask.empty(empty.shape), tags[norm], lam, opts
    )


@dataclass
class CpFactors:
    """Shared-mode coupled CP model: T ~ [[A, B, C]], M ~ A @ V.T."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    V: np.ndarray
    rank: int
    objective_trace: np.ndarray

    def reconstruct_tensor(self) -> np.ndarray:
        return np.einsum("ir,jr,kr->ijk", self.A, self.B, self.C)

    def reconstruct_matrix(self) -> np.ndarray:
        return self.A @ self.V.T


def _cp_objective(
    T_obs, t_mask, M_obs, m_mask, A, B, C, V
) -> float:
    T_hat = np.einsum("ir,jr,kr->ijk", A, B, C)
    return float(
        np.linalg.norm(mask_apply(T_hat - T_obs, t_mask)) ** 2
        + np.linalg.norm(mask_apply(A @ V.T - M_obs, m_mask)) ** 2
    )


def _masked_ls_rows(design: np.ndarray, target: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Row-wise ridge least squares restricted to observed entries.

    design: (n_cols, R); target, obs: (n_rows, n_cols).  Solves each row of
    the output factor independently.
    """
    n_rows = target.shape[0]
    R = design.shape[1]
    out = np.zeros((n_rows, R))
    for i in range(n_rows):
        sel = obs[i] > 0
        D = design[sel]
        G = D.T @ D + RIDGE * np.eye(R)
        out[i] = np.linalg.solve(G, D.T @ target[i, sel])
    return out


def coupled_cp_als(
    T_obs: np.ndarray,
    M_obs: np.ndarray,
    tensor_mask: ObservationMask,
    matrix_mask: ObservationMask,
    rank: int,
    iters: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> CpFactors:
    """Masked ALS for the coupled CP model with a shared mode-1 factor.

    Each sweep minimizes the blocks A, B, C, V exactly (with a tiny ridge),
    so the objective is non-increasing.  Deterministic given ``seed``.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    T_obs = np.asarray(T_obs, dtype=float)
    M_obs = np.asarray(M_obs, dtype=float)
    n1, n2, n3 = T_obs.shape
    m = M_obs.shape[1]
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n1, rank)) / np.sqrt(rank)
    B = rng.standard_normal((n2, rank)) / np.sqrt(rank)
    C = rng.standard_normal((n3, rank)) / np.sqrt(rank)
    V = rng.standard_normal((m, rank)) / np.sqrt(rank)

    t_ind = tensor_mask.indicator()
    m_ind = matrix_mask.indicator()
    T_data = mask_apply(T_obs, tensor_mask)
    M_data = mask_apply(M_obs, matrix_mask)

    def khatri_rao(P, Q):
        # columnwise Kronecker, rows ordered to match Fortran-order unfolding
        return (Q[:, None, :] * P[None, :, :]).reshape(-1, rank)

    trace = []
    prev = np.inf
    for _ in range(iters):
        # A solves tensor mode-1 and matrix rows jointly
        design_A = np.vstack([khatri_rao(B, C), V])
        target_A = np.hstack([unfold(T_data, 1), M_data])
        obs_A = np.hstack([unfold(t_ind, 1), m_ind])
        A = _masked_ls_rows(design_A, target_A, obs_A)
        B = _masked_ls_rows(khatri_rao(A, C), unfold(T_data, 2), unfold(t_ind, 2))
        C = _masked_ls_rows(khatri_rao(A, B), unfold(T_data, 3), unfold(t_ind, 3))
        V = _masked_ls_rows(A, M_data.T, m_ind.T)
        obj = _cp_objective(T_obs, tensor_mask, M_obs, matrix_mask, A, B, C, V)
        trace.append(obj)
        if np.isfinite(prev) and prev - obj <= tol * max(1.0, prev):
            break
        prev = obj
    return CpFactors(A=A, B=B, C=C, V=V, rank=rank, objective_trace=np.array(trace))
