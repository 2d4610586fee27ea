"""ADMM for coupled matrix-tensor completion and coupled-norm evaluation.

Completion minimizes, over the tensor and the matrix jointly,

    0.5 * ||mask_M(M - M_obs)||_F^2 + 0.5 * ||mask_T(T - T_obs)||_F^2
        + lam * coupled_norm(T, M)

for any valid norm descriptor.  The tensor is represented through the
latent components dictated by the descriptor's layout; per regularized mode
an auxiliary unfolding is singular-value thresholded, the coupled mode's
unfolding being thresholded jointly with the matrix block.  Because the
observation operators are entrywise 0/1, every linear subproblem is solved
in closed form entry by entry.

One iteration loop (:func:`_admm`) serves completion (:func:`solve`) and the
evaluation of latent-type norms (:func:`decompose`, the infimum over
additive decompositions with the matrix held fixed); only the primal
data-fit step differs between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import norms
from .norms import ComponentLayout, InvalidDescriptorError, NormDescriptor
# svd is not called here; bench/test_bench.py patches and checks solver.svd
from .prox import svd  # noqa: F401
from .prox import svt, trace_norm
from .tensor_ops import ObservationMask, concat_mode1, fold, mask_apply, unfold

__all__ = [
    "CoupledProblem",
    "SolverOptions",
    "SolverState",
    "CompletionResult",
    "solve",
    "decompose",
    "update_matrix",
    "update_tensors",
    "update_auxiliaries",
    "update_duals",
    "objective",
]

# ADMM proximity parameter and iteration cap of :func:`decompose`
DECOMPOSE_BETA = 1.0
DECOMPOSE_MAX_ITERS = 5000


@dataclass(frozen=True)
class CoupledProblem:
    """Observed tensor + observed matrix sharing mode ``coupled_mode``.

    Observed entries must be finite; unobserved entries are arbitrary (NaN
    included) and never read.
    """

    tensor: np.ndarray
    tensor_mask: ObservationMask
    matrix: np.ndarray
    matrix_mask: ObservationMask
    coupled_mode: int = 1

    def __post_init__(self):
        T = np.asarray(self.tensor, dtype=float)
        M = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "tensor", T)
        object.__setattr__(self, "matrix", M)
        if T.ndim != 3:
            raise ValueError("tensor must be 3-way")
        if M.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if self.coupled_mode not in (1, 2, 3):
            raise ValueError("coupled mode must be 1, 2 or 3")
        if M.shape[0] != T.shape[self.coupled_mode - 1]:
            raise ValueError(
                f"matrix rows ({M.shape[0]}) must match tensor mode-"
                f"{self.coupled_mode} dimension ({T.shape[self.coupled_mode - 1]})"
            )
        if self.tensor_mask.shape != T.shape:
            raise ValueError("tensor mask shape mismatch")
        if self.matrix_mask.shape != M.shape:
            raise ValueError("matrix mask shape mismatch")
        for name, X, mask in (("tensor", T, self.tensor_mask), ("matrix", M, self.matrix_mask)):
            bad = ~np.isfinite(X[mask.as_tuple()])
            if bad.any():
                at = tuple(int(i) for i in mask.indices[np.argmax(bad)])
                raise ValueError(f"observed {name} entry at {at} is not finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.tensor.shape

    # Mask constants of the data-fit step, built on first use and kept for
    # every later solve of this problem, so its arrays must not be changed
    # in place once it has been solved.
    @cached_property
    def tensor_indicator(self) -> np.ndarray:
        return self.tensor_mask.indicator()

    @cached_property
    def matrix_indicator(self) -> np.ndarray:
        return self.matrix_mask.indicator()

    @cached_property
    def tensor_observed(self) -> np.ndarray:
        return mask_apply(self.tensor, self.tensor_mask)

    @cached_property
    def matrix_observed(self) -> np.ndarray:
        return mask_apply(self.matrix, self.matrix_mask)


@dataclass(frozen=True)
class SolverOptions:
    lam: float = 0.1
    beta: float = 1.0
    max_iters: int = 2000
    tol_primal: float = 1e-6
    tol_dual: float = 1e-6
    record_objective: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("tolerances must be > 0")


@dataclass
class SolverState:
    """Mutable per-solve state; owned exclusively by one solve.

    Built from the start point ``(components, M)``: each auxiliary ``Y[mode]``
    starts as its component (the same array: the ADMM steps replace arrays
    and never write into them), and ``X``, ``WM`` and every dual ``W[mode]``
    at zero.  ``terms`` (the layout's ``(mode, scale, component)`` norm
    terms) and ``g`` (the number of terms per component) are derived from
    ``layout`` once, at construction.
    """

    layout: ComponentLayout
    components: list[np.ndarray]
    M: np.ndarray
    X: np.ndarray = field(init=False)
    Y: dict[int, np.ndarray] = field(init=False)
    WM: np.ndarray = field(init=False)
    W: dict[int, np.ndarray] = field(init=False)
    terms: list[tuple[int, float, int]] = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.terms = self.layout.regularized_modes()
        self.X = np.zeros_like(self.M)
        self.WM = np.zeros_like(self.M)
        self.Y = {mode: self.components[c] for mode, _, c in self.terms}
        self.W = {mode: np.zeros(self.layout.dims) for mode, _, _ in self.terms}
        self.g = np.bincount(
            [c for _, _, c in self.terms], minlength=self.layout.n_components
        ).astype(float)


@dataclass
class CompletionResult:
    tensor: np.ndarray
    matrix: np.ndarray
    components: list[np.ndarray]
    objective_trace: np.ndarray
    primal_residual_trace: np.ndarray
    dual_residual_trace: np.ndarray
    final_primal_residual: float
    final_dual_residual: float
    iterations: int
    converged: bool


def update_matrix(
    state: SolverState, problem: CoupledProblem, opts: SolverOptions
) -> np.ndarray:
    """Closed-form minimizer of the matrix block of the Lagrangian.

    The observation operator is entrywise, so (Omega^T Omega + beta I) is
    diagonal and the solve is elementwise.
    """
    rhs = problem.matrix_observed - state.WM + opts.beta * state.X
    return rhs / (problem.matrix_indicator + opts.beta)


def _fit_entries(
    state: SolverState,
    beta: float,
    rho: float,
    residual: Callable[[np.ndarray], np.ndarray],
) -> list[np.ndarray]:
    """The latent components' entrywise data-fit step.

    Component c gets ``t_c = v_c + r / (beta g_c (rho + sum_c 1 / (beta g_c)))``,
    where ``v_c`` is its mean of ``Y - W / beta`` over its ``g_c`` norm terms
    and ``r = residual(sum_c v_c)``.  For completion rho = 1 and ``r`` is the
    observed data minus the masked sum; for the exact constraint sum_c t_c =
    T, rho = 0 and ``r = T - sum``.
    """
    # built in the components' memory layout, which the SVT step then reads
    v = [np.zeros_like(state.components[0]) for _ in state.g]
    for m, _, c in state.terms:
        v[c] += state.Y[m] - state.W[m] / beta
    for vc, g in zip(v, state.g):
        vc /= g
    r = residual(sum(v)) / (rho + float(np.sum(1.0 / (beta * state.g))))
    return [vc + r / (beta * g) for vc, g in zip(v, state.g)]


def update_tensors(
    state: SolverState, problem: CoupledProblem, opts: SolverOptions
) -> list[np.ndarray]:
    """Joint closed-form minimizer of the latent tensor block.

    Per entry the normal equations are (omega * ones + beta * diag(g)) t =
    rhs, with omega the 0/1 mask indicator and g_c the number of auxiliary
    constraints attached to component c; :func:`_fit_entries` with rho = 1
    is their Sherman-Morrison solution.
    """
    omega = problem.tensor_indicator
    return _fit_entries(state, opts.beta, 1.0, lambda s: problem.tensor_observed - omega * s)


def update_auxiliaries(
    state: SolverState, opts: SolverOptions
) -> tuple[np.ndarray, dict[int, np.ndarray], float]:
    """Prox (SVT) step for the auxiliary unfoldings and the matrix block.

    Returns the new X, the new Y dict, and the regularizer value at the new
    auxiliaries; that value feeds only the objective trace, so it is 0.0
    unless ``opts.record_objective`` is set.
    """
    lay = state.layout
    beta = opts.beta
    newY: dict[int, np.ndarray] = {}
    newX = state.X
    reg_value = 0.0
    for mode, scale, c in state.terms:
        arg = unfold(state.components[c] + state.W[mode] / beta, mode)
        nt = arg.shape[1]
        if mode == lay.coupled_mode:
            arg = concat_mode1(arg, state.M + state.WM / beta)
        tau = opts.lam * scale / beta
        Z = svt(arg, tau)
        if opts.record_objective:
            # prox optimality makes (arg - Z) / tau a subgradient of the trace
            # norm at Z, so <arg, Z> - <Z, Z> = tau * ||Z||_tr: no second SVD
            tn = float(np.vdot(arg, Z) - np.vdot(Z, Z)) / tau if tau else trace_norm(Z)
            reg_value += scale * tn
        newY[mode] = fold(Z[:, :nt], mode, lay.dims)
        if mode == lay.coupled_mode:
            newX = Z[:, nt:]
    return newX, newY, reg_value


def update_duals(
    state: SolverState, opts: SolverOptions
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Gradient-ascent dual step: W <- W + beta * (primal - auxiliary)."""
    WM = state.WM + opts.beta * (state.M - state.X)
    W = {
        mode: state.W[mode] + opts.beta * (state.components[c] - state.Y[mode])
        for mode, _, c in state.terms
    }
    return WM, W


def _loss(problem: CoupledProblem, T: np.ndarray, M: np.ndarray) -> float:
    return 0.5 * float(
        np.linalg.norm(problem.matrix_indicator * M - problem.matrix_observed) ** 2
        + np.linalg.norm(problem.tensor_indicator * T - problem.tensor_observed) ** 2
    )


def objective(
    problem: CoupledProblem,
    d: NormDescriptor,
    lam: float,
    T: np.ndarray,
    M: np.ndarray,
    tol: float = 1e-6,
) -> float:
    """Value of the completion objective at ``(T, M)``."""
    reg = lam * norms.evaluate(T, M, d, tol=tol) if lam else 0.0
    return _loss(problem, T, M) + reg


def _max_gap(pairs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    return max(float(np.linalg.norm(a - b)) for a, b in pairs)


def _admm(
    state: SolverState,
    opts: SolverOptions,
    fit_step: Callable[[SolverState], None],
    tol_scale: float,
    loss: Callable[[SolverState], float] | None = None,
    matrix_fixed: bool = False,
) -> CompletionResult:
    """The ADMM iteration: primal data-fit step, SVT step, dual step.

    ``fit_step`` updates ``state.M`` and ``state.components``, the one piece
    that differs between completion and norm evaluation.  The objective
    trace, when recorded, is ``loss`` at the primal plus the regularizer at
    the auxiliaries.  A ``matrix_fixed`` matrix is data, so its auxiliary's
    change is no part of the dual residual.  Converged means the maximum
    primal and beta-scaled dual residuals fell below their tolerances times
    ``tol_scale``.
    """
    terms = state.terms
    obj_trace: list[float] = []
    primal_trace: list[float] = []
    dual_trace: list[float] = []
    converged = False
    primal = dual = np.inf
    it = 0

    for it in range(1, opts.max_iters + 1):
        fit_step(state)
        newX, newY, reg_value = update_auxiliaries(state, opts)

        dual = opts.beta * _max_gap(
            [(newY[m], state.Y[m]) for m in newY]
            + ([] if matrix_fixed else [(newX, state.X)])
        )
        state.X, state.Y = newX, newY
        state.WM, state.W = update_duals(state, opts)
        primal = _max_gap(
            [(state.M, state.X)] + [(state.components[c], state.Y[m]) for m, _, c in terms]
        )

        if loss is not None and opts.record_objective:
            obj_trace.append(loss(state) + opts.lam * reg_value)
        primal_trace.append(primal)
        dual_trace.append(dual)

        if primal <= opts.tol_primal * tol_scale and dual <= opts.tol_dual * tol_scale:
            converged = True
            break

    return CompletionResult(
        tensor=sum(state.components),
        matrix=state.M,
        components=state.components,
        objective_trace=np.array(obj_trace),
        primal_residual_trace=np.array(primal_trace),
        dual_residual_trace=np.array(dual_trace),
        final_primal_residual=float(primal),
        final_dual_residual=float(dual),
        iterations=it,
        converged=converged,
    )


def solve(
    problem: CoupledProblem,
    d: NormDescriptor,
    opts: SolverOptions = SolverOptions(),
) -> CompletionResult:
    """Run completion ADMM to convergence or the iteration cap.

    Deterministic: all variables start at zero.  Residuals are judged
    relative to max(1, ||observed data||_F).  Raises
    :class:`InvalidDescriptorError` when the descriptor's coupled mode is not
    the problem's.
    """
    if d.coupled_mode != problem.coupled_mode:
        raise InvalidDescriptorError(
            "descriptor coupled mode does not match the problem"
        )
    lay = norms.layout(d, problem.dims)
    data_norm = np.sqrt(
        np.linalg.norm(problem.tensor_observed) ** 2
        + np.linalg.norm(problem.matrix_observed) ** 2
    )

    def fit_step(state: SolverState) -> None:
        state.M = update_matrix(state, problem, opts)
        state.components = update_tensors(state, problem, opts)

    state = SolverState(
        lay, [np.zeros(problem.dims) for _ in range(lay.n_components)],
        np.zeros_like(problem.matrix),
    )
    return _admm(
        state, opts, fit_step, max(1.0, float(data_norm)),
        loss=lambda state: _loss(problem, sum(state.components), state.M),
    )


def decompose(
    T: np.ndarray, M: np.ndarray, lay: ComponentLayout, tol: float = 1e-6
) -> list[np.ndarray]:
    """Minimize the norm terms of ``lay`` subject to the components summing to ``T``.

    The ADMM iteration at lam = 1 with the matrix ``M`` held fixed: its
    concatenated block keeps its own dual, so the joint SVT is the correct
    partial prox.  The data-fit step projects the components onto the sum
    constraint by an exact entrywise equality-constrained solve.  Starts
    from the even split ``T / C``; stops when the residuals fall below
    ``tol`` relative to max(1, ||T||_F, ||M||_F), or after
    ``DECOMPOSE_MAX_ITERS`` iterations.
    """
    C = lay.n_components
    state = SolverState(lay, [T / C for _ in range(C)], M)

    def project(state: SolverState) -> None:
        state.components = _fit_entries(state, DECOMPOSE_BETA, 0.0, lambda s: T - s)

    opts = SolverOptions(
        lam=1.0, beta=DECOMPOSE_BETA, max_iters=DECOMPOSE_MAX_ITERS, tol_primal=tol,
        tol_dual=tol, record_objective=False,
    )
    scale = max(1.0, float(np.linalg.norm(T)), float(np.linalg.norm(M)))
    return _admm(state, opts, project, scale, matrix_fixed=True).components
