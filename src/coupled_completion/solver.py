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

One over-relaxed iteration loop (:func:`_admm`) serves completion
(:func:`solve`) and the evaluation of latent-type norms (:func:`decompose`,
the infimum over additive decompositions with the matrix held fixed); only
the primal data-fit step and the stopping rule differ between the two.
The :class:`SolverState` owns the multipliers, one flat array viewed as one
array per norm term shaped like its (coupled) unfolding: the SVT step builds
every term's input there and the dual step turns it back into the
multiplier in place.

In :func:`decompose` the state between two iterations is a function of the
SVT input ``s`` alone: after the SVT, ``Y = prox(s)`` and ``W = beta (s -
Y)``, and the next data-fit step reads ``Y - W / beta = 2 Y - s``.  So an
iteration is the fixed-point map ``F(s) = s + a (t(2 prox(s) - s) -
prox(s))``, ``a = RELAXATION`` and ``t`` the projection onto the sum
constraint (``M`` in place of ``t`` for the matrix block): relaxed
Douglas-Rachford.  :class:`_Anderson` accelerates it (type-II Anderson of
memory ``DECOMPOSE_MEMORY``) by rewriting the flat array between the input
build and the SVTs, with a safeguard that drops any extrapolated point whose
residual ``||F(s) - s||`` exceeds the last accepted point's and restarts
from the plain step.  Its history, ``2 * DECOMPOSE_MEMORY + 2`` vectors the
size of ``s``, lives only as long as the call.  :func:`solve` runs the plain
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import norms
from .norms import ComponentLayout, InvalidDescriptorError, NormDescriptor
# svd is not called here; bench/test_bench.py patches and checks solver.svd
from .prox import svd  # noqa: F401
from .prox import svt, trace_norm
from .tensor_ops import ObservationMask, fold, mask_apply, unfold

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

# over-relaxation factor of the SVT and dual steps (Eckstein & Bertsekas 1992;
# Boyd et al. 2011, section 3.4.3); 1 is the plain ADMM step
RELAXATION = 1.8
# ADMM proximity parameter and iteration cap of :func:`decompose`, the
# interval at which it evaluates its duality bracket, and the memory of its
# Anderson acceleration (0 runs the plain iteration)
DECOMPOSE_BETA = 1.0
DECOMPOSE_MEMORY = 4
DECOMPOSE_MAX_ITERS = 5000
DECOMPOSE_CHECK_EVERY = 10


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
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        for name in ("beta", "tol_primal", "tol_dual"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class SolverState:
    """Mutable per-solve state; owned exclusively by one solve.

    Built from the start point ``(components, M)``: each auxiliary ``Y[mode]``
    starts as its component (the same array) and ``X`` at zero.  The
    multipliers live in one flat zero array ``flat``; each norm term's
    ``multipliers[mode]`` is a C-contiguous view of a slice of it, shaped like
    its SVT input (``n_k x N/n_k``, plus the matrix's columns on the coupled
    mode), and ``W[mode]`` and ``WM`` are views of these, all made once here.
    The steps replace ``X``, ``Y``, ``M`` and the components, and write only
    into ``flat``.  ``terms`` (the layout's ``(mode, scale, component)`` norm
    terms) and ``g`` (terms per component) come from ``layout``.
    """

    layout: ComponentLayout
    components: list[np.ndarray]
    M: np.ndarray
    X: np.ndarray = field(init=False)
    Y: dict[int, np.ndarray] = field(init=False)
    WM: np.ndarray = field(init=False)
    W: dict[int, np.ndarray] = field(init=False)
    flat: np.ndarray = field(init=False, repr=False)
    multipliers: dict[int, np.ndarray] = field(init=False, repr=False)
    terms: list[tuple[int, float, int]] = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.terms = self.layout.regularized_modes()
        self.X = np.zeros_like(self.M)
        self.Y = {mode: self.components[c] for mode, _, c in self.terms}
        dims, cols = self.layout.dims, self.M.shape[1]
        coupled = self.layout.coupled_mode
        shapes = {}
        for mode, _, _ in self.terms:
            nt = math.prod(dims[: mode - 1] + dims[mode:])
            shapes[mode] = (dims[mode - 1], nt, nt + cols * (mode == coupled))
        self.flat = np.zeros(sum(n * width for n, _, width in shapes.values()))
        self.multipliers, self.W = {}, {}
        start = 0
        for mode, (n, nt, width) in shapes.items():
            buf = self.multipliers[mode] = self.flat[start : start + n * width].reshape(n, width)
            start += n * width
            self.W[mode] = fold(buf[:, :nt], mode, dims)
            if mode == coupled:
                self.WM = buf[:, nt:]
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
    lam: float
    # the final iterate, from which a later solve may start (``solve(start=)``)
    state: SolverState = field(repr=False)


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
    state: SolverState,
    opts: SolverOptions,
    accelerate: Callable[[np.ndarray], None] | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray], float]:
    """Prox (SVT) step for the auxiliary unfoldings and the matrix block.

    Each term thresholds the unfolding of ``W[mode] / beta + h`` at the
    over-relaxed point ``h = (1 - a) * Y[mode] + a * t_c``, ``a =
    RELAXATION``; the coupled mode's unfolding carries ``WM / beta + (1 - a)
    * X + a * M`` as its matrix block.  Every term's SVT input is built in its
    multiplier array before the first SVT, so ``state.flat`` then holds them
    all; ``accelerate``, when given, may rewrite it there in place.
    :func:`update_duals` turns the inputs back into the multipliers.  Returns
    the new X, the new Y dict and the regularizer value at the new
    auxiliaries (it feeds only the objective trace, so it is 0.0 unless
    ``opts.record_objective`` is set).
    """
    lay = state.layout
    beta, a = opts.beta, RELAXATION
    cols = state.M.shape[1]
    for mode, _, c in state.terms:
        coupled = mode == lay.coupled_mode
        arg = state.multipliers[mode]
        arg /= beta
        nt = arg.shape[1] - cols * coupled
        # arg, and the loop's Y once unfolded, are C-contiguous, t_c is not:
        # a plain copy moves it to that layout faster than arithmetic on the
        # strided tensor view of arg would
        tmp = np.multiply(unfold(state.Y[mode], mode), 1 - a)
        arg[:, :nt] += tmp
        np.copyto(fold(tmp, mode, lay.dims), state.components[c])
        tmp *= a
        arg[:, :nt] += tmp
        del tmp  # before the next term's array or an SVT output is allocated
        if coupled:
            arg[:, nt:] += (1 - a) * state.X
            arg[:, nt:] += a * state.M
    if accelerate is not None:
        accelerate(state.flat)
    newY: dict[int, np.ndarray] = {}
    newX = state.X
    reg_value = 0.0
    for mode, scale, _ in state.terms:
        arg = state.multipliers[mode]
        nt = arg.shape[1] - cols * (mode == lay.coupled_mode)
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


def update_duals(state: SolverState, opts: SolverOptions) -> None:
    """Dual step: each multiplier becomes beta * (SVT input - SVT output), in place.

    The multiplier arrays hold :func:`update_auxiliaries`' SVT inputs and
    ``state`` its outputs, so this is ``W + beta * (h - Y)`` at the relaxed
    point ``h`` with no second pass over ``h``.
    """
    for mode, _, _ in state.terms:
        R = state.multipliers[mode]
        coupled = mode == state.layout.coupled_mode
        nt = R.shape[1] - state.M.shape[1] * coupled
        R[:, :nt] -= unfold(state.Y[mode], mode)
        if coupled:
            R[:, nt:] -= state.X
        R *= opts.beta


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
    done: Callable[[int, float, float], bool],
    loss: Callable[[SolverState], float] | None = None,
    accelerate: Callable[[np.ndarray], None] | None = None,
) -> CompletionResult:
    """The over-relaxed ADMM iteration: data-fit step, SVT step, dual step.

    ``fit_step`` updates ``state.M`` and ``state.components``, the piece
    that differs between completion and norm evaluation.  The SVT and dual
    steps read the over-relaxed point ``RELAXATION * primal + (1 -
    RELAXATION) * auxiliary`` in place of the fresh primal (Boyd et al.
    2011, section 3.4.3).  The primal residual is the largest gap between a
    primal block and its auxiliary, the dual residual the beta-scaled change
    of every auxiliary, the matrix block's included.  The loop stops after
    the first iteration ``it`` at which ``done(it, primal, dual)`` holds, or
    at ``opts.max_iters``; ``converged`` records which.  The objective trace,
    when recorded, is ``loss`` at the primal plus the regularizer at the
    auxiliaries.  ``accelerate`` is handed to :func:`update_auxiliaries`.
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
        newX, newY, reg_value = update_auxiliaries(state, opts, accelerate)

        dual = opts.beta * _max_gap([(newY[m], state.Y[m]) for m in newY] + [(newX, state.X)])
        state.X, state.Y = newX, newY
        update_duals(state, opts)
        primal = _max_gap(
            [(state.M, state.X)] + [(state.components[c], state.Y[m]) for m, _, c in terms]
        )

        if loss is not None and opts.record_objective:
            obj_trace.append(loss(state) + opts.lam * reg_value)
        primal_trace.append(primal)
        dual_trace.append(dual)

        if done(it, primal, dual):
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
        lam=opts.lam,
        state=state,
    )


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point iteration ``x <- F(x)``.

    Called once per iteration with ``s`` holding ``F(x)`` at the point ``x``
    it handed out last (the first call's ``s`` is the starting point), and
    rewrites ``s`` in place into the next point.  From the last accepted
    point, with ``g = F(x)`` and residual ``f = g - x``, the next point is
    ``g - dG @ gamma``, where ``gamma`` minimizes ``||f - dF @ gamma||`` over
    the differences ``dF``, ``dG`` of ``f`` and ``g`` between the last
    ``memory + 1`` accepted points (Walker & Ni 2011); the normal equations
    use an m x m Gram matrix of ``dF`` that gains one row per iteration and
    are solved in the least-squares sense, so a singular one is no fault.
    Safeguard: an extrapolated point whose residual norm exceeds the last
    accepted point's is dropped, the history is cleared, and the next point
    is the plain step ``F`` of the accepted point, which is accepted.  Holds
    ``2 * memory + 2`` vectors of the size of ``s``; memory 0 leaves every
    ``s`` as it is.  ``rejections`` counts dropped points.
    """

    def __init__(self, size: int, memory: int):
        self.memory = memory
        # differences of f and g in rows ``:count``, written cyclically from
        # row 0 after each reset; row ``head`` is written next, and until
        # then holds the point handed out last
        self.dF = np.zeros((memory, size))
        self.dG = np.zeros((memory, size))
        self.gram = np.zeros((memory, memory))
        self.count = self.head = 0
        self.f = np.zeros(size)  # f and g at the accepted point
        self.g = np.zeros(size)
        self.best = math.inf  # ||f|| at the accepted point
        self.calls = 0
        self.extrapolated = False
        self.rejections = 0

    def __call__(self, s: np.ndarray) -> None:
        if not self.memory:
            return
        m, x = self.memory, self.dF[self.head]
        self.calls += 1
        if self.calls > 1:
            f = np.subtract(s, x, out=x)
            norm = math.sqrt(float(f @ f))
            if self.extrapolated and norm > self.best:
                self.rejections += 1
                self.count = self.head = 0
                self.extrapolated = False
                np.copyto(s, self.g)
                np.copyto(x, s)
                return
            if self.calls > 2:
                f -= self.f  # row head becomes the difference, self.f the new f
                self.f += f
                np.subtract(s, self.g, out=self.dG[self.head])
                self.gram[self.head] = self.gram[:, self.head] = self.dF @ f
                self.count = min(self.count + 1, m)
                self.head = (self.head + 1) % m
            else:
                np.copyto(self.f, f)
            np.copyto(self.g, s)
            self.best = norm
            self.extrapolated = self.count > 0
            if self.extrapolated:
                k = self.count
                b = self.dF[:k] @ self.f
                s -= np.linalg.lstsq(self.gram[:k, :k], b, rcond=None)[0] @ self.dG[:k]
        np.copyto(self.dF[self.head], s)


def _warm_state(
    start: CompletionResult, problem: CoupledProblem, lay: ComponentLayout, lam: float
) -> SolverState:
    """``start``'s final state, its multipliers rescaled from its lambda to ``lam``.

    At the fixed point each multiplier is lambda times a point of the dual
    norm ball; from lambda 0 only the primal point is carried.  The primal
    and auxiliary arrays are shared, which is safe because the ADMM steps
    never write into them; the multipliers go into the new state's own arrays.
    """
    prev = start.state
    if prev.layout.dims != lay.dims or prev.M.shape != problem.matrix.shape:
        raise ValueError(
            f"start is from a problem of shape {prev.layout.dims} + {prev.M.shape}, "
            f"not {lay.dims} + {problem.matrix.shape}"
        )
    if prev.layout != lay:
        raise ValueError("start is from a descriptor of another component layout")
    ratio = lam / start.lam if start.lam else 0.0
    state = SolverState(lay, prev.components, prev.M)
    state.X, state.Y = prev.X, dict(prev.Y)
    np.multiply(prev.flat, ratio, out=state.flat)
    return state


def solve(
    problem: CoupledProblem,
    d: NormDescriptor,
    opts: SolverOptions = SolverOptions(),
    start: CompletionResult | None = None,
) -> CompletionResult:
    """Run completion ADMM to convergence or the iteration cap.

    Deterministic: every variable starts at zero, or at the final state of
    ``start``, an earlier result of a problem of the same shapes under a
    descriptor of the same layout, with its multipliers scaled by
    ``opts.lam / start.lam``.  The problem is convex, so only the iteration
    count depends on the start.  Residuals are judged relative to max(1,
    ||observed data||_F).  Raises :class:`InvalidDescriptorError` when the
    descriptor's coupled mode is not the problem's, and ``ValueError`` when
    ``start`` does not fit the problem or the descriptor.
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

    if start is None:
        state = SolverState(
            lay, [np.zeros(problem.dims) for _ in range(lay.n_components)],
            np.zeros_like(problem.matrix),
        )
    else:
        state = _warm_state(start, problem, lay, opts.lam)
    scale = max(1.0, float(data_norm))

    def done(it: int, primal: float, dual: float) -> bool:
        return primal <= opts.tol_primal * scale and dual <= opts.tol_dual * scale

    return _admm(
        state, opts, fit_step, done,
        loss=lambda state: _loss(problem, sum(state.components), state.M),
    )


def _lower_bound(state: SolverState, T: np.ndarray, M: np.ndarray) -> float:
    """Hoelder lower bound ``(<G, T> + <WM, M>) / D`` on the norm :func:`decompose` minimizes.

    ``G`` is the mean over components of ``G_c``, the sum of component c's
    multipliers.  The split ``G_k = W[k] + (G - G_c) / g_c`` sums to ``G``
    over every component's terms, so ``D``, its
    :func:`norms.split_dual_bound`, bounds the dual norm of ``(G, WM)`` and
    the bound holds whatever the multipliers are.
    """
    Gc = [np.zeros(state.layout.dims) for _ in state.g]
    for m, _, c in state.terms:
        Gc[c] = Gc[c] + state.W[m]
    G = sum(Gc) / len(Gc)
    split = {m: state.W[m] + (G - Gc[c]) / state.g[c] for m, _, c in state.terms}
    D = norms.split_dual_bound(state.layout, split, state.WM)
    return float(np.vdot(G, T) + np.vdot(state.WM, M)) / D if D > 0 else 0.0


def decompose(
    T: np.ndarray, M: np.ndarray, lay: ComponentLayout, tol: float
) -> tuple[list[np.ndarray], float, float]:
    """Minimize the norm terms of ``lay`` subject to the components summing to ``T``.

    The ADMM iteration at lam = 1 with the matrix ``M`` held fixed: its
    concatenated block keeps its own dual, so the joint SVT is the correct
    partial prox.  The data-fit step projects the components onto the sum
    constraint by an exact entrywise equality-constrained solve.  Starts
    from the even split ``T / C``.  The SVT inputs are extrapolated by
    :class:`_Anderson` of memory ``DECOMPOSE_MEMORY``, whose history is
    freed on return.  Every ``DECOMPOSE_CHECK_EVERY`` iterations, and at
    the cap ``DECOMPOSE_MAX_ITERS``, it brackets the
    infimum: ``upper`` is the norm-term sum of the current (feasible)
    components, ``lower`` the Hoelder bound of :func:`_lower_bound` from
    the current multipliers.  Stops once ``upper - lower <= tol * upper``.
    Returns the components and the last ``lower`` and ``upper``; zero input
    gives ``0, 0``.
    """
    C = lay.n_components
    state = SolverState(lay, [T / C for _ in range(C)], M)
    bracket = [-np.inf, np.inf]

    def project(state: SolverState) -> None:
        state.components = _fit_entries(state, DECOMPOSE_BETA, 0.0, lambda s: T - s)

    def done(it: int, primal: float, dual: float) -> bool:
        if it % DECOMPOSE_CHECK_EVERY and it < DECOMPOSE_MAX_ITERS:
            return False
        bracket[:] = _lower_bound(state, T, M), norms.decomposition_value(state.components, lay, M)
        return bracket[1] - bracket[0] <= tol * bracket[1]

    opts = SolverOptions(
        lam=1.0, beta=DECOMPOSE_BETA, max_iters=DECOMPOSE_MAX_ITERS, record_objective=False
    )
    accelerate = _Anderson(state.flat.size, DECOMPOSE_MEMORY)
    components = _admm(state, opts, project, done, accelerate=accelerate).components
    return components, bracket[0], bracket[1]
