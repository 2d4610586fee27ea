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
Its whole state (:class:`SolverState`) is two flat arrays over all norm
terms, viewed term by term: the SVT inputs ``s`` and their outputs ``z =
prox(s)``.  In the textbook form (Boyd et al. 2011, section 3.4.3) ``z``
holds the auxiliaries ``Y`` and ``X`` and the multipliers are ``W = beta
(s - z)``, so the data-fit step reads ``Y - W / beta = 2 z - s`` and the
next SVT input ``W / beta + (1 - a) Y + a t`` at the over-relaxed point is
``s + a (t - z)``, with ``a = RELAXATION`` and ``t`` the fitted components
(``M`` on the matrix columns).  An iteration is thus the relaxed
Douglas-Rachford map ``F(s) = s + a (t(2 prox(s) - s) - prox(s))``, and
every step but the data fit and the SVTs is one operation on flat arrays.
The multipliers are formed only where read: in the lower bound of
:func:`decompose`, which splits its dual point among the term blocks in
place and reads their spectral norms there, and in the warm starts of
:func:`path`.  The state also owns
the loop's constants, beta, lam, each component's penalty ``beta_c`` (beta
in completion, beta times the sum of its terms' scales in :func:`decompose`)
and each term's SVT threshold ``lam * scale / beta_c``; the
step functions (:func:`update_matrix`, :func:`update_tensors`,
:func:`update_auxiliaries`) read them there and write the state in place,
and only :func:`solve` (one fit) and :func:`path` (a warm-started lambda
grid) read a :class:`SolverOptions`.  Both return records of one type,
:class:`PathFit`, built by the one fit generator they share.

:func:`decompose` accelerates ``F`` by :class:`_Anderson` (type-II
Anderson of memory ``DECOMPOSE_MEMORY``), which rewrites ``s`` between the
input step and the SVTs and drops any extrapolated point whose residual
``||F(s) - s||`` exceeds the last accepted point's, restarting from the
plain step; its history, ``2 * DECOMPOSE_MEMORY + 3`` vectors the size of
``s``, lives as long as the call, and a step allocates no other vector.
Completion runs the plain iteration and alone computes the residuals its
stopping rule reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import norms
from .norms import ComponentLayout, InvalidDescriptorError, NormDescriptor
# svd and unfold are not called here; bench/test_bench.py patches and checks them
from .prox import svd  # noqa: F401
from .prox import svt
from .tensor_ops import NON_NEGATIVE, POSITIVE, ObservationMask, check_pair, check_settings, fold, mask_apply
from .tensor_ops import unfold  # noqa: F401

__all__ = [
    "CoupledProblem",
    "SolverOptions",
    "SolverState",
    "TermArrays",
    "PathFit",
    "solve",
    "path",
    "decompose",
    "update_matrix",
    "update_tensors",
    "update_auxiliaries",
    "objective",
]

# over-relaxation factor of the SVT and dual steps (Eckstein & Bertsekas 1992;
# Boyd et al. 2011, section 3.4.3); 1 is the plain ADMM step
RELAXATION = 1.8
# ADMM proximity parameter of :func:`decompose` in units of one over the
# data scale (beta = DECOMPOSE_BETA / sigma, times the sum of each
# component's term scales), its iteration cap, the interval at which it
# evaluates its duality bracket, and the memory of its Anderson acceleration
# (0 runs the plain iteration)
DECOMPOSE_BETA = 3.5
DECOMPOSE_MEMORY = 4
DECOMPOSE_MAX_ITERS = 5000
DECOMPOSE_CHECK_EVERY = 10
# the lambda at which the beta of :func:`path` stops growing with lambda
BETA_CAP = 1.0


@dataclass(frozen=True)
class CoupledProblem:
    """Observed tensor + observed matrix sharing mode ``coupled_mode``.

    The two form a coupled pair (:func:`tensor_ops.check_pair`), each of its
    mask's shape.  Observed entries must be finite; unobserved entries are
    arbitrary (NaN included) and never read.
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
        check_pair(T, M, self.coupled_mode, "coupled_mode")
        for name, X, mask in (("tensor", T, self.tensor_mask), ("matrix", M, self.matrix_mask)):
            mask.check(X, name)
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
    # not read: solve records no objective.  bench/workloads.py still passes
    # it, so it goes with ROADMAP item 8, like the svd/unfold import shims.
    record_objective: bool = True

    def __post_init__(self):
        check_settings(vars(self), lam=NON_NEGATIVE, beta=POSITIVE, max_iters=1, tol_primal=POSITIVE,
                       tol_dual=POSITIVE, record_objective=bool)


@dataclass
class TermArrays:
    """A flat array of the size of the state, with its views made once.

    ``blocks[mode]`` is the C-contiguous SVT block of the term on ``mode``
    (its unfolding, with the matrix's columns on the coupled mode),
    ``tensors[mode]`` the block's tensor columns folded into a tensor, and
    ``matrix`` the coupled block's matrix columns.
    """

    flat: np.ndarray
    blocks: dict[int, np.ndarray]
    tensors: dict[int, np.ndarray]
    matrix: np.ndarray


@dataclass
class SolverState:
    """Mutable per-solve state; owned exclusively by one solve.

    The ADMM state is ``s``, the SVT inputs of all norm terms, and ``z =
    prox(s)``, their outputs: ``z``'s tensor views are the auxiliaries
    ``Y[mode]``, its matrix columns the auxiliary ``X``, and the multipliers
    ``W = beta_c (s - z)`` are formed only where read.  While :func:`_admm`
    runs, ``scratch`` holds a third such array.  Built from the start point
    ``(components, M)``, both copied: ``z`` takes the components and a zero
    ``X``, and ``s = z``.  The data-fit step then writes ``M`` and the
    components in place.  ``terms`` (the layout's ``(mode, scale,
    component)`` norm terms), ``g`` (terms per component) and ``widths``
    (block widths) come from ``layout``.  ``betas[c]``, the penalty of
    component c's terms, is ``beta`` times the sum of their scales, ``beta
    scale_c g_c``, when ``per_component``, else ``beta``, which alone the
    matrix step and the residuals read; ``tau[mode]`` is the SVT threshold
    ``lam * scale / beta_c`` of the term on ``mode``.
    """

    layout: ComponentLayout
    components: list[np.ndarray]
    M: np.ndarray
    beta: float
    lam: float
    per_component: bool = False
    s: TermArrays = field(init=False, repr=False)
    z: TermArrays = field(init=False, repr=False)
    scratch: TermArrays | None = field(init=False, repr=False, default=None)
    terms: list[tuple[int, float, int]] = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)
    betas: np.ndarray = field(init=False, repr=False)
    widths: dict[int, int] = field(init=False, repr=False)
    tau: dict[int, float] = field(init=False, repr=False)

    def __post_init__(self):
        self.components = [np.array(c, dtype=float) for c in self.components]
        self.M = np.array(self.M, dtype=float, order="C")
        self.terms = self.layout.regularized_modes()
        n, owners = self.layout.n_components, [c for _, _, c in self.terms]
        self.g = np.bincount(owners, minlength=n).astype(float)
        self.betas = np.full(n, float(self.beta))
        if self.per_component:
            self.betas = self.beta * np.bincount(owners, [scale for _, scale, _ in self.terms], minlength=n)
        self.tau = {m: self.lam * scale / float(self.betas[c]) for m, scale, c in self.terms}
        dims, coupled = self.layout.dims, self.layout.coupled_mode
        self.widths = {
            m: math.prod(dims[: m - 1] + dims[m:]) + self.M.shape[1] * (m == coupled)
            for m, _, _ in self.terms
        }
        size = sum(dims[m - 1] * width for m, width in self.widths.items())
        self.s, self.z = self.views(np.zeros(size)), self.views(np.zeros(size))
        for mode, _, c in self.terms:
            np.copyto(self.z.tensors[mode], self.components[c])
        np.copyto(self.s.flat, self.z.flat)

    def views(self, flat: np.ndarray) -> TermArrays:
        """``flat``, of the size of ``s``, viewed term by term."""
        dims, cols, coupled = self.layout.dims, self.M.shape[1], self.layout.coupled_mode
        blocks, tensors, start = {}, {}, 0
        for m, width in self.widths.items():
            blocks[m] = flat[start : start + dims[m - 1] * width].reshape(dims[m - 1], width)
            start += blocks[m].size
            tensors[m] = fold(blocks[m][:, : width - cols * (m == coupled)], m, dims)
        return TermArrays(flat, blocks, tensors, blocks[coupled][:, self.widths[coupled] - cols :])


@dataclass(frozen=True)
class PathFit:
    """One completion fit, of :func:`solve` or :func:`path`: its lambda and beta, the fit, and how its loop ended.

    ``tensor`` is the sum of the latent ``components``, ``matrix`` the
    fitted matrix; the two residuals are those of the last iteration.
    """

    lam: float
    beta: float
    tensor: np.ndarray
    matrix: np.ndarray
    components: list[np.ndarray]
    final_primal_residual: float
    final_dual_residual: float
    iterations: int
    converged: bool


def update_matrix(state: SolverState, problem: CoupledProblem) -> None:
    """Closed-form minimizer of the matrix block of the Lagrangian, written into ``state.M``.

    Reads the fit point ``X - WM / beta``, the matrix columns of ``2 z - s``
    in ``state.scratch``.  The observation operator is entrywise, so
    (Omega^T Omega + beta I) is diagonal and the solve is elementwise.
    """
    M = np.multiply(state.beta, state.scratch.matrix, out=state.M)
    M += problem.matrix_observed
    M /= problem.matrix_indicator + state.beta


def _fit_entries(
    state: SolverState, rho: float, residual: Callable[[np.ndarray], np.ndarray]
) -> None:
    """The latent components' entrywise data-fit step, in place.

    Component c gets ``t_c = v_c + r / (w_c (rho + sum_c 1 / w_c))``, ``w_c
    = beta_c g_c``, where ``v_c`` is its mean of the fit point ``Y - W /
    beta_c`` (the tensor views of ``state.scratch``) over its ``g_c`` norm
    terms and ``r = residual(sum_c v_c)``, which may overwrite its argument.
    For completion rho = 1 and ``r`` is the observed data minus the masked
    sum; for the exact constraint sum_c t_c = T, rho = 0 and ``r = T -
    sum``.
    """
    t, weights = state.components, state.betas * state.g
    started = set()
    for m, _, c in state.terms:
        if c in started:
            t[c] += state.scratch.tensors[m]
        else:
            np.copyto(t[c], state.scratch.tensors[m])
            started.add(c)
    for tc, g in zip(t, state.g):
        if g > 1:
            tc /= g
    r = t[0].copy()
    for tc in t[1:]:
        r += tc
    r = residual(r)
    r /= rho + float(np.sum(1.0 / weights))
    # r becomes r / w_c for each component in turn
    prev = 1.0
    for tc, w in zip(t, weights):
        r *= prev / w
        prev = w
        tc += r


def update_tensors(state: SolverState, problem: CoupledProblem) -> None:
    """Joint closed-form minimizer of the latent tensor block.

    Per entry the normal equations are (omega * ones + beta * diag(g)) t =
    rhs, with omega the 0/1 mask indicator and g_c the number of auxiliary
    constraints attached to component c; :func:`_fit_entries` with rho = 1
    is their Sherman-Morrison solution.  Writes ``state.components`` in
    place.
    """
    omega, observed = problem.tensor_indicator, problem.tensor_observed
    _fit_entries(state, 1.0, lambda S: np.subtract(observed, np.multiply(omega, S, out=S), out=S))


def _lay_out(state: SolverState, out: TermArrays) -> None:
    """Copy each term's component, and ``M``, into ``out`` (faster than arithmetic into its views)."""
    for mode, _, c in state.terms:
        np.copyto(out.tensors[mode], state.components[c])
    np.copyto(out.matrix, state.M)


def update_auxiliaries(
    state: SolverState, accelerate: Callable[[np.ndarray], None] | None = None
) -> None:
    """Input and SVT step: ``s += a (t - z)``, ``a = RELAXATION``, then ``z = prox(s)``.

    ``t`` is each term's component, and ``M`` on the matrix columns.
    ``accelerate``, when given, may then rewrite ``s.flat`` in place.  Each
    term is thresholded at its ``state.tau`` into ``state.scratch``, which
    then trades places with ``state.z``.
    """
    s, z, out = state.s, state.z, state.scratch
    _lay_out(state, out)
    out.flat -= z.flat
    out.flat *= RELAXATION
    s.flat += out.flat
    if accelerate is not None:
        accelerate(s.flat)
    for mode, tau in state.tau.items():
        out.blocks[mode][...] = svt(s.blocks[mode], tau)
    state.z, state.scratch = out, z


def objective(
    problem: CoupledProblem,
    d: NormDescriptor,
    lam: float,
    T: np.ndarray,
    M: np.ndarray,
    tol: float = 1e-6,
) -> float:
    """Value of the completion objective at ``(T, M)``, which must have ``problem``'s shapes."""
    problem.tensor_mask.check(T, "T")
    problem.matrix_mask.check(M, "M")
    reg = lam * norms.evaluate(T, M, d, tol=tol) if lam else 0.0
    loss = 0.5 * float(
        np.linalg.norm(problem.matrix_indicator * M - problem.matrix_observed) ** 2
        + np.linalg.norm(problem.tensor_indicator * T - problem.tensor_observed) ** 2
    )
    return loss + reg


def _largest_norm(d: TermArrays) -> float:
    """Largest norm of a tensor block or the matrix block of ``d``, squaring ``d`` in place."""
    np.square(d.flat, out=d.flat)
    return math.sqrt(max(float(b.sum()) for b in (d.matrix, *d.tensors.values())))


def _residuals(state: SolverState) -> tuple[float, float]:
    """Primal and dual residuals of the step just taken.

    The primal residual is the largest gap between a primal block (a
    component on one term, or ``M``) and its auxiliary; the dual residual is
    beta times the largest change of an auxiliary block.  Reads the previous
    ``z`` from ``state.scratch`` and overwrites it.
    """
    z, d = state.z, state.scratch
    np.subtract(z.flat, d.flat, out=d.flat)
    dual = state.beta * _largest_norm(d)
    _lay_out(state, d)
    d.flat -= z.flat
    return _largest_norm(d), dual


def _admm(
    state: SolverState,
    max_iters: int,
    fit_step: Callable[[SolverState], None],
    done: Callable[[int], bool],
    accelerate: Callable[[np.ndarray], None] | None = None,
) -> tuple[int, bool]:
    """The over-relaxed ADMM iteration on ``(s, z)``.

    Each iteration writes the fit point ``2 z - s`` into ``state.scratch``
    (an array that lives as long as the loop), where ``fit_step``, the piece
    that differs between completion and norm evaluation, reads it to write
    ``state.M`` and ``state.components``; then :func:`update_auxiliaries`
    (handed ``accelerate``) steps ``s`` and ``z``.  Stops after the first
    iteration ``it`` at which ``done(it)`` holds, or at ``max_iters``;
    returns the iteration count and whether ``done`` stopped it.
    """
    state.scratch = state.views(np.empty_like(state.s.flat))
    it, stopped = 0, False
    while not stopped and it < max_iters:
        it += 1
        u = state.scratch.flat
        np.subtract(state.z.flat, state.s.flat, out=u)
        u += state.z.flat
        fit_step(state)
        update_auxiliaries(state, accelerate)
        stopped = done(it)
    state.scratch = None
    return it, stopped


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
    ``2 * memory + 3`` vectors of the size of ``s``; memory 0 leaves every
    ``s`` as it is.  ``rejections`` counts dropped points.
    """

    def __init__(self, size: int, memory: int):
        self.memory = memory
        # differences of f and g in rows ``:count``, written cyclically from
        # row 0 after each reset; row ``head`` is written next
        self.dF = np.zeros((memory, size))
        self.dG = np.zeros((memory, size))
        self.gram = np.zeros((memory, memory))
        self.count = self.head = 0
        self.x: np.ndarray | None = None  # the point handed out last
        self.f = np.zeros(size)  # f and g at the accepted point
        self.g = np.zeros(size)
        self.best = math.inf  # ||f|| at the accepted point; inf before the first
        self.rejections = 0

    def __call__(self, s: np.ndarray) -> None:
        if not self.memory:
            return
        if self.x is None:
            self.x = s.copy()
            return
        f = np.subtract(s, self.x, out=self.x)  # x's array holds f until the next point
        norm = math.sqrt(float(f @ f))
        if self.count and norm > self.best:  # an extrapolated point, worse than the accepted one
            self.rejections += 1
            self.count = self.head = 0
            np.copyto(s, self.g)
        else:
            if self.best < math.inf:  # the differences from the previous accepted point
                h = self.head
                np.subtract(f, self.f, out=self.dF[h])
                np.subtract(s, self.g, out=self.dG[h])
                self.gram[h] = self.gram[:, h] = self.dF @ self.dF[h]
                self.count = min(self.count + 1, self.memory)
                self.head = (h + 1) % self.memory
            # f's array becomes the accepted f, and the old one is spare until x is written
            self.f, self.x = f, self.f
            np.copyto(self.g, s)
            self.best = norm
            if self.count:
                k = self.count
                gamma = np.linalg.lstsq(self.gram[:k, :k], self.dF[:k] @ self.f, rcond=None)[0]
                s -= np.matmul(gamma, self.dG[:k], out=self.x)
        np.copyto(self.x, s)


def _warm_state(prev: SolverState, beta: float, lam: float) -> SolverState:
    """``prev``'s final ``(s, z)`` in a new state at ``beta`` and ``lam``, its multipliers rescaled.

    At the fixed point each multiplier ``W = beta (s - z)`` is lambda times a
    point of the dual norm ball, so ``s - z`` is scaled by ``(lam / prev.lam)
    (prev.beta / beta)``; from lambda 0 only ``z`` is carried.  ``prev`` is
    left as it is.
    """
    ratio = lam / prev.lam * (prev.beta / beta) if prev.lam else 0.0
    state = SolverState(prev.layout, prev.components, prev.M, beta, lam)
    s, z = state.s.flat, prev.z.flat
    np.copyto(state.z.flat, z)
    np.subtract(prev.s.flat, z, out=s)
    s *= ratio
    s += z
    return state


def _fits(problem: CoupledProblem, d: NormDescriptor, settings, opts: SolverOptions):
    """Fit at each ``(beta, lam)`` of ``settings`` in turn, yielding one :class:`PathFit` each.

    The first fit starts from zero, each later one from the one before
    (:func:`_warm_state`, which copies the arrays a record holds, so a
    later fit leaves them as they are).  A fit stops at ``opts.max_iters``
    or once both residuals of :func:`_residuals` are within their
    tolerances relative to max(1, ||observed data||_F); its record reports
    its last iteration's.  The only place a :class:`PathFit` is built.
    Raises :class:`InvalidDescriptorError` when the descriptor's coupled
    mode is not the problem's.
    """
    if d.coupled_mode != problem.coupled_mode:
        raise InvalidDescriptorError("descriptor coupled mode does not match the problem")
    lay = norms.layout(d, problem.dims)

    def fit_step(state: SolverState) -> None:
        update_matrix(state, problem)
        update_tensors(state, problem)

    scale = max(1.0, float(np.sqrt(
        np.linalg.norm(problem.tensor_observed) ** 2 + np.linalg.norm(problem.matrix_observed) ** 2
    )))
    state = None
    for beta, lam in settings:
        if state is None:
            zeros = [np.zeros(problem.dims) for _ in range(lay.n_components)]
            state = SolverState(lay, zeros, np.zeros_like(problem.matrix), beta, lam)
        else:
            state = _warm_state(state, beta, lam)
        residuals = [math.inf, math.inf]  # primal and dual, of the last iteration

        def done(it: int) -> bool:
            residuals[:] = _residuals(state)
            return residuals[0] <= opts.tol_primal * scale and residuals[1] <= opts.tol_dual * scale

        iterations, converged = _admm(state, opts.max_iters, fit_step, done)
        yield PathFit(lam, beta, sum(state.components), state.M, state.components, *residuals, iterations, converged)


def solve(
    problem: CoupledProblem,
    d: NormDescriptor,
    opts: SolverOptions = SolverOptions(),
) -> PathFit:
    """Fit ``problem`` under ``d`` at ``opts.lam`` and ``opts.beta`` from zero, as :func:`_fits` does.

    Deterministic.  The record carries ``opts.lam`` and ``opts.beta``; no
    per-iteration history is kept, and the objective at the fit is
    ``objective(problem, d, fit.lam, fit.tensor, fit.matrix)``.
    """
    return next(_fits(problem, d, [(opts.beta, opts.lam)], opts))


def path(problem: CoupledProblem, d: NormDescriptor, lams, opts: SolverOptions = SolverOptions()) -> list[PathFit]:
    """Fit ``problem`` under ``d`` at each lambda of ``lams`` in turn, as :func:`_fits` does.

    Each fit starts from the one before, the first from zero (the
    regularization path of glmnet); the problem is convex, so the start
    moves only the iteration count.  Each runs at ``beta = min(max(lam,
    1e-3), BETA_CAP) * opts.beta``: beta tracks lambda, which keeps the
    iteration count flat across a wide grid, up to ``BETA_CAP``, above
    which a larger beta only slows the fit.  ``opts.lam`` is not read.
    Raises ``ValueError`` naming the first lambda that is not finite and
    >= 0, before any fit.
    """
    lams = list(lams)
    for lam in lams:
        check_settings({"lam": lam}, lam=NON_NEGATIVE)
    settings = [(min(max(lam, 1e-3), BETA_CAP) * opts.beta, lam) for lam in lams]
    return list(_fits(problem, d, settings, opts))


def _lower_bound(state: SolverState, T: np.ndarray, M: np.ndarray) -> float:
    """Hoelder lower bound ``(<G, T> + <WM, M>) / D`` on the norm :func:`decompose` minimizes.

    The multipliers ``W = beta_c (s - z)`` are formed in ``state.scratch``
    (the previous ``z``, not read again).  ``G`` is the mean over
    components of ``G_c``, the sum of component c's multipliers.  Adding
    ``(G - G_c) / g_c`` into each term's ``W[k]`` in place (``G`` and the
    ``G_c`` are arrays of their own) splits ``G`` among every component's
    terms, so ``D``, the :func:`norms.split_dual_bound` of the term blocks
    as they then stand, bounds the dual norm of ``(G, WM)`` and the bound
    holds whatever the multipliers are.
    """
    W = state.scratch
    np.subtract(state.s.flat, state.z.flat, out=W.flat)
    Gc = [0.0] * len(state.g)
    for m, _, c in state.terms:
        W.blocks[m] *= state.betas[c]
        Gc[c] = Gc[c] + W.tensors[m]
    G = sum(Gc) / len(Gc)
    for m, _, c in state.terms:
        W.tensors[m] += (G - Gc[c]) / state.g[c]
    D = norms.split_dual_bound(state.layout, W.blocks)
    return float(np.vdot(G, T) + np.vdot(W.matrix, M)) / D if D > 0 else 0.0


def decompose(
    T: np.ndarray, M: np.ndarray, lay: ComponentLayout, tol: float
) -> tuple[list[np.ndarray], float, float, int]:
    """Minimize the norm terms of ``lay`` subject to the components summing to ``T``.

    The ADMM iteration at lam = 1 with the matrix ``M`` held fixed: its
    concatenated block keeps its own dual, so the joint SVT is the correct
    partial prox.  It runs on ``(T, M) / p`` with one penalty per component,
    ``beta_c = beta * scale_c * g_c``, the sum of its ``g_c`` terms' scales
    (Boyd et al. 2011, section 3.4.1), so each term of component c is
    thresholded at ``1 / (beta g_c)``, where ``beta = DECOMPOSE_BETA /
    (sigma / p)``, ``p`` the power of two in ``(sigma / 2, sigma]``, ``sigma
    = ||(T, M)||_F / sqrt(max(dims))`` (``p = 1``, ``beta = DECOMPOSE_BETA``
    at zero input).  Dividing by ``p`` is exact, so the iterates at ``2^k
    (T, M)`` are ``2^k`` times those at ``(T, M)`` and as many, and none
    overflows at any scale.
    The data-fit step projects the components onto the sum constraint by an
    exact entrywise equality-constrained solve.  Starts from the even split
    ``T / C``.  The SVT inputs ``s`` are extrapolated by
    :class:`_Anderson` of memory ``DECOMPOSE_MEMORY``, whose history is
    freed on return.  Every ``DECOMPOSE_CHECK_EVERY`` iterations, and at
    the cap ``DECOMPOSE_MAX_ITERS``, it brackets the infimum, both ends at
    every check: ``lower`` is the Hoelder bound of :func:`_lower_bound`
    from the current multipliers, ``upper`` the norm-term sum of the
    current (feasible) components (:func:`norms.decomposition_value`, a QR
    and a small SVD per term).  Stops once ``upper -
    lower <= tol * upper``; no residual is computed.  Returns the
    components, the last ``lower`` and ``upper``, scaled back by ``p``
    (zero input gives ``0, 0``), and the iteration count.  ``tol`` must be
    finite and > 0.
    """
    check_settings(locals(), tol=POSITIVE)
    C = lay.n_components
    # sigma, formed over the largest entry so that it cannot overflow
    peak = max(np.max(np.abs(T), initial=0.0), np.max(np.abs(M), initial=0.0))
    sigma = 0.0 if peak == 0 else (
        peak * math.hypot(np.linalg.norm(T / peak), np.linalg.norm(M / peak)) / math.sqrt(max(lay.dims))
    )
    p = math.ldexp(1.0, math.frexp(sigma)[1] - 1) if sigma else 1.0
    T, M = T / p, M / p
    beta = DECOMPOSE_BETA / (sigma / p or 1.0)
    state = SolverState(lay, [T / C for _ in range(C)], M, beta, 1.0, per_component=True)
    bracket = [-np.inf, np.inf]

    def project(state: SolverState) -> None:
        _fit_entries(state, 0.0, lambda S: np.subtract(T, S, out=S))

    def done(it: int) -> bool:
        if it % DECOMPOSE_CHECK_EVERY and it < DECOMPOSE_MAX_ITERS:
            return False
        bracket[:] = _lower_bound(state, T, M), norms.decomposition_value(state.components, lay, M)
        return bracket[1] - bracket[0] <= tol * bracket[1]

    iterations, _ = _admm(state, DECOMPOSE_MAX_ITERS, project, done, _Anderson(state.s.flat.size, DECOMPOSE_MEMORY))
    return [c * p for c in state.components], bracket[0] * p, bracket[1] * p, iterations
