"""Tests for the coupled-completion ADMM solver."""

import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_completion import norms, solver
from coupled_completion.baselines import complete_matrix_mtn, complete_tensor, individual_problem
from coupled_completion.norms import NormDescriptor
from coupled_completion.solver import (
    RELAXATION,
    CoupledProblem,
    SolverOptions,
    SolverState,
    objective,
    path,
    solve,
    update_auxiliaries,
    update_matrix,
    update_tensors,
)
from coupled_completion.prox import svt
from coupled_completion.tensor_ops import ObservationMask, fold, mask_apply, unfold
from test_prox import assert_svt_optimal


def random_problem(dims=(6, 6, 6), cols=4, density=0.6, seed=0):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal(dims)
    M = rng.standard_normal((dims[0], cols))
    total_t = int(np.prod(dims))
    picks = rng.choice(total_t, size=int(density * total_t), replace=False)
    t_idx = np.array(np.unravel_index(picks, dims)).T
    total_m = dims[0] * cols
    picks = rng.choice(total_m, size=int(density * total_m), replace=False)
    m_idx = np.array(np.unravel_index(picks, (dims[0], cols))).T
    return CoupledProblem(
        tensor=T,
        tensor_mask=ObservationMask(dims, t_idx),
        matrix=M,
        matrix_mask=ObservationMask((dims[0], cols), m_idx),
        coupled_mode=1,
    )


def state_at(lay, beta, lam, s, z):
    """A solver state at ``(beta, lam)``, SVT inputs ``s`` and outputs ``z``, each ``(tensors, matrix)``.

    ``tensors`` maps every norm term's mode to a tensor.  The state's scratch
    array holds the fit point ``2 z - s``, as :func:`solver._admm` leaves it
    for the data-fit step.
    """
    (s_tensors, s_matrix), (z_tensors, z_matrix) = s, z
    state = SolverState(
        lay, [np.zeros(lay.dims) for _ in lay.components], np.zeros_like(z_matrix), beta, lam
    )
    for arrays, tensors, matrix in ((state.s, s_tensors, s_matrix), (state.z, z_tensors, z_matrix)):
        for mode, _, _ in lay.regularized_modes():
            arrays.tensors[mode][...] = tensors[mode]
        arrays.matrix[...] = matrix
    state.scratch = state.views(state.z.flat - state.s.flat)
    state.scratch.flat += state.z.flat
    return state


def textbook(state):
    """``(W, WM, Y, X)`` of the textbook ADMM form: ``W = beta (s - z)``, ``Y`` and ``X`` from ``z``."""
    W = state.views(state.beta * (state.s.flat - state.z.flat))
    return W.tensors, W.matrix, state.z.tensors, state.z.matrix


def random_state(problem, d, seed=0, beta=1.0, lam=0.0, zero_WM=False):
    """Solver state at ``(beta, lam)``, random auxiliaries ``Y``, ``X`` and multipliers ``W``, ``WM``.

    Built through :func:`state_at` from ``z = (Y, X)`` and ``s = z + W / beta``;
    the primal blocks ``components`` and ``M`` are random too.
    """
    lay = norms.layout(d, problem.dims)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(problem.matrix.shape)
    WM = np.zeros_like(X) if zero_WM else rng.standard_normal(X.shape)
    modes = [m for m, _, _ in lay.regularized_modes()]
    Y = {m: rng.standard_normal(problem.dims) for m in modes}
    W = {m: rng.standard_normal(problem.dims) for m in modes}
    s = ({m: Y[m] + W[m] / beta for m in modes}, X + WM / beta)
    state = state_at(lay, beta, lam, s, (Y, X))
    state.M = rng.standard_normal(problem.matrix.shape)
    state.components = [rng.standard_normal(problem.dims) for _ in lay.components]
    return state, lay


def matrix_block_objective(state, problem, M):
    """Augmented-Lagrangian terms that depend on the matrix primal block."""
    _, WM, _, X = textbook(state)
    val = 0.5 * np.linalg.norm(mask_apply(M - problem.matrix, problem.matrix_mask)) ** 2
    val += float(np.sum(WM * M))
    val += 0.5 * state.beta * np.linalg.norm(M - X) ** 2
    return float(val)


def tensor_block_objective(state, problem, components):
    """Augmented-Lagrangian terms depending on the latent tensor block."""
    W, _, Y, _ = textbook(state)
    T_sum = sum(components)
    val = 0.5 * np.linalg.norm(
        mask_apply(T_sum - problem.tensor, problem.tensor_mask)
    ) ** 2
    for mode, _, c in state.layout.regularized_modes():
        val += float(np.sum(W[mode] * components[c]))
        val += 0.5 * state.beta * np.linalg.norm(components[c] - Y[mode]) ** 2
    return float(val)


def central_difference_gradient(f, X, h=0.05):
    """Exact for quadratics up to roundoff; large h suppresses cancellation."""
    grad = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        orig = X[ix]
        X[ix] = orig + h
        fp = f(X)
        X[ix] = orig - h
        fm = f(X)
        X[ix] = orig
        grad[ix] = (fp - fm) / (2 * h)
    return grad


ALL_SUPPORTED = [
    NormDescriptor(1, tags)
    for tags in [
        ("O", "O", "O"),
        ("L", "L", "L"),
        ("S", "S", "S"),
        ("L", "O", "O"),
        ("O", "L", "O"),
        ("O", "O", "L"),
        ("S", "O", "O"),
        ("O", "S", "O"),
        ("O", "O", "S"),
    ]
]


class TestSupported:
    """The solver takes exactly the descriptors that ``norms.layout`` accepts."""

    def test_all_nine(self):
        for d in ALL_SUPPORTED:
            assert norms.layout(d, (4, 5, 6)).n_components >= 1

    def test_dash_not_supported(self):
        with pytest.raises(norms.InvalidDescriptorError):
            norms.parse_descriptor("1:(O,O,-)")

    def test_invalid_not_supported(self):
        with pytest.raises(norms.InvalidDescriptorError):
            norms.layout(NormDescriptor(1, ("L", "L", "O")), (4, 5, 6))

    def test_second_coupling_not_supported(self):
        with pytest.raises(norms.InvalidDescriptorError):
            norms.parse_descriptor("1,3:(O,S,O)")


class TestUpdateMatrix:
    def test_large_beta_tracks_auxiliary(self):
        problem = random_problem(seed=1)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=1, beta=1e6, lam=0.1)
        update_matrix(state, problem)
        assert np.max(np.abs(state.M - state.z.matrix)) < 1e-4

    def test_writes_the_states_own_matrix(self):
        problem = random_problem(seed=1)
        state, _ = random_state(problem, NormDescriptor(1, ("O", "O", "O")), seed=1, beta=0.7)
        M, X = state.M, state.scratch.matrix
        expected = (problem.matrix_observed + 0.7 * X) / (problem.matrix_indicator + 0.7)
        assert update_matrix(state, problem) is None
        assert state.M is M
        assert np.array_equal(M, expected)

    def test_empty_mask_returns_auxiliary(self):
        problem = random_problem(seed=2)
        problem = CoupledProblem(
            tensor=problem.tensor,
            tensor_mask=problem.tensor_mask,
            matrix=problem.matrix,
            matrix_mask=ObservationMask.empty(problem.matrix.shape),
            coupled_mode=1,
        )
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=2, beta=1.0, zero_WM=True)
        update_matrix(state, problem)
        assert np.allclose(state.M, state.z.matrix, atol=1e-14)

    def test_block_gradient_vanishes(self):
        problem = random_problem(dims=(4, 3, 3), cols=3, seed=3)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=3, beta=0.7, lam=0.1)
        update_matrix(state, problem)
        grad = central_difference_gradient(
            lambda W: matrix_block_objective(state, problem, W), state.M.copy()
        )
        assert np.linalg.norm(grad) < 1e-10


class TestUpdateTensors:
    def test_unobserved_entry_closed_form(self):
        problem = random_problem(seed=4)
        problem = CoupledProblem(
            tensor=problem.tensor,
            tensor_mask=ObservationMask.empty(problem.dims),
            matrix=problem.matrix,
            matrix_mask=problem.matrix_mask,
            coupled_mode=1,
        )
        d = NormDescriptor(1, ("S", "O", "O"))
        beta = 0.9
        state, lay = random_state(problem, d, seed=4, beta=beta)
        W, _, Y, _ = textbook(state)
        assert update_tensors(state, problem) is None
        for ci, terms in enumerate(lay.components):
            acc = np.zeros(problem.dims)
            for mode, _ in terms:
                acc += beta * Y[mode] - W[mode]
            expected = acc / (beta * len(terms))
            assert np.allclose(state.components[ci], expected, atol=1e-12)

    def test_large_beta_averages_auxiliaries(self):
        problem = random_problem(seed=5)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, lay = random_state(problem, d, seed=5, beta=1e6)
        update_tensors(state, problem)
        avg = sum(state.z.tensors.values()) / 3.0
        assert np.max(np.abs(state.components[0] - avg)) < 1e-4

    def test_block_gradient_vanishes_mixed(self):
        problem = random_problem(dims=(6, 6, 6), seed=6)
        d = NormDescriptor(1, ("S", "O", "O"))
        state, lay = random_state(problem, d, seed=6, beta=1.3)
        update_tensors(state, problem)
        comps = state.components
        for c in range(lay.n_components):
            def f(X, c=c):
                trial = [X if i == c else comps[i] for i in range(lay.n_components)]
                return tensor_block_objective(state, problem, trial)

            grad = central_difference_gradient(f, comps[c].copy())
            assert np.linalg.norm(grad) < 1e-10

    def test_block_gradient_vanishes_three_components(self):
        problem = random_problem(dims=(4, 4, 4), cols=3, seed=7)
        d = NormDescriptor(1, ("L", "L", "L"))
        state, lay = random_state(problem, d, seed=7, beta=0.5)
        update_tensors(state, problem)
        comps = state.components
        for c in range(3):
            def f(X, c=c):
                trial = [X if i == c else comps[i] for i in range(3)]
                return tensor_block_objective(state, problem, trial)

            grad = central_difference_gradient(f, comps[c].copy())
            assert np.linalg.norm(grad) < 1e-10


def relaxed_inputs(state):
    """Each term's next SVT input ``s + a (t - z)``, unfolded, in the solver's order of operations."""
    a = RELAXATION
    lay = state.layout
    out = {}
    for mode, _, c in lay.regularized_modes():
        H = state.s.tensors[mode] + (state.components[c] - state.z.tensors[mode]) * a
        HM = state.s.matrix + (state.M - state.z.matrix) * a
        out[mode] = unfold(H, mode, HM if mode == lay.coupled_mode else None)
    return out


class TestUpdateAuxiliaries:
    def test_lambda_zero_identity(self):
        problem = random_problem(seed=8)
        d = NormDescriptor(1, ("S", "O", "O"))
        state, lay = random_state(problem, d, seed=8, beta=1.0, lam=0.0)
        expected = relaxed_inputs(state)
        assert update_auxiliaries(state) is None
        for mode, _, _ in lay.regularized_modes():
            assert np.array_equal(state.s.blocks[mode], expected[mode])
            assert np.array_equal(state.z.blocks[mode], expected[mode])
        assert np.array_equal(state.z.matrix, expected[1][:, -problem.matrix.shape[1]:])

    def test_huge_threshold_zeroes_auxiliaries(self):
        problem = random_problem(seed=9)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=9, beta=1.0, lam=1e9)
        update_auxiliaries(state)
        assert all(np.max(np.abs(Y)) < 1e-10 for Y in state.z.tensors.values())
        assert np.max(np.abs(state.z.matrix)) < 1e-10
        # <s - z, z> = tau ||z||_tr, the prox identity, is 0 at z = 0
        assert float(np.vdot(state.s.flat - state.z.flat, state.z.flat)) == 0.0

    # n = 12 puts every unfolding, the coupled block too, on the Gram route of svt
    @pytest.mark.parametrize("n", [6, 12])
    def test_svt_optimality_per_mode(self, n):
        problem = random_problem(dims=(n, n, n), seed=10)
        d = NormDescriptor(1, ("O", "S", "O"))
        lam, beta = 0.8, 1.0
        state, lay = random_state(problem, d, seed=10, beta=beta, lam=lam)
        args = relaxed_inputs(state)
        update_auxiliaries(state)
        for mode, scale, _ in lay.regularized_modes():
            assert_svt_optimal(args[mode], state.z.blocks[mode], lam * scale / beta)

    @pytest.mark.parametrize("text", ["1:(S,O,O)", "1:(S,S,S)", "1:(O,L,O)"])
    def test_thresholds_each_term_at_the_states_lam_scale_over_beta(self, text, monkeypatch):
        problem = random_problem(dims=(6, 5, 4), seed=15)
        lam, beta = 0.7, 0.3
        state, lay = random_state(problem, norms.parse_descriptor(text), seed=15, beta=beta, lam=lam)
        seen = []

        def recorded_svt(A, tau):
            seen.append(tau)
            return A.copy()

        monkeypatch.setattr(solver, "svt", recorded_svt)
        update_auxiliaries(state)
        expected = [lam * scale / beta for _, scale, _ in lay.regularized_modes()]
        assert seen == expected and list(state.tau.values()) == expected
        # no step function takes an options object
        for step in (update_auxiliaries, update_matrix, update_tensors):
            assert "opts" not in inspect.signature(step).parameters

    def test_builds_inputs_in_the_states_own_arrays(self):
        problem = random_problem(seed=14)
        state, lay = random_state(
            problem, NormDescriptor(1, ("O", "O", "O")), seed=14, beta=0.5, lam=0.4
        )
        expected = relaxed_inputs(state)
        s, z, scratch = state.s, state.z, state.scratch
        old_z = z.flat.copy()
        update_auxiliaries(state)
        # s is stepped in place; the outputs go into the scratch array, which
        # becomes z, and the previous z becomes the scratch array
        assert state.s is s and state.z is scratch and state.scratch is z
        assert np.array_equal(state.scratch.flat, old_z)
        for mode in expected:
            assert state.s.blocks[mode].base is s.flat
            assert np.array_equal(state.s.blocks[mode], expected[mode])
            assert not np.shares_memory(state.z.blocks[mode], s.flat)


class TestMultiplierStep:
    """The dual update is part of the input and SVT step: the multipliers
    ``W = beta (s - z)`` read off the state after a step are the textbook
    dual update ``W + beta (h - Y_new)``."""

    def test_fixed_point_leaves_multipliers_unchanged(self, monkeypatch):
        # integer data and beta = 2: every step below is exact in floating point
        problem = random_problem(seed=11)
        d = NormDescriptor(1, ("O", "O", "O"))
        lay = norms.layout(d, problem.dims)
        rng = np.random.default_rng(11)
        beta = 2.0
        X = rng.integers(-9, 9, problem.matrix.shape).astype(float)
        WM = rng.integers(-9, 9, X.shape).astype(float)
        # (O,O,O) has one component, so a fixed point has one auxiliary tensor
        Y0 = rng.integers(-9, 9, problem.dims).astype(float)
        Y = {m: Y0 for m in (1, 2, 3)}
        W = {m: rng.integers(-9, 9, problem.dims).astype(float) for m in (1, 2, 3)}
        state = state_at(lay, beta, 0.0, ({m: Y[m] + W[m] / beta for m in Y}, X + WM / beta), (Y, X))
        # primal blocks equal to their auxiliaries, and an SVT whose output
        # is its input minus W / beta: a fixed point of the iteration
        state.components, state.M = [Y0], X
        shift = state.views(state.s.flat - state.z.flat)
        offsets = {id(state.s.blocks[m]): shift.blocks[m].copy() for m in Y}
        monkeypatch.setattr(solver, "svt", lambda A, tau: A - offsets[id(A)])
        update_auxiliaries(state)
        W_new, WM_new, Y_new, X_new = textbook(state)
        assert np.array_equal(WM_new, WM) and np.array_equal(X_new, X)
        for mode in W:
            assert np.array_equal(W_new[mode], W[mode])
            assert np.array_equal(Y_new[mode], Y[mode])

    def test_single_step_from_zero(self):
        problem = random_problem(seed=12)
        d = NormDescriptor(1, ("O", "O", "O"))
        lam, beta = 0.3, 1.7
        state, lay = random_state(problem, d, seed=12, beta=beta, lam=lam)
        state = state_at(lay, beta, lam, (state.z.tensors, state.z.matrix),
                         (state.z.tensors, state.z.matrix))
        rng = np.random.default_rng(12)
        state.M = rng.standard_normal(problem.matrix.shape)
        state.components = [rng.standard_normal(problem.dims)]
        a = RELAXATION
        relaxed_M = (1 - a) * state.z.matrix + a * state.M
        relaxed = {
            m: (1 - a) * state.z.tensors[m] + a * state.components[c]
            for m, _, c in lay.regularized_modes()
        }
        update_auxiliaries(state)
        W, WM, Y, X = textbook(state)
        assert np.allclose(WM, beta * (relaxed_M - X), atol=1e-14)
        for mode in W:
            assert np.allclose(W[mode], beta * (relaxed[mode] - Y[mode]), atol=1e-14)

    def test_dual_step_small_after_convergence(self):
        problem = random_problem(seed=13)
        opts = SolverOptions(lam=0.5, beta=1.0, tol_primal=1e-7, tol_dual=1e-7)
        res = solve(problem, NormDescriptor(1, ("O", "O", "O")), opts)
        assert res.converged
        data_scale = max(
            1.0,
            float(
                np.sqrt(
                    np.linalg.norm(mask_apply(problem.tensor, problem.tensor_mask)) ** 2
                    + np.linalg.norm(mask_apply(problem.matrix, problem.matrix_mask)) ** 2
                )
            ),
        )
        assert res.final_primal_residual <= opts.tol_primal * data_scale


class TestObjective:
    def test_zero_at_matching_estimate(self):
        problem = random_problem(seed=14)
        d = NormDescriptor(1, ("O", "O", "O"))
        assert objective(problem, d, 0.0, problem.tensor, problem.matrix) == 0.0

    def test_zero_estimate_value(self):
        problem = random_problem(seed=15)
        d = NormDescriptor(1, ("O", "O", "O"))
        expected = 0.5 * (
            np.linalg.norm(mask_apply(problem.tensor, problem.tensor_mask)) ** 2
            + np.linalg.norm(mask_apply(problem.matrix, problem.matrix_mask)) ** 2
        )
        val = objective(
            problem, d, 0.0, np.zeros(problem.dims), np.zeros(problem.matrix.shape)
        )
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("operand", ["T", "M"])
    def test_rejects_a_fit_of_another_shape(self, operand, lam):
        # zeros of shapes (1, 1, 1) and (1, 1) would broadcast to the value at zeros of the right shapes
        problem = random_problem(dims=(3, 4, 5), cols=2, seed=15)
        fit = {"T": np.zeros(problem.dims), "M": np.zeros(problem.matrix.shape)}
        want = fit[operand].shape
        fit[operand] = np.zeros((1,) * len(want))
        message = f"{operand} must have the mask's shape {want}, got {fit[operand].shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            objective(problem, NormDescriptor(1, ("O", "O", "O")), lam, fit["T"], fit["M"])

    @pytest.mark.parametrize("tol", [0.0, np.nan, -1.0])
    def test_rejects_a_norm_tolerance_that_is_not_finite_and_positive(self, tol):
        # such a tol once ran decompose to its iteration cap, with no signal
        problem = random_problem(seed=15)
        d = NormDescriptor(1, ("S", "S", "S"))
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            objective(problem, d, 0.1, problem.tensor, problem.matrix, tol)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solver.decompose(problem.tensor, problem.matrix, norms.layout(d, problem.dims), tol)

    def test_solution_beats_random_perturbations(self):
        problem = random_problem(dims=(5, 5, 5), cols=3, seed=16)
        d = NormDescriptor(1, ("O", "O", "O"))
        lam = 0.5
        res = solve(problem, d, SolverOptions(lam=lam, beta=1.0, tol_primal=1e-8, tol_dual=1e-8, max_iters=5000))
        base = objective(problem, d, lam, res.tensor, res.matrix)
        rng = np.random.default_rng(16)
        for _ in range(100):
            dT = rng.standard_normal(problem.dims)
            dM = rng.standard_normal(problem.matrix.shape)
            scale = 0.1 * rng.random()
            dT *= scale / np.linalg.norm(dT)
            dM *= scale / np.linalg.norm(dM)
            perturbed = objective(problem, d, lam, res.tensor + dT, res.matrix + dM)
            assert perturbed >= base - 1e-6 * max(1.0, abs(base))


class TestSolve:
    def test_lambda_zero_full_masks_exact(self):
        rng = np.random.default_rng(17)
        T = rng.standard_normal((4, 4, 4))
        M = rng.standard_normal((4, 3))
        problem = CoupledProblem(
            tensor=T,
            tensor_mask=ObservationMask.full(T.shape),
            matrix=M,
            matrix_mask=ObservationMask.full(M.shape),
            coupled_mode=1,
        )
        res = solve(problem, NormDescriptor(1, ("O", "O", "O")), SolverOptions(lam=0.0))
        assert res.converged
        assert np.max(np.abs(res.tensor - T)) < 1e-5
        assert np.max(np.abs(res.matrix - M)) < 1e-5

    def test_large_lambda_zero_solution(self):
        problem = random_problem(seed=18)
        data_T = mask_apply(problem.tensor, problem.tensor_mask)
        data_M = mask_apply(problem.matrix, problem.matrix_mask)
        lam = 1.1 * norms.dual_norm_overlapped_upper(data_T, data_M)
        res = solve(problem, NormDescriptor(1, ("O", "O", "O")), SolverOptions(lam=lam))
        assert res.converged
        assert np.max(np.abs(res.tensor)) < 1e-5
        assert np.max(np.abs(res.matrix)) < 1e-5

    def test_end_to_end_synthetic_recovery(self):
        from coupled_completion import datagen

        spec = datagen.SyntheticSpec(
            dims=(10, 10, 10),
            multilinear_rank=(2, 2, 2),
            matrix_cols=8,
            matrix_rank=2,
            shared=2,
            noise_mean=0.0,
            noise_std=0.0,
            seed=7,
        )
        rng = np.random.default_rng(7)
        T = datagen.gen_tensor(spec, rng)
        M = datagen.gen_coupled_matrix(T, spec, rng)
        t_masks = datagen.gen_masks(T.shape, datagen.MaskSpec(0.7, 0.1, 21))
        m_masks = datagen.gen_masks(M.shape, datagen.MaskSpec(0.7, 0.1, 22))
        problem = CoupledProblem(T, t_masks[0], M, m_masks[0], 1)
        d = NormDescriptor(1, ("O", "O", "O"))
        best = None
        for lam in np.geomspace(1e-3, 1.0, 10):
            opts = SolverOptions(
                lam=lam, beta=max(lam, 1e-3), tol_primal=1e-5, tol_dual=1e-5
            )
            res = solve(problem, d, opts)
            ix = t_masks[1].as_tuple()
            val = float(np.mean((T[ix] - res.tensor[ix]) ** 2))
            if best is None or val <= best[0]:
                best = (val, res)
        ix = t_masks[2].as_tuple()
        held_out = float(np.mean((T[ix] - best[1].tensor[ix]) ** 2))
        assert held_out < 1e-3

    def test_rejects_unsupported_descriptor(self):
        problem = random_problem(seed=19)
        with pytest.raises(norms.InvalidDescriptorError):
            solve(problem, NormDescriptor(1, ("L", "L", "O")), SolverOptions())

    @pytest.mark.parametrize("mode", [True, 0, 1.0])
    def test_problem_rejects_a_coupled_mode_that_is_not_1_2_or_3(self, mode):
        problem = random_problem(seed=20)
        with pytest.raises(ValueError, match="coupled_mode must be 1, 2 or 3, got"):
            replace(problem, coupled_mode=mode)

    def test_rejects_coupled_mode_mismatch(self):
        problem = random_problem(seed=20)  # coupled_mode=1
        with pytest.raises(norms.InvalidDescriptorError):
            solve(problem, NormDescriptor(2, ("O", "O", "O")), SolverOptions())

    def test_determinism_bit_identical(self):
        problem = random_problem(seed=21)
        opts = SolverOptions(lam=0.3, max_iters=50)
        r1 = solve(problem, NormDescriptor(1, ("S", "O", "O")), opts)
        r2 = solve(problem, NormDescriptor(1, ("S", "O", "O")), opts)
        assert np.array_equal(r1.tensor, r2.tensor)
        assert np.array_equal(r1.matrix, r2.matrix)
        assert r1.iterations == r2.iterations
        assert r1.final_primal_residual == r2.final_primal_residual
        assert r1.final_dual_residual == r2.final_dual_residual

    def test_mode23_permutation_equivariance(self):
        problem = random_problem(dims=(5, 6, 7), cols=4, seed=22)
        d = NormDescriptor(1, ("O", "O", "O"))
        opts = SolverOptions(lam=0.4, max_iters=400, tol_primal=1e-8, tol_dual=1e-8)
        res = solve(problem, d, opts)

        # permute modes 2 and 3 of the data and masks; (O,O,O) is symmetric
        T_perm = np.transpose(problem.tensor, (0, 2, 1))
        idx = problem.tensor_mask.indices[:, [0, 2, 1]]
        problem_perm = CoupledProblem(
            tensor=T_perm,
            tensor_mask=ObservationMask(T_perm.shape, idx),
            matrix=problem.matrix,
            matrix_mask=problem.matrix_mask,
            coupled_mode=1,
        )
        res_perm = solve(problem_perm, d, opts)
        assert np.max(np.abs(res_perm.tensor - np.transpose(res.tensor, (0, 2, 1)))) < 1e-8
        assert np.max(np.abs(res_perm.matrix - res.matrix)) < 1e-8

    @pytest.mark.parametrize("mode", [2, 3])
    @pytest.mark.parametrize("tags", ["SOO", "OSO", "OOL", "LLL", "SSS"])
    def test_coupled_mode_permutation_equivariance(self, tags, mode):
        """Coupling on mode 2 or 3 is coupling on mode 1 with the axes permuted."""
        problem = random_problem(dims=(5, 6, 7), cols=4, seed=28)
        # axis mode - 1 of the permuted tensor is axis 0 of the original
        perm = (1, 0, 2) if mode == 2 else (1, 2, 0)
        d = NormDescriptor(1, tuple(tags))
        d_perm = NormDescriptor(mode, tuple(tags[p] for p in perm))
        T_perm = np.transpose(problem.tensor, perm)
        problem_perm = CoupledProblem(
            T_perm,
            ObservationMask(T_perm.shape, problem.tensor_mask.indices[:, perm]),
            problem.matrix,
            problem.matrix_mask,
            coupled_mode=mode,
        )
        opts = SolverOptions(lam=0.4, max_iters=300)
        res, res_perm = solve(problem, d, opts), solve(problem_perm, d_perm, opts)
        assert res_perm.iterations == res.iterations
        scale = np.max(np.abs(res.tensor))
        assert np.max(np.abs(res_perm.tensor - np.transpose(res.tensor, perm))) <= 1e-9 * scale
        assert np.max(np.abs(res_perm.matrix - res.matrix)) <= 1e-9 * scale
        value = norms.evaluate(problem.tensor, problem.matrix, d)
        value_perm = norms.evaluate(T_perm, problem.matrix, d_perm)
        assert value_perm == pytest.approx(value, rel=1e-9)

    def test_record_objective_leaves_the_fit_as_it_is(self):
        problem = random_problem(seed=23)
        d = NormDescriptor(1, ("S", "O", "O"))
        on, off = (solve(problem, d, SolverOptions(lam=0.5, record_objective=r)) for r in (True, False))
        assert np.array_equal(on.tensor, off.tensor)
        assert np.array_equal(on.matrix, off.matrix)
        assert on.iterations == off.iterations
        assert on.final_primal_residual == off.final_primal_residual
        assert on.final_dual_residual == off.final_dual_residual

    def test_iteration_cap_reports_not_converged(self):
        problem = random_problem(seed=24)
        res = solve(
            problem, NormDescriptor(1, ("O", "O", "O")), SolverOptions(lam=0.5, max_iters=3)
        )
        assert not res.converged
        assert res.iterations == 3

    @pytest.mark.parametrize("fill", [np.nan, 1e3])
    def test_unobserved_entries_are_never_read(self, fill):
        problem = random_problem(seed=26)
        filled = CoupledProblem(
            np.where(problem.tensor_indicator == 1, problem.tensor, fill),
            problem.tensor_mask,
            np.where(problem.matrix_indicator == 1, problem.matrix, fill),
            problem.matrix_mask,
        )
        d = NormDescriptor(1, ("O", "S", "O"))
        opts = SolverOptions(lam=0.3, max_iters=200)
        ref, res = solve(problem, d, opts), solve(filled, d, opts)
        assert res.iterations == ref.iterations
        assert np.array_equal(res.tensor, ref.tensor)
        assert np.array_equal(res.matrix, ref.matrix)
        assert res.final_primal_residual == ref.final_primal_residual
        assert res.final_dual_residual == ref.final_dual_residual

    def test_rejects_iteration_cap_below_one(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverOptions(max_iters=0)

    @pytest.mark.parametrize(
        "name, value",
        [("lam", np.nan), ("lam", np.inf), ("beta", np.nan), ("beta", np.inf),
         ("tol_primal", np.nan), ("tol_dual", np.inf), ("max_iters", 100.0),
         ("max_iters", True), ("lam", True), ("beta", "1"), ("tol_dual", 0.0)],
    )
    def test_rejects_non_finite_or_fractional_setting(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be (finite|integer)"):
            SolverOptions(**{name: value})

    @pytest.mark.parametrize("part, bad", [("tensor", np.inf), ("matrix", np.nan)])
    def test_rejects_non_finite_observed_entry(self, part, bad):
        problem = random_problem(seed=27)
        data = {"tensor": problem.tensor.copy(), "matrix": problem.matrix.copy()}
        at = tuple(int(i) for i in getattr(problem, f"{part}_mask").indices[3])
        data[part][at] = bad
        with pytest.raises(ValueError, match=re.escape(f"observed {part} entry at {at}")):
            CoupledProblem(
                data["tensor"], problem.tensor_mask, data["matrix"], problem.matrix_mask
            )

    def test_components_sum_to_tensor(self):
        problem = random_problem(seed=25)
        res = solve(problem, NormDescriptor(1, ("L", "L", "L")), SolverOptions(lam=0.5))
        assert np.allclose(sum(res.components), res.tensor, atol=1e-14)


class TestMetamorphic:
    # 6^3 unfoldings take LAPACK's SVD in svt, 12 x 11 x 10 ones the Gram route
    DIMS = [(6, 6, 6), (12, 11, 10)]

    @given(
        st.sampled_from(DIMS),
        st.sampled_from(["OOO", "SOO", "OSO", "OOL", "LLL", "SSS"]),
        st.integers(-3, 8),
        st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_scaling_data_and_lambda_by_a_power_of_two_scales_the_solution(
        self, dims, tags, k, seed
    ):
        """(c T_obs, c M_obs, c lam) at the same beta gives exactly c times the fit.

        Powers of two scale without rounding.  Both data norms are at least
        1, so the residual scale max(1, ||data||) scales by c too.
        """
        c = 2.0**k
        problem = random_problem(dims=dims, seed=seed)
        scaled = CoupledProblem(
            c * problem.tensor, problem.tensor_mask, c * problem.matrix, problem.matrix_mask
        )
        assert min(np.linalg.norm(p.tensor_observed) for p in (problem, scaled)) >= 1.0
        d = NormDescriptor(1, tuple(tags))
        res = solve(problem, d, SolverOptions(lam=0.3, beta=1.0, max_iters=300))
        res_c = solve(scaled, d, SolverOptions(lam=0.3 * c, beta=1.0, max_iters=300))
        assert res_c.iterations == res.iterations
        assert np.array_equal(res_c.tensor, c * res.tensor)
        assert np.array_equal(res_c.matrix, c * res.matrix)

    # LAPACK's SVD rounds the wider coupled block differently, so at 6^3 the
    # tensors agree to rounding; the Gram route only adds exact zeros
    @pytest.mark.parametrize("dims, rtol", zip(DIMS, [1e-13, 0.0]))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("blind", ["matrix", "tensor"])
    def test_an_unobserved_part_leaves_the_other_parts_own_fit(self, dims, rtol, seed, blind):
        """With no entry of one part observed, 1:(O,O,O) keeps that part at
        zero and fits the other alone: with no matrix entry, the tensor is the
        tensor-only overlapped (OTN) fit; with no tensor entry, the matrix is
        the matrix-only (MTN) fit.  The matrix fits agree only to rounding,
        since MTN thresholds the matrix without the tensor's zero columns."""
        problem = random_problem(dims=dims, seed=seed)
        blinded = replace(problem, **{f"{blind}_mask": ObservationMask.empty(getattr(problem, blind).shape)})
        opts = SolverOptions(lam=0.3, beta=1.0)
        res = solve(blinded, NormDescriptor(1, ("O", "O", "O")), opts)
        if blind == "matrix":
            alone = complete_tensor(problem.tensor, problem.tensor_mask, "overlapped", 0.3, opts)
            assert not res.matrix.any()
            fit, ref, fit_rtol = res.tensor, alone.tensor, rtol
        else:
            alone = complete_matrix_mtn(problem.matrix, problem.matrix_mask, 0.3, opts)
            assert np.max(np.abs(res.tensor)) <= rtol * np.max(np.abs(alone.matrix))
            fit, ref, fit_rtol = res.matrix, alone.matrix, 1e-13
        assert res.iterations == alone.iterations
        assert np.max(np.abs(fit - ref)) <= fit_rtol * np.max(np.abs(ref))


def recording_states(monkeypatch):
    """Make every state the solver builds a recorded one; returns the list the states are appended to.

    Each keeps, as ``built_with``, its ``s``, ``z`` and ``components`` as built.
    """
    built = []

    class RecordedState(SolverState):
        def __post_init__(self):
            super().__post_init__()
            self.built_with = (self.s, self.z, self.components)
            built.append(self)

    monkeypatch.setattr(solver, "SolverState", RecordedState)
    return built


class TestPath:
    D = NormDescriptor(1, ("S", "O", "O"))

    def test_restart_at_same_lambda_converges_in_one_iteration(self):
        problem = random_problem(seed=29)
        # beta0 = 1 / lam, so both fits run at beta = 1
        opts = SolverOptions(beta=1 / 0.3, max_iters=5000, tol_primal=1e-7, tol_dual=1e-7)
        res, again = path(problem, self.D, [0.3, 0.3], opts)
        assert res.beta == again.beta == 1.0
        assert res.converged and res.iterations > 10
        assert again.converged
        assert again.iterations == 1
        # the scale the solver judges its residuals by
        scale = max(1.0, np.hypot(np.linalg.norm(problem.tensor_observed),
                                  np.linalg.norm(problem.matrix_observed)))
        assert np.linalg.norm(again.tensor - res.tensor) <= opts.tol_dual * scale
        assert np.linalg.norm(again.matrix - res.matrix) <= opts.tol_dual * scale

    @pytest.mark.parametrize("lams", [(1.0, 0.3), (2.0, 1.5)], ids=["beta-tracks", "above-the-cap"])
    def test_a_warm_fit_reaches_the_cold_solution(self, lams):
        # above BETA_CAP consecutive fits share beta, and only lambda rescales s - z
        problem = random_problem(seed=30)
        opts = SolverOptions(max_iters=5000, tol_primal=1e-8, tol_dual=1e-8)
        _, warm = path(problem, self.D, lams, opts)
        cold = solve(problem, self.D, replace(opts, lam=warm.lam, beta=warm.beta))
        assert warm.beta == min(lams[1], solver.BETA_CAP)
        assert warm.converged and warm.iterations < cold.iterations
        assert np.max(np.abs(warm.tensor - cold.tensor)) < 1e-5
        assert np.max(np.abs(warm.matrix - cold.matrix)) < 1e-5

    def test_the_first_fit_is_the_cold_solve_bit_for_bit(self):
        problem = random_problem(seed=33)
        opts = SolverOptions(max_iters=80)
        first = path(problem, self.D, [0.3, 0.6], opts)[0]
        cold = solve(problem, self.D, replace(opts, lam=0.3, beta=0.3))
        assert first.iterations == cold.iterations
        assert np.array_equal(first.tensor, cold.tensor)
        assert np.array_equal(first.matrix, cold.matrix)

    @pytest.mark.parametrize("kind", ["coupled", "mtn"])
    def test_each_fit_is_independent_of_the_later_ones(self, kind):
        # a later fit starts from an earlier one's state and leaves its fit as it is
        if kind == "coupled":
            problem, d = random_problem(seed=35), self.D
        else:
            matrix = random_problem(dims=(6, 6, 6), cols=5, seed=36)
            problem, d = individual_problem("MTN", matrix.matrix, matrix.matrix_mask)
        lams = [3.0, 0.8, 0.2, 0.0, 0.05]
        opts = SolverOptions(max_iters=60)
        whole = path(problem, d, lams, opts)
        assert len(whole) == len(lams)
        for k in range(1, len(lams) + 1):
            part, fit = path(problem, d, lams[:k], opts)[-1], whole[k - 1]
            assert (part.lam, part.beta, part.iterations, part.converged) == (
                fit.lam, fit.beta, fit.iterations, fit.converged)
            assert np.array_equal(part.tensor, fit.tensor)
            assert np.array_equal(part.matrix, fit.matrix)

    @pytest.mark.parametrize("beta0", [1.0, 2.5])
    def test_beta_tracks_lambda_up_to_the_cap_and_stays_there(self, beta0):
        opts = SolverOptions(beta=beta0, max_iters=7, tol_primal=1e-5, tol_dual=1e-6)
        lams = [0.0, 1e-4, 1e-3, 0.3, 0.999, solver.BETA_CAP, 1.5, 5.0, 320.0]
        fits = path(random_problem(seed=37), self.D, lams, opts)
        for lam, fit in zip(lams, fits, strict=True):
            beta = (solver.BETA_CAP if lam >= solver.BETA_CAP else max(lam, 1e-3)) * beta0
            assert (fit.lam, fit.beta) == (lam, beta)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, True])
    def test_rejects_a_lambda_that_is_not_finite_and_non_negative_before_any_fit(self, bad, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fitted")

        monkeypatch.setattr(solver, "_admm", no_fit)
        with pytest.raises(ValueError, match=re.escape(f"lam must be finite and >= 0, got {bad!r}")):
            path(random_problem(seed=38), self.D, [0.5, bad], SolverOptions())

    def test_an_empty_grid_fits_nothing(self):
        assert path(random_problem(seed=39), self.D, [], SolverOptions()) == []


class TestMultiplierArrays:
    """The arrays the multipliers are read from, a state's ``s`` and ``z``,
    the loop's scratch array, and their term views, are made once; every
    step works in them, ``z`` and scratch trading places.  The scratch array
    is dropped when the loop ends."""

    @staticmethod
    def snapshot(state):
        return {
            id(a): (a, a.flat, dict(a.blocks), dict(a.tensors), a.matrix)
            for a in (state.s, state.z, state.scratch)
        }, state.s

    @staticmethod
    def assert_same(first, later, coupled):
        (arrays, s), (now, s_now) = first, later
        assert s_now is s and now.keys() == arrays.keys()
        for key, (a, flat, blocks, tensors, matrix) in arrays.items():
            assert now[key][0] is a
            assert a.flat is flat and flat.ndim == 1
            assert flat.size == sum(b.size for b in blocks.values())
            assert a.matrix is matrix and np.shares_memory(matrix, blocks[coupled])
            for mode, buf in blocks.items():
                assert a.blocks[mode] is buf and buf.flags.c_contiguous
                assert buf.base is flat
                assert a.tensors[mode] is tensors[mode]
                assert np.shares_memory(tensors[mode], buf)

    @pytest.mark.parametrize("text", ["1:(O,O,O)", "1:(S,O,O)", "1:(L,L,L)"])
    def test_cold_and_warm_fits_keep_them_at_every_iteration(self, text, monkeypatch):
        steps = []

        def recorded_update_auxiliaries(state, accelerate=None):
            steps.append((state, TestMultiplierArrays.snapshot(state)))
            return update_auxiliaries(state, accelerate)

        built = recording_states(monkeypatch)
        monkeypatch.setattr(solver, "update_auxiliaries", recorded_update_auxiliaries)
        problem = random_problem(seed=34)
        d = norms.parse_descriptor(text)
        # tolerances no iterate meets, so each fit runs all its iterations
        tight = dict(tol_primal=1e-300, tol_dual=1e-300)
        fits = path(problem, d, [0.6, 0.2], SolverOptions(max_iters=7, **tight))
        assert len(built) == 2
        for fit, state in zip(fits, built):
            s, z, components = state.built_with
            assert fit.matrix is state.M and state.scratch is None and state.components is components
            assert np.array_equal(fit.tensor, sum(components))
            seen = [taken for owner, taken in steps if owner is state]
            assert len(seen) == fit.iterations == 7
            first = seen[0]
            assert first[1] is s and id(z) in first[0]
            for later in seen:
                self.assert_same(first, later, state.layout.coupled_mode)
            assert state.s is s and id(state.z) in first[0]
        cold_arrays, warm_arrays = (
            [state.s.flat, state.z.flat, state.M, *state.components] for state in built
        )
        assert not any(np.shares_memory(a, b) for a in cold_arrays for b in warm_arrays)


class TextbookADMM:
    """Over-relaxed ADMM for completion in its textbook variables (Boyd et al.
    2011, section 3.4.3): primal ``t`` (one tensor per component) and ``M``,
    auxiliaries ``Y[mode]`` and ``X``, multipliers ``W[mode]`` and ``WM``,
    each updated by its own formula."""

    def __init__(self, problem, d):
        self.problem, self.lay = problem, norms.layout(d, problem.dims)
        self.terms = self.lay.regularized_modes()
        self.Y = {m: np.zeros(problem.dims) for m, _, _ in self.terms}
        self.W = {m: np.zeros(problem.dims) for m, _, _ in self.terms}
        self.X = np.zeros(problem.matrix.shape)
        self.WM = np.zeros(problem.matrix.shape)

    def warm(self, ratio):
        """Rescale the multipliers by ``lam_new / lam_old``, keeping the auxiliaries."""
        self.W = {m: ratio * W for m, W in self.W.items()}
        self.WM = ratio * self.WM

    def step(self, lam, beta):
        p, a, C = self.problem, RELAXATION, self.lay.n_components
        omega, obs = p.tensor_indicator, p.tensor_observed
        self.M = (p.matrix_observed - self.WM + beta * self.X) / (p.matrix_indicator + beta)
        # per entry: (omega * ones + beta * diag(g)) t = omega * obs + sum_k (beta Y_k - W_k)
        g = np.zeros(C)
        rhs = np.zeros((C, *p.dims))
        for m, _, c in self.terms:
            g[c] += 1
            rhs[c] += beta * self.Y[m] - self.W[m]
        rhs += omega * obs
        A = omega[..., None, None] * np.ones((C, C)) + beta * np.diag(g)
        t = np.linalg.solve(A, np.moveaxis(rhs, 0, -1)[..., None])[..., 0]
        self.t = [np.ascontiguousarray(t[..., c]) for c in range(C)]
        hM = a * self.M + (1 - a) * self.X
        for m, scale, c in self.terms:
            h = a * self.t[c] + (1 - a) * self.Y[m]
            coupled = m == self.lay.coupled_mode
            arg = unfold(h + self.W[m] / beta, m, hM + self.WM / beta if coupled else None)
            Z = svt(arg, lam * scale / beta)
            nt = arg.shape[1] - self.X.shape[1] * coupled
            self.Y[m] = fold(Z[:, :nt], m, p.dims)
            self.W[m] = self.W[m] + beta * (h - self.Y[m])
            if coupled:
                self.X = Z[:, nt:]
                self.WM = self.WM + beta * (hM - self.X)


def _empty_tensor_problem(seed):
    """An MTN-shaped problem: an (n, 0, 0) tensor beside a partly observed matrix."""
    matrix = random_problem(dims=(6, 6, 6), cols=5, seed=seed)
    empty = np.zeros((6, 0, 0))
    return CoupledProblem(empty, ObservationMask.empty(empty.shape),
                          matrix.matrix, matrix.matrix_mask)


def _empty_matrix_problem(seed):
    """A tensor-only problem: an (n, 0) matrix."""
    tensor = random_problem(dims=(6, 5, 4), seed=seed)
    empty = np.zeros((6, 0))
    return CoupledProblem(tensor.tensor, tensor.tensor_mask, empty,
                          ObservationMask.empty(empty.shape))


class TestTextbookEquivalence:
    """The ``(s, z)`` loop of :func:`solve` and :func:`path` is the textbook
    relaxed ADMM: primal, auxiliary and multiplier iterates agree to
    rounding."""

    CASES = [
        ("1:(O,O,O)", lambda: random_problem(seed=50)),
        ("1:(S,O,O)", lambda: random_problem(dims=(5, 6, 7), seed=51)),
        ("1:(L,L,L)", lambda: random_problem(dims=(12, 11, 10), cols=7, seed=52)),
        ("1:(S,S,S)", lambda: _empty_matrix_problem(53)),
        ("1:(O,O,O)", lambda: _empty_tensor_problem(54)),
    ]
    IDS = ["OOO", "SOO", "LLL-gram", "tensor-only", "mtn"]

    @staticmethod
    def assert_agree(state, ref):
        W, WM, Y, X = textbook(state)
        pairs = [(state.M, ref.M), (X, ref.X), (WM, ref.WM)]
        pairs += list(zip(state.components, ref.t, strict=True))
        pairs += [(Y[m], ref.Y[m]) for m in ref.Y] + [(W[m], ref.W[m]) for m in ref.W]
        # relative to the iterate's size: a small block (a latent component
        # near zero) carries the rounding of the larger ones it is formed from
        size = max(np.linalg.norm(old) for _, old in pairs)
        for new, old in pairs:
            assert new.shape == old.shape
            assert np.linalg.norm(new - old) <= 1e-12 * size

    @pytest.mark.parametrize("text, make", CASES, ids=IDS)
    def test_cold_and_warm_iterates_agree(self, text, make, monkeypatch):
        built = recording_states(monkeypatch)
        problem, d = make(), norms.parse_descriptor(text)
        # tolerances no iterate meets, so each fit runs all its iterations
        tight = dict(tol_primal=1e-300, tol_dual=1e-300)
        ref = TextbookADMM(problem, d)
        first = SolverOptions(lam=0.6, beta=1.0, max_iters=15, **tight)
        for it in range(1, 16):
            ref.step(first.lam, first.beta)
            solve(problem, d, replace(first, max_iters=it))
            self.assert_agree(built[-1], ref)
        # a path across BETA_CAP: the second fit's beta ratio (0.35) is not its lambda ratio (0.175)
        ref = TextbookADMM(problem, d)
        fits = path(problem, d, [2.0, 0.35], first)
        assert [fit.beta for fit in fits] == [1.0, 0.35]
        for _ in range(15):
            ref.step(2.0, 1.0)
        self.assert_agree(built[-2], ref)
        ref.warm(0.35 / 2.0)
        for _ in range(15):
            ref.step(0.35, 0.35)
        self.assert_agree(built[-1], ref)


LATENT = [d for d in ALL_SUPPORTED if d.has_latent()]


def decompose_instance(dims, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dims), rng.standard_normal((dims[0], cols))


class TextbookAnderson:
    """Safeguarded type-II Anderson acceleration (Walker & Ni 2011) from full
    lists: ``fs`` and ``gs`` hold ``f = F(x) - x`` and ``g = F(x)`` at every
    accepted point since the last rejection, and at the accepted point before
    it, and the step solves the tall least-squares problem in the differences
    of the last ``memory + 1`` of them.  ``rejected_at`` records, for each
    rejection, the number of differences taken since the previous one modulo
    ``memory``, the history row ``_Anderson`` would write next."""

    def __init__(self, memory):
        self.memory, self.fs, self.gs = memory, [], []
        self.x, self.extrapolated, self.rejected_at = None, False, []

    def step(self, Fx):
        """The next point, given ``F`` at the point handed out last (the starting point first)."""
        g = Fx.copy()
        if self.x is None:
            self.x = g
            return g.copy()
        f = g - self.x
        if self.extrapolated and np.linalg.norm(f) > np.linalg.norm(self.fs[-1]):
            self.rejected_at.append((len(self.fs) - 1) % self.memory)
            self.fs, self.gs, self.extrapolated = self.fs[-1:], self.gs[-1:], False
            self.x = self.gs[-1].copy()
            return self.x.copy()
        self.fs.append(f)
        self.gs.append(g)
        dF = np.diff(self.fs[-self.memory - 1 :], axis=0)
        dG = np.diff(self.gs[-self.memory - 1 :], axis=0)
        self.extrapolated = len(dF) > 0
        self.x = g - dG.T @ np.linalg.lstsq(dF.T, f, rcond=None)[0] if self.extrapolated else g
        return self.x.copy()


class TestAnderson:
    def test_agrees_with_the_textbook_accelerator_through_rejections(self):
        # a nonlinear contraction whose safeguard drops points with history
        # in rows other than the first, long before the fixed point is near
        rng = np.random.default_rng(17)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        b = rng.standard_normal(5)

        def F(x):
            return 0.99 * Q @ np.sin(x) + b

        acc, ref = solver._Anderson(5, 4), TextbookAnderson(4)
        x = np.zeros(5)
        acc(x)
        y = ref.step(np.zeros(5))
        for _ in range(14):
            x = F(x)
            acc(x)
            y = ref.step(F(y))
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
        assert sum(h != 0 for h in ref.rejected_at) >= 2
        assert acc.rejections == len(ref.rejected_at)
        assert np.linalg.norm(F(y) - y) > 1e-3

    def test_solves_an_affine_fixed_point_within_its_memory(self):
        # on an affine map of dimension <= memory, type-II Anderson is GMRES
        # and reaches the fixed point in a few steps
        rng = np.random.default_rng(40)
        A = 0.95 * np.linalg.qr(rng.standard_normal((3, 3)))[0]
        b = rng.standard_normal(3)
        fixed = np.linalg.solve(np.eye(3) - A, b)
        acc = solver._Anderson(3, 4)
        x = np.zeros(3)
        acc(x)
        for _ in range(8):
            x = A @ x + b
            acc(x)
        assert np.allclose(x, fixed, rtol=0.0, atol=1e-9)
        assert acc.rejections == 0

    def test_a_rejected_point_is_replaced_by_the_plain_step_of_the_accepted_one(self):
        acc = solver._Anderson(2, 4)

        def F(x):
            return 0.5 * x + 1.0

        start = np.array([4.0, -2.0])
        x = start.copy()
        acc(x)  # the starting point, handed out as it is
        x = F(x)
        acc(x)  # accepted, with no history yet: handed out as it is
        x = F(x)
        acc(x)  # accepted, and extrapolated from one difference
        assert acc.count == 1
        # F of a point with a residual far above the accepted one's
        x = x + 1e6
        acc(x)
        assert acc.rejections == 1 and acc.count == 0
        # the next point is the plain step from the accepted point F(start)
        assert np.array_equal(x, F(F(start)))

    def test_memory_zero_leaves_every_point_as_it_is(self):
        acc = solver._Anderson(4, 0)
        x = np.arange(4.0)
        for _ in range(3):
            x = 0.5 * x + 1.0
            before = x.copy()
            acc(x)
            assert np.array_equal(x, before)


class TestAcceleratedDecompose:
    """``decompose`` runs Anderson acceleration; its brackets stay certified."""

    @pytest.mark.parametrize("d", LATENT, ids=norms.format_descriptor)
    @pytest.mark.parametrize(
        "dims, cols", [((20, 20, 20), 30), ((10, 15, 8), 12), ((3, 3, 3), 2)],
        ids=["20^3", "10x15x8", "3^3"],
    )
    def test_every_latent_descriptor_ends_certified(self, d, dims, cols):
        T, M = decompose_instance(dims, cols, seed=41)
        tol = 1e-6
        components, lower, upper = solver.decompose(T, M, norms.layout(d, T.shape), tol)
        assert 0.0 < lower <= upper
        assert upper - lower <= tol * upper
        assert np.allclose(sum(components), T, rtol=0.0, atol=1e-12 * np.max(np.abs(T)))

    @pytest.mark.parametrize("k", [-1000, -7, 7, 1000])
    @pytest.mark.parametrize("d", LATENT, ids=norms.format_descriptor)
    def test_scaling_the_data_by_a_power_of_two_scales_the_bracket_bit_for_bit(self, d, k, monkeypatch):
        # the loop runs on the data divided by a power of two near its scale,
        # so every iterate scales by 2^k exactly, and none overflows at 2^1000
        iterations = []
        admm = solver._admm

        def counted(*args):
            out = admm(*args)
            iterations.append(out[0])
            return out

        monkeypatch.setattr(solver, "_admm", counted)
        T, M = decompose_instance((6, 5, 4), 3, seed=45)
        lay = norms.layout(d, T.shape)
        _, lower, upper = solver.decompose(T, M, lay, 1e-6)
        _, lower_k, upper_k = solver.decompose(2.0**k * T, 2.0**k * M, lay, 1e-6)
        assert (lower_k, upper_k) == (2.0**k * lower, 2.0**k * upper)
        assert iterations[0] == iterations[1] > solver.DECOMPOSE_CHECK_EVERY

    def test_data_whose_scale_is_subnormal_gives_a_subnormal_bracket(self):
        # the loop runs on the data divided by a subnormal power of two, at
        # normal scale, so nothing overflows (under this suite's filters an
        # overflow warning would fail the test); the bracket is scaled back
        T, M = decompose_instance((6, 5, 4), 3, seed=46)
        lay = norms.layout(NormDescriptor(1, ("S", "S", "S")), T.shape)
        _, lower, upper = solver.decompose(2.0**-1060 * T, 2.0**-1060 * M, lay, 1e-6)
        assert 0.0 <= lower <= upper < np.finfo(float).tiny

    def test_the_safeguard_drops_points_and_the_bracket_still_closes(self, monkeypatch):
        made = []

        class Recorded(solver._Anderson):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver, "_Anderson", Recorded)
        T, M = decompose_instance((6, 5, 4), 3, seed=0)
        tol = 1e-6
        lay = norms.layout(NormDescriptor(1, ("S", "S", "S")), T.shape)
        _, lower, upper = solver.decompose(T, M, lay, tol)
        assert len(made) == 1 and made[0].memory == solver.DECOMPOSE_MEMORY
        assert made[0].rejections >= 1
        assert 0.0 < lower and upper - lower <= tol * upper

    def test_every_accepted_residual_is_measured_from_the_point_handed_out_last(self, monkeypatch):
        wrong, rejected = [], []

        class Checked(solver._Anderson):
            def __call__(self, s):
                last = getattr(self, "last", None)
                true = None if last is None else float(np.linalg.norm(s - last))
                before = self.rejections
                super().__call__(s)
                self.last = s.copy()
                if self.rejections > before:
                    rejected.append(True)
                elif true is not None and not math.isclose(self.best, true, rel_tol=1e-12):
                    wrong.append(self.best / true)

        monkeypatch.setattr(solver, "_Anderson", Checked)
        T, M = decompose_instance((6, 5, 4), 3, seed=0)
        lay = norms.layout(NormDescriptor(1, ("S", "S", "S")), T.shape)
        solver.decompose(T, M, lay, 1e-6)
        assert rejected and not wrong

    def test_leaves_its_matrix_as_it_is_and_builds_no_options(self, monkeypatch):
        def no_options(*args, **kwargs):
            raise AssertionError("options built")

        monkeypatch.setattr(solver, "SolverOptions", no_options)
        T, M = decompose_instance((6, 5, 4), 3, seed=44)
        kept = M.copy()
        lay = norms.layout(NormDescriptor(1, ("O", "S", "O")), T.shape)
        _, lower, upper = solver.decompose(T, M, lay, 1e-6)
        assert np.array_equal(M, kept)
        assert 0.0 < lower and upper - lower <= 1e-6 * upper

    def test_computes_no_residual_and_the_bracket_still_closes(self, monkeypatch):
        def no_residuals(state):
            raise AssertionError("residuals computed")

        monkeypatch.setattr(solver, "_residuals", no_residuals)
        T, M = decompose_instance((6, 5, 4), 3, seed=43)
        tol = 1e-6
        lay = norms.layout(NormDescriptor(1, ("S", "O", "O")), T.shape)
        _, lower, upper = solver.decompose(T, M, lay, tol)
        assert 0.0 < lower and upper - lower <= tol * upper
        # solve's stopping rule is the one that reads them
        with pytest.raises(AssertionError, match="residuals computed"):
            solve(random_problem(seed=43), NormDescriptor(1, ("S", "O", "O")), SolverOptions())

    @pytest.mark.parametrize("text", ["1:(S,S,S)", "1:(O,L,O)"])
    def test_memory_zero_is_the_unaccelerated_loop_bit_for_bit(self, text, monkeypatch):
        T, M = decompose_instance((6, 5, 4), 3, seed=42)
        lay = norms.layout(norms.parse_descriptor(text), T.shape)
        monkeypatch.setattr(solver, "DECOMPOSE_MEMORY", 0)
        zero = solver.decompose(T, M, lay, 1e-6)
        monkeypatch.undo()
        admm = solver._admm

        def unaccelerated(state, max_iters, fit_step, done, accelerate=None):
            return admm(state, max_iters, fit_step, done)

        monkeypatch.setattr(solver, "_admm", unaccelerated)
        plain = solver.decompose(T, M, lay, 1e-6)
        assert zero[1:] == plain[1:]
        assert all(np.array_equal(a, b) for a, b in zip(zero[0], plain[0], strict=True))
