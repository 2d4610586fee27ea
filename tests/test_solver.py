"""Tests for the coupled-completion ADMM solver."""

import re

import numpy as np
import pytest

from coupled_completion import norms
from coupled_completion.norms import NormDescriptor
from coupled_completion.solver import (
    CoupledProblem,
    SolverOptions,
    SolverState,
    objective,
    solve,
    update_auxiliaries,
    update_duals,
    update_matrix,
    update_tensors,
)
from coupled_completion.tensor_ops import ObservationMask, mask_apply, unfold
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


def random_state(problem, d, seed=0):
    """Solver state after a few iterations, for exercising block updates."""
    lay = norms.layout(d, problem.dims)
    state = SolverState(lay, [np.zeros(problem.dims) for _ in lay.components], problem.matrix)
    rng = np.random.default_rng(seed)
    state.M = rng.standard_normal(problem.matrix.shape)
    state.X = rng.standard_normal(problem.matrix.shape)
    state.WM = rng.standard_normal(problem.matrix.shape)
    state.components = [rng.standard_normal(problem.dims) for _ in state.components]
    for mode in state.Y:
        state.Y[mode] = rng.standard_normal(problem.dims)
        state.W[mode] = rng.standard_normal(problem.dims)
    return state, lay


def matrix_block_objective(state, problem, opts, M):
    """Augmented-Lagrangian terms that depend on the matrix primal block."""
    val = 0.5 * np.linalg.norm(mask_apply(M - problem.matrix, problem.matrix_mask)) ** 2
    val += float(np.sum(state.WM * M))
    val += 0.5 * opts.beta * np.linalg.norm(M - state.X) ** 2
    return float(val)


def tensor_block_objective(state, problem, opts, components):
    """Augmented-Lagrangian terms depending on the latent tensor block."""
    T_sum = sum(components)
    val = 0.5 * np.linalg.norm(
        mask_apply(T_sum - problem.tensor, problem.tensor_mask)
    ) ** 2
    for mode, _, c in state.layout.regularized_modes():
        val += float(np.sum(state.W[mode] * components[c]))
        val += 0.5 * opts.beta * np.linalg.norm(components[c] - state.Y[mode]) ** 2
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
        state, _ = random_state(problem, d, seed=1)
        opts = SolverOptions(lam=0.1, beta=1e6)
        M = update_matrix(state, problem, opts)
        assert np.max(np.abs(M - state.X)) < 1e-4

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
        state, _ = random_state(problem, d, seed=2)
        state.WM = np.zeros_like(state.WM)
        M = update_matrix(state, problem, SolverOptions(beta=1.0))
        assert np.allclose(M, state.X, atol=1e-14)

    def test_block_gradient_vanishes(self):
        problem = random_problem(dims=(4, 3, 3), cols=3, seed=3)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=3)
        opts = SolverOptions(lam=0.1, beta=0.7)
        M = update_matrix(state, problem, opts)
        grad = central_difference_gradient(
            lambda W: matrix_block_objective(state, problem, opts, W), M.copy()
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
        state, lay = random_state(problem, d, seed=4)
        opts = SolverOptions(beta=0.9)
        comps = update_tensors(state, problem, opts)
        for ci, terms in enumerate(lay.components):
            acc = np.zeros(problem.dims)
            for mode, _ in terms:
                acc += opts.beta * state.Y[mode] - state.W[mode]
            expected = acc / (opts.beta * len(terms))
            assert np.allclose(comps[ci], expected, atol=1e-12)

    def test_large_beta_averages_auxiliaries(self):
        problem = random_problem(seed=5)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, lay = random_state(problem, d, seed=5)
        comps = update_tensors(state, problem, SolverOptions(beta=1e6))
        avg = sum(state.Y[m] for m in state.Y) / 3.0
        assert np.max(np.abs(comps[0] - avg)) < 1e-4

    def test_block_gradient_vanishes_mixed(self):
        problem = random_problem(dims=(6, 6, 6), seed=6)
        d = NormDescriptor(1, ("S", "O", "O"))
        state, lay = random_state(problem, d, seed=6)
        opts = SolverOptions(beta=1.3)
        comps = update_tensors(state, problem, opts)
        for c in range(lay.n_components):
            def f(X, c=c):
                trial = [X if i == c else comps[i] for i in range(lay.n_components)]
                return tensor_block_objective(state, problem, opts, trial)

            grad = central_difference_gradient(f, comps[c].copy())
            assert np.linalg.norm(grad) < 1e-10

    def test_block_gradient_vanishes_three_components(self):
        problem = random_problem(dims=(4, 4, 4), cols=3, seed=7)
        d = NormDescriptor(1, ("L", "L", "L"))
        state, lay = random_state(problem, d, seed=7)
        opts = SolverOptions(beta=0.5)
        comps = update_tensors(state, problem, opts)
        for c in range(3):
            def f(X, c=c):
                trial = [X if i == c else comps[i] for i in range(3)]
                return tensor_block_objective(state, problem, opts, trial)

            grad = central_difference_gradient(f, comps[c].copy())
            assert np.linalg.norm(grad) < 1e-10


class TestUpdateAuxiliaries:
    def test_lambda_zero_identity(self):
        problem = random_problem(seed=8)
        d = NormDescriptor(1, ("S", "O", "O"))
        state, lay = random_state(problem, d, seed=8)
        opts = SolverOptions(lam=0.0, beta=1.0)
        newX, newY, reg = update_auxiliaries(state, opts)
        for mode, _, c in lay.regularized_modes():
            expected = state.components[c] + state.W[mode] / opts.beta
            assert np.array_equal(newY[mode], expected)
        assert np.array_equal(newX, state.M + state.WM / opts.beta)

    def test_huge_threshold_zeroes_auxiliaries(self):
        problem = random_problem(seed=9)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, _ = random_state(problem, d, seed=9)
        opts = SolverOptions(lam=1e9, beta=1.0)
        newX, newY, reg = update_auxiliaries(state, opts)
        assert all(np.max(np.abs(Y)) < 1e-10 for Y in newY.values())
        assert np.max(np.abs(newX)) < 1e-10
        assert reg == 0.0

    # n = 12 puts every unfolding, the coupled block too, on the Gram route of svt
    @pytest.mark.parametrize("n", [6, 12])
    def test_svt_optimality_per_mode(self, n):
        problem = random_problem(dims=(n, n, n), seed=10)
        d = NormDescriptor(1, ("O", "S", "O"))
        state, lay = random_state(problem, d, seed=10)
        opts = SolverOptions(lam=0.8, beta=1.0)
        newX, newY, _ = update_auxiliaries(state, opts)
        from coupled_completion.tensor_ops import concat_mode1

        for mode, scale, c in lay.regularized_modes():
            arg = unfold(state.components[c] + state.W[mode] / opts.beta, mode)
            Z = unfold(newY[mode], mode)
            if mode == lay.coupled_mode:
                arg = concat_mode1(arg, state.M + state.WM / opts.beta)
                Z = concat_mode1(Z, newX)
            assert_svt_optimal(arg, Z, opts.lam * scale / opts.beta)


class TestUpdateDuals:
    def test_feasible_state_unchanged(self):
        problem = random_problem(seed=11)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, lay = random_state(problem, d, seed=11)
        state.X = state.M.copy()
        for mode, _, c in lay.regularized_modes():
            state.Y[mode] = state.components[c].copy()
        WM, W = update_duals(state, SolverOptions(beta=2.0))
        assert np.array_equal(WM, state.WM)
        for mode in W:
            assert np.array_equal(W[mode], state.W[mode])

    def test_single_step_from_zero(self):
        problem = random_problem(seed=12)
        d = NormDescriptor(1, ("O", "O", "O"))
        state, lay = random_state(problem, d, seed=12)
        state.WM = np.zeros_like(state.WM)
        for mode in state.W:
            state.W[mode] = np.zeros(problem.dims)
        beta = 1.7
        WM, W = update_duals(state, SolverOptions(beta=beta))
        assert np.allclose(WM, beta * (state.M - state.X), atol=1e-14)
        for mode, _, c in lay.regularized_modes():
            assert np.allclose(
                W[mode], beta * (state.components[c] - state.Y[mode]), atol=1e-14
            )

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
        assert np.array_equal(r1.objective_trace, r2.objective_trace)
        assert np.array_equal(r1.primal_residual_trace, r2.primal_residual_trace)

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

    def test_traces_have_iteration_length(self):
        problem = random_problem(seed=23)
        res = solve(problem, NormDescriptor(1, ("O", "O", "O")), SolverOptions(lam=0.5))
        assert len(res.primal_residual_trace) == res.iterations
        assert len(res.dual_residual_trace) == res.iterations
        assert len(res.objective_trace) == res.iterations

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
        assert np.array_equal(res.objective_trace, ref.objective_trace)

    def test_rejects_iteration_cap_below_one(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverOptions(max_iters=0)

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
