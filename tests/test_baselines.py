"""Tests for the reference completion methods."""

import re
from dataclasses import replace

import numpy as np
import pytest

from coupled_completion import datagen
from coupled_completion.baselines import (
    RIDGE,
    _masked_ls_rows,
    complete_tensor,
    coupled_cp_als,
    individual_problem,
)
from coupled_completion.prox import spectral_norm
from coupled_completion.solver import SolverOptions, path, solve
from coupled_completion.tensor_ops import ObservationMask, mask_apply
from test_solver import assert_same_fit


def low_rank_matrix(shape, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))


def random_mask(shape, density, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    picks = rng.choice(total, size=int(density * total), replace=False)
    return ObservationMask(shape, np.array(np.unravel_index(picks, shape)).T)


class TestMtn:
    def test_lambda_zero_full_mask_exact(self):
        M = low_rank_matrix((6, 5), 3, seed=0)
        res = solve(*individual_problem("MTN", M, ObservationMask.full(M.shape)), SolverOptions(lam=0.0))
        assert res.converged
        assert np.max(np.abs(res.matrix - M)) < 1e-5

    def test_large_lambda_zero_solution(self):
        M = low_rank_matrix((6, 5), 3, seed=1)
        mask = random_mask(M.shape, 0.6, seed=1)
        lam = 1.05 * spectral_norm(mask_apply(M, mask))
        res = solve(*individual_problem("MTN", M, mask), SolverOptions(lam=lam))
        assert res.converged
        assert np.max(np.abs(res.matrix)) < 1e-5

    def test_noiseless_recovery_after_cv(self):
        M = low_rank_matrix((20, 30), 2, seed=2)
        train = random_mask(M.shape, 0.7, seed=2)
        val = random_mask(M.shape, 0.1, seed=3)
        test = random_mask(M.shape, 0.1, seed=4)
        best = None
        opts = SolverOptions(tol_primal=1e-5, tol_dual=1e-5)
        for res in path(*individual_problem("MTN", M, train), np.geomspace(1e-3, 1.0, 10)[::-1], opts)[::-1]:
            ix = val.as_tuple()
            mse = float(np.mean((M[ix] - res.matrix[ix]) ** 2))
            if best is None or mse <= best[0]:
                best = (mse, res)
        ix = test.as_tuple()
        assert float(np.mean((M[ix] - best[1].matrix[ix]) ** 2)) < 1e-3


class TestCompleteTensor:
    def test_lambda_zero_full_mask_exact(self):
        T = np.random.default_rng(5).standard_normal((4, 4, 4))
        res = complete_tensor(T, ObservationMask.full(T.shape), "overlapped", 0.0)
        assert res.converged
        assert np.max(np.abs(res.tensor - T)) < 1e-5

    def test_rejects_unknown_norm(self):
        T = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match="norm must be"):
            complete_tensor(T, ObservationMask.full(T.shape), "latent", 0.1)

    @pytest.mark.parametrize("norm, norm_id", [("overlapped", "OTN"), ("scaled_latent", "SLTN")])
    def test_is_the_coupled_solver_with_an_empty_matrix_bit_for_bit(self, norm, norm_id):
        T = np.random.default_rng(6).standard_normal((5, 5, 5))
        mask = random_mask(T.shape, 0.6, seed=6)
        opts = SolverOptions(lam=2.0, tol_primal=1e-6, tol_dual=1e-6)
        res = complete_tensor(T, mask, norm, 0.4, opts)
        res2 = solve(*individual_problem(norm_id, T, mask), replace(opts, lam=0.4))
        assert_same_fit(res, res2)

    @pytest.mark.parametrize("norm_id", ["CP", "1:(O,O,O)", "otn"])
    def test_individual_problem_rejects_an_id_that_is_no_convex_baseline(self, norm_id):
        T = np.zeros((2, 2, 2))
        with pytest.raises(ValueError, match=re.escape(f"norm_id must be one of ['MTN', 'OTN', 'SLTN'], got {norm_id!r}")):
            individual_problem(norm_id, T, ObservationMask.full(T.shape))

    def test_lambda_argument_wins_over_options(self):
        T = np.random.default_rng(7).standard_normal((4, 4, 4))
        mask = random_mask(T.shape, 0.7, seed=7)
        opts = SolverOptions(lam=123.0, max_iters=100)
        res = complete_tensor(T, mask, "scaled_latent", 0.2, opts)
        # lam=123 would have annihilated the solution entirely
        assert np.max(np.abs(res.tensor)) > 1e-3

    def test_noiseless_recovery_after_cv(self):
        spec = datagen.SyntheticSpec(
            dims=(15, 15, 15),
            multilinear_rank=(2, 2, 2),
            matrix_cols=10,
            matrix_rank=2,
            shared=0,
            noise_mean=0.0,
            noise_std=0.0,
            seed=8,
        )
        T = datagen.gen_tensor(spec, np.random.default_rng(spec.seed))
        train, val, test = datagen.gen_masks(T.shape, datagen.MaskSpec(0.7, 0.1, 8))
        best = None
        opts = SolverOptions(tol_primal=1e-5, tol_dual=1e-5)
        for res in path(*individual_problem("OTN", T, train), np.geomspace(1e-3, 1.0, 10)[::-1], opts)[::-1]:
            ix = val.as_tuple()
            mse = float(np.mean((T[ix] - res.tensor[ix]) ** 2))
            if best is None or mse <= best[0]:
                best = (mse, res)
        ix = test.as_tuple()
        assert float(np.mean((T[ix] - best[1].tensor[ix]) ** 2)) < 1e-3


def planted_cp(dims, cols, rank, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dims[0], rank))
    B = rng.standard_normal((dims[1], rank))
    C = rng.standard_normal((dims[2], rank))
    V = rng.standard_normal((cols, rank))
    T = np.einsum("ir,jr,kr->ijk", A, B, C)
    M = A @ V.T
    return T, M


class TestCoupledCpAls:
    def test_planted_model_objective_vanishes(self):
        T, M = planted_cp((6, 6, 6), 4, rank=2, seed=9)
        factors = coupled_cp_als(
            T,
            M,
            ObservationMask.full(T.shape),
            ObservationMask.full(M.shape),
            rank=2,
            iters=200,
            seed=1,
        )
        assert factors.objective_trace[-1] < 1e-8
        assert len(factors.objective_trace) <= 200

    def test_rank_zero_rejected(self):
        T = np.zeros((2, 2, 2))
        M = np.zeros((2, 2))
        with pytest.raises(ValueError):
            coupled_cp_als(
                T, M, ObservationMask.full(T.shape), ObservationMask.full(M.shape), rank=0
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"rank": 2.5}, "rank must be integer and >= 1, got 2.5"),
         ({"rank": True}, "rank must be integer and >= 1, got True"),
         ({"iters": 0}, "iters must be integer and >= 1, got 0"),
         ({"iters": -3}, "iters must be integer and >= 1, got -3"),
         ({"seed": -1}, "seed must be integer and >= 0, got -1")],
    )
    def test_rejects_a_bad_rank_sweep_count_or_seed(self, kwargs, message):
        # iters=0 once returned the random initial factors as a fit
        T, M = np.zeros((2, 2, 2)), np.zeros((2, 2))
        masks = ObservationMask.full(T.shape), ObservationMask.full(M.shape)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coupled_cp_als(T, M, *masks, **{"rank": 1, **kwargs})

    def test_rank_one_recovery_up_to_scale(self):
        T, M = planted_cp((8, 8, 8), 5, rank=1, seed=10)
        factors = coupled_cp_als(
            T,
            M,
            ObservationMask.full(T.shape),
            ObservationMask.full(M.shape),
            rank=1,
            iters=300,
            seed=2,
        )
        rng = np.random.default_rng(10)
        A_true = rng.standard_normal((8, 1))
        cosine = abs(float(A_true[:, 0] @ factors.A[:, 0])) / (
            np.linalg.norm(A_true) * np.linalg.norm(factors.A[:, 0])
        )
        assert cosine > 0.999

    def test_monotone_objective_on_random_data(self):
        rng = np.random.default_rng(11)
        T = rng.standard_normal((5, 6, 4))
        M = rng.standard_normal((5, 3))
        factors = coupled_cp_als(
            T,
            M,
            random_mask(T.shape, 0.7, seed=11),
            random_mask(M.shape, 0.7, seed=12),
            rank=3,
            iters=60,
            seed=3,
        )
        diffs = np.diff(factors.objective_trace)
        assert np.all(diffs <= 1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        T = rng.standard_normal((4, 4, 4))
        M = rng.standard_normal((4, 3))
        masks = (
            random_mask(T.shape, 0.8, seed=13),
            random_mask(M.shape, 0.8, seed=14),
        )
        f1 = coupled_cp_als(T, M, *masks, rank=2, iters=20, seed=5)
        f2 = coupled_cp_als(T, M, *masks, rank=2, iters=20, seed=5)
        assert np.array_equal(f1.A, f2.A)
        assert np.array_equal(f1.objective_trace, f2.objective_trace)

    def test_reconstruction_shapes(self):
        T, M = planted_cp((3, 4, 5), 6, rank=2, seed=15)
        factors = coupled_cp_als(
            T,
            M,
            ObservationMask.full(T.shape),
            ObservationMask.full(M.shape),
            rank=2,
            iters=10,
            seed=0,
        )
        assert factors.reconstruct_tensor().shape == (3, 4, 5)
        assert factors.reconstruct_matrix().shape == (3, 6)

    def test_converged_only_when_tolerance_met(self):
        T, M = planted_cp((6, 6, 6), 4, rank=2, seed=9)
        masks = (ObservationMask.full(T.shape), ObservationMask.full(M.shape))
        assert not coupled_cp_als(T, M, *masks, rank=2, iters=1, seed=1).converged
        factors = coupled_cp_als(T, M, *masks, rank=2, iters=200, seed=1)
        assert factors.converged and len(factors.objective_trace) < 200

    @pytest.mark.parametrize("part, bad", [("tensor", np.nan), ("matrix", np.inf)])
    def test_rejects_non_finite_observed_entry(self, part, bad):
        T, M = planted_cp((4, 5, 3), 6, rank=2, seed=16)
        data = {"tensor": T, "matrix": M}
        data[part][(1,) * data[part].ndim] = bad
        with pytest.raises(ValueError, match=f"observed {part} entry at .* is not finite"):
            coupled_cp_als(
                T, M, ObservationMask.full(T.shape), ObservationMask.full(M.shape), rank=2
            )


class TestMaskedLsRows:
    def test_matches_per_row_ridge_solve(self):
        rng = np.random.default_rng(18)
        design = rng.standard_normal((12, 3))
        obs = (rng.random((7, 12)) < 0.5).astype(float)
        obs[2] = 0.0  # a row with no observed column
        obs[4] = 1.0
        target = rng.standard_normal((7, 12)) * obs
        out = _masked_ls_rows(design, target, obs)
        for i in range(7):
            D = design[obs[i] > 0]
            ref = np.linalg.solve(D.T @ D + RIDGE * np.eye(3), D.T @ target[i, obs[i] > 0])
            assert np.allclose(out[i], ref, rtol=1e-12, atol=0)
        assert np.array_equal(out[2], np.zeros(3))
