"""Tests for synthetic coupled instance generation."""

import re

import numpy as np
import pytest

from coupled_completion.datagen import (
    MaskSpec,
    SyntheticSpec,
    add_noise,
    gen_coupled_matrix,
    gen_instance,
    gen_masks,
    gen_tensor,
)
from coupled_completion.prox import numerical_rank
from coupled_completion.tensor_ops import unfold


def principal_angle_sines(A, B):
    """Sines of the principal angles between two orthonormal column spans.

    The sine formulation stays accurate for tiny angles, where arccos of the
    cosine loses everything to roundoff.
    """
    return np.linalg.svd(B - A @ (A.T @ B), compute_uv=False)


class TestSyntheticSpec:
    def test_defaults_follow_reference_protocol(self):
        spec = SyntheticSpec()
        assert spec.dims == (20, 20, 20)
        assert spec.multilinear_rank == (5, 5, 5)
        assert (spec.noise_mean, spec.noise_std) == (0.01, 1.0)

    def test_low_noise_preset(self):
        spec = SyntheticSpec.low_noise(seed=3)
        assert (spec.noise_mean, spec.noise_std) == (0.0, 0.01)
        assert spec.seed == 3

    def test_rejects_rank_over_dims(self):
        with pytest.raises(ValueError):
            SyntheticSpec(dims=(4, 4, 4), multilinear_rank=(5, 4, 4))

    def test_rejects_shared_over_rank(self):
        with pytest.raises(ValueError):
            SyntheticSpec(matrix_rank=3, shared=4)

    @pytest.mark.parametrize("name", ["noise_mean", "noise_std"])
    def test_rejects_non_finite_noise(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SyntheticSpec(**{name: np.nan})

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"dims": (4.5, 4, 4)}, "dims must be integer and >= 1"),
         ({"dims": (0, 4, 4), "multilinear_rank": (0, 2, 2), "matrix_rank": 0, "shared": 0},
          "dims must be integer and >= 1"),
         ({"multilinear_rank": (5, 5, 5.0)}, "multilinear_rank must be integer and >= 0"),
         ({"multilinear_rank": (-1, 5, 5)}, "multilinear_rank must be integer and >= 0"),
         ({"matrix_cols": 0}, "matrix_cols must be integer and >= 1"),
         ({"matrix_cols": 30.0}, "matrix_cols must be integer and >= 1"),
         ({"matrix_rank": np.nan}, "matrix_rank must be integer and >= 0"),
         ({"shared": -1}, "shared must be integer and >= 0"),
         ({"shared": 2.5}, "shared must be integer and >= 0"),
         ({"dims": (6, 6, 6, 6)}, "dims and multilinear_rank need three entries"),
         ({"dims": (6, 6), "multilinear_rank": (2, 2)}, "dims and multilinear_rank need three entries")],
    )
    def test_rejects_non_integer_or_out_of_range_size(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be integer and >= 0, got {seed}"):
            SyntheticSpec(seed=seed)

    def test_accepts_numpy_integer_sizes(self):
        spec = SyntheticSpec(
            dims=tuple(np.arange(6, 9)), multilinear_rank=(np.int32(2),) * 3,
            matrix_cols=np.int64(4), matrix_rank=np.int64(2), shared=np.int8(0),
        )
        T, M = gen_instance(spec)
        assert T.shape == (6, 7, 8) and M.shape == (6, 4)


class TestGenTensor:
    def test_rank_one(self):
        spec = SyntheticSpec(dims=(6, 6, 6), multilinear_rank=(1, 1, 1), matrix_rank=1, shared=1)
        T = gen_tensor(spec, np.random.default_rng(spec.seed))
        for k in (1, 2, 3):
            assert numerical_rank(unfold(T, k), rtol=1e-10) == 1

    def test_full_rank(self):
        spec = SyntheticSpec(dims=(4, 4, 4), multilinear_rank=(4, 4, 4), matrix_rank=4, shared=0)
        T = gen_tensor(spec, np.random.default_rng(spec.seed))
        for k in (1, 2, 3):
            assert numerical_rank(unfold(T, k), rtol=1e-10) == 4

    def test_multilinear_rank_five(self):
        spec = SyntheticSpec(seed=1)
        T = gen_tensor(spec, np.random.default_rng(spec.seed))
        for k in (1, 2, 3):
            s = np.linalg.svd(unfold(T, k), compute_uv=False)
            assert np.all(s[5:] < 1e-10 * s[0])

    def test_reproducible(self):
        spec = SyntheticSpec(seed=9)
        assert np.array_equal(
            gen_tensor(spec, np.random.default_rng(spec.seed)),
            gen_tensor(spec, np.random.default_rng(spec.seed)),
        )


class TestGenCoupledMatrix:
    def test_no_sharing_keeps_rank(self):
        spec = SyntheticSpec(shared=0, seed=2)
        rng = np.random.default_rng(2)
        T = gen_tensor(spec, rng)
        X = gen_coupled_matrix(T, spec, rng)
        assert X.shape == (20, 30)
        assert numerical_rank(X, rtol=1e-10) == 5

    def test_full_sharing_aligns_subspaces(self):
        spec = SyntheticSpec(shared=5, matrix_rank=5, seed=3)
        rng = np.random.default_rng(3)
        T = gen_tensor(spec, rng)
        X = gen_coupled_matrix(T, spec, rng)
        Ux = np.linalg.svd(X, full_matrices=False)[0][:, :5]
        Un = np.linalg.svd(unfold(T, 1), full_matrices=False)[0][:, :5]
        assert np.max(principal_angle_sines(Ux, Un)) < 1e-10

    def test_partial_sharing_angles(self):
        spec = SyntheticSpec(shared=3, matrix_rank=5, seed=4)
        rng = np.random.default_rng(4)
        T = gen_tensor(spec, rng)
        X = gen_coupled_matrix(T, spec, rng)
        Ux = np.linalg.svd(X, full_matrices=False)[0][:, :3]
        Un = np.linalg.svd(unfold(T, 1), full_matrices=False)[0][:, :3]
        assert np.max(principal_angle_sines(Ux, Un)) < 1e-8

    def test_coupling_collapses_concat_rank(self):
        spec = SyntheticSpec(shared=5, matrix_rank=5, seed=5)
        rng = np.random.default_rng(5)
        T = gen_tensor(spec, rng)
        X = gen_coupled_matrix(T, spec, rng)
        assert numerical_rank(np.hstack([unfold(T, 1), X]), rtol=1e-10) == 5


class TestAddNoise:
    def test_zero_std_shifts_by_mean(self):
        X = np.zeros((3, 3))
        assert np.array_equal(add_noise(X, 0.25, 0.0, 0), np.full((3, 3), 0.25))

    def test_moments(self):
        noise = add_noise(np.zeros(1_000_000), 0.0, 1.0, 42)
        assert abs(noise.mean()) < 0.01
        assert abs(noise.var() - 1.0) < 0.01

    def test_deterministic(self):
        X = np.ones((4, 5))
        assert np.array_equal(add_noise(X, 0.1, 2.0, 7), add_noise(X, 0.1, 2.0, 7))

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(3), 0.0, -1.0, 0)

    @pytest.mark.parametrize(
        "mean, std, message",
        [(0.0, np.nan, "std must be finite and >= 0, got nan"),
         (0.0, np.inf, "std must be finite and >= 0, got inf"),
         (np.nan, 1.0, "mean must be finite, got nan")],
        ids=["0.0-nan", "0.0-inf", "nan-1.0"],
    )
    def test_rejects_non_finite_mean_or_std(self, mean, std, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            add_noise(np.zeros(3), mean, std, 0)


class TestGenInstance:
    def test_pure_function_of_spec(self):
        spec = SyntheticSpec(seed=11)
        T1, M1 = gen_instance(spec)
        T2, M2 = gen_instance(spec)
        assert np.array_equal(T1, T2)
        assert np.array_equal(M1, M2)

    def test_tensor_then_matrix_from_one_rng(self):
        spec = SyntheticSpec(seed=13)
        rng = np.random.default_rng(spec.seed)
        T_clean = gen_tensor(spec, rng)
        M_clean = gen_coupled_matrix(T_clean, spec, rng)
        T, M = gen_instance(spec)
        noise = SyntheticSpec().noise_mean, SyntheticSpec().noise_std
        assert np.array_equal(T, add_noise(T_clean, *noise, spec.seed + 101))
        assert np.array_equal(M, add_noise(M_clean, *noise, spec.seed + 102))

    def test_noise_applied(self):
        spec = SyntheticSpec(seed=12)
        T_noisy, _ = gen_instance(spec)
        rng = np.random.default_rng(12)
        T_clean = gen_tensor(spec, rng)
        assert np.linalg.norm(T_noisy - T_clean) > 1.0


class TestGenMasks:
    def test_exact_cardinalities(self):
        train, val, test = gen_masks((20, 20, 20), MaskSpec(0.3, 0.1, 0))
        assert len(train) == 2400
        assert len(val) == 800
        assert len(test) == 4800

    def test_disjoint_and_covering(self):
        shape = (6, 5, 4)
        train, val, test = gen_masks(shape, MaskSpec(0.5, 0.2, 1))
        sets = [
            {tuple(row) for row in m.indices} for m in (train, val, test)
        ]
        assert sets[0] & sets[1] == set()
        assert sets[0] & sets[2] == set()
        assert sets[1] & sets[2] == set()
        assert len(sets[0] | sets[1] | sets[2]) == np.prod(shape)

    def test_extreme_fraction_small_shape(self):
        # tiny remainder: test set may come out empty, without error
        train, val, test = gen_masks((2, 2, 1), MaskSpec(0.8, 0.1, 2))
        assert len(test) in (0, 1)
        assert len(train) + len(val) + len(test) == 4

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            MaskSpec(0.8, 0.3, 0)

    @pytest.mark.parametrize(
        "args, message",
        [((0.0, 0.1, 0), "train_fraction must be finite and > 0, got 0.0"),
         ((np.nan, 0.1, 0), "train_fraction must be finite and > 0, got nan"),
         ((0.5, -0.1, 0), "validation_fraction must be finite and >= 0, got -0.1"),
         ((0.5, True, 0), "validation_fraction must be finite and >= 0, got True"),
         ((1.5, 0.0, 0), "train + validation fractions must sum below 1"),
         ((0.5, 0.1, -1), "seed must be integer and >= 0, got -1"),
         ((0.5, 0.1, 1.5), "seed must be integer and >= 0, got 1.5")],
    )
    def test_rejects_a_bad_fraction_or_seed(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            MaskSpec(*args)

    @pytest.mark.parametrize(
        "shape, spec",
        [((50, 50, 50), MaskSpec(0.3, 0.1, 2)), ((50, 100), MaskSpec(0.3, 0.1, 3)),
         ((20, 20, 20), MaskSpec(0.7, 0.1, 1)), ((7, 5, 3), MaskSpec(0.5, 0.2, 2)),
         ((6, 5, 4), MaskSpec(0.6, 0.0, 4)), ((2, 2, 1), MaskSpec(0.8, 0.15, 5))],
        ids=["50^3", "50x100", "20^3", "7x5x3", "no-validation", "no-test"],
    )
    def test_masks_are_the_gather_from_the_grid_of_every_position(self, shape, spec):
        # the masks as they were first built: the rows of the full index grid
        # at one permutation's three slices, each sorted lexicographically
        total = int(np.prod(shape))
        n_train, n_val = round(spec.train_fraction * total), round(spec.validation_fraction * total)
        perm = np.random.default_rng(spec.seed).permutation(total)
        grid = np.indices(shape).reshape(len(shape), -1).T
        for mask, part in zip(gen_masks(shape, spec), np.split(perm, [n_train, n_train + n_val]), strict=True):
            rows = grid[part]
            assert mask.indices.dtype == np.intp and mask.indices.flags.c_contiguous
            assert np.array_equal(mask.indices, rows[np.lexsort(rows.T[::-1])])
            assert mask.indices.shape == (len(part), len(shape))

    def test_an_empty_validation_or_test_set_has_no_rows_of_the_shape_s_width(self):
        _, val, _ = gen_masks((6, 5, 4), MaskSpec(0.6, 0.0, 4))
        _, _, test = gen_masks((2, 2, 1), MaskSpec(0.8, 0.15, 5))
        assert val.indices.shape == test.indices.shape == (0, 3)
        assert val.indices.dtype == test.indices.dtype == np.intp

    def test_deterministic(self):
        a = gen_masks((5, 5, 5), MaskSpec(0.4, 0.1, 3))
        b = gen_masks((5, 5, 5), MaskSpec(0.4, 0.1, 3))
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.indices, mb.indices)
