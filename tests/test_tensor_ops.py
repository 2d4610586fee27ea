"""Tests for the dense 3-way tensor algebra."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_completion.tensor_ops import (
    NON_NEGATIVE,
    POSITIVE,
    REAL,
    ObservationMask,
    check_mode,
    check_settings,
    fold,
    mask_apply,
    tucker_synthesize,
    unfold,
)


def brute_force_unfold(T, k):
    """Independent index-enumeration oracle for the mode-k unfolding.

    Loops over every (i, j, l) and places T[i, j, l] at (row, col) where the
    row is the mode-k index and the column enumerates the remaining indices
    with the lower mode varying fastest.
    """
    n1, n2, n3 = T.shape
    dims = (n1, n2, n3)
    rest = [d for m, d in enumerate(dims, start=1) if m != k]
    out = np.zeros((dims[k - 1], rest[0] * rest[1]))
    for i in range(n1):
        for j in range(n2):
            for l in range(n3):
                idx = (i, j, l)
                row = idx[k - 1]
                others = [x for m, x in enumerate(idx, start=1) if m != k]
                col = others[0] + rest[0] * others[1]
                out[row, col] = T[i, j, l]
    return out


class TestCheckSettings:
    @pytest.mark.parametrize(
        "value", [3, np.int64(3), (1, 2, 3), [np.int32(1), 2], np.arange(1, 4)],
        ids=["int", "np.int64", "tuple", "mixed list", "int array"],
    )
    def test_accepts_integers_alone_or_in_arrays(self, value):
        check_settings({"value": value}, value=1)

    @pytest.mark.parametrize(
        "value",
        [True, False, np.True_, (True, 5, 5), np.array([1, 0], dtype=bool), 2.0, (1, 2.5), 0, (3, -1),
         "1"],
        ids=["True", "False", "np.True_", "bool in tuple", "bool array", "float", "float in tuple",
             "below", "below in tuple", "string"],
    )
    def test_rejects_booleans_non_integers_and_values_below_the_bound(self, value):
        with pytest.raises(ValueError, match="^value must be integer and >= 1, got "):
            check_settings({"value": value}, value=1)

    @pytest.mark.parametrize("rule", [REAL, NON_NEGATIVE, POSITIVE])
    @pytest.mark.parametrize("value", [1, 0.5, np.float64(2.0), np.int64(3), np.float32(0.25), 10**400])
    def test_accepts_python_and_numpy_reals(self, rule, value):
        check_settings({"x": value}, x=rule)

    @pytest.mark.parametrize(
        "value, rule",
        [(np.nan, REAL), (np.inf, REAL), (-np.inf, NON_NEGATIVE), (True, REAL), (np.True_, REAL),
         ("1", REAL), (None, REAL), ([1.0], REAL), (-1e-300, NON_NEGATIVE), (0.0, POSITIVE),
         (0, POSITIVE), (np.float64(np.nan), POSITIVE)],
    )
    def test_rejects_non_finite_non_real_and_out_of_range_reals(self, value, rule):
        with pytest.raises(ValueError, match=f"^x must be {rule}, got "):
            check_settings({"x": value}, x=rule)

    def test_accepts_zero_unless_positive_and_negatives_when_unbounded(self):
        check_settings({"a": 0.0, "b": -2.5}, a=NON_NEGATIVE, b=REAL)

    @pytest.mark.parametrize(
        "value, rule, message",
        [("false", bool, "flag must be bool, got 'false'"), (1, bool, "flag must be bool, got 1"),
         (7, str, "flag must be str, got 7"), (7, (str, type(None)), "flag must be str or None, got 7")],
    )
    def test_type_rules_name_the_type(self, value, rule, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_settings({"flag": value}, flag=rule)
        check_settings({"flag": rule() if rule in (bool, str) else None}, flag=rule)

    def test_checks_in_rule_order(self):
        with pytest.raises(ValueError, match="^b must"):
            check_settings({"a": 1, "b": True, "c": np.nan}, a=1, b=REAL, c=REAL)


class TestCheckMode:
    @pytest.mark.parametrize("k", [1, 2, 3, np.int64(2)])
    def test_returns_the_axis(self, k):
        assert check_mode(k) == k - 1

    @pytest.mark.parametrize("k", [0, 4, True, np.True_, 1.0, "1", None])
    def test_rejects_anything_but_the_integers_1_to_3(self, k):
        with pytest.raises(ValueError, match=f"^mode must be 1, 2 or 3, got {re.escape(repr(k))}$"):
            check_mode(k)

    def test_names_the_setting_and_raises_the_given_error(self):
        class Custom(ValueError):
            pass

        with pytest.raises(Custom, match="^coupled_mode must be 1, 2 or 3, got True$"):
            check_mode(True, "coupled_mode", Custom)


class TestUnfold:
    def test_constant_tensor(self):
        T = np.ones((2, 3, 4))
        M = unfold(T, 2)
        assert M.shape == (3, 8)
        assert np.array_equal(M, np.ones((3, 8)))

    def test_mode_aligned_constant(self):
        # T[i, j, l] = i (1-based) makes every mode-1 row constant
        T = np.fromfunction(lambda i, j, l: i + 1, (3, 4, 5))
        M = unfold(T, 1)
        for i in range(3):
            assert np.all(M[i] == i + 1)

    def test_enumerated_entries_match_oracle(self):
        T = np.arange(1, 9, dtype=float).reshape((2, 2, 2))
        for k in (1, 2, 3):
            assert np.array_equal(unfold(T, k), brute_force_unfold(T, k))

    def test_shapes(self):
        T = np.zeros((2, 3, 4))
        assert unfold(T, 1).shape == (2, 12)
        assert unfold(T, 2).shape == (3, 8)
        assert unfold(T, 3).shape == (4, 6)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 0)
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), 4)

    def test_a_boolean_is_not_a_mode(self):
        # True == 1, so a membership test in (1, 2, 3) would take it as mode 1
        with pytest.raises(ValueError, match="mode must be 1, 2 or 3, got True"):
            unfold(np.zeros((2, 2, 2)), True)
        with pytest.raises(ValueError, match="mode must be 1, 2 or 3, got True"):
            fold(np.zeros((2, 4)), True, (2, 2, 2))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((3, 4, 2))
        S = rng.standard_normal((3, 4, 2))
        for k in (1, 2, 3):
            assert np.allclose(
                unfold(2.5 * T - 3.0 * S, k),
                2.5 * unfold(T, k) - 3.0 * unfold(S, k),
                atol=1e-14,
            )

    def test_inner_product_is_invariant_across_unfoldings(self):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((3, 4, 5))
        S = rng.standard_normal((3, 4, 5))
        base = np.vdot(T, S)
        for k in (1, 2, 3):
            assert abs(np.vdot(unfold(T, k), unfold(S, k)) - base) <= 1e-12


class TestFold:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        # zero-length modes included: the MTN baseline solves on a (n1, 0, 0) tensor
        for dims in ((3, 4, 5), (4, 0, 0), (3, 0, 2)):
            T = rng.standard_normal(dims)
            for k in (1, 2, 3):
                assert np.array_equal(fold(unfold(T, k), k, dims), T)

    def test_zero_matrix(self):
        assert np.array_equal(fold(np.zeros((3, 8)), 2, (2, 3, 4)), np.zeros((2, 3, 4)))

    def test_fold_of_enumerated_oracle(self):
        T = np.arange(1, 9, dtype=float).reshape((2, 2, 2))
        rebuilt = fold(brute_force_unfold(T, 3), 3, (2, 2, 2))
        assert np.array_equal(rebuilt, T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 7)), 2, (2, 3, 4))

    @pytest.mark.parametrize("dims", [(2, 3, 4, 1), (2, 12)])
    def test_rejects_dims_without_three_entries(self, dims):
        with pytest.raises(ValueError, match="dims must have three entries"):
            fold(np.zeros((2, 12)), 1, dims)

    @given(
        st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
        ),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_bit_exact(self, dims, k, seed):
        T = np.random.default_rng(seed).standard_normal(dims)
        assert np.array_equal(fold(unfold(T, k), k, dims), T)


class TestCoupledUnfolding:
    """The coupled unfolding ``unfold(T, k, M)``: the matrix appended to ``T_(k)``."""

    def test_identity_left_block(self):
        T = fold(np.eye(2), 1, (2, 1, 2))
        out = unfold(T, 1, np.ones((2, 1)))
        assert out.shape == (2, 3)
        assert np.array_equal(out[:, :2], np.eye(2))
        assert np.array_equal(out[:, 2], np.ones(2))

    def test_empty_right_block(self):
        T = np.arange(24.0).reshape(2, 3, 4)
        for k in (1, 2, 3):
            assert np.array_equal(unfold(T, k, np.zeros((T.shape[k - 1], 0))), unfold(T, k))

    def test_frobenius_additivity(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((3, 4, 2))
        for k in (1, 2, 3):
            M = rng.standard_normal((T.shape[k - 1], 2))
            lhs = np.linalg.norm(unfold(T, k, M)) ** 2
            rhs = np.linalg.norm(T) ** 2 + np.linalg.norm(M) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_row_mismatch(self):
        T = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match=re.escape("M must be 2-d with a row per index of T's mode 2, got shape (2, 2)")):
            unfold(T, 2, np.zeros((2, 2)))

    def test_matrix_block_follows_the_unfolding(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 4, 2))
        for k in (1, 2, 3):
            M = rng.standard_normal((T.shape[k - 1], 5))
            assert np.array_equal(unfold(T, k, M), np.hstack([brute_force_unfold(T, k), M]))


def brute_force_kron(A, B):
    """Kronecker product by an explicit double loop."""
    m, n = A.shape
    p, q = B.shape
    out = np.zeros((m * p, n * q))
    for i in range(m):
        for j in range(n):
            out[i * p : (i + 1) * p, j * q : (j + 1) * q] = A[i, j] * B
    return out


class TestTuckerSynthesize:
    def test_rank1_outer_product(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.6], [0.8]])
        w = np.array([[0.0], [1.0]])
        core = np.full((1, 1, 1), 2.0)
        T = tucker_synthesize(core, u, v, w)
        expected = 2.0 * np.einsum("i,j,k->ijk", u[:, 0], v[:, 0], w[:, 0])
        assert np.allclose(T, expected, atol=1e-14)

    def test_corner_embedding(self):
        core = np.random.default_rng(3).standard_normal((2, 2, 2))
        factors = [np.eye(4)[:, :2], np.eye(3)[:, :2], np.eye(5)[:, :2]]
        T = tucker_synthesize(core, *factors)
        assert np.allclose(T[:2, :2, :2], core, atol=1e-14)
        T[:2, :2, :2] = 0.0
        assert np.all(T == 0.0)

    def test_kronecker_identity_oracle(self):
        rng = np.random.default_rng(4)
        core = rng.standard_normal((2, 3, 2))
        U1, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        U2, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        U3, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        T = tucker_synthesize(core, U1, U2, U3)
        expected = U1 @ unfold(core, 1) @ brute_force_kron(U3, U2).T
        assert np.max(np.abs(unfold(T, 1) - expected)) < 1e-10

    def test_rejects_non_orthonormal_factor(self):
        core = np.zeros((2, 2, 2))
        bad = np.ones((4, 2))
        ok = np.eye(4)[:, :2]
        with pytest.raises(ValueError, match="orthonormal"):
            tucker_synthesize(core, bad, ok, ok)

    def test_rejects_shape_mismatch(self):
        core = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            tucker_synthesize(core, np.eye(4)[:, :3], np.eye(4)[:, :2], np.eye(4)[:, :2])

    def test_rejects_a_core_that_is_not_3_way(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match=re.escape("core must be 3-way, got shape (2, 2)")):
            tucker_synthesize(np.ones((2, 2)), eye, eye, eye)


class TestObservationMask:
    def test_sorted_and_deduplicated(self):
        mask = ObservationMask((3, 3), np.array([[2, 1], [0, 0], [1, 2]]))
        assert np.array_equal(mask.indices, [[0, 0], [1, 2], [2, 1]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationMask((3, 3), np.array([[1, 1], [1, 1]]))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            ObservationMask((2, 2), np.array([[2, 0]]))

    def test_full_and_empty(self):
        assert len(ObservationMask.full((2, 3, 4))) == 24
        assert len(ObservationMask.empty((2, 3, 4))) == 0

    @pytest.mark.parametrize(
        "indices", [[[0.5, 1.7]], np.array([[0.0, 1.0]]), np.array([[True, False]])],
        ids=["fractional", "integral-float", "bool"],
    )
    def test_rejects_indices_that_are_not_integers(self, indices):
        with pytest.raises(ValueError, match="must be integers"):
            ObservationMask((3, 3), indices)

    def test_accepts_an_empty_index_list(self):
        assert len(ObservationMask((3, 3), [])) == 0
        assert ObservationMask((3, 3), []).indices.shape == (0, 2)
        assert ObservationMask((3, 3), np.array([[2, 1]], dtype=np.uint8)).indices.tolist() == [[2, 1]]

    @pytest.mark.parametrize("indices", [np.empty((0, 5)), np.zeros((1, 5), dtype=int)],
                             ids=["empty", "one-row"])
    def test_rejects_indices_of_the_wrong_width_even_when_empty(self, indices):
        with pytest.raises(ValueError, match=re.escape(f"indices must be (n, 3), got {indices.shape}")):
            ObservationMask((3, 3, 3), indices)

    def test_a_list_shape_is_kept_as_a_tuple_of_ints(self):
        mask = ObservationMask([2, np.int64(2)], [[0, 1]])
        assert mask.shape == (2, 2) and all(type(n) is int for n in mask.shape)
        assert np.array_equal(mask_apply(np.ones((2, 2)), mask), [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(2, -1), (2.0, 2)], ids=["negative", "float"])
    def test_rejects_a_shape_entry_that_is_not_an_integer_at_least_zero(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape must be integer and >= 0, got {shape!r}")):
            ObservationMask(shape, [])

    def test_rejects_a_scalar_shape(self):
        # the integer rule takes a lone integer, so the shape needs its own rule
        with pytest.raises(ValueError, match="shape must be a sequence of integers >= 0, got 5"):
            ObservationMask(5, [])

    def test_indicator(self):
        mask = ObservationMask((2, 2), np.array([[0, 1]]))
        assert np.array_equal(mask.indicator(), [[0.0, 1.0], [0.0, 0.0]])


class TestMaskApply:
    def test_full_mask_identity(self):
        X = np.random.default_rng(7).standard_normal((3, 4))
        assert np.array_equal(mask_apply(X, ObservationMask.full(X.shape)), X)

    def test_empty_mask_zero(self):
        X = np.ones((2, 2, 2))
        assert np.all(mask_apply(X, ObservationMask.empty(X.shape)) == 0.0)

    def test_energy_equals_sum_over_mask(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 4, 4))
        idx = rng.choice(64, size=20, replace=False)
        triples = np.array(np.unravel_index(idx, (4, 4, 4))).T
        mask = ObservationMask((4, 4, 4), triples)
        expected = sum(X[tuple(t)] ** 2 for t in triples)
        assert np.linalg.norm(mask_apply(X, mask)) ** 2 == pytest.approx(
            expected, rel=1e-12
        )

    def test_orthogonal_projection(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 5))
        pairs = np.array(np.unravel_index(rng.choice(25, 10, replace=False), (5, 5))).T
        mask = ObservationMask((5, 5), pairs)
        P = mask_apply(X, mask)
        assert np.array_equal(mask_apply(P, mask), P)  # idempotent
        assert np.vdot(P, X - P) == pytest.approx(0.0, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("X must have the mask's shape (3, 3), got (2, 2)")):
            mask_apply(np.zeros((2, 2)), ObservationMask.full((3, 3)))
