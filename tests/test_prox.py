"""Tests for the SVD helpers and the singular value thresholding prox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_completion import prox
from coupled_completion.prox import (
    GRAM_MIN_SIDE,
    numerical_rank,
    spectral_norm,
    svd,
    svt,
    trace_norm,
)


def assert_svt_optimal(X, Z, tau, tol=1e-8):
    """Subdifferential check: G = (X - Z)/tau must lie in the trace-norm
    subdifferential at Z, i.e. ||G||_op <= 1 and <G, Z> == ||Z||_tr."""
    G = (X - Z) / tau
    assert spectral_norm(G) <= 1.0 + tol
    assert abs(float(np.sum(G * Z)) - trace_norm(Z)) <= tol * max(1.0, trace_norm(Z))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.S, [3.0, 1.0])

    def test_zero_matrix(self):
        f = svd(np.zeros((3, 2)))
        assert np.all(f.S == 0.0)

    def test_factor_invariants(self):
        X = np.random.default_rng(0).standard_normal((6, 4))
        f = svd(X)
        assert np.allclose(f.U.T @ f.U, np.eye(4), atol=1e-8)
        assert np.allclose(f.Vt @ f.Vt.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(f.S) <= 0)
        assert np.linalg.norm(f.reconstruct() - X) <= 1e-8 * np.linalg.norm(X)

    def test_matches_eigendecomposition_oracle(self):
        X = np.random.default_rng(1).standard_normal((6, 4))
        evals = np.linalg.eigvalsh(X.T @ X)
        oracle = np.sqrt(np.maximum(evals, 0.0))[::-1]
        assert np.allclose(svd(X).S, oracle, atol=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            svd(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("fn", [svd, trace_norm, spectral_norm, numerical_rank])
    @pytest.mark.parametrize("shape", [(2, 3, 4), (3,)])
    def test_every_norm_rejects_non_matrix_alike(self, fn, shape):
        # a 3-way array once gave a trace norm summed over batched SVDs
        with pytest.raises(ValueError, match=f"expected a matrix, got ndim={len(shape)}"):
            fn(np.ones(shape))


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-12)

    def test_rank_one_unit(self):
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0, 0.0])
        assert trace_norm(np.outer(u, v)) == pytest.approx(1.0, abs=1e-12)

    def test_duality_sampling_oracle(self):
        # Hoelder lower bound: max over unit-spectral-norm probes of <X, Y>
        # approaches ||X||_tr when the probes cluster around the dual optimum
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 5))
        tn = trace_norm(X)
        f = svd(X)
        best = 0.0
        for _ in range(10_000):
            Y = f.U @ f.Vt + 0.05 * rng.standard_normal((5, 5))
            Y /= spectral_norm(Y)
            val = float(np.sum(X * Y))
            assert val <= tn + 1e-9  # Hoelder upper bound, always
            best = max(best, val)
        assert best >= 0.98 * tn

    def test_zero_iff_zero(self):
        assert trace_norm(np.zeros((3, 4))) == 0.0
        assert trace_norm(np.full((2, 2), 1e-12)) > 0.0

    @pytest.mark.parametrize(
        "shape, rank",
        [((20, 430), 20), ((430, 20), 20), ((7, 7), 7), ((12, 40), 3), ((0, 5), 0), ((5, 0), 0)],
        ids=["wide", "tall", "square", "rank-deficient", "no-rows", "no-columns"],
    )
    def test_the_triangular_factor_gives_the_svd_value(self, shape, rank):
        # taken from R of a QR of the tall orientation: within max(shape) eps
        # ||X||_2 of the sum of LAPACK's singular values of X itself; 20 x 430
        # is a 20^3 tensor's unfolding with 30 matrix columns appended
        rng = np.random.default_rng(61)
        X = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        expected = float(np.linalg.svd(X, compute_uv=False).sum()) if X.size else 0.0
        slack = max(shape) * np.finfo(float).eps * spectral_norm(X)
        assert abs(trace_norm(X) - expected) <= slack


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_orthogonal(self):
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        assert spectral_norm(Q) == pytest.approx(1.0, abs=1e-10)

    def test_power_iteration_oracle(self):
        X = np.random.default_rng(4).standard_normal((5, 7))
        v = np.ones(7) / np.sqrt(7)
        for _ in range(2000):
            v = X.T @ (X @ v)
            v /= np.linalg.norm(v)
        estimate = np.linalg.norm(X @ v)
        assert spectral_norm(X) == pytest.approx(estimate, abs=1e-6)

    @pytest.mark.parametrize(
        "kind", ["random", "rank_deficient", "wide", "tall", "zero", "huge", "tiny"]
    )
    def test_agrees_with_the_lapack_svd(self, kind):
        # computed from the Gram matrix's largest eigenvalue, not by an SVD
        rng = np.random.default_rng(6)
        X = {
            "random": lambda: rng.standard_normal((20, 20)),
            "rank_deficient": lambda: rng.standard_normal((20, 3)) @ rng.standard_normal((3, 430)),
            "wide": lambda: rng.standard_normal((20, 430)),
            "tall": lambda: rng.standard_normal((430, 20)),
            "zero": lambda: np.zeros((7, 9)),
            "huge": lambda: 1e200 * rng.standard_normal((6, 9)),
            "tiny": lambda: 1e-200 * rng.standard_normal((9, 6)),
        }[kind]()
        expected = float(np.linalg.svd(X, compute_uv=False)[0])
        assert spectral_norm(X) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_empty_matrix_is_zero(self):
        assert spectral_norm(np.zeros((3, 0))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(np.array([[1.0, bad], [0.0, 1.0]]))


class TestNumericalRank:
    def test_exact_low_rank(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        assert numerical_rank(X) == 2

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestSvt:
    def test_tau_zero_is_identity(self):
        X = np.random.default_rng(6).standard_normal((4, 3))
        assert np.array_equal(svt(X, 0.0), X)

    def test_diagonal_thresholding(self):
        assert np.allclose(svt(np.diag([3.0, 1.0]), 1.0), np.diag([2.0, 0.0]), atol=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)

    @pytest.mark.parametrize("shape", [(3, 4), (12, 20)], ids=["lapack", "gram"])
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_rejected(self, shape, tau):
        # NaN once gave all zeros on the Gram route and all NaN on LAPACK's
        X = np.random.default_rng(7).standard_normal(shape)
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            svt(X, tau)

    # (10, 10, 10) once reached the Gram route and failed there; (12,) indexed a
    # missing second dimension
    @pytest.mark.parametrize("shape", [(10, 10, 10), (12,)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match=f"expected a matrix, got ndim={len(shape)}"):
            svt(np.ones(shape), 0.1)

    def test_singular_values_shrink(self):
        X = np.random.default_rng(7).standard_normal((5, 4))
        Z = svt(X, 0.3)
        assert np.allclose(svd(Z).S, np.maximum(svd(X).S - 0.3, 0.0), atol=1e-10)

    def test_perturbation_and_subgradient_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 4))
        tau = 0.7
        Z = svt(X, tau)
        assert_svt_optimal(X, Z, tau)

        def prox_objective(W):
            return 0.5 * np.linalg.norm(W - X) ** 2 + tau * trace_norm(W)

        base = prox_objective(Z)
        for _ in range(200):
            delta = rng.standard_normal((4, 4))
            delta *= 0.1 * rng.random() / np.linalg.norm(delta)
            assert prox_objective(Z + delta) >= base - 1e-8

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, seed, tau):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, 5))
        Y = rng.standard_normal((4, 5))
        lhs = np.linalg.norm(svt(X, tau) - svt(Y, tau))
        assert lhs <= np.linalg.norm(X - Y) + 1e-10


def lapack_svt(X, tau):
    """Reference SVT from the full LAPACK SVD."""
    U, S, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(S - tau, 0.0)) @ Vt


def low_rank(rng, shape, rank, noise=0.0):
    X = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    return X + noise * rng.standard_normal(shape)


class TestSvtGramRoute:
    """Matrices whose smaller side is at least GRAM_MIN_SIDE."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        side=st.integers(GRAM_MIN_SIDE, 30),
        aspect=st.integers(1, 40),
        rank_frac=st.floats(0.05, 1.0),
        noisy=st.booleans(),
        tall=st.booleans(),
        log_ratio=st.floats(-6.0, 0.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_lapack_reference(self, seed, side, aspect, rank_frac, noisy, tall, log_ratio):
        rng = np.random.default_rng(seed)
        rank = max(1, int(rank_frac * side))
        X = low_rank(rng, (side, side * aspect), rank, noise=1e-3 if noisy else 0.0)
        if tall:
            X = X.T
        tau = np.linalg.norm(X, 2) * 10.0**log_ratio
        assert prox._svt_gram(X.T if tall else X, tau) is not None
        Z = svt(X, tau)
        ref = lapack_svt(X, tau)
        assert Z.shape == X.shape
        # floor at tau: near tau = smax the reference is ~0 and either side may
        # keep a sliver of size eps * smax
        assert np.linalg.norm(Z - ref) <= 1e-10 * max(np.linalg.norm(ref), tau)

    # odd and even sides; n and n // 2 + 1 kept values apply one n x n
    # operator to X, n // 2 and 1 apply the kept eigenvectors in two products
    @pytest.mark.parametrize("n", [20, 21])
    @pytest.mark.parametrize("kept", ["n", "n//2", "n//2+1", "1"])
    def test_kept_rank_matches_lapack(self, n, kept):
        k = {"n": n, "n//2": n // 2, "n//2+1": n // 2 + 1, "1": 1}[kept]
        rng = np.random.default_rng(25 + n)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((4 * n, n)))[0]
        S = np.geomspace(10.0, 1.0, n)
        X = (U * S) @ V.T
        # halfway between the k-th and the next singular value
        tau = 0.5 * (S[k - 1] + (S[k] if k < n else 0.0))
        Z = prox._svt_gram(X, tau)
        ref = lapack_svt(X, tau)
        assert np.linalg.matrix_rank(ref) == k
        assert np.linalg.norm(Z - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_gram_route_skips_lapack(self, monkeypatch):
        def no_svd(X):
            raise AssertionError("LAPACK SVD called on the Gram route")

        monkeypatch.setattr(prox, "svd", no_svd)
        X = low_rank(np.random.default_rng(20), (GRAM_MIN_SIDE, 80), 4, noise=0.1)
        assert_svt_optimal(X, svt(X, 1.0), 1.0)

    def test_unresolvable_kept_value_falls_back_to_lapack(self, monkeypatch):
        # rank 3 of 20: the Gram matrix returns the 17 zero singular values as
        # noise near sqrt(eps) * smax, which a tiny tau would keep
        X = low_rank(np.random.default_rng(21), (20, 300), 3)
        tau = 1e-12 * np.linalg.norm(X, 2)
        calls = []
        monkeypatch.setattr(prox, "svd", lambda A: calls.append(A.shape) or svd(A))
        assert prox._svt_gram(X, tau) is None
        Z = svt(X, tau)
        assert calls == [(20, 300)]
        assert np.array_equal(Z, lapack_svt(X, tau))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(GRAM_MIN_SIDE, 40), (40, GRAM_MIN_SIDE)])
    def test_rejects_non_finite(self, bad, shape):
        X = np.random.default_rng(22).standard_normal(shape)
        X[3, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svt(X, 0.5)

    def test_tau_zero_is_bit_exact_copy(self):
        X = np.random.default_rng(23).standard_normal((GRAM_MIN_SIDE + 2, 60))
        Z = svt(X, 0.0)
        assert np.array_equal(Z, X) and Z is not X

    def test_zero_matrix(self):
        assert np.array_equal(svt(np.zeros((12, 30)), 0.5), np.zeros((12, 30)))

    def test_all_values_thresholded_away(self):
        X = np.random.default_rng(24).standard_normal((12, 30))
        assert np.array_equal(svt(X, 1.01 * np.linalg.norm(X, 2)), np.zeros((12, 30)))


class TestNormRelations:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hoelder(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, 6))
        Y = rng.standard_normal((4, 6))
        assert abs(np.sum(X * Y)) <= trace_norm(X) * spectral_norm(Y) + 1e-10

    def test_trace_dominates_spectral(self):
        rng = np.random.default_rng(9)
        rank1 = np.outer(rng.standard_normal(4), rng.standard_normal(5))
        assert trace_norm(rank1) == pytest.approx(spectral_norm(rank1), abs=1e-10)
        rank2 = rank1 + np.outer(rng.standard_normal(4), rng.standard_normal(5))
        assert trace_norm(rank2) > spectral_norm(rank2) + 1e-6
