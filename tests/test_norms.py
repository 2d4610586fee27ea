"""Tests for the coupled norm descriptors, layouts and evaluators."""

import re

import numpy as np
import pytest

from coupled_completion import solver
from coupled_completion.datagen import SyntheticSpec, gen_instance
from coupled_completion.norms import (
    InvalidDescriptorError,
    NormDescriptor,
    bracket,
    decomposition_value,
    dual_norm_latent_type,
    dual_norm_overlapped_upper,
    evaluate,
    evaluate_overlapped,
    format_descriptor,
    layout,
    parse_descriptor,
)
from coupled_completion.prox import trace_norm
from coupled_completion.tensor_ops import fold, unfold
from test_solver import state_at


def rank1_mode2_tensor(dims, seed=0):
    """Tensor whose mode-2 unfolding is rank one."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dims[1])
    v = rng.standard_normal(dims[0] * dims[2])
    return fold(np.outer(u, v), 2, dims)


class TestValidate:
    @pytest.mark.parametrize(
        "tags",
        [
            ("O", "O", "O"),
            ("L", "L", "L"),
            ("S", "S", "S"),
            ("L", "O", "O"),
            ("O", "L", "O"),
            ("O", "O", "L"),
            ("S", "O", "O"),
            ("O", "S", "O"),
            ("O", "O", "S"),
        ],
    )
    def test_accepts_valid(self, tags):
        NormDescriptor(1, tags)

    @pytest.mark.parametrize(
        "tags",
        [("L", "L", "O"), ("S", "S", "O"), ("L", "S", "O"), ("S", "L", "O")],
    )
    def test_rejects_two_latent_one_overlapped(self, tags):
        with pytest.raises(InvalidDescriptorError):
            NormDescriptor(1, tags)

    def test_rejects_single_overlapped_mode(self):
        with pytest.raises(InvalidDescriptorError, match="at least two"):
            NormDescriptor(1, ("O", "L", "L"))

    def test_rejects_two_dashes(self):
        with pytest.raises(InvalidDescriptorError):
            NormDescriptor(1, ("L", "-", "-"))

    def test_bad_tags_rejected_at_construction(self):
        with pytest.raises(InvalidDescriptorError):
            NormDescriptor(1, ("O", "O", "X"))
        with pytest.raises(InvalidDescriptorError):
            NormDescriptor(4, ("O", "O", "O"))

    @pytest.mark.parametrize("mode", [True, 1.0, "1"])
    def test_rejects_a_coupled_mode_that_is_not_an_integer(self, mode):
        # True == 1, so a membership test in (1, 2, 3) would take it as mode 1
        with pytest.raises(InvalidDescriptorError, match="coupled_mode must be 1, 2 or 3, got"):
            NormDescriptor(mode, ("O", "O", "O"))


def coupled_owner(lay):
    """The component whose coupled-mode unfolding carries the matrix."""
    return next(c for mode, _, c in lay.regularized_modes() if mode == lay.coupled_mode)


class TestLayout:
    def test_all_overlapped(self):
        lay = layout(NormDescriptor(1, ("O", "O", "O")), (4, 5, 6))
        assert lay.n_components == 1
        assert lay.components == (((1, 1.0), (2, 1.0), (3, 1.0)),)
        assert coupled_owner(lay) == 0

    def test_mixed_scaled_first_mode(self):
        lay = layout(NormDescriptor(1, ("S", "O", "O")), (4, 5, 6))
        assert lay.n_components == 2
        # the overlapped group covers modes 2 and 3 at unit scale
        assert lay.components[0] == ((2, 1.0), (3, 1.0))
        # the scaled singleton owns mode 1 with scale 1/sqrt(n1) and the coupling
        assert lay.components[1] == ((1, 1.0 / 2.0),)
        assert coupled_owner(lay) == 1

    def test_mixed_scaled_second_mode(self):
        lay = layout(NormDescriptor(1, ("O", "S", "O")), (4, 5, 6))
        assert lay.n_components == 2
        assert lay.components[0] == ((1, 1.0), (3, 1.0))
        assert lay.components[1] == ((2, 1.0 / np.sqrt(5)),)
        # the overlapped component regularizes the coupled mode, so it owns M
        assert coupled_owner(lay) == 0

    def test_all_latent(self):
        lay = layout(NormDescriptor(2, ("L", "L", "L")), (4, 5, 6))
        assert lay.n_components == 3
        assert all(len(c) == 1 for c in lay.components)
        # mode 2's own singleton, the second latent component, owns M
        assert coupled_owner(lay) == 1

    def test_scaled_uses_dimension(self):
        lay = layout(NormDescriptor(1, ("S", "S", "S")), (9, 16, 25))
        scales = {mode: scale for (mode, scale), in lay.components}
        assert scales == {1: 1 / 3, 2: 1 / 4, 3: 1 / 5}


class TestParseFormat:
    @pytest.mark.parametrize(
        "text",
        ["1:(O,O,O)", "1:(S,O,O)", "2:(L,L,L)", "3:(O,O,S)"],
    )
    def test_roundtrip(self, text):
        assert format_descriptor(parse_descriptor(text)) == text

    def test_whitespace_tolerant(self):
        d = parse_descriptor(" 1 : ( O , S , O ) ")
        assert d.tags == ("O", "S", "O")

    @pytest.mark.parametrize("text", ["", "O,O,O", "4:(O,O,O)", "1:(O,O)", "1:(L,L,O)"])
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidDescriptorError):
            parse_descriptor(text)

    @pytest.mark.parametrize("text", [1, None, ["1:(O,O,O)"], b"1:(O,O,O)"])
    def test_rejects_a_descriptor_that_is_not_a_string(self, text):
        with pytest.raises(InvalidDescriptorError, match="cannot parse norm descriptor"):
            parse_descriptor(text)


class TestEvaluateOverlapped:
    def test_zero(self):
        d = NormDescriptor(1, ("O", "O", "O"))
        assert evaluate_overlapped(np.zeros((3, 3, 3)), np.zeros((3, 2)), d) == 0.0

    def test_rank_one_matrix_only(self):
        d = NormDescriptor(1, ("O", "O", "O"))
        M = 2.0 * np.outer(np.eye(3)[:, 0], np.eye(2)[:, 0])
        val = evaluate_overlapped(np.zeros((3, 3, 3)), M, d)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_per_term_oracle(self):
        rng = np.random.default_rng(0)
        T = rng.standard_normal((4, 4, 4))
        M = rng.standard_normal((4, 3))
        d = NormDescriptor(1, ("O", "O", "O"))

        def tn_eig(X):
            # Gram matrix on the smaller side keeps sqrt(eigenvalue) accurate
            G = X @ X.T if X.shape[0] <= X.shape[1] else X.T @ X
            return float(np.sqrt(np.maximum(np.linalg.eigvalsh(G), 0.0)).sum())

        expected = (
            tn_eig(np.hstack([unfold(T, 1), M]))
            + tn_eig(unfold(T, 2))
            + tn_eig(unfold(T, 3))
        )
        assert evaluate_overlapped(T, M, d) == pytest.approx(expected, abs=1e-8)

    def test_rejects_non_overlapped(self):
        with pytest.raises(InvalidDescriptorError):
            evaluate_overlapped(
                np.zeros((2, 2, 2)), np.zeros((2, 2)), NormDescriptor(1, ("L", "L", "L"))
            )


class TestEvaluate:
    def test_latent_zero(self):
        d = NormDescriptor(1, ("L", "L", "L"))
        assert evaluate(np.zeros((3, 3, 3)), np.zeros((3, 2)), d) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_latent_upper_bounded_by_single_assignment(self):
        T = rank1_mode2_tensor((4, 4, 4), seed=1)
        M = np.zeros((4, 0))
        d = NormDescriptor(1, ("L", "L", "L"))
        val = evaluate(T, M, d, tol=1e-6)
        assert val <= trace_norm(unfold(T, 2)) + 1e-5

    def test_scaling_equivalence_on_cubic_dims(self):
        rng = np.random.default_rng(2)
        T = rng.standard_normal((4, 4, 4))
        M = np.zeros((4, 0))
        lll = evaluate(T, M, NormDescriptor(1, ("L", "L", "L")), tol=1e-7)
        sss = evaluate(T, M, NormDescriptor(1, ("S", "S", "S")), tol=1e-7)
        assert sss == pytest.approx(lll / 2.0, rel=1e-4)

    def test_delegates_all_overlapped(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 4, 5))
        M = rng.standard_normal((3, 2))
        d = NormDescriptor(1, ("O", "O", "O"))
        assert evaluate(T, M, d) == evaluate_overlapped(T, M, d)

    def test_below_every_single_assignment_decomposition(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((3, 3, 3))
        M = rng.standard_normal((3, 2))
        d = NormDescriptor(1, ("S", "O", "O"))
        lay = layout(d, T.shape)
        val = evaluate(T, M, d, tol=1e-6)
        # assign the whole tensor to either component, zero to the other
        for c in range(lay.n_components):
            comps = [T if i == c else np.zeros_like(T) for i in range(lay.n_components)]
            assert val <= decomposition_value(comps, lay, M) + 1e-4

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(5)
        T = rng.standard_normal((3, 3, 3))
        M = rng.standard_normal((3, 2))
        d = NormDescriptor(1, ("L", "L", "L"))
        base = evaluate(T, M, d, tol=1e-7)
        scaled = evaluate(-2.5 * T, -2.5 * M, d, tol=1e-7)
        assert scaled == pytest.approx(2.5 * base, rel=1e-4)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        d = NormDescriptor(1, ("S", "S", "S"))
        for _ in range(3):
            T1, T2 = rng.standard_normal((2, 3, 3, 3))
            M1 = rng.standard_normal((3, 2))
            M2 = rng.standard_normal((3, 2))
            lhs = evaluate(T1 + T2, M1 + M2, d, tol=1e-7)
            rhs = evaluate(T1, M1, d, tol=1e-7) + evaluate(T2, M2, d, tol=1e-7)
            assert lhs <= rhs + 1e-3

    @pytest.mark.parametrize(
        "text", ["1:(O,O,O)", "1:(L,L,L)", "1:(S,S,S)", "1:(L,O,O)", "1:(O,L,O)",
                 "1:(O,O,L)", "1:(S,O,O)", "1:(O,S,O)", "1:(O,O,S)"],
    )
    def test_independent_of_memory_layout(self, text):
        rng = np.random.default_rng(7)
        T = rng.standard_normal((8, 9, 10))
        M = rng.standard_normal((8, 6))
        d = parse_descriptor(text)
        strided_T = np.zeros((16, 9, 10))[::2]
        strided_T[...] = T
        strided_M = np.zeros((8, 12))[:, ::2]
        strided_M[...] = M
        ref = evaluate(T, M, d)
        assert evaluate(np.asfortranarray(T), np.asfortranarray(M), d) == ref
        assert evaluate(strided_T, strided_M, d) == ref


NINE = ["1:(O,O,O)", "1:(L,L,L)", "1:(S,S,S)", "1:(L,O,O)", "1:(O,L,O)",
        "1:(O,O,L)", "1:(S,O,O)", "1:(O,S,O)", "1:(O,O,S)"]


def bracket_instance(kind):
    if kind == "random":
        rng = np.random.default_rng(11)
        return rng.standard_normal((6, 6, 6)), rng.standard_normal((6, 4))
    return gen_instance(SyntheticSpec.low_noise(
        dims=(8, 8, 8), multilinear_rank=(2, 2, 2), matrix_cols=5, matrix_rank=2, shared=2, seed=12
    ))


class TestBracket:
    @pytest.mark.parametrize("text", ["1:(O,O,O)", "1:(S,S,S)"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, True, "1e-6"])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, text, tol):
        # tol 0 or NaN would run decompose to its iteration cap, with no signal
        T, M = np.ones((4, 4, 4)), np.ones((4, 2))
        d = parse_descriptor(text)
        for fn in (bracket, evaluate):
            with pytest.raises(ValueError, match=f"^tol must be finite and > 0, got {re.escape(repr(tol))}$"):
                fn(T, M, d, tol)

    @pytest.mark.parametrize("kind", ["random", "low-rank"])
    @pytest.mark.parametrize("text", NINE)
    def test_certified_width_on_return(self, text, kind):
        T, M = bracket_instance(kind)
        d = parse_descriptor(text)
        tol = 1e-6
        lower, upper = bracket(T, M, d, tol)
        assert 0.0 < lower <= upper
        assert upper - lower <= tol * upper
        assert evaluate(T, M, d, tol) == upper

    @pytest.mark.parametrize("text", ["1:(L,L,L)", "1:(S,O,O)"])
    def test_zero_input(self, text):
        assert bracket(np.zeros((3, 3, 3)), np.zeros((3, 2)), parse_descriptor(text)) == (0.0, 0.0)

    @pytest.mark.parametrize("text", ["1:(L,L,L)", "1:(S,S,S)", "1:(S,O,O)", "1:(O,O,L)"])
    def test_lower_bound_holds_for_arbitrary_multipliers(self, text):
        T, M = bracket_instance("random")
        d = parse_descriptor(text)
        lay = layout(d, T.shape)
        _, upper = bracket(T, M, d, 1e-8)
        rng = np.random.default_rng(13)
        modes = [m for m, _, _ in lay.regularized_modes()]
        zero = ({m: np.zeros(T.shape) for m in modes}, np.zeros(M.shape))
        for _ in range(20):
            # multipliers W = s - z (beta = 1) near (T, M), so that the bound
            # is positive and not slack, and unequal across components, so
            # that the split matters
            WM = rng.uniform(0.5, 2.0) * M
            W = {}
            for m in modes:
                W[m] = rng.uniform(0.5, 2.0) * T + 0.1 * rng.standard_normal(T.shape)
            lower = solver._lower_bound(state_at(lay, 1.0, 1.0, (W, WM), zero), T, M)
            assert 0.0 < lower <= upper


class TestRejectsMalformedOperands:
    """Each norm evaluation rejects a malformed ``(T, M)`` up front, naming
    it, where it used to fail inside the solver state or an SVD."""

    # coupling on mode 2 of a 3 x 4 x 5 tensor: M needs 4 rows, not 3
    BAD = {
        "2-d T": (np.ones((3, 4)), np.ones((4, 2)), "T must be 3-way"),
        "1-d M": (np.ones((3, 4, 5)), np.ones(4), "M must be 2-d with a row per index of T's mode 2,"),
        "M rows fit another mode": (np.ones((3, 4, 5)), np.ones((3, 2)), "M must be 2-d with a row per index of T's mode 2,"),
        "nan in T": (np.full((3, 4, 5), np.nan), np.ones((4, 2)), "T must be finite"),
        "inf in M": (np.ones((3, 4, 5)), np.full((4, 2), -np.inf), "M must be finite"),
    }

    @pytest.mark.parametrize("case", BAD)
    @pytest.mark.parametrize(
        "fn, text", [(bracket, "2:(S,O,O)"), (evaluate_overlapped, "2:(O,O,O)"),
                     (dual_norm_latent_type, "2:(L,L,L)")], ids=["bracket", "overlapped", "dual"],
    )
    def test_raises_a_value_error_naming_the_operand(self, fn, text, case):
        T, M, message = self.BAD[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            fn(T, M, parse_descriptor(text))


class TestDualNorms:
    def test_latent_identity_matrix(self):
        d = NormDescriptor(1, ("L", "L", "L"))
        assert dual_norm_latent_type(np.zeros((3, 3, 3)), np.eye(3), d) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_latent_zero(self):
        d = NormDescriptor(1, ("S", "S", "S"))
        assert dual_norm_latent_type(np.zeros((3, 3, 3)), np.zeros((3, 2)), d) == 0.0

    def test_scaled_weights(self):
        rng = np.random.default_rng(7)
        T = rng.standard_normal((4, 9, 16))
        M = rng.standard_normal((4, 2))
        d = NormDescriptor(1, ("S", "S", "S"))
        from coupled_completion.prox import spectral_norm

        expected = max(
            2.0 * spectral_norm(np.hstack([unfold(T, 1), M])),
            3.0 * spectral_norm(unfold(T, 2)),
            4.0 * spectral_norm(unfold(T, 3)),
        )
        assert dual_norm_latent_type(T, M, d) == pytest.approx(expected, abs=1e-10)

    def test_rejects_mixed(self):
        with pytest.raises(InvalidDescriptorError):
            dual_norm_latent_type(
                np.zeros((2, 2, 2)), np.zeros((2, 2)), NormDescriptor(1, ("S", "O", "O"))
            )

    def test_hoelder_latent(self):
        rng = np.random.default_rng(8)
        d = NormDescriptor(1, ("L", "L", "L"))
        for _ in range(100):
            T = rng.standard_normal((3, 3, 3))
            M = rng.standard_normal((3, 2))
            T2 = rng.standard_normal((3, 3, 3))
            M2 = rng.standard_normal((3, 2))
            ip = abs(float(np.sum(T * T2) + np.sum(M * M2)))
            primal = evaluate(T, M, d, tol=1e-5)
            dual = dual_norm_latent_type(T2, M2, d)
            assert ip <= primal * dual * (1 + 1e-6) + 1e-9

    def test_overlapped_upper_zero(self):
        assert dual_norm_overlapped_upper(np.zeros((2, 2, 2)), np.zeros((2, 1))) == 0.0

    @pytest.mark.parametrize("coupled_mode", [0, 4, True])
    def test_overlapped_upper_rejects_bad_coupled_mode(self, coupled_mode):
        with pytest.raises(ValueError, match=f"coupled_mode must be 1, 2 or 3, got {coupled_mode}"):
            dual_norm_overlapped_upper(np.ones((2, 2, 2)), np.ones((2, 1)), coupled_mode)

    def test_overlapped_upper_constructed(self):
        # diagonal-like tensor: all unfoldings share the same spectrum
        T = np.zeros((3, 3, 3))
        for i in range(3):
            T[i, i, i] = 5.0
        val = dual_norm_overlapped_upper(T, np.zeros((3, 0)))
        assert val == pytest.approx(5.0, abs=1e-10)

    @pytest.mark.parametrize("coupled_mode", [1, 2, 3])
    def test_overlapped_upper_holds_for_a_matrix_heavy_pair(self, coupled_mode):
        # a tiny tensor beside a unit-scale matrix: the matrix can sit only on
        # the coupled term, so a single-mode bound that leaves it out fails
        rng = np.random.default_rng(0)
        G = 1e-3 * rng.standard_normal((4, 4, 4))
        H = rng.standard_normal((4, 5))
        U, _, Vt = np.linalg.svd(H)
        N = np.outer(U[:, 0], Vt[0])
        d = NormDescriptor(coupled_mode, ("O", "O", "O"))
        assert evaluate_overlapped(np.zeros_like(G), N, d) == pytest.approx(1.0, abs=1e-12)
        # Hoelder: <(G, H), (0, N)> <= ||(0, N)|| * dual(G, H)
        assert np.sum(H * N) <= dual_norm_overlapped_upper(G, H, coupled_mode) * (1 + 1e-12)

    def test_overlapped_upper_dominates_sampled_ratio(self):
        rng = np.random.default_rng(9)
        T = rng.standard_normal((3, 3, 3))
        M = rng.standard_normal((3, 2))
        upper = dual_norm_overlapped_upper(T, M)
        d = NormDescriptor(1, ("O", "O", "O"))
        best = 0.0
        for _ in range(10_000):
            S = rng.standard_normal((3, 3, 3))
            N = rng.standard_normal((3, 2))
            denom = evaluate_overlapped(S, N, d)
            best = max(best, (np.sum(T * S) + np.sum(M * N)) / denom)
        assert upper >= best
