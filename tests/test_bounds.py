"""Tests for the excess-risk bound calculators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from coupled_completion.bounds import NORM_IDS, BoundParams, bound, rank_geometry
from coupled_completion.datagen import SyntheticSpec

BASE = BoundParams(
    dims=(20, 20, 20),
    matrix_cols=30,
    ranks=(5, 5, 5),
    coupled_rank=5,
    B_tensor=1.0,
    B_matrix=1.0,
    Lipschitz=1.0,
    samples=1,
)


class TestBoundProperties:
    def test_zero_rank_annihilation(self):
        p = replace(BASE, ranks=(0, 0, 0), coupled_rank=0)
        for nid in NORM_IDS:
            assert bound(nid, p) == 0.0

    def test_sample_count_halving(self):
        doubled = replace(BASE, samples=2)
        for nid in NORM_IDS:
            assert bound(nid, doubled) == pytest.approx(bound(nid, BASE) / 2.0, rel=1e-15)

    def test_linear_in_lipschitz(self):
        scaled = replace(BASE, Lipschitz=3.5)
        for nid in NORM_IDS:
            assert bound(nid, scaled) == pytest.approx(3.5 * bound(nid, BASE), rel=1e-12)

    def test_rank_monotonicity_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(0, 10))
            rc = int(rng.integers(0, 10))
            p_lo = replace(BASE, ranks=(r, r, r), coupled_rank=rc)
            p_hi = replace(
                BASE,
                ranks=(r + 1, r + 1, r + 1),
                coupled_rank=rc + 1,
            )
            for nid in NORM_IDS:
                assert bound(nid, p_hi) >= bound(nid, p_lo) - 1e-12

    def test_monotone_in_frobenius_caps(self):
        bigger = replace(BASE, B_tensor=2.0, B_matrix=3.0)
        for nid in NORM_IDS:
            assert bound(nid, bigger) >= bound(nid, BASE)

    def test_pinned_regression_constant(self):
        expected = 60.0 + 120.0 * math.sqrt(5.0)
        assert abs(bound("OOO", BASE) - expected) <= 1e-12

    def test_coupled_dimension_factor_consistency(self):
        # on cubic dims with the coupled factor excluded by the min, the
        # coupled-overlapped dimension factor equals the individual
        # overlapped-norm min factor
        ooo_dim = bound("OOO", BASE) / (
            1.5 * (math.sqrt(5) * 2 + 2 * math.sqrt(5))
        )
        otn_dim = bound("OTN", BASE) / (3 * math.sqrt(5))
        assert ooo_dim == pytest.approx(otn_dim, rel=1e-12)

    def test_unknown_norm_id(self):
        with pytest.raises(ValueError, match="unknown norm id"):
            bound("XYZ", BASE)


class TestBoundParamsValidation:
    def test_rejects_rank_over_dims(self):
        with pytest.raises(ValueError):
            replace(BASE, ranks=(25, 5, 5))

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            replace(BASE, samples=0)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            replace(BASE, coupled_rank=-1)

    @pytest.mark.parametrize(
        "changes, message",
        [({"samples": math.nan, "B_tensor": math.nan}, "samples must be integer and >= 1"),
         ({"samples": 2.5}, "samples must be integer and >= 1"),
         ({"dims": (20.0, 20, 20)}, "dims must be integer and >= 1"),
         ({"matrix_cols": 0}, "matrix_cols must be integer and >= 1"),
         ({"ranks": (5, 5, 4.5)}, "ranks must be integer and >= 0"),
         ({"coupled_rank": 1.5}, "coupled_rank must be integer and >= 0"),
         ({"B_tensor": math.nan}, "B_tensor must be finite and >= 0"),
         ({"B_matrix": math.inf}, "B_matrix must be finite and >= 0"),
         ({"Lipschitz": math.nan}, "Lipschitz must be finite and > 0"),
         ({"C1": 0.0}, "C1 must be finite and > 0"),
         ({"C2": math.inf}, "C2 must be finite and > 0")],
    )
    def test_rejects_nan_non_integer_and_out_of_range_settings(self, changes, message):
        with pytest.raises(ValueError, match=message):
            replace(BASE, **changes)

    @pytest.mark.parametrize(
        "changes, message",
        [({"dims": (4, 4, 4, 4), "ranks": (2, 2, 2)}, "dims needs three entries"),
         ({"ranks": (5, 5)}, "ranks needs three entries")],
    )
    def test_rejects_other_than_three_dims_or_ranks(self, changes, message):
        with pytest.raises(ValueError, match=message):
            replace(BASE, **changes)

    def test_accepts_numpy_integers(self):
        p = replace(BASE, dims=tuple(np.full(3, 20)), samples=np.int64(2), coupled_rank=np.int32(5))
        assert bound("OOO", p) == pytest.approx(bound("OOO", BASE) / 2.0, rel=1e-15)


class TestRankGeometry:
    def test_full_sharing_collapses_coupled_rank(self):
        spec = SyntheticSpec(shared=5, matrix_rank=5, seed=1)
        p = rank_geometry(spec)
        assert p.coupled_rank == 5
        assert p.ranks == (5, 5, 5)

    def test_no_sharing_adds_ranks(self):
        spec = SyntheticSpec(shared=0, matrix_rank=5, seed=2)
        p = rank_geometry(spec)
        assert p.coupled_rank == min(5 + 5, 20)

    def test_zero_rank_instance(self):
        spec = SyntheticSpec(
            multilinear_rank=(0, 0, 0), matrix_rank=0, shared=0, seed=3
        )
        p = rank_geometry(spec)
        assert p.ranks == (0, 0, 0)
        assert p.coupled_rank == 0
        assert all(bound(nid, p) == 0.0 for nid in NORM_IDS)

    def test_frobenius_caps_measured(self):
        spec = SyntheticSpec(seed=4)
        p = rank_geometry(spec)
        assert p.B_tensor > 0.0
        assert p.B_matrix > 0.0
