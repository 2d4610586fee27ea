"""Tests for the experiment harness: config, file formats, CV, reports."""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coupled_completion import baselines, datagen, harness, solver
from coupled_completion.harness import (
    ExperimentConfig,
    LambdaGrid,
    cross_validate,
    emit_report,
    load_config,
    load_matrix_csv,
    load_sparse_tensor,
    run,
    save_matrix_csv,
    save_sparse_tensor,
)
from coupled_completion.solver import SolverOptions, path, solve
from coupled_completion.tensor_ops import ObservationMask


def tiny_config(**overrides):
    defaults = dict(
        norms=("1:(O,O,O)",),
        synthetic=datagen.SyntheticSpec.low_noise(
            dims=(8, 8, 8),
            multilinear_rank=(2, 2, 2),
            matrix_cols=6,
            matrix_rank=2,
            shared=2,
            seed=5,
        ),
        lambda_grid=LambdaGrid(0.01, 1.0, 3, "log"),
        train_fractions=(0.5,),
        repetitions=1,
        seed=1,
        solver=SolverOptions(tol_primal=1e-4, tol_dual=1e-4),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLambdaGrid:
    def test_log_spacing(self):
        vals = LambdaGrid(0.01, 100.0, 5, "log").values()
        assert np.allclose(vals, [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_linear_spacing(self):
        vals = LambdaGrid(1.0, 3.0, 3, "linear").values()
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_single_point(self):
        assert np.array_equal(LambdaGrid(0.5, 5.0, 1, "log").values(), [0.5])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LambdaGrid(0.0, 1.0, 5, "log")

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"lo": np.nan}, "lo must be finite and > 0, got nan"),
         ({"hi": np.inf}, "hi must be finite and > 0, got inf"),
         ({"count": 2.5}, "count must be integer and >= 1, got 2.5"),
         ({"count": True}, "count must be integer and >= 1, got True")],
    )
    def test_rejects_non_finite_bound_and_fractional_count(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LambdaGrid(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"lo": 2.0, "hi": 1.0}, "lambda grid needs lo <= hi, got 2.0, 1.0"),
         ({"lo": True}, "lo must be finite and > 0, got True"),
         ({"scale": "exp"}, "scale must be 'linear' or 'log', got 'exp'")],
    )
    def test_rejects_reversed_bounds_a_boolean_bound_and_an_unknown_scale(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LambdaGrid(**kwargs)


class TestExperimentConfig:
    def test_rejects_unknown_norm(self):
        with pytest.raises(Exception):
            tiny_config(norms=("1:(L,L,O)",))

    def test_rejects_no_data_source(self):
        with pytest.raises(ValueError):
            tiny_config(synthetic=None)

    def test_accepts_baseline_ids(self):
        cfg = tiny_config(norms=("MTN", "OTN", "SLTN", "CP"))
        assert cfg.norms == ("MTN", "OTN", "SLTN", "CP")

    @pytest.mark.parametrize("name", ["repetitions", "cp_rank", "cp_iters"])
    def test_rejects_fractional_count(self, name):
        with pytest.raises(ValueError, match=f"{name} must be integer and >= 1, got 1.5"):
            tiny_config(**{name: 1.5})

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be integer and >= 0, got {seed}"):
            tiny_config(seed=seed)

    def test_rejects_no_validation_entries_for_a_non_cp_norm(self):
        with pytest.raises(ValueError, match="validation_fraction must be > 0"):
            tiny_config(norms=("CP", "OTN"), validation_fraction=0.0)

    def test_cp_only_config_needs_no_validation_entries(self):
        cfg = tiny_config(norms=("CP",), validation_fraction=0.0, cp_iters=2)
        assert not run(cfg).failures()

    def test_rejects_mtn_on_a_fully_observed_matrix(self):
        with pytest.raises(ValueError, match="matrix_fully_observed leaves MTN"):
            tiny_config(norms=("1:(O,O,O)", "MTN"), matrix_fully_observed=True)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"norms": ()}, "at least one norm and one train fraction are required"),
         ({"train_fractions": ()}, "at least one norm and one train fraction are required"),
         ({"train_fractions": (), "validation_fraction": -5.0}, "validation_fraction must be finite and >= 0")],
    )
    def test_rejects_a_config_with_no_cell(self, kwargs, message):
        # with no train fraction a run fitted nothing, and validation_fraction went unchecked
        with pytest.raises(ValueError, match=message):
            tiny_config(**kwargs)

    def test_rejects_train_fraction_leaving_no_test_split(self):
        # 0.95 + 0.1 validation leaves no test entries; caught before any fit
        with pytest.raises(ValueError, match="sum below 1"):
            tiny_config(train_fractions=(0.3, 0.95), validation_fraction=0.1)

    def test_load_config_json(self, tmp_path):
        doc = {
            "norms": ["1:(O,O,O)", "OTN"],
            "data": {"synthetic": {"dims": [8, 8, 8], "noise": "low"}},
            "lambda_grid": {"min": 0.1, "max": 1.0, "count": 4, "scale": "log"},
            "masks": {"train_fractions": [0.5], "validation_fraction": 0.1},
            "repetitions": 2,
            "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.norms == ("1:(O,O,O)", "OTN")
        assert cfg.synthetic.dims == (8, 8, 8)
        assert cfg.synthetic.noise_std == 0.01
        assert cfg.lambda_grid.count == 4
        assert cfg.repetitions == 2

    @pytest.mark.parametrize(
        "key",
        [
            "lambda-grid",
            "solver.tol",
            "data.tensorfile",
            "data.synthetic.rank",
            "data.synthetic.noise.sd",
            "lambda_grid.num",
            "masks.test_fraction",
            # beta always tracks lambda; the option that could stop it is gone
            "solver.beta_tracks_lambda",
        ],
    )
    def test_load_config_rejects_unknown_keys(self, tmp_path, key):
        doc = {
            "norms": ["1:(O,O,O)"],
            "data": {"synthetic": {"dims": [8, 8, 8], "noise": {"mean": 0.0, "std": 0.01}}},
            "lambda_grid": {"min": 0.1, "max": 1.0, "count": 4},
            "masks": {"train_fractions": [0.5]},
            "solver": {"tol_primal": 1e-4},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert load_config(path).solver.tol_primal == 1e-4
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unknown config key.*{re.escape(key)}"):
            load_config(path)

    def test_load_config_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"norms": ["MTN"], "data": {"synthetic": {}}}))
        assert load_config(path) == ExperimentConfig(
            norms=("MTN",),
            synthetic=datagen.SyntheticSpec(
                dims=(20, 20, 20), multilinear_rank=(5, 5, 5), matrix_cols=30,
                matrix_rank=5, shared=0, noise_mean=0.01, noise_std=1.0, seed=0,
            ),
            lambda_grid=LambdaGrid(0.01, 5.0, 10, "log"),
            train_fractions=(0.3, 0.5, 0.7),
            validation_fraction=0.1,
            repetitions=3,
            seed=0,
            cp_rank=5,
            cp_iters=100,
            solver=SolverOptions(
                lam=0.1, beta=1.0, max_iters=2000, tol_primal=1e-6, tol_dual=1e-6,
            ),
            output_dir="results",
        )
        # bench/ still reads it; it is a class constant, not a setting
        assert load_config(path).beta_tracks_lambda is True
        # the instance seed falls back to the top-level seed
        path.write_text(json.dumps({"norms": ["MTN"], "data": {"synthetic": {}}, "seed": 7}))
        assert load_config(path).synthetic.seed == 7

    def test_load_config_rejects_nan_setting(self, tmp_path):
        # JSON as Python writes it allows NaN; it must not reach a fit
        doc = {"norms": ["MTN"], "data": {"synthetic": {}}, "solver": {"beta": float("nan")}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="beta must be finite and > 0, got nan"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("masks.train_fractions", 0.3), ("data.synthetic.dims", 20),
         ("data.synthetic.multilinear_rank", 5), ("norms", "MTN")],
    )
    def test_load_config_rejects_a_scalar_for_an_array(self, tmp_path, key, value):
        doc = {"norms": ["MTN"], "data": {"synthetic": {}}, "masks": {}}
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be a JSON array, got"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("data", [1]), ("data.synthetic", "low"), ("lambda_grid", 5),
         ("masks", [0.3]), ("solver", None)],
    )
    def test_load_config_rejects_a_section_that_is_not_an_object(self, tmp_path, key, value):
        doc = {"norms": ["MTN"], "data": {"synthetic": {}}}
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be a JSON object, got"):
            load_config(path)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "key", ["repetitions", "cp_rank", "cp_iters", "seed", "lambda_grid.count",
                "solver.max_iters", "data.synthetic.seed"],
    )
    def test_load_config_rejects_a_boolean_for_an_integer(self, tmp_path, key, flag):
        # JSON true and false are Python bools, which isinstance counts as ints
        doc = {"norms": ["MTN"], "data": {"synthetic": {}}, "lambda_grid": {}, "solver": {}}
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = flag
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{name} must be integer and >= [01], got {flag}$"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [("data.matrix_fully_observed", "false", "matrix_fully_observed must be bool, got 'false'"),
         ("output_dir", 7, "output_dir must be str, got 7"),
         ("data.tensor_file", 7, "tensor_file must be str or None, got 7"),
         ("data.matrix_file", 7, "matrix_file must be str or None, got 7"),
         ("norms", [1], "cannot parse norm descriptor 1")],
    )
    def test_load_config_rejects_a_flag_or_text_of_another_type(self, tmp_path, key, value, message):
        # the string "false" is truthy, and an integer output_dir failed only after every fit
        doc = {"norms": ["MTN"], "data": {"synthetic": {}}}
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_config(path)

    def test_load_config_rejects_a_boolean_inside_an_integer_array(self, tmp_path):
        doc = {"norms": ["MTN"], "data": {"synthetic": {"dims": [True, 5, 5]}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape("dims must be integer and >= 1, got (True, 5, 5)")):
            load_config(path)

    def test_load_config_rejects_a_config_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(["MTN"]))
        with pytest.raises(ValueError, match="config must be a JSON object"):
            load_config(path)

    def test_load_config_rejects_unknown_noise_name(self, tmp_path):
        doc = {"norms": ["MTN"], "data": {"synthetic": {"noise": "high"}}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="data.synthetic.noise must be"):
            load_config(path)


class TestCrossValidate:
    def test_grid_of_one(self):
        lam, fit, mse = cross_validate([(0.5, "only", 1.0)])
        assert (lam, fit) == (0.5, "only")

    def test_ties_break_toward_larger_lambda(self):
        fits = [(0.1, "a", 2.0), (0.5, "b", 2.0), (1.0, "c", 3.0)]
        lam, fit, _ = cross_validate(fits)
        assert (lam, fit) == (0.5, "b")

    @pytest.mark.parametrize("order", [[2, 1, 0], [1, 2, 0], [2, 0, 1]])
    def test_ties_break_toward_larger_lambda_in_any_order(self, order):
        fits = [(0.1, "a", 2.0), (0.5, "b", 2.0), (1.0, "c", 3.0)]
        lam, fit, _ = cross_validate([fits[i] for i in order])
        assert (lam, fit) == (0.5, "b")

    def test_duplicate_grid_values_deterministic(self):
        fits = [(0.5, "first", 1.0), (0.5, "second", 1.0)]
        assert cross_validate(fits)[1] == "second"

    def test_skips_nan(self):
        fits = [(0.1, "bad", float("nan")), (0.5, "good", 2.0)]
        assert cross_validate(fits)[1] == "good"

    def test_all_failed_raises(self):
        with pytest.raises(RuntimeError):
            cross_validate([(0.1, "a", float("nan"))])

    def test_noise_moves_optimum_off_smallest_lambda(self):
        # regularization must help on noisy data: the validation argmin is
        # not the smallest grid point.  At tolerance 1e-8 the curve is within
        # 2e-4 of its converged values, and the optimum (0.214 at lambda 1.2)
        # beats the smallest lambda (0.299) by far more than that.
        rng = np.random.default_rng(4)
        M = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 25))
        M_noisy = M + 0.5 * rng.standard_normal(M.shape)
        train, val, _ = datagen.gen_masks(M.shape, datagen.MaskSpec(0.6, 0.2, 4))
        problem, d = baselines.individual_problem("MTN", M_noisy, train)
        opts = SolverOptions(tol_primal=1e-8, tol_dual=1e-8, max_iters=5000)
        ix = val.as_tuple()
        fits = []
        # the harness's order: from the largest lambda down
        for res in solver.path(problem, d, np.geomspace(1e-4, 10.0, 12)[::-1], opts)[::-1]:
            assert res.converged
            fits.append((res.lam, res, float(np.mean((M[ix] - res.matrix[ix]) ** 2))))
        lam_star, _, mse_star = cross_validate(fits)
        assert lam_star > fits[0][0]
        assert mse_star < 0.9 * fits[0][2]


class TestSparseTensorFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2 2\n1 1 1 3.5\n")
        T, mask = load_sparse_tensor(path)
        assert T.shape == (2, 2, 2)
        assert T[0, 0, 0] == 3.5
        assert len(mask) == 1

    def test_duplicate_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2 2\n1 1 1 3.5\n1 1 1 4.0\n")
        with pytest.raises(ValueError, match=":3"):
            load_sparse_tensor(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2 2\n3 1 1 0.0\n")
        with pytest.raises(ValueError, match="out of range"):
            load_sparse_tensor(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 1 1 3.5\n")
        with pytest.raises(ValueError, match="header"):
            load_sparse_tensor(path)

    def test_malformed_entry_line_numbered(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2 2\n1 1 oops 3.5\n")
        with pytest.raises(ValueError, match=":2"):
            load_sparse_tensor(path)

    def test_non_finite_value_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2 2\n1 1 1 3.5\n2 1 1 nan\n")
        with pytest.raises(ValueError, match=r"t\.txt:3: non-finite"):
            load_sparse_tensor(path)

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(6)
        T = rng.standard_normal((4, 3, 5))
        picks = rng.choice(60, size=25, replace=False)
        mask = ObservationMask(T.shape, np.array(np.unravel_index(picks, T.shape)).T)
        path = tmp_path / "t.txt"
        save_sparse_tensor(path, T, mask)
        T2, mask2 = load_sparse_tensor(path)
        assert np.array_equal(mask.indices, mask2.indices)
        ix = mask.as_tuple()
        assert np.array_equal(T[ix], T2[ix])

    def test_save_rejects_a_mask_of_another_shape(self, tmp_path):
        # the mask's index (2, 2, 2) lies past T's shape and would raise a bare IndexError
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=re.escape("tensor must have the mask's shape (3, 3, 3), got (2, 2, 2)")):
            save_sparse_tensor(path, np.zeros((2, 2, 2)), ObservationMask.full((3, 3, 3)))
        assert not path.exists()

    def test_save_rejects_a_non_3_way_array(self, tmp_path):
        # the 'dims:' header needs three sizes; a 2-d array would raise a bare IndexError
        path = tmp_path / "t.txt"
        with pytest.raises(ValueError, match=re.escape("tensor must be 3-way, got shape (2, 2)")):
            save_sparse_tensor(path, np.ones((2, 2)), ObservationMask.full((2, 2)))
        assert not path.exists()


class TestMatrixCsvFormat:
    def test_fully_observed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        M, mask = load_matrix_csv(path)
        assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])
        assert len(mask) == 4

    def test_diagonal_observed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,\n,4\n")
        M, mask = load_matrix_csv(path)
        assert np.array_equal(mask.indices, [[0, 0], [1, 1]])
        assert M[0, 0] == 1.0 and M[1, 1] == 4.0

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,x\n3,4\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_matrix_csv(path)

    def test_non_finite_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,-inf\n")
        with pytest.raises(ValueError, match=r"m\.csv:2: non-finite"):
            load_matrix_csv(path)

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 4))
        picks = rng.choice(20, size=11, replace=False)
        mask = ObservationMask(M.shape, np.array(np.unravel_index(picks, M.shape)).T)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, M, mask)
        M2, mask2 = load_matrix_csv(path)
        assert np.array_equal(mask.indices, mask2.indices)
        ix = mask.as_tuple()
        assert np.array_equal(M[ix], M2[ix])

    def test_save_rejects_a_mask_of_another_shape(self, tmp_path):
        # a loop over M's rows and columns would write '0.0,\n,3.0\n,\n' and drop the observed (3, 3) entry
        path = tmp_path / "m.csv"
        M = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match=re.escape("matrix must have the mask's shape (4, 4), got (3, 2)")):
            save_matrix_csv(path, M, ObservationMask((4, 4), [[0, 0], [1, 1], [3, 3]]))
        assert not path.exists()

    def test_save_rejects_a_non_2_d_array(self, tmp_path):
        # no 3-index position matches a (row, column) cell, so every entry would be dropped: ',\n,\n'
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match=re.escape("matrix must be 2-d, got shape (2, 2, 2)")):
            save_matrix_csv(path, np.ones((2, 2, 2)), ObservationMask.full((2, 2, 2)))
        assert not path.exists()


class TestRun:
    def test_noiseless_test_mse_at_floor(self):
        cfg = tiny_config(
            synthetic=datagen.SyntheticSpec(
                dims=(8, 8, 8),
                multilinear_rank=(1, 1, 1),
                matrix_cols=6,
                matrix_rank=1,
                shared=1,
                noise_mean=0.0,
                noise_std=0.0,
                seed=6,
            ),
            lambda_grid=LambdaGrid(1e-4, 1e-2, 3, "log"),
            train_fractions=(0.7,),
        )
        report = run(cfg)
        assert not report.failures()
        assert report.cells[0].test_mse_tensor < 1e-4

    def test_identical_norm_entries_identical_rows(self):
        cfg = tiny_config(norms=("OTN", "OTN"))
        report = run(cfg)
        a, b = report.cells
        assert (a.selected_lambda, a.validation_mse, a.test_mse_tensor) == (
            b.selected_lambda,
            b.validation_mse,
            b.test_mse_tensor,
        )

    def test_per_cell_failure_recorded(self, monkeypatch):
        # a fit that raises fails its cell; the failure must be recorded,
        # not raised, and the other cells still run
        def fails_on_latent(problem, d, lams, opts):
            if d.has_latent():
                raise ValueError("no fit")
            return path(problem, d, lams, opts)

        monkeypatch.setattr(harness.solver, "path", fails_on_latent)
        report = run(tiny_config(norms=("1:(O,O,O)", "1:(S,O,O)")))
        assert len(report.failures()) == 1
        assert report.failures()[0].error == "no fit"
        assert report.failures()[0].norm == "1:(S,O,O)"
        assert report.failures()[0].wall_time > 0

    def test_cp_cell_reports_als_convergence(self, tmp_path):
        report = run(tiny_config(norms=("CP",), cp_iters=1))
        assert not report.failures()
        row = emit_report(report, tmp_path)["results"].read_text().splitlines()[1]
        # iterations and converged precede the empty error column
        assert row.endswith(",1,False,")

    def test_test_entries_never_influence_fitting(self):
        cfg = tiny_config()
        T, M = datagen.gen_instance(cfg.synthetic)
        mask_seed = 100_000 * cfg.seed
        t_masks = datagen.gen_masks(
            T.shape, datagen.MaskSpec(0.5, cfg.validation_fraction, mask_seed)
        )
        m_masks = datagen.gen_masks(
            M.shape, datagen.MaskSpec(0.5, cfg.validation_fraction, mask_seed + 1)
        )
        base = harness._fit_cell(cfg, "1:(O,O,O)", T, M, t_masks, m_masks)

        # canary: poison every test entry with a sentinel value
        T_poison = T.copy()
        T_poison[t_masks[2].as_tuple()] = 1e6
        M_poison = M.copy()
        M_poison[m_masks[2].as_tuple()] = 1e6
        poisoned = harness._fit_cell(
            cfg, "1:(O,O,O)", T_poison, M_poison, t_masks, m_masks
        )
        # selection and validation are untouched; test MSE changes wildly
        assert poisoned[0] == base[0]
        assert poisoned[1] == base[1]
        assert poisoned[2] != base[2]

    def test_fully_observed_matrix_trains_on_file_cells_only(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        T, M = rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 5))
        save_sparse_tensor(tmp_path / "t.txt", T, ObservationMask.full(T.shape))
        cells = np.array([(i, j) for i in range(4) for j in range(5) if (i + j) % 2])
        save_matrix_csv(tmp_path / "m.csv", M, ObservationMask(M.shape, cells))
        cfg = tiny_config(
            synthetic=None, tensor_file=str(tmp_path / "t.txt"),
            matrix_file=str(tmp_path / "m.csv"), matrix_fully_observed=True,
            lambda_grid=LambdaGrid(0.1, 0.1, 1),
        )
        seen = []

        def spy(problem, d, lams, opts):
            seen.append(problem.matrix_mask)
            return path(problem, d, lams, opts)

        monkeypatch.setattr(harness.solver, "path", spy)
        assert not run(cfg).failures()
        assert len(seen) == 1
        assert sorted(map(tuple, seen[0].indices)) == sorted(map(tuple, cells))

    def test_warm_lambda_path_beats_cold_solves_and_is_deterministic(
        self, tmp_path, monkeypatch
    ):
        cfg = tiny_config(
            norms=("1:(S,O,O)", "SLTN", "MTN"),
            synthetic=datagen.SyntheticSpec.low_noise(
                dims=(10, 10, 10), multilinear_rank=(2, 2, 2), matrix_cols=15,
                matrix_rank=2, shared=2, seed=5,
            ),
            lambda_grid=LambdaGrid(0.001, 5.0, 8, "log"),
            train_fractions=(0.3,),
        )
        calls = []

        def spy(problem, d, lams, opts):
            fits = path(problem, d, lams, opts)
            calls.append((problem, d, opts, fits))
            return fits

        monkeypatch.setattr(harness.solver, "path", spy)
        # the spy records in this process, so the cells must run here, not in workers
        monkeypatch.setattr(harness, "_workers", lambda cells: 1)
        first = emit_report(run(cfg), tmp_path / "a")["results"].read_bytes()
        # one path per convex cell, over the grid from the largest lambda down
        assert len(calls) == 3
        for problem, d, opts, fits in calls:
            assert [fit.lam for fit in fits] == list(cfg.lambda_grid.values()[::-1])
            assert all(fit.converged for fit in fits)
            warm = sum(fit.iterations for fit in fits)
            cold = sum(solve(problem, d, replace(opts, lam=fit.lam, beta=fit.beta)).iterations for fit in fits)
            assert warm < cold, d
        assert emit_report(run(cfg), tmp_path / "b")["results"].read_bytes() == first

    @pytest.mark.skipif(harness._workers(2) < 2, reason="one usable CPU, so no worker pool to compare")
    def test_the_worker_pool_writes_the_serial_path_csvs(self, tmp_path, monkeypatch):
        cfg = tiny_config(norms=("1:(O,O,O)", "OTN", "MTN", "CP"), repetitions=2)
        pooled = emit_report(run(cfg), tmp_path / "pool")
        monkeypatch.setattr(harness, "_workers", lambda cells: 1)
        serial = emit_report(run(cfg), tmp_path / "serial")
        for name in ("results", "summary", "plotdata"):
            assert pooled[name].read_bytes() == serial[name].read_bytes(), name
        # one timings row per cell, in grid order: fraction, then repetition, then norm
        # (descriptor ids hold commas, so split each row from the right)
        rows = [line.rsplit(",", 3)[:3] for line in pooled["timings"].read_text().splitlines()[1:]]
        assert rows == [[norm, "0.5", str(rep)] for rep in range(2) for norm in cfg.norms]

    def test_one_worker_per_usable_cpu_and_at_most_one_per_cell(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert [harness._workers(n) for n in (1, 2, 10_000)] == [1, min(2, cpus), cpus]

    def test_a_cell_with_data_and_grid_scaled_by_64_converges_at_every_grid_point(self, monkeypatch):
        # above BETA_CAP beta stays at beta0, so the top of a scaled grid fits
        # about as fast as at scale 1; an uncapped beta = lambda * beta0 needs
        # more than the 2000 iterations at lambda = 28
        scale = 64.0
        spec = datagen.SyntheticSpec.low_noise(
            dims=(5, 5, 5), multilinear_rank=(2, 2, 2), matrix_cols=7, matrix_rank=2, shared=2, seed=5,
        )
        cfg = tiny_config(
            norms=("1:(S,O,O)",), synthetic=spec, train_fractions=(0.3,),
            lambda_grid=LambdaGrid(0.001 * scale, 5.0 * scale, 8, "log"),
        )
        T, M = (scale * X for X in datagen.gen_instance(spec))
        t_masks = datagen.gen_masks(T.shape, datagen.MaskSpec(0.3, 0.1, 100_000))
        m_masks = datagen.gen_masks(M.shape, datagen.MaskSpec(0.3, 0.1, 100_001))
        converged = []

        def spy(problem, d, lams, opts):
            fits = path(problem, d, lams, opts)
            converged.extend(fit.converged for fit in fits)
            return fits

        monkeypatch.setattr(harness.solver, "path", spy)
        harness._fit_cell(cfg, "1:(S,O,O)", T, M, t_masks, m_masks)
        assert converged == [True] * 8


class TestEmitReport:
    def test_empty_report_headers_only(self, tmp_path):
        cfg = tiny_config()
        report = harness.ExperimentReport(config=cfg)
        paths = emit_report(report, tmp_path)
        lines = paths["results"].read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("norm,fraction")

    def test_parse_back_reproduces_aggregates(self, tmp_path):
        cfg = tiny_config(norms=("OTN",), repetitions=2)
        report = run(cfg)
        paths = emit_report(report, tmp_path)
        rows = paths["results"].read_text().splitlines()[1:]
        parsed = [float(r.split(",")[5]) for r in rows]
        reread_mean = np.mean(parsed)
        assert reread_mean == pytest.approx(
            report.mean_test_mse("OTN", 0.5), rel=1e-9
        )

    def test_plotdata_series_count(self, tmp_path):
        cfg = tiny_config(norms=("1:(O,O,O)", "OTN"))
        report = run(cfg)
        paths = emit_report(report, tmp_path)
        lines = paths["plotdata"].read_text().splitlines()
        # one series row per (norm, fraction) pair plus the header
        assert len(lines) == 1 + len(cfg.norms) * len(cfg.train_fractions)

    def test_results_csv_deterministic(self, tmp_path):
        cfg = tiny_config(norms=("1:(O,O,O)", "SLTN"))
        b1 = emit_report(run(cfg), tmp_path / "a")["results"].read_bytes()
        b2 = emit_report(run(cfg), tmp_path / "b")["results"].read_bytes()
        assert b1 == b2


def test_the_readme_example_config_loads_as_documented(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S)
    path = tmp_path / "config.json"
    path.write_text(block.group(1))
    cfg = load_config(path)
    assert cfg.norms == ("1:(O,O,O)", "1:(S,O,O)", "OTN", "SLTN", "MTN", "CP")
    assert cfg.lambda_grid == LambdaGrid(0.001, 5.0, 8, "log")
    assert cfg.train_fractions == (0.3, 0.5, 0.7) and cfg.validation_fraction == 0.1
    assert cfg.repetitions == 3 and cfg.seed == 1
    assert cfg.solver == SolverOptions(tol_primal=1e-4, tol_dual=1e-4)
    assert cfg.synthetic == datagen.SyntheticSpec.low_noise(
        dims=(20, 20, 20), multilinear_rank=(5, 5, 5), matrix_cols=30, matrix_rank=5, shared=5, seed=1,
    )
