"""Tests for the experiment harness: config, file formats, CV, reports."""

import json
import re

import numpy as np
import pytest

from coupled_completion import datagen, harness
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
from coupled_completion.solver import SolverOptions
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
                record_objective=False,
            ),
            beta_tracks_lambda=True,
            output_dir="results",
        )
        # the instance seed falls back to the top-level seed
        path.write_text(json.dumps({"norms": ["MTN"], "data": {"synthetic": {}}, "seed": 7}))
        assert load_config(path).synthetic.seed == 7

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
        # not the smallest grid point
        from coupled_completion.baselines import complete_matrix_mtn

        rng = np.random.default_rng(4)
        M = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 12))
        M_noisy = M + 0.5 * rng.standard_normal(M.shape)
        train, val, _ = datagen.gen_masks(M.shape, datagen.MaskSpec(0.5, 0.3, 4))
        fits = []
        for lam in np.geomspace(1e-4, 10.0, 12):
            opts = SolverOptions(lam=lam, beta=max(lam, 1e-3), tol_primal=1e-5, tol_dual=1e-5)
            res = complete_matrix_mtn(M_noisy, train, lam, opts)
            ix = val.as_tuple()
            fits.append((lam, res, float(np.mean((M[ix] - res.matrix[ix]) ** 2))))
        lam_star, _, _ = cross_validate(fits)
        assert lam_star > fits[0][0]


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

    def test_per_cell_failure_recorded(self):
        # a mode-2 coupling needs matrix rows == n2; non-cubic dims make
        # this cell fail, and the failure must be recorded, not raised
        cfg = tiny_config(
            norms=("2:(O,O,O)",),
            synthetic=datagen.SyntheticSpec.low_noise(
                dims=(8, 7, 6),
                multilinear_rank=(2, 2, 2),
                matrix_cols=6,
                matrix_rank=2,
                shared=2,
                seed=5,
            ),
        )
        report = run(cfg)
        assert len(report.failures()) == 1
        assert report.failures()[0].error

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
        real_solve = harness.solver.solve

        def spy(problem, d, opts):
            seen.append(problem.matrix_mask)
            return real_solve(problem, d, opts)

        monkeypatch.setattr(harness.solver, "solve", spy)
        assert not run(cfg).failures()
        assert len(seen) == 1
        assert sorted(map(tuple, seen[0].indices)) == sorted(map(tuple, cells))


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
