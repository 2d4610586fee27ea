"""Tests for the command line entry point."""

import json

import numpy as np
import pytest

from coupled_completion import datagen, harness
from coupled_completion.cli import main
from coupled_completion.tensor_ops import ObservationMask

SYNTHETIC = {
    "dims": [8, 8, 8], "multilinear_rank": [2, 2, 2], "matrix_cols": 6,
    "matrix_rank": 2, "shared": 2, "seed": 5,
}


def write_config(path, **doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_bounds_csv_bytes(tmp_path):
    config = write_config(
        tmp_path / "c.json", norms=["1:(O,O,O)"], data={"synthetic": SYNTHETIC},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["bounds", config]) == 0
    assert (tmp_path / "out" / "bounds.csv").read_text() == (
        "norm,OOO,SSS,LLL,SOO,MTN,OTN,LTN,SLTN\n"
        "bound,202.5459756,104.7016209,104.7016209,139.6021612,16.45392584,"
        "101.2729878,33.7576626,50.63649389\n"
    )


def test_gen_then_run_on_the_files(tmp_path):
    gen_config = write_config(
        tmp_path / "gen.json", norms=["1:(O,O,O)"], data={"synthetic": SYNTHETIC},
        output_dir=str(tmp_path / "data"),
    )
    assert main(["gen", gen_config]) == 0
    T, M = datagen.gen_instance(harness.load_config(gen_config).synthetic)
    T_file, t_obs = harness.load_sparse_tensor(tmp_path / "data" / "tensor.txt")
    M_file, m_obs = harness.load_matrix_csv(tmp_path / "data" / "matrix.csv")
    assert np.array_equal(T_file, T) and len(t_obs) == T.size
    assert np.array_equal(M_file, M) and len(m_obs) == M.size

    run_config = write_config(
        tmp_path / "run.json", norms=["1:(O,O,O)", "MTN"],
        data={
            "tensor_file": str(tmp_path / "data" / "tensor.txt"),
            "matrix_file": str(tmp_path / "data" / "matrix.csv"),
        },
        lambda_grid={"min": 0.1, "max": 0.1, "count": 1},
        masks={"train_fractions": [0.5]}, repetitions=1,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", run_config]) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    # a descriptor id holds commas, so split off the 8 columns after the fraction
    assert rows[0].startswith("norm,fraction,repetition,")
    assert [row.rsplit(",", 8)[0] for row in rows[1:]] == ["1:(O,O,O),0.5", "MTN,0.5"]


@pytest.mark.parametrize(
    "doc, named",
    [({"solver": {"tolerance": 1e-4}}, "unknown config key(s): solver.tolerance"),
     ({"solver": {"beta": 0}}, "beta must be finite and > 0, got 0")],
    ids=["unknown key", "bad value"],
)
def test_a_config_error_is_one_line_and_exit_2(tmp_path, capsys, doc, named):
    config = write_config(tmp_path / "c.json", norms=["1:(O,O,O)"], data={"synthetic": SYNTHETIC},
                          output_dir=str(tmp_path / "out"), **doc)
    for command in ("run", "bounds", "gen"):
        assert main([command, config]) == 2
        err = capsys.readouterr().err
        assert err == f"coupled-completion: error: {named}\n"
    assert not (tmp_path / "out").exists()


def test_a_missing_config_file_is_one_line_and_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["run", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("coupled-completion: error: ") and err.count("\n") == 1
    assert missing in err


def test_bounds_and_gen_without_a_synthetic_spec_exit_2(tmp_path, capsys):
    config = write_config(
        tmp_path / "c.json", norms=["1:(O,O,O)"], output_dir=str(tmp_path / "out"),
        data={"tensor_file": "t.txt", "matrix_file": "m.csv"},
    )
    for command in ("bounds", "gen"):
        assert main([command, config]) == 2
        assert capsys.readouterr().err == f"coupled-completion: error: {command} requires a synthetic data spec\n"



@pytest.mark.parametrize(
    "data",
    [{"tensor_file": "t.txt"}, {"matrix_file": "m.csv"}, {"synthetic": SYNTHETIC, "matrix_file": "m.csv"}],
    ids=["tensor file only", "matrix file only", "matrix file beside synthetic"],
)
def test_a_config_naming_one_data_file_exits_2(tmp_path, capsys, data):
    config = write_config(tmp_path / "c.json", norms=["1:(O,O,O)"], data=data, output_dir=str(tmp_path / "out"))
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == (
        "coupled-completion: error: data.tensor_file and data.matrix_file must be given together\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "data", [{}, {"synthetic": SYNTHETIC, "tensor_file": "t.txt", "matrix_file": "m.csv"}],
    ids=["no source", "synthetic beside both files"],
)
def test_a_config_with_other_than_one_data_source_exits_2_naming_the_keys(tmp_path, capsys, data):
    config = write_config(tmp_path / "c.json", norms=["1:(O,O,O)"], data=data, output_dir=str(tmp_path / "out"))
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == (
        "coupled-completion: error: configure exactly one of data.synthetic or data.tensor_file/data.matrix_file\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_cell_failing_with_an_empty_message_exits_1(tmp_path, capsys, monkeypatch):
    def fails(*args):
        raise ValueError()

    monkeypatch.setattr(harness.solver, "path", fails)
    config = write_config(
        tmp_path / "c.json", norms=["1:(O,O,O)"], data={"synthetic": SYNTHETIC},
        lambda_grid={"min": 0.1, "max": 0.1, "count": 1}, masks={"train_fractions": [0.5]}, repetitions=1,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", config]) == 1
    assert capsys.readouterr().err.endswith("rep=0: ValueError\n")
    assert (tmp_path / "out" / "results.csv").read_text().splitlines()[1].endswith(",ValueError")

UNEVEN = {**SYNTHETIC, "dims": [6, 7, 8]}
MISFIT = "coupled-completion: error: norm 2:(O,O,O) couples tensor mode 2 (7 indices) to 6 matrix rows\n"


def test_a_descriptor_coupling_a_mode_the_synthetic_matrix_does_not_fit_exits_2(tmp_path, capsys):
    # the synthetic matrix has a row per tensor mode-1 index
    config = write_config(tmp_path / "c.json", norms=["1:(O,O,O)", "2:(O,O,O)"], data={"synthetic": UNEVEN},
                          output_dir=str(tmp_path / "out"))
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == MISFIT
    assert not (tmp_path / "out").exists()


def test_a_descriptor_coupling_a_mode_the_matrix_file_does_not_fit_exits_2(tmp_path, capsys):
    gen = write_config(tmp_path / "gen.json", norms=["1:(O,O,O)"], data={"synthetic": UNEVEN},
                       output_dir=str(tmp_path / "data"))
    assert main(["gen", gen]) == 0
    capsys.readouterr()
    config = write_config(
        tmp_path / "run.json", norms=["1:(O,O,O)", "2:(O,O,O)"],
        data={"tensor_file": str(tmp_path / "data" / "tensor.txt"),
              "matrix_file": str(tmp_path / "data" / "matrix.csv")},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", config]) == 2
    assert capsys.readouterr().err == MISFIT
    assert not (tmp_path / "out").exists()


def test_cp_on_a_matrix_file_whose_rows_fit_another_tensor_mode_exits_2(tmp_path, capsys):
    # coupled CP-ALS shares the tensor's mode-1 factor, so its matrix needs 6 rows
    rng = np.random.default_rng(0)
    T, M = rng.standard_normal((6, 7, 8)), rng.standard_normal((7, 3))
    harness.save_sparse_tensor(tmp_path / "tensor.txt", T, ObservationMask.full(T.shape))
    harness.save_matrix_csv(tmp_path / "matrix.csv", M, ObservationMask.full(M.shape))
    config = write_config(
        tmp_path / "run.json", norms=["2:(O,O,O)", "CP"],
        data={"tensor_file": str(tmp_path / "tensor.txt"), "matrix_file": str(tmp_path / "matrix.csv")},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", config]) == 2
    err = capsys.readouterr().err
    assert err == "coupled-completion: error: norm CP couples tensor mode 1 (6 indices) to 7 matrix rows\n"
    assert not (tmp_path / "out").exists()
