"""Tests for the command line entry point."""

import json

import numpy as np

from coupled_completion import datagen, harness
from coupled_completion.cli import main

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
