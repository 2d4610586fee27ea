"""The package reproduces the expected answers committed under ``tests/data/``.

Selected lambdas, iteration counts and convergence flags must match
exactly; every other number to ``RTOL``, which absorbs last-bit differences
of the BLAS and the ten significant digits of the CSVs, not a change of the
computation.  A change that moves an answer on purpose regenerates the
files (see ``expected_answers.py``) and says why.
"""

import json
import math

import pytest

import expected_answers as expected

RTOL = 1e-8
# results.csv columns compared exactly: the first three name the cell
EXACT = {"norm", "fraction", "repetition", "selected_lambda", "iterations", "converged", "error"}


def rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a sweep CSV, whose unquoted descriptor ids hold commas."""
    header, *lines = text.splitlines()
    names = header.split(",")
    out = []
    for line in lines:
        norm = next(n for n in expected.SWEEP_NORMS if line.startswith(n + ","))
        out.append(dict(zip(names, [norm, *line[len(norm) + 1:].split(",")], strict=True)))
    return names, out


def close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


@pytest.mark.parametrize("name", sorted(expected.SWEEPS))
def test_a_sweep_writes_the_expected_results_and_summary(name, tmp_path):
    written = expected.sweep(name, tmp_path)
    for csv in ("results", "summary"):
        names, want = rows((expected.DATA / name / f"{csv}.csv").read_text())
        got_names, got = rows(written[csv].read_text())
        assert got_names == names and len(got) == len(want)
        for g, w in zip(got, want):
            for key in names:
                same = g[key] == w[key] if key in EXACT else close(float(g[key]), float(w[key]))
                assert same, f"{name}/{csv}.csv {w['norm']} {key}: got {g[key]}, expected {w[key]}"


def test_the_brackets_of_the_nine_descriptors_are_the_expected_ones():
    want = json.loads((expected.DATA / "brackets.json").read_text())
    got = expected.brackets()
    assert list(got) == list(want)
    for d, ends in want.items():
        assert all(close(g, w) for g, w in zip(got[d], ends, strict=True)), (d, got[d], ends)


def test_a_solve_takes_the_expected_iterations_to_the_expected_values():
    want = json.loads((expected.DATA / "solve.json").read_text())
    got = expected.solve()
    assert (got["iterations"], got["converged"]) == (want["iterations"], want["converged"])
    assert list(got) == list(want)
    for key in want.keys() - {"iterations", "converged"}:
        assert close(got[key], want[key]), (key, got[key], want[key])
