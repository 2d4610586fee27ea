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
    for d, entry in want.items():
        assert got[d]["iterations"] == entry["iterations"], (d, got[d], entry)
        assert close(got[d]["lower"], entry["lower"]) and close(got[d]["upper"], entry["upper"]), (d, got[d], entry)


def test_a_bracket_disjoint_from_the_committed_one_is_refused(tmp_path, monkeypatch):
    committed = {"1:(L,L,L)": {"lower": 1.0, "upper": 1.1, "iterations": 30},
                 "1:(S,S,S)": {"lower": 2.0, "upper": 2.1, "iterations": 40}}
    touching = {"1:(L,L,L)": {"lower": 1.1, "upper": 1.2, "iterations": 20},
                "1:(S,S,S)": {"lower": 2.05, "upper": 2.06, "iterations": 50}}
    assert expected.disjoint(touching, committed) == []
    moved = {**touching, "1:(S,S,S)": {"lower": 2.1000001, "upper": 2.2, "iterations": 50}}
    assert expected.disjoint(moved, committed) == ["1:(S,S,S)"]
    # write refuses before it computes a sweep or writes a file
    (tmp_path / "brackets.json").write_text(json.dumps(committed))
    monkeypatch.setattr(expected, "DATA", tmp_path)
    monkeypatch.setattr(expected, "brackets", lambda: moved)
    monkeypatch.setattr(expected, "solve", lambda: {"iterations": 1})
    monkeypatch.setattr(expected, "sweep", None)
    with pytest.raises(SystemExit, match=r"1:\(S,S,S\)"):
        expected.write()
    assert json.loads((tmp_path / "brackets.json").read_text()) == committed
    assert [p.name for p in tmp_path.iterdir()] == ["brackets.json"]


def test_a_solve_takes_the_expected_iterations_to_the_expected_values():
    want = json.loads((expected.DATA / "solve.json").read_text())
    got = expected.solve()
    assert (got["iterations"], got["converged"]) == (want["iterations"], want["converged"])
    assert list(got) == list(want)
    for key in want.keys() - {"iterations", "converged"}:
        assert close(got[key], want[key]), (key, got[key], want[key])
