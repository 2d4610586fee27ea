"""Configuration-driven experiment runner.

A single JSON document describes the data source (synthetic spec or files),
the norms to sweep, the regularization grid, the observation fractions and
repetitions, and solver options.  For every (norm, fraction, repetition)
cell the harness fits on the train mask, selects the regularization weight
on validation MSE, and reports test MSE separately for the tensor and the
matrix.  Everything is deterministic given the config, and results.csv is
byte-identical across reruns (wall times go to a separate timings.csv).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import baselines, datagen, norms, solver
from .solver import CoupledProblem, SolverOptions
from .tensor_ops import NON_NEGATIVE, POSITIVE, ObservationMask, check_settings

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "CellResult",
    "load_config",
    "run",
    "cross_validate",
    "load_sparse_tensor",
    "save_sparse_tensor",
    "load_matrix_csv",
    "save_matrix_csv",
    "emit_report",
]

BASELINE_IDS = ("MTN", "OTN", "SLTN", "CP")
# config fields given as JSON arrays; a scalar in their place is an error
_ARRAYS = frozenset({"norms", "train_fractions", "dims", "multilinear_rank"})


@dataclass(frozen=True)
class LambdaGrid:
    lo: float = 0.01
    hi: float = 5.0
    count: int = 10
    scale: str = "log"  # "linear" or "log"

    def __post_init__(self):
        check_settings(vars(self), lo=POSITIVE, hi=POSITIVE, count=1)
        if self.lo > self.hi:
            raise ValueError(f"lambda grid needs lo <= hi, got {self.lo!r}, {self.hi!r}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")

    def values(self) -> np.ndarray:
        if self.scale == "linear":
            return np.linspace(self.lo, self.hi, self.count)
        return np.geomspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class ExperimentConfig:
    norms: tuple[str, ...]
    synthetic: datagen.SyntheticSpec | None = None
    tensor_file: str | None = None
    matrix_file: str | None = None
    matrix_fully_observed: bool = False
    lambda_grid: LambdaGrid = LambdaGrid()
    train_fractions: tuple[float, ...] = (0.3, 0.5, 0.7)
    validation_fraction: float = 0.1
    repetitions: int = 3
    seed: int = 0
    cp_rank: int = 5
    cp_iters: int = 100
    solver: SolverOptions = SolverOptions()
    output_dir: str = "results"
    # not a setting: beta tracks lambda up to solver.BETA_CAP (see solver.path).  Only
    # bench/ reads it, and it goes with ROADMAP item 8, like the svd/svt import shims.
    beta_tracks_lambda: ClassVar[bool] = True

    def __post_init__(self):
        check_settings(vars(self), validation_fraction=NON_NEGATIVE, repetitions=1, cp_rank=1, cp_iters=1, seed=0,
                       matrix_fully_observed=bool, output_dir=str, tensor_file=(str, type(None)),
                       matrix_file=(str, type(None)))
        if not self.norms or not self.train_fractions:
            raise ValueError("at least one norm and one train fraction are required")
        if (self.synthetic is None) == (self.tensor_file is None):
            raise ValueError("configure exactly one of synthetic data or files")
        # the synthetic matrix has a row per tensor mode-1 index; file data is checked once read, in run
        dims = self.synthetic.dims if self.synthetic else None
        _check_norms(self.norms, dims, dims and dims[0])
        for f in self.train_fractions:
            datagen.MaskSpec(f, self.validation_fraction)  # raises on a bad split
        # every norm but CP selects its lambda on the validation entries it fits
        if self.validation_fraction == 0 and set(self.norms) != {"CP"}:
            raise ValueError("validation_fraction must be > 0 to select lambda for a non-CP norm")
        if self.matrix_fully_observed and "MTN" in self.norms:
            raise ValueError("matrix_fully_observed leaves MTN no matrix entries to validate on")


def _check_norms(norm_ids: tuple[str, ...], dims: tuple[int, ...] | None, rows: int | None) -> None:
    """Raise ``ValueError`` on a malformed descriptor id among ``norm_ids``.

    Given the tensor's ``dims`` and the matrix's ``rows``, also on the first
    descriptor, or ``CP`` (whose shared factor is the tensor's mode 1), whose
    coupled tensor mode has not ``rows`` indices.
    """
    for n in norm_ids:
        if n == "CP" or n not in BASELINE_IDS:
            k = 1 if n == "CP" else norms.parse_descriptor(n).coupled_mode
            if dims and dims[k - 1] != rows:
                raise ValueError(f"norm {n} couples tensor mode {k} ({dims[k - 1]} indices) to {rows} matrix rows")


def _section(doc: dict, key: str, path: str) -> dict:
    """Pop the sub-section ``key`` of ``doc`` (empty when absent).

    Raises ``ValueError`` naming its dotted ``path`` unless it is a JSON object.
    """
    section = doc.pop(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"{path} must be a JSON object, got {section!r}")
    return section


def _fields(doc: dict, path: str, *keys: str, **renamed: str) -> dict:
    """Constructor keywords set by the config section ``doc`` at dotted ``path``.

    The section accepts ``keys`` (each sets the field of its own name) and
    the keys of ``renamed`` (each sets the field it maps to); any other key,
    or a non-array value for a field of ``_ARRAYS``, raises ``ValueError``
    naming its dotted path.  Absent keys are left out, so the dataclass
    defaults apply.  JSON arrays become tuples.
    """
    names = {**{k: k for k in keys}, **renamed}
    dotted = {k: f"{path}.{k}" if path else k for k in doc}
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(dotted[k] for k in unknown)}")
    for k, v in doc.items():
        if names[k] in _ARRAYS and not isinstance(v, list):
            raise ValueError(f"{dotted[k]} must be a JSON array, got {v!r}")
    return {names[k]: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse the JSON config file.

    Raises ``ValueError`` naming the dotted path of any key it does not read,
    so a misspelt key cannot silently fall back to its default.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"the config must be a JSON object, got {doc!r}")
    # sub-sections come out first; each key left in a section sets a field
    data = _section(doc, "data", "data")
    synthetic = _section(data, "synthetic", "data.synthetic") if "synthetic" in data else None
    grid = _section(doc, "lambda_grid", "lambda_grid")
    masks = _section(doc, "masks", "masks")
    sdoc = _section(doc, "solver", "solver")
    fields = _fields(
        doc, "", "norms", "repetitions", "seed", "cp_rank", "cp_iters", "output_dir"
    )
    fields |= _fields(data, "data", "tensor_file", "matrix_file", "matrix_fully_observed")
    fields |= _fields(masks, "masks", "train_fractions", "validation_fraction")
    if synthetic is not None:
        noise = synthetic.pop("noise", "default")
        spec = _fields(
            synthetic, "data.synthetic",
            "dims", "multilinear_rank", "matrix_cols", "matrix_rank", "shared", "seed",
        )
        # a config shares no subspace unless it asks (SyntheticSpec's default is 5)
        spec.setdefault("shared", 0)
        # the instance seed falls back to the top-level seed
        spec.setdefault("seed", fields.get("seed", ExperimentConfig.seed))
        if isinstance(noise, dict):
            spec |= _fields(noise, "data.synthetic.noise", mean="noise_mean", std="noise_std")
        elif noise not in ("low", "default"):
            raise ValueError(
                "data.synthetic.noise must be 'low', 'default' or "
                f"{{\"mean\": ..., \"std\": ...}}, got {noise!r}"
            )
        make = datagen.SyntheticSpec.low_noise if noise == "low" else datagen.SyntheticSpec
        synthetic = make(**spec)
    return ExperimentConfig(
        synthetic=synthetic,
        lambda_grid=LambdaGrid(
            **_fields(grid, "lambda_grid", "count", "scale", min="lo", max="hi")
        ),
        solver=SolverOptions(
            **_fields(sdoc, "solver", "beta", "max_iters", "tol_primal", "tol_dual")
        ),
        **fields,
    )


@dataclass
class CellResult:
    norm: str
    fraction: float
    repetition: int
    # a failed cell keeps these defaults and carries the error text
    selected_lambda: float = float("nan")
    validation_mse: float = float("nan")
    test_mse_tensor: float = float("nan")
    test_mse_matrix: float = float("nan")
    iterations: int = 0
    converged: bool = False
    error: str = ""
    wall_time: float = 0.0


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cells: list[CellResult] = field(default_factory=list)

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.error]

    def test_mses(self, norm: str, fraction: float, which: str) -> list[float]:
        """Non-NaN test MSEs (``which`` is tensor or matrix) of successful cells."""
        vals = [
            getattr(c, f"test_mse_{which}")
            for c in self.cells
            if c.norm == norm and c.fraction == fraction and not c.error
        ]
        return [v for v in vals if not math.isnan(v)]

    def mean_test_mse(self, norm: str, fraction: float, which: str = "tensor") -> float:
        vals = self.test_mses(norm, fraction, which)
        return float(np.mean(vals)) if vals else float("nan")


def _pooled_mse(pairs) -> float:
    """MSE pooled over (truth, pred, mask) triples; empty masks add nothing.

    NaN when no triple has an observed entry.
    """
    sq = 0.0
    n = 0
    for truth, pred, mask in pairs:
        if len(mask) == 0:
            continue
        ix = mask.as_tuple()
        diff = truth[ix] - pred[ix]
        sq += float(np.sum(diff**2))
        n += len(mask)
    return sq / n if n else float("nan")


def cross_validate(fits: list[tuple[float, object, float]]) -> tuple[float, object, float]:
    """Pick the grid point with the lowest validation MSE.

    ``fits`` is ``[(lam, fitted, val_mse), ...]`` in any order; ties in MSE
    break toward the larger lambda, and among equal lambdas toward the later
    entry.  Raises if every fit failed (NaN MSE).
    """
    best = None
    for lam, fitted, mse in fits:
        if math.isnan(mse):
            continue
        if best is None or (mse, -lam) <= (best[2], -best[0]):
            best = (lam, fitted, mse)
    if best is None:
        raise RuntimeError("all fits failed during cross-validation")
    return best


def _fit_cell(
    cfg: ExperimentConfig,
    norm_id: str,
    T: np.ndarray,
    M: np.ndarray,
    t_masks: tuple[ObservationMask, ObservationMask, ObservationMask],
    m_masks: tuple[ObservationMask, ObservationMask, ObservationMask],
    cell_seed: int = 0,
) -> tuple[float, float, float, float, int, bool]:
    """Fit one cell; returns (lambda, val_mse, test_t, test_m, iters, conv).

    Validation MSE pools the parts the norm fits: the matrix for MTN, the
    tensor for OTN/SLTN, both otherwise; a part the norm does not fit gets
    a NaN test MSE.  The convex norms fit the lambda grid as one
    :func:`solver.path` from the largest value down, each fit starting from
    the one before (the largest from zero), so ``iters`` counts the selected
    fit's iterations from its warm start.
    """
    t_train, t_val, t_test = t_masks
    m_train, m_val, m_test = m_masks
    fits_tensor = norm_id != "MTN"
    fits_matrix = norm_id not in ("OTN", "SLTN")

    def val_mse(T_hat: np.ndarray, M_hat: np.ndarray) -> float:
        return _pooled_mse(
            ([(T, T_hat, t_val)] if fits_tensor else [])
            + ([(M, M_hat, m_val)] if fits_matrix else [])
        )

    if norm_id == "CP":
        factors = baselines.coupled_cp_als(
            T, M, t_train, m_train, rank=cfg.cp_rank, iters=cfg.cp_iters,
            seed=cell_seed,
        )
        T_hat = factors.reconstruct_tensor()
        M_hat = factors.reconstruct_matrix()
        lam, val = float("nan"), val_mse(T_hat, M_hat)
        iters, conv = len(factors.objective_trace), factors.converged
    else:
        if norm_id in BASELINE_IDS:
            data = (M, m_train) if norm_id == "MTN" else (T, t_train)
            problem, d = baselines.individual_problem(norm_id, *data)
        else:
            d = norms.parse_descriptor(norm_id)
            problem = CoupledProblem(T, t_train, M, m_train, coupled_mode=d.coupled_mode)
        fits = solver.path(problem, d, cfg.lambda_grid.values()[::-1], cfg.solver)
        lam, fit, val = cross_validate([(f.lam, f, val_mse(f.tensor, f.matrix)) for f in fits[::-1]])
        T_hat, M_hat, iters, conv = fit.tensor, fit.matrix, fit.iterations, fit.converged
    test_t = _pooled_mse([(T, T_hat, t_test)] if fits_tensor else [])
    test_m = _pooled_mse([(M, M_hat, m_test)] if fits_matrix else [])
    return lam, val, test_t, test_m, iters, conv


def _load_data(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, ObservationMask | None, ObservationMask | None]:
    """Returns (tensor, matrix, observed tensor mask or None, ditto matrix)."""
    if cfg.synthetic is not None:
        T, M = datagen.gen_instance(cfg.synthetic)
        return T, M, None, None
    T, t_obs = load_sparse_tensor(cfg.tensor_file)
    M, m_obs = load_matrix_csv(cfg.matrix_file)
    return T, M, t_obs, m_obs


def _subset_mask(base: ObservationMask | None, mask: ObservationMask) -> ObservationMask:
    """Restrict a generated mask to positions actually observed in the data."""
    if base is None:
        return mask
    keep = base.indicator()[mask.as_tuple()] > 0
    return ObservationMask(mask.shape, mask.indices[keep])


def _workers(cells: int) -> int:
    """Worker processes to fit ``cells`` cells in: one per usable CPU, at most one per cell.

    One where the usable CPUs cannot be read (``os.sched_getaffinity`` is
    missing on macOS and Windows), so the cells run in this process.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), cells)


def _timed_cell(
    cfg: ExperimentConfig,
    T: np.ndarray,
    M: np.ndarray,
    cell: tuple[str, float, int, tuple, tuple, int],
) -> CellResult:
    """Fit one cell and time it.

    ``cell`` is (norm, fraction, repetition, tensor masks, matrix masks,
    seed); a fit that raises fails only its cell, which carries the error.
    """
    norm_id, fraction, rep, t_masks, m_masks, cell_seed = cell
    t0 = time.perf_counter()
    try:
        # _fit_cell returns the fields after repetition, in order
        result = CellResult(norm_id, fraction, rep, *_fit_cell(
            cfg, norm_id, T, M, t_masks, m_masks, cell_seed=cell_seed,
        ))
    except Exception as exc:  # per-cell failure; run continues
        result = CellResult(norm_id, fraction, rep, error=str(exc))
    result.wall_time = time.perf_counter() - t0
    return result


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full (norm x fraction x repetition) grid.

    The cells are independent fits, so they run in worker processes, as
    many as ``_workers`` gives.  The workers are forked, not spawned: they
    start from this process's modules, patched or not, without importing
    the package again, so call ``run`` from a process with no threads of
    its own.  With one worker, or where the platform cannot fork, the cells
    run in this process.  Either way the report lists them in grid order
    with the same results; each cell's ``wall_time`` is its own fit's.
    """
    T, M, t_obs, m_obs = _load_data(cfg)
    _check_norms(cfg.norms, T.shape, M.shape[0])
    cells = []
    for fraction in cfg.train_fractions:
        for rep in range(cfg.repetitions):
            mask_seed = 100_000 * cfg.seed + 1_000 * rep
            t_spec = datagen.MaskSpec(fraction, cfg.validation_fraction, mask_seed)
            m_spec = datagen.MaskSpec(fraction, cfg.validation_fraction, mask_seed + 1)
            t_masks = tuple(
                _subset_mask(t_obs, m) for m in datagen.gen_masks(T.shape, t_spec)
            )
            if cfg.matrix_fully_observed:
                m_masks = (
                    _subset_mask(m_obs, ObservationMask.full(M.shape)),
                    ObservationMask.empty(M.shape),
                    ObservationMask.empty(M.shape),
                )
            else:
                m_masks = tuple(
                    _subset_mask(m_obs, m) for m in datagen.gen_masks(M.shape, m_spec)
                )
            cells += [(norm_id, fraction, rep, t_masks, m_masks, mask_seed + 7) for norm_id in cfg.norms]
    fit = partial(_timed_cell, cfg, T, M)
    workers = _workers(len(cells))
    if workers > 1:
        # imported here, not at the top, so that importing the package does
        # not pay the pool's import (about 30 ms)
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                return ExperimentReport(config=cfg, cells=list(pool.map(fit, cells)))
    return ExperimentReport(config=cfg, cells=list(map(fit, cells)))


# ---------------------------------------------------------------------------
# file formats


def load_sparse_tensor(path: str | Path) -> tuple[np.ndarray, ObservationMask]:
    """Read coordinate-format tensor data.

    Format: a header line ``dims: n1 n2 n3`` followed by one observed entry
    per line, ``i j k value`` with 1-based whitespace-separated indices.
    """
    path = Path(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip().startswith("dims:"):
        raise ValueError(f"{path}: missing 'dims: n1 n2 n3' header")
    try:
        dims = tuple(int(x) for x in lines[0].split(":", 1)[1].split())
    except ValueError:
        raise ValueError(f"{path}:1: malformed dims header") from None
    if len(dims) != 3 or any(n <= 0 for n in dims):
        raise ValueError(f"{path}:1: dims must be three positive integers")
    T = np.zeros(dims)
    seen: set[tuple[int, int, int]] = set()
    indices = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'i j k value'")
        try:
            i, j, k = (int(p) for p in parts[:3])
            value = float(parts[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed entry") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite value {parts[3]!r}")
        if not all(1 <= x <= n for x, n in zip((i, j, k), dims)):
            raise ValueError(f"{path}:{lineno}: index out of range for dims {dims}")
        pos = (i - 1, j - 1, k - 1)
        if pos in seen:
            raise ValueError(f"{path}:{lineno}: duplicate coordinate {(i, j, k)}")
        seen.add(pos)
        indices.append(pos)
        T[pos] = value
    return T, ObservationMask(dims, np.array(indices, dtype=np.intp).reshape(-1, 3))


def save_sparse_tensor(path: str | Path, T: np.ndarray, mask: ObservationMask) -> None:
    if np.ndim(T) != 3:
        raise ValueError(f"tensor must be 3-way, got shape {np.shape(T)}")
    mask.check(T, "tensor")
    lines = [f"dims: {T.shape[0]} {T.shape[1]} {T.shape[2]}"]
    for i, j, k in mask.indices:
        lines.append(f"{i + 1} {j + 1} {k + 1} {float(T[i, j, k])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix_csv(path: str | Path) -> tuple[np.ndarray, ObservationMask]:
    """Read a dense CSV; empty cells are unobserved."""
    path = Path(path)
    rows: list[list[str]] = []
    with open(path) as fh:
        for line in fh.read().splitlines():
            rows.append(line.split(","))
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: ragged row ({len(row)} != {width})")
    M = np.zeros((len(rows), width))
    indices = []
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                M[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}:{i + 1}: non-numeric cell {cell!r}"
                ) from None
            if not math.isfinite(M[i, j]):
                raise ValueError(f"{path}:{i + 1}: non-finite cell {cell!r}")
            indices.append((i, j))
    return M, ObservationMask(M.shape, np.array(indices, dtype=np.intp).reshape(-1, 2))


def save_matrix_csv(path: str | Path, M: np.ndarray, mask: ObservationMask) -> None:
    if np.ndim(M) != 2:
        raise ValueError(f"matrix must be 2-d, got shape {np.shape(M)}")
    mask.check(M, "matrix")
    obs = {tuple(row) for row in mask.indices}
    lines = []
    for i in range(M.shape[0]):
        lines.append(
            ",".join(
                repr(float(M[i, j])) if (i, j) in obs else "" for j in range(M.shape[1])
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# report emission


RESULT_COLUMNS = (
    "norm", "fraction", "repetition", "selected_lambda", "validation_mse",
    "test_mse_tensor", "test_mse_matrix", "iterations", "converged", "error",
)


def _write_csv(path: Path, header: str, rows) -> Path:
    """Write ``header`` and one line per row: floats as ``%.10g``, the rest by ``str``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
    return path


def emit_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write results.csv, summary.csv, plotdata.csv and timings.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = report.config
    # per (norm, fraction): mean and std of the tensor, then the matrix, test MSEs
    series = []
    for norm_id in cfg.norms:
        for fraction in cfg.train_fractions:
            row = [norm_id, fraction]
            for which in ("tensor", "matrix"):
                vals = report.test_mses(norm_id, fraction, which)
                row += [float(np.mean(vals)), float(np.std(vals))] if vals else [math.nan] * 2
            series.append(row)
    return {
        "results": _write_csv(
            out / "results.csv", ",".join(RESULT_COLUMNS),
            ([getattr(c, k) for k in RESULT_COLUMNS] for c in report.cells),
        ),
        "summary": _write_csv(
            out / "summary.csv",
            "norm,fraction,mean_test_mse_tensor,std_test_mse_tensor,"
            "mean_test_mse_matrix,std_test_mse_matrix",
            series,
        ),
        "plotdata": _write_csv(
            out / "plotdata.csv", "norm,fraction,mean_test_mse_tensor,mean_test_mse_matrix",
            ([*row[:3], row[4]] for row in series),
        ),
        "timings": _write_csv(
            out / "timings.csv", "norm,fraction,repetition,wall_time_s",
            ([c.norm, c.fraction, c.repetition, f"{c.wall_time:.3f}"] for c in report.cells),
        ),
    }
