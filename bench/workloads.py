"""The benchmark's workloads.

Each workload has a set-up step, which builds its inputs from the seed, and a
fixed unit of work, which the runner repeats and times.  A unit returns one
:class:`Op` per operation it attempted, in a fixed order: whether the
operation passed its output check, its own wall time and its quality
record.  The package is passed in as a module namespace so that the runner
can re-import it for every set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the nine solver-supported descriptors
DESCRIPTORS = (
    "1:(O,O,O)", "1:(L,L,L)", "1:(S,S,S)",
    "1:(L,O,O)", "1:(O,L,O)", "1:(O,O,L)",
    "1:(S,O,O)", "1:(O,S,O)", "1:(O,O,S)",
)
SWEEP_NORMS = ("1:(O,O,O)", "1:(S,O,O)", "1:(S,S,S)", "OTN", "SLTN", "MTN", "CP")
# relative slack for floating-point identities checked on outputs
EXACT_RTOL = 1e-9


@dataclass
class Op:
    """One attempted operation of a unit of work."""

    ok: bool
    seconds: float
    record: dict = field(default_factory=dict)
    why: str = ""


def source_digest(cc) -> str:
    """sha256 over the package's source files, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(cc.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


class SweepPaper:
    """``coupled-completion run`` in-process on the README config, cut down.

    One fraction (0.3), so that a run repeats the sweep several times; an
    operation is a cell, timed by the harness itself (``timings.csv``).
    """

    name = "sweep-paper"

    def __init__(self, small: bool = False):
        self.small = small

    def setup(self, cc, seed: int, workdir: Path) -> None:
        n, grid = (10, 3) if self.small else (20, 8)
        rank = 2 if self.small else 5
        doc = {
            "norms": list(SWEEP_NORMS),
            "data": {"synthetic": {
                "dims": [n, n, n], "multilinear_rank": [rank] * 3,
                "matrix_cols": n + n // 2, "matrix_rank": rank, "shared": rank,
                "noise": "low",
            }},
            "lambda_grid": {"min": 0.001, "max": 5.0, "count": grid, "scale": "log"},
            "masks": {"train_fractions": [0.3], "validation_fraction": 0.1},
            "repetitions": 1,
            "seed": seed,
            "solver": {"tol_primal": 1e-4, "tol_dual": 1e-4},
            "output_dir": str(workdir / "out"),
        }
        self.cc = cc
        self.config_path = workdir / "config.json"
        config_text = json.dumps(doc, indent=1)
        self.config_path.write_text(config_text)
        self.cfg = cc.harness.load_config(self.config_path)
        # the instance the harness will generate, for the tensor sanity check
        T, _ = cc.datagen.gen_instance(self.cfg.synthetic)
        self.tensor_power = float(np.mean(T**2))
        self.results_csv = Path(self.cfg.output_dir) / "results.csv"
        # results.csv digests of earlier runs of this config on the same source
        key = hashlib.sha256((source_digest(cc) + config_text).encode()).hexdigest()
        self.digest_file = workdir / f"results-{key[:16]}.sha256"
        self.digests = set(self.digest_file.read_text().split()) if self.digest_file.exists() else set()

    def unit(self) -> list[Op]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cc.cli.main(["run", str(self.config_path)])
        data = self.results_csv.read_bytes()
        seconds = self._cell_seconds((self.results_csv.parent / "timings.csv").read_text())
        self.digests.add(hashlib.sha256(data).hexdigest())
        self.digest_file.write_text("\n".join(sorted(self.digests)) + "\n")
        unit_why = ""
        if code != 0:
            unit_why = f"exit code {code}"
        elif len(self.digests) != 1:
            unit_why = "results.csv differs between runs of the same config"
        ops = []
        for rec, dt in zip(self._parse(data.decode()), seconds):
            why = unit_why or self._check(rec)
            ops.append(Op(ok=not why, seconds=dt, record=rec, why=why))
        return ops

    @staticmethod
    def _cell_seconds(text: str) -> list[float]:
        # rows are "norm,fraction,repetition,wall_time_s"; the norm may hold commas
        return [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]

    def _parse(self, text: str) -> list[dict]:
        # descriptor ids contain commas and are written unquoted, so split
        # each row after its known norm id; the error text is the remainder
        out = []
        for line in text.splitlines()[1:]:
            norm = next(n for n in self.cfg.norms if line.startswith(n + ","))
            f = line[len(norm) + 1:].split(",", 8)
            lam = float(f[2])
            beta = None
            if norm != "CP":
                beta = max(lam, 1e-3) * self.cfg.solver.beta if self.cfg.beta_tracks_lambda else self.cfg.solver.beta
            out.append({
                "norm": norm, "fraction": float(f[0]), "lambda": lam, "beta": beta,
                "iterations": int(f[6]), "converged": f[7] == "True",
                "test_mse_tensor": float(f[4]), "test_mse_matrix": float(f[5]),
                "error": f[8],
            })
        return out

    def _check(self, rec: dict) -> str:
        if rec["error"]:
            return rec["error"]
        needs = {"MTN": ("matrix",), "OTN": ("tensor",), "SLTN": ("tensor",)}
        for part in needs.get(rec["norm"], ("tensor", "matrix")):
            if not math.isfinite(rec[f"test_mse_{part}"]):
                return f"non-finite test MSE ({part})"
        # a convex fit must beat predicting zero on the held-out tensor entries
        if rec["norm"] not in ("MTN", "CP") and not rec["test_mse_tensor"] < self.tensor_power:
            return "tensor test MSE not below the tensor's mean square"
        return ""

    def answer_loss(self, ops: list[Op]) -> float:
        """Coupled over individual held-out MSE, averaged over fractions and parts.

        Per fraction: the mean tensor MSE of the coupled descriptors over that
        of OTN and SLTN, and their mean matrix MSE over that of MTN.  The
        ratio cancels most of the instance-to-instance spread of raw MSE.
        """
        recs = [o.record for o in ops]
        coupled = [n for n in SWEEP_NORMS if n.startswith("1:")]
        ratios = []
        for f in self.cfg.train_fractions:
            at = {r["norm"]: r for r in recs if r["fraction"] == f}
            for part, individual in (("tensor", ("OTN", "SLTN")), ("matrix", ("MTN",))):
                key = f"test_mse_{part}"
                ratios.append(statistics.fmean(at[n][key] for n in coupled)
                              / statistics.fmean(at[n][key] for n in individual))
        return statistics.fmean(ratios)


class SolveLarge:
    """A direct ``solver.solve`` call at 50^3 with a 50 x 100 matrix.

    One descriptor, ``1:(O,O,O)`` (about 70 iterations), so that a run
    repeats the solve several times; ``1:(S,S,S)`` takes twice as long.
    """

    name = "solve-large"
    NORM = "1:(O,O,O)"
    LAM = 0.1
    TOL = 1e-4

    def __init__(self, small: bool = False):
        self.small = small

    def setup(self, cc, seed: int, workdir: Path) -> None:
        n, cols = (10, 20) if self.small else (50, 100)
        spec = cc.datagen.SyntheticSpec.low_noise(
            dims=(n, n, n), multilinear_rank=(5, 5, 5), matrix_cols=cols,
            matrix_rank=5, shared=5, seed=seed,
        )
        T, M = cc.datagen.gen_instance(spec)
        t_train, _, t_test = cc.datagen.gen_masks(T.shape, cc.datagen.MaskSpec(0.3, 0.1, 2 * seed))
        m_train, _, m_test = cc.datagen.gen_masks(M.shape, cc.datagen.MaskSpec(0.3, 0.1, 2 * seed + 1))
        self.cc = cc
        self.T, self.M, self.t_test, self.m_test = T, M, t_test, m_test
        self.problem = cc.solver.CoupledProblem(T, t_train, M, m_train, coupled_mode=1)
        self.opts = cc.solver.SolverOptions(
            lam=self.LAM, beta=self.LAM, tol_primal=self.TOL, tol_dual=self.TOL,
            record_objective=False,
        )
        observed = math.hypot(
            float(np.linalg.norm(T[t_train.as_tuple()])), float(np.linalg.norm(M[m_train.as_tuple()]))
        )
        self.res_scale = max(1.0, observed)
        self.noise_var = spec.noise_std**2
        (workdir / "inputs.json").write_text(json.dumps({
            "seed": seed, "dims": list(T.shape), "matrix_shape": list(M.shape),
            "norm": self.NORM, "lambda": self.LAM, "tol": self.TOL,
        }))

    def unit(self) -> list[Op]:
        d = self.cc.norms.parse_descriptor(self.NORM)
        t0 = time.perf_counter()
        try:
            res = self.cc.solver.solve(self.problem, d, self.opts)
        except Exception as exc:  # counted as a failed operation
            return [Op(ok=False, seconds=time.perf_counter() - t0, why=_raised(exc),
                       record={"norm": self.NORM, "test_mse_tensor": math.nan})]
        dt = time.perf_counter() - t0
        rec = {
            "norm": self.NORM, "lambda": self.opts.lam, "beta": self.opts.beta,
            "iterations": res.iterations, "converged": res.converged,
            "final_primal_residual": res.final_primal_residual,
            "final_dual_residual": res.final_dual_residual,
            "test_mse_tensor": _mse(self.T, res.tensor, self.t_test),
            "test_mse_matrix": _mse(self.M, res.matrix, self.m_test),
        }
        why = self._check(res, rec)
        return [Op(ok=not why, seconds=dt, record=rec, why=why)]

    def _check(self, res, rec: dict) -> str:
        if not res.converged:
            return "did not converge"
        total = sum(res.components)
        if not np.allclose(total, res.tensor, rtol=0.0, atol=EXACT_RTOL * float(np.max(np.abs(res.tensor)))):
            return "components do not sum to the returned tensor"
        limit = self.TOL * self.res_scale
        if not (rec["final_primal_residual"] <= limit and rec["final_dual_residual"] <= limit):
            return "final residuals above tolerance"
        if not _finite(rec["test_mse_tensor"], rec["test_mse_matrix"]):
            return "non-finite test MSE"
        return ""

    def answer_loss(self, ops: list[Op]) -> float:
        """Tensor test MSE over the noise variance.

        The matrix test MSE (in the quality record) is left out: on 30% of a
        50 x 100 matrix it varies by about 20% from seed to seed, the tensor
        figure by about 5%.
        """
        return ops[0].record["test_mse_tensor"] / self.noise_var


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _mse(truth: np.ndarray, pred: np.ndarray, mask) -> float:
    ix = mask.as_tuple()
    return float(np.mean((truth[ix] - pred[ix]) ** 2))


class EvaluateNorms:
    """Norm values, dual norms and the bound table on one 20^3 + 20 x 30 instance."""

    name = "evaluate-norms"
    TOL = 1e-6

    def __init__(self, small: bool = False):
        self.small = small

    def setup(self, cc, seed: int, workdir: Path) -> None:
        # The instance is the synthetic pair of seed 0 turned by seed-drawn
        # orthogonal matrices on every tensor mode and on the matrix columns
        # (the matrix rows turn with tensor mode 1).  Every coupled norm, and
        # every ADMM iterate of its evaluation, is invariant under such
        # rotations, so the work and the answers are the same for every seed
        # while the input arrays differ.  Raw instances of different seeds
        # vary the evaluation time by about 15%.
        n = 6 if self.small else 20
        rank = 2 if self.small else 5
        self.spec = cc.datagen.SyntheticSpec.low_noise(
            dims=(n, n, n), multilinear_rank=(rank,) * 3, matrix_cols=n + n // 2,
            matrix_rank=rank, shared=rank, seed=0,
        )
        T, M = cc.datagen.gen_instance(self.spec)
        rng = np.random.default_rng(seed)
        Q = [_orthogonal(rng, k) for k in (*T.shape, M.shape[1])]
        self.T = cc.tensor_ops.tucker_synthesize(T, *Q[:3])
        self.M = Q[0] @ M @ Q[3].T
        self.cc = cc
        self.descriptors = [cc.norms.parse_descriptor(d) for d in DESCRIPTORS]
        (workdir / "inputs.json").write_text(json.dumps({
            "seed": seed, "base_instance_seed": self.spec.seed, "dims": [n, n, n],
            "descriptors": list(DESCRIPTORS), "tol": self.TOL,
        }))

    def unit(self) -> list[Op]:
        norms, bounds = self.cc.norms, self.cc.bounds
        T, M = self.T, self.M
        ops = []

        def op(record: dict, fn, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                why = "" if _finite(*(value if isinstance(value, list) else [value])) else "non-finite value"
            except Exception as exc:  # counted as a failed operation
                value, why = math.nan, _raised(exc)
            ops.append(Op(ok=not why, seconds=time.perf_counter() - t0, why=why,
                          record={**record, "value": value}))
            return value

        values = {
            text: op({"descriptor": text, "latent": d.has_latent()}, norms.evaluate, T, M, d, tol=self.TOL)
            for text, d in zip(DESCRIPTORS, self.descriptors)
        }
        closed = norms.evaluate_overlapped(T, M, self.descriptors[0])
        if not math.isclose(values["1:(O,O,O)"], closed, rel_tol=EXACT_RTOL):
            self._fail(ops, "1:(O,O,O)", "differs from evaluate_overlapped")
        sq = float(np.vdot(T, T) + np.vdot(M, M))
        for text in ("1:(L,L,L)", "1:(S,S,S)"):
            dual = op({"dual_of": text}, norms.dual_norm_latent_type, T, M, norms.parse_descriptor(text))
            if sq > values[text] * dual * (1.0 + EXACT_RTOL):
                self._fail(ops, text, "Hoelder inequality <X,X> <= norm * dual fails")
        op({"dual_of": "1:(O,O,O)", "upper_bound": True}, norms.dual_norm_overlapped_upper, T, M)

        def bound_table():
            geometry = bounds.rank_geometry(self.spec)
            return [bounds.bound(nid, geometry) for nid in bounds.NORM_IDS]

        op({"bounds": list(self.cc.bounds.NORM_IDS)}, bound_table)
        return ops

    @staticmethod
    def _fail(ops: list[Op], descriptor: str, why: str) -> None:
        for op in ops:
            if op.record.get("descriptor") == descriptor:
                op.ok, op.why = False, why

    def answer_loss(self, ops: list[Op]) -> float:
        """Mean of each latent norm value over the closed-form (O,O,O) value.

        Every latent value is a feasible upper bound on an infimum, so lower
        is tighter.
        """
        recs = {o.record["descriptor"]: o.record for o in ops if "descriptor" in o.record}
        closed = recs["1:(O,O,O)"]["value"]
        return statistics.fmean(r["value"] / closed for r in recs.values() if r["latent"])


WORKLOADS = {w.name: w for w in (SweepPaper, SolveLarge, EvaluateNorms)}
