"""Span tracer that times calls into the package's modules from outside.

The tracer wraps every public function of each layer module, every name
under which another package module imported such a function (for example
``solver.svd`` or ``baselines.solve``), and two hot methods
(``ObservationMask.indicator`` and ``ComponentLayout.regularized_modes``).
Each call records one span: its name, its duration and the index of the
span that was open when it started.  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer figures.  Leaving the
``with`` block restores every binding it replaced.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types

LAYERS = ("datagen", "harness", "solver", "prox", "tensor_ops", "norms", "baselines", "bounds")
METHODS = (
    ("tensor_ops", "ObservationMask", "indicator"),
    ("norms", "ComponentLayout", "regularized_modes"),
)
# ADMM completion solves; tensor_ops calls inside them count as per-iteration work
ADMM_SPANS = ("solver.solve", "baselines.complete_matrix_mtn")
SOLVER_PHASES = tuple(
    f"solver.{p}" for p in ("update_matrix", "update_tensors", "update_auxiliaries", "update_duals")
)
# unfolding shapes that the workloads threshold; reported by name on every workload
SVD_SHAPES = ((20, 400), (20, 430), (50, 2500), (50, 2600))
PER_ITER = (
    ("tensor_ops.indicator_per_iter", "tensor_ops.ObservationMask.indicator"),
    ("tensor_ops.mask_apply_per_iter", "tensor_ops.mask_apply"),
    ("tensor_ops.unfold_per_iter", "tensor_ops.unfold"),
    ("tensor_ops.fold_per_iter", "tensor_ops.fold"),
    ("norms.regularized_modes_per_iter", "norms.ComponentLayout.regularized_modes"),
)


def package_modules(package: str) -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def bindings(package: str) -> dict[tuple[str, str], int]:
    """Identity of every module global and class attribute of the package."""
    out = {}
    for mod in package_modules(package):
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = id(val)
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    out[(f"{mod.__name__}.{attr}", cattr)] = id(cval)
    return out


class Tracer:
    """Context manager that patches the package and records spans."""

    def __init__(self, package: str = "coupled_completion"):
        self.package = package
        self.names: list[str] = []
        self.parents: list[int] = []
        self.durations: list[float] = []
        self.info: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_svd: tuple[int, object] | None = None

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        try:
            for mod in package_modules(self.package):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        self._patch(mod, attr, wrappers[id(val)])
            for layer, cls_name, meth in METHODS:
                cls = getattr(sys.modules[f"{self.package}.{layer}"], cls_name)
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _wrap(self, name: str, fn):
        names, parents, durations, stack = self.names, self.parents, self.durations, self._stack
        clock = time.perf_counter
        note = self._notes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            durations.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                durations[idx] = clock() - t0
                stack.pop()
            if note is not None:
                note(self, idx, args, kwargs, out)
            return out

        return traced

    # -- per-call notes: what a span did, read from its arguments and result --

    def _note_svd(self, idx, args, kwargs, out):
        self.info[idx] = tuple(args[0].shape)
        self._last_svd = (idx, out.S)

    def _note_svt(self, idx, args, kwargs, out):
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        last = self._last_svd
        if last is not None and self.parents[last[0]] == idx:
            s = last[1]
            self.info[idx] = (int((s > tau).sum()), int(s.size))

    def _note_solve(self, idx, args, kwargs, out):
        self.info[idx] = (out.iterations, out.converged)

    def _note_cp(self, idx, args, kwargs, out):
        self.info[idx] = len(out.objective_trace)

    def _note_run(self, idx, args, kwargs, out):
        self.info[idx] = [c.wall_time for c in out.cells]

    _notes = {
        "prox.svd": _note_svd,
        "prox.svt": _note_svt,
        "solver.solve": _note_solve,
        "baselines.complete_matrix_mtn": _note_solve,
        "baselines.coupled_cp_als": _note_cp,
        "harness.run": _note_run,
    }


# ---------------------------------------------------------------------------
# aggregation


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _spans(tr: Tracer, name: str) -> list[int]:
    return [i for i, n in enumerate(tr.names) if n == name]


def _total(tr: Tracer, *names: str) -> float:
    return sum(d for n, d in zip(tr.names, tr.durations) if n in names)


def _time_outside(tr: Tracer, root: str, excluded) -> float:
    """Time in ``root`` spans not covered by descendant spans matching ``excluded``."""
    inside = [False] * len(tr.names)
    covered = [False] * len(tr.names)
    cut = 0.0
    for i, (name, p) in enumerate(zip(tr.names, tr.parents)):
        if p < 0:
            continue
        inside[i] = tr.names[p] == root or inside[p]
        covered[i] = covered[p] or (inside[p] and excluded(tr.names[p]))
        if inside[i] and not covered[i] and excluded(name):
            cut += tr.durations[i]
    return _total(tr, root) - cut


def svd_flop(m: int, n: int) -> float:
    """Flop count of a thin SVD with both factors (Golub & Van Loan, R-SVD)."""
    lo, hi = sorted((m, n))
    return 4.0 * hi * lo * lo + 22.0 * lo ** 3


def _pct(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer, wall_s: float, setup: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures, as ``name -> (value, unit)``.

    ``tr`` traced one unit of work taking ``wall_s`` seconds; ``setup``
    traced one set-up, which feeds the datagen and config-loading figures.
    """
    names, dur, info = tr.names, tr.durations, tr.info
    m: dict[str, tuple[float, str]] = {}

    for key, fn in (("gen_instance_s", "gen_instance"), ("gen_masks_s", "gen_masks")):
        m[f"datagen.{key}"] = (_total(setup, f"datagen.{fn}"), "s")
    m["harness.load_config_s"] = (_total(setup, "harness.load_config"), "s")

    cells = [w for i in _spans(tr, "harness.run") for w in info.get(i, [])]
    m["harness.cells"] = (len(cells), "count")
    m["harness.cell_s_p50"] = (statistics.median(cells) if cells else 0.0, "s")
    m["harness.cell_s_max"] = (max(cells, default=0.0), "s")
    m["harness.self_s"] = (
        _time_outside(tr, "harness.run", lambda n: _layer(n) in ("solver", "baselines", "datagen")), "s")
    m["harness.emit_report_s"] = (_total(tr, "harness.emit_report"), "s")

    solves = _spans(tr, "solver.solve")
    solve_ms = [1000.0 * dur[i] for i in solves]
    iters = sum(info[i][0] for i in solves if i in info)
    solve_s = _total(tr, "solver.solve")
    m["solver.solve_calls"] = (len(solves), "count")
    m["solver.solve_s"] = (solve_s, "s")
    m["solver.solve_ms_p50"] = (_pct(solve_ms, 50), "ms")
    m["solver.solve_ms_p90"] = (_pct(solve_ms, 90), "ms")
    m["solver.iters"] = (iters, "count")
    m["solver.iter_ms"] = (1000.0 * solve_s / iters if iters else 0.0, "ms")
    for phase in SOLVER_PHASES:
        m[f"{phase}_s"] = (_total(tr, phase), "s")
    m["solver.self_s"] = (_time_outside(tr, "solver.solve", lambda n: n in SOLVER_PHASES), "s")
    fits = [info[i] for n in ADMM_SPANS for i in _spans(tr, n) if i in info]
    m["solver.unconverged_frac"] = (
        sum(1 for _, ok in fits if not ok) / len(fits) if fits else 0.0, "ratio")

    svds = _spans(tr, "prox.svd")
    shapes = [info[i] for i in svds if i in info]
    svd_s = _total(tr, "prox.svd")
    gflop = sum(svd_flop(*shape) for shape in shapes) / 1e9
    m["prox.svd_calls"] = (len(svds), "count")
    m["prox.svd_s"] = (svd_s, "s")
    m["prox.svd_share"] = (svd_s / wall_s if wall_s > 0 else 0.0, "ratio")
    for shape in SVD_SHAPES:
        ms = [1000.0 * dur[i] for i in svds if info.get(i) == shape]
        m[f"prox.svd_ms.{shape[0]}x{shape[1]}"] = (statistics.median(ms) if ms else 0.0, "ms")
    m["prox.svd_gflop"] = (gflop, "Gflop-computed")
    m["prox.svd_gflops"] = (gflop / svd_s if svd_s > 0 else 0.0, "Gflop/s")
    svts = _spans(tr, "prox.svt")
    kept = [info[i] for i in svts if i in info]
    m["prox.svt_calls"] = (len(svts), "count")
    m["prox.svt_s"] = (_total(tr, "prox.svt"), "s")
    computed = sum(t for _, t in kept)
    m["prox.svt_kept_frac"] = (sum(k for k, _ in kept) / computed if computed else 0.0, "ratio")

    admm_iters = iters + sum(info[i][0] for i in _spans(tr, ADMM_SPANS[1]) if i in info)
    in_admm = [False] * len(names)
    counts: dict[str, int] = {}
    for i, p in enumerate(tr.parents):
        if p >= 0:
            in_admm[i] = in_admm[p] or names[p] in ADMM_SPANS
        if in_admm[i]:
            counts[names[i]] = counts.get(names[i], 0) + 1
    for key, name in PER_ITER:
        m[key] = (counts.get(name, 0) / admm_iters if admm_iters else 0.0, "calls/iter")
    m["tensor_ops.s"] = (
        sum(d for n, p, d in zip(names, tr.parents, dur)
            if _layer(n) == "tensor_ops" and (p < 0 or _layer(names[p]) != "tensor_ops")), "s")

    m["norms.evaluate_calls"] = (len(_spans(tr, "norms.evaluate")), "count")
    m["norms.evaluate_s"] = (_total(tr, "norms.evaluate"), "s")
    m["norms.dual_norm_s"] = (
        _total(tr, "norms.dual_norm_latent_type", "norms.dual_norm_overlapped_upper"), "s")
    m["bounds.bound_s"] = (_total(tr, "bounds.bound"), "s")

    m["baselines.mtn_s"] = (_total(tr, "baselines.complete_matrix_mtn"), "s")
    m["baselines.mtn_iters"] = (admm_iters - iters, "count")
    m["baselines.complete_tensor_s"] = (_total(tr, "baselines.complete_tensor"), "s")
    m["baselines.cp_als_s"] = (_total(tr, "baselines.coupled_cp_als"), "s")
    m["baselines.cp_sweeps"] = (
        sum(info.get(i, 0) for i in _spans(tr, "baselines.coupled_cp_als")), "count")
    return m
