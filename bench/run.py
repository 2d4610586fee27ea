"""Benchmark runner: one workload, one seed, one process.

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 45 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.  Set-up (package
import, input generation, config writing) is repeated and timed on its own;
then the workload's fixed unit of work is repeated until ``--seconds`` would
be exceeded (at least once) and every unit's outputs are checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units and reports the per-layer metrics of the traced
ones (see ``tracer.py``).  The last line of standard output is one JSON
object; the full record, with the run context and a quality record per fit,
goes to ``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "coupled_completion"
SETUP_REPEATS = 9
# BLAS threads for the whole run (see "How a run measures" in README.md)
BLAS_THREADS = "1"


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import the package afresh: drop every cached module of it first."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cc = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return cc


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, asked through its C API."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def context(seed: int, cc) -> dict:
    import numpy as np

    from workloads import source_digest

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(cc),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def quality(records: list[dict], failed_frac: float) -> dict:
    """The quality figures of one unit's records that apply to its workload."""
    q = {}
    for key in ("test_mse_tensor", "test_mse_matrix"):
        vals = [r[key] for r in records if key in r and math.isfinite(r[key])]
        if vals:
            q[key] = statistics.fmean(vals)
    latent = [r["value"] for r in records if r.get("latent")]
    if latent:
        q["norm_value_sum"] = math.fsum(latent)
    converged = [r["converged"] for r in records if "converged" in r]
    if converged:
        q["unconverged_frac"] = converged.count(False) / len(converged)
    q["failed_frac"] = failed_frac
    return q


def timed_setup(workload, seed: int, workdir: Path):
    t0 = time.perf_counter()
    cc = import_package()
    workload.setup(cc, seed, workdir)
    return cc, time.perf_counter() - t0


def run_unit(workload):
    t0 = time.perf_counter()
    ops = workload.unit()
    return ops, time.perf_counter() - t0


def robust_unit_time(units: list[tuple[list, float]]) -> float:
    """Sum over a unit's operations of each one's median time across units,
    plus the median of the time outside them.

    Taking medians per operation, not per unit, discards the bursts of
    contention that slow a shared machine for a few seconds at a time.
    """
    per_op = zip(*([op.seconds for op in ops] for ops, _ in units))
    rest = [dt - math.fsum(op.seconds for op in ops) for ops, dt in units]
    return math.fsum(statistics.median(times) for times in per_op) + statistics.median(rest)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced input sizes, for the self-tests")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        _die(f"package source not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # read once, when numpy loads its BLAS
    import numpy as np  # noqa: F401  (imported before set-up is timed)

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](small=args.small)
    workdir = args.out / "work" / f"{args.workload}-seed{args.seed}{'-small' if args.small else ''}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s = []
    setup_trace = None
    for _ in range(SETUP_REPEATS):
        cc, dt = timed_setup(workload, args.seed, workdir)
        setup_s.append(dt)
    if args.trace:
        # one more set-up, traced, for the datagen and config-loading layers
        cc = import_package()
        with tracing.Tracer(PACKAGE) as setup_trace:
            workload.setup(cc, args.seed, workdir)

    plain: list[tuple[list, float]] = []
    traced: list[tuple[list, float]] = []
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        plain.append(run_unit(workload))
        if args.trace:
            before = tracing.bindings(PACKAGE)
            with tracing.Tracer(PACKAGE) as tr:
                traced.append(run_unit(workload))
            if tracing.bindings(PACKAGE) != before:
                _die("tracer left a patched binding behind")
            layers.append(tracing.layer_metrics(tr, traced[-1][1], setup_trace))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break

    ops = [op for unit_ops, _ in plain + traced for op in unit_ops]
    failed = [op for op in ops if not op.ok]
    first = plain[0][0]
    records = [op.record for op in first]
    wall_s = robust_unit_time(plain)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(layer[name][0] for layer in layers), "unit": layers[0][name][1]}
            for name in layers[0]
        }
        metrics["trace_overhead_frac"] = {
            "value": robust_unit_time(traced) / wall_s - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "answer_loss": {"value": workload.answer_loss(first), "unit": "ratio"},
        }
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "small": args.small,
        "context": context(args.seed, cc),
        "setup_s": setup_s,
        "unit_s": [dt for _, dt in plain],
        "traced_unit_s": [dt for _, dt in traced],
        "op_s": [[op.seconds for op in unit_ops] for unit_ops, _ in plain],
        "quality": quality(records, len(failed) / len(ops)),
        "failures": [{"why": op.why, **op.record} for op in failed],
        "fits": records,
        **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    for op in failed[:10]:
        print(f"bench: failed: {op.why}: {op.record}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
