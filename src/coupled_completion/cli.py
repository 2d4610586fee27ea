"""Command line entry point.

Subcommands:
  run <config.json>     fit every configured norm and emit the report CSVs
  bounds <config.json>  emit the excess-risk bound comparison table
  gen <config.json>     write the synthetic instance to data files only

Exit codes: 0 on success, 1 when a cell failed, and 2, as for argparse's
usage errors, when the config or a file it names cannot be read or holds a
bad setting, or ``bounds`` or ``gen`` finds no synthetic data spec.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import datagen, harness
from .tensor_ops import ObservationMask


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    report = harness.run(cfg)
    paths = harness.emit_report(report, cfg.output_dir)
    failures = report.failures()
    print(f"wrote {paths['results']}")
    if failures:
        print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
        for c in failures:
            print(
                f"  norm={c.norm} fraction={c.fraction} rep={c.repetition}: {c.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _synthetic_config(args) -> tuple[harness.ExperimentConfig, Path]:
    """The config of a subcommand that needs a synthetic data spec, and its output directory, created."""
    cfg = harness.load_config(args.config)
    if cfg.synthetic is None:
        raise ValueError(f"{args.command} requires a synthetic data spec")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _cmd_bounds(args) -> int:
    cfg, out = _synthetic_config(args)
    base = bounds_mod.rank_geometry(cfg.synthetic)
    path = harness._write_csv(
        out / "bounds.csv", "norm," + ",".join(bounds_mod.NORM_IDS),
        [["bound", *(bounds_mod.bound(nid, base) for nid in bounds_mod.NORM_IDS)]],
    )
    print(f"wrote {path}")
    return 0


def _cmd_gen(args) -> int:
    cfg, out = _synthetic_config(args)
    T, M = datagen.gen_instance(cfg.synthetic)
    harness.save_sparse_tensor(out / "tensor.txt", T, ObservationMask.full(T.shape))
    harness.save_matrix_csv(out / "matrix.csv", M, ObservationMask.full(M.shape))
    print(f"wrote {out / 'tensor.txt'} and {out / 'matrix.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coupled-completion",
        description="Coupled matrix-tensor completion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("bounds", _cmd_bounds), ("gen", _cmd_gen)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON experiment config")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
