"""Command line entry point.

Subcommands:
  run <config.json>     fit every configured norm and emit the report CSVs
  bounds <config.json>  emit the excess-risk bound comparison table
  gen <config.json>     write the synthetic instance to data files only
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

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


def _cmd_bounds(args) -> int:
    cfg = harness.load_config(args.config)
    if cfg.synthetic is None:
        print("bounds require a synthetic data spec", file=sys.stderr)
        return 1
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = bounds_mod.rank_geometry(cfg.synthetic)
    path = harness._write_csv(
        out / "bounds.csv", "norm," + ",".join(bounds_mod.NORM_IDS),
        [["bound", *(bounds_mod.bound(nid, base) for nid in bounds_mod.NORM_IDS)]],
    )
    print(f"wrote {path}")
    return 0


def _cmd_gen(args) -> int:
    cfg = harness.load_config(args.config)
    if cfg.synthetic is None:
        print("gen requires a synthetic data spec", file=sys.stderr)
        return 1
    T, M = datagen.gen_instance(cfg.synthetic)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
