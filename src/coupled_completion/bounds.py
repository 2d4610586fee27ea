"""Numeric excess-risk bound calculators for the coupled and individual
trace-norm regularizers.

Each calculator evaluates a closed-form expression of the shape
(leading constant) * (rank/cap factor) * (dimension factor) * Lambda / |S|.
Unnamed absolute constants are exposed as ``C1`` and ``C2`` (default 1), so
the intended use is comparing norms at equal constants for a given problem
geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datagen import SyntheticSpec, gen_coupled_matrix, gen_tensor
from .prox import numerical_rank
from .tensor_ops import check_integers, unfold

__all__ = ["NORM_IDS", "BoundParams", "bound", "rank_geometry"]

NORM_IDS = ("OOO", "SSS", "LLL", "SOO", "MTN", "OTN", "LTN", "SLTN")


@dataclass(frozen=True)
class BoundParams:
    dims: tuple[int, int, int]
    matrix_cols: int
    ranks: tuple[int, int, int]
    coupled_rank: int  # rank of the mode-1 unfolding concatenated with the matrix
    B_tensor: float = 1.0
    B_matrix: float = 1.0
    Lipschitz: float = 1.0
    samples: int = 1
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        check_integers(self, dims=1, matrix_cols=1, ranks=0, coupled_rank=0, samples=1)
        for name in ("dims", "ranks"):
            if np.shape(getattr(self, name)) != (3,):
                raise ValueError(f"{name} needs three entries, got {getattr(self, name)!r}")
        if any(r > n for r, n in zip(self.ranks, self.dims)):
            raise ValueError("ranks exceed dimensions")
        for name in ("B_tensor", "B_matrix"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        for name in ("Lipschitz", "C1", "C2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")


def _coupled_dim_sqrt(p: BoundParams) -> float:
    n1, n2, n3 = p.dims
    return p.C2 * (math.sqrt(n1) + math.sqrt(n2 * n3 + p.matrix_cols))


def _uncoupled_dim_sqrt(p: BoundParams, k: int, const: float) -> float:
    return const * (math.sqrt(p.dims[k - 1]) + math.sqrt(math.prod(p.dims) / p.dims[k - 1]))


def _coupled_dim_scaled(p: BoundParams) -> float:
    n1, n2, n3 = p.dims
    return p.C2 * (n1 + math.sqrt(n1 * n2 * n3 + n1 * p.matrix_cols))


def bound(norm_id: str, p: BoundParams) -> float:
    """Evaluate the excess-risk bound for ``norm_id`` at geometry ``p``."""
    n1, n2, n3 = p.dims
    r1, r2, r3 = p.ranks
    rc = p.coupled_rank
    lead = p.Lipschitz / p.samples
    if norm_id == "OOO":
        ranks = math.sqrt(rc) * (p.B_tensor + p.B_matrix) + (
            math.sqrt(r2) + math.sqrt(r3)
        ) * p.B_tensor
        dim = min(
            _coupled_dim_sqrt(p),
            min(_uncoupled_dim_sqrt(p, k, p.C1) for k in (2, 3)),
        )
        return 1.5 * lead * ranks * dim
    if norm_id == "SSS":
        ranks = math.sqrt(rc / n1) * p.B_matrix + min(
            math.sqrt(rc / n1), min(math.sqrt(p.ranks[k - 1] / p.dims[k - 1]) for k in (2, 3))
        ) * p.B_tensor
        # dimension factor follows the proof's final display: the uncoupled
        # term carries the full dimension product
        dim = max(
            _coupled_dim_scaled(p),
            p.C1 * max(p.dims[k - 1] + math.sqrt(n1 * n2 * n3) for k in (2, 3)),
        )
        return 1.5 * lead * ranks * dim
    if norm_id == "LLL":
        ranks = math.sqrt(rc) * p.B_matrix + min(
            math.sqrt(rc), min(math.sqrt(r2), math.sqrt(r3))
        ) * p.B_tensor
        dim = max(
            _coupled_dim_sqrt(p),
            max(_uncoupled_dim_sqrt(p, k, p.C2) for k in (2, 3)),
        )
        return 1.5 * lead * ranks * dim
    if norm_id == "SOO":
        ranks = math.sqrt(rc / n1) * p.B_matrix + min(
            math.sqrt(rc / n1), math.sqrt(r2) + math.sqrt(r3)
        ) * p.B_tensor
        dim = max(
            _coupled_dim_scaled(p),
            min(_uncoupled_dim_sqrt(p, k, p.C1) for k in (2, 3)),
        )
        return 2.0 * lead * ranks * dim
    if norm_id == "MTN":
        return (
            p.C1
            * lead
            * p.B_matrix
            * math.sqrt(rc)
            * (math.sqrt(n1) + math.sqrt(p.matrix_cols))
        )
    if norm_id == "OTN":
        ranks = sum(math.sqrt(r) for r in p.ranks)
        dim = min(_uncoupled_dim_sqrt(p, k, 1.0) for k in (1, 2, 3))
        return p.C1 * lead * p.B_tensor * ranks * dim
    if norm_id == "LTN":
        ranks = min(math.sqrt(r) for r in p.ranks)
        dim = max(_uncoupled_dim_sqrt(p, k, 1.0) for k in (1, 2, 3))
        return p.C1 * lead * p.B_tensor * ranks * dim
    if norm_id == "SLTN":
        ranks = min(math.sqrt(r / n) for r, n in zip(p.ranks, p.dims))
        dim = max(n + math.sqrt(n1 * n2 * n3) for n in p.dims)
        return 1.5 * p.C1 * lead * p.B_tensor * ranks * dim
    raise ValueError(f"unknown norm id {norm_id!r}; expected one of {NORM_IDS}")


def rank_geometry(spec: SyntheticSpec, samples: int = 1) -> BoundParams:
    """Bound inputs measured from a noise-free instance of ``spec``.

    The multilinear ranks come from the spec; the coupled-unfolding rank and
    the Frobenius caps are measured on the generated pair.
    """
    rng = np.random.default_rng(spec.seed)
    T = gen_tensor(spec, rng)
    X = gen_coupled_matrix(T, spec, rng)
    return BoundParams(
        dims=spec.dims,
        matrix_cols=spec.matrix_cols,
        ranks=spec.multilinear_rank,
        coupled_rank=numerical_rank(unfold(T, 1, X), rtol=1e-10),
        B_tensor=float(np.linalg.norm(T)),
        B_matrix=float(np.linalg.norm(X)),
        samples=samples,
    )
