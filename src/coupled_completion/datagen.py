"""Synthetic coupled matrix/tensor instances.

The tensor is a Tucker synthesis of a Gaussian core with orthonormal
factors; the coupled matrix is built from its SVD with the first ``shared``
singular values and left singular vectors overwritten by those of the
tensor's coupled-mode unfolding, so the pair shares an ``s``-dimensional
left singular subspace.  Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import NON_NEGATIVE, POSITIVE, REAL, ObservationMask, check_settings, tucker_synthesize, unfold

__all__ = [
    "SyntheticSpec",
    "MaskSpec",
    "gen_tensor",
    "gen_coupled_matrix",
    "gen_instance",
    "add_noise",
    "gen_masks",
]


@dataclass(frozen=True)
class SyntheticSpec:
    dims: tuple[int, int, int] = (20, 20, 20)
    multilinear_rank: tuple[int, int, int] = (5, 5, 5)
    matrix_cols: int = 30
    matrix_rank: int = 5
    shared: int = 5
    # additive Gaussian noise on both the tensor and the matrix
    noise_mean: float = 0.01
    noise_std: float = 1.0
    seed: int = 0

    @staticmethod
    def low_noise(**kwargs) -> "SyntheticSpec":
        """Preset with noise that stays well below the unit-scale signal."""
        kwargs.setdefault("noise_mean", 0.0)
        kwargs.setdefault("noise_std", 0.01)
        return SyntheticSpec(**kwargs)

    def __post_init__(self):
        check_settings(vars(self), dims=1, multilinear_rank=0, matrix_cols=1, matrix_rank=0, shared=0,
                       noise_mean=REAL, noise_std=NON_NEGATIVE, seed=0)
        if len(self.dims) != 3 or len(self.multilinear_rank) != 3:
            raise ValueError(f"dims and multilinear_rank need three entries, got {self!r}")
        if any(c > n for c, n in zip(self.multilinear_rank, self.dims)):
            raise ValueError("multilinear rank exceeds dimensions")
        if self.matrix_rank > min(self.dims[0], self.matrix_cols):
            raise ValueError("matrix rank exceeds dimensions")
        if self.shared > min(self.matrix_rank, self.multilinear_rank[0]):
            raise ValueError("shared components exceed available rank")


@dataclass(frozen=True)
class MaskSpec:
    train_fraction: float = 0.7
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_settings(vars(self), train_fraction=POSITIVE, validation_fraction=NON_NEGATIVE, seed=0)
        if self.train_fraction + self.validation_fraction >= 1.0:
            raise ValueError("train + validation fractions must sum below 1")


def _orthonormal(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, c)))
    # fix signs so the factor is a deterministic function of the Gaussian draw
    return Q * np.sign(np.where(np.diag(R) == 0, 1.0, np.diag(R)))


def gen_tensor(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Noise-free Tucker low-rank tensor with the spec's multilinear rank, drawn from ``rng``."""
    core = rng.standard_normal(spec.multilinear_rank)
    factors = [
        _orthonormal(rng, n, c) for n, c in zip(spec.dims, spec.multilinear_rank)
    ]
    return tucker_synthesize(core, *factors)


def gen_coupled_matrix(T: np.ndarray, spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Rank-``r`` matrix sharing ``spec.shared`` mode-1 components with ``T``.

    The non-shared singular values are drawn bounded away from zero; when
    components are shared they are additionally kept strictly below the
    shared singular values so that the shared directions stay dominant.
    """
    n1 = T.shape[0]
    r, s, m = spec.matrix_rank, spec.shared, spec.matrix_cols
    U = _orthonormal(rng, n1, r)
    V = _orthonormal(rng, m, r)
    S = np.sort(np.abs(rng.standard_normal(r)) + 0.5)[::-1]
    if s > 0:
        f = np.linalg.svd(unfold(T, 1), full_matrices=False)
        Un, Sn = f[0][:, :s], f[1][:s]
        if Sn[s - 1] <= 0:
            raise ValueError("tensor unfolding has fewer than `shared` components")
        # shared block verbatim from the unfolding
        U[:, :s] = Un
        S[:s] = Sn
        # re-orthogonalize the free block against the shared one and keep its
        # singular values strictly below the shared ones
        if r > s:
            free = U[:, s:] - Un @ (Un.T @ U[:, s:])
            Q, _ = np.linalg.qr(free)
            U[:, s:] = Q
            S[s:] = Sn[s - 1] * (0.5 + 0.4 * rng.random(r - s))
            S[s:] = np.sort(S[s:])[::-1]
    return (U * S) @ V.T


def add_noise(
    X: np.ndarray, mean: float, std: float, seed: int
) -> np.ndarray:
    """Elementwise additive Gaussian noise, deterministic given ``seed``."""
    check_settings(locals(), mean=REAL, std=NON_NEGATIVE)
    rng = np.random.default_rng(seed)
    return np.asarray(X, dtype=float) + mean + std * rng.standard_normal(np.shape(X))


def gen_instance(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Noisy (tensor, matrix) pair, drawn in that order from one ``default_rng(spec.seed)``."""
    rng = np.random.default_rng(spec.seed)
    T = gen_tensor(spec, rng)
    M = gen_coupled_matrix(T, spec, rng)
    T = add_noise(T, spec.noise_mean, spec.noise_std, spec.seed + 101)
    M = add_noise(M, spec.noise_mean, spec.noise_std, spec.seed + 102)
    return T, M


def gen_masks(
    shape: tuple[int, ...], maskspec: MaskSpec
) -> tuple[ObservationMask, ObservationMask, ObservationMask]:
    """Disjoint uniformly random (train, validation, test) index sets.

    Cardinalities are the fractions rounded to nearest integer; the test set
    is the remainder and may be empty for extreme fractions.  One random
    permutation of the flat (C-order) positions is cut into the three sets,
    and each is sorted and unravelled into index rows, so no grid of every
    position is built.
    """
    total = int(np.prod(shape))
    n_train = round(maskspec.train_fraction * total)
    n_val = round(maskspec.validation_fraction * total)
    if n_train + n_val > total:
        raise ValueError("train + validation exceed the number of entries")
    rng = np.random.default_rng(maskspec.seed)
    perm = rng.permutation(total)
    train, val, test = (
        ObservationMask(shape, np.array(np.unravel_index(np.sort(part), shape)).T)
        for part in np.split(perm, [n_train, n_train + n_val])
    )
    return train, val, test
