"""Dense 3-way tensor algebra: unfolding/folding, the coupled unfolding,
Tucker synthesis and observation masks, and the one check of each kind of
operand: a coupled pair (:func:`check_pair`) and an array against its mask
(:meth:`ObservationMask.check`).

Conventions
-----------
Tensors are ``numpy`` arrays of shape ``(n1, n2, n3)`` and matrices are 2-d
arrays.  Modes are 1-based (``k in {1, 2, 3}``) to match the usual tensor
notation.  Vectorization and unfolding use column-major (Fortran) order: the
mode-``k`` unfolding places the mode-``k`` fibers as columns, with the
remaining indices varying fastest in ascending mode order.  ``fold`` is the
exact inverse of ``unfold`` (pure reindexing, no arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ObservationMask",
    "unfold",
    "fold",
    "tucker_synthesize",
    "mask_apply",
]

_ORTHO_TOL = 1e-10


# Per 0-based mode axis: that axis first, the other two ascending, and the
# inverse permutation that puts the axes back.
_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
_INVERSE = ((0, 1, 2), (1, 0, 2), (1, 2, 0))


# Rules of :func:`check_settings` for a finite real number, each its own
# wording in the error message; NaN fails every comparison
REAL, NON_NEGATIVE, POSITIVE = "finite", "finite and >= 0", "finite and > 0"
_REAL_RULES = {REAL: lambda v: -math.inf < v < math.inf, NON_NEGATIVE: lambda v: 0 <= v < math.inf,
               POSITIVE: lambda v: 0 < v < math.inf}


def _is(v, kinds: tuple[type, ...]) -> bool:
    """Whether ``v`` is an instance of ``kinds`` other than a boolean."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def check_settings(values: dict, **rules) -> None:
    """Raise ``ValueError`` unless each named entry of ``values`` keeps its rule.

    A rule is an int ``k`` for integers >= k, one integer or an array of
    them; ``REAL``, ``NON_NEGATIVE`` or ``POSITIVE`` for a finite real
    number; or a type, or a tuple of types, for a flag or a text.  Python
    and numpy ints and floats are numbers; a boolean never is, alone or
    inside an array.  The message reads ``{name} must be ..., got {value!r}``.
    """
    for name, rule in rules.items():
        value = values[name]
        if isinstance(rule, str):
            must = rule
            ok = _is(value, (int, float, np.integer, np.floating)) and _REAL_RULES[rule](value)
        elif isinstance(rule, int):
            must = f"integer and >= {rule}"
            ok = all(_is(v, (int, np.integer)) and v >= rule for v in np.ravel(np.asarray(value, dtype=object)))
        else:
            kinds = rule if isinstance(rule, tuple) else (rule,)
            must = " or ".join(t.__name__ for t in kinds).replace("NoneType", "None")
            ok = isinstance(value, kinds)
        if not ok:
            raise ValueError(f"{name} must be {must}, got {value!r}")


def check_mode(k, name: str = "mode", error: type[ValueError] = ValueError) -> int:
    """The 0-based axis of mode ``k``, which must be the integer 1, 2 or 3.

    Raises ``error`` naming ``name`` otherwise; a boolean is not a mode.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= 3:
        raise error(f"{name} must be 1, 2 or 3, got {k!r}")
    return k - 1


def check_pair(T, M, k, name: str = "mode") -> int:
    """The 0-based axis of mode ``k`` of the coupled pair ``(T, M)``.

    Raises ``ValueError`` naming ``name``, ``T`` or ``M`` unless ``k`` is a
    mode (:func:`check_mode`), ``T`` is 3-way and ``M`` is 2-d with a row
    per index of ``T``'s mode ``k``.  Reads shapes only.
    """
    axis = check_mode(k, name)
    if np.ndim(T) != 3:
        raise ValueError(f"T must be 3-way, got shape {np.shape(T)}")
    if np.ndim(M) != 2 or np.shape(M)[0] != np.shape(T)[axis]:
        raise ValueError(f"M must be 2-d with a row per index of T's mode {k}, got shape {np.shape(M)}")
    return axis


def unfold(T: np.ndarray, k: int, M: np.ndarray | None = None) -> np.ndarray:
    """Mode-``k`` unfolding of a 3-way tensor into an ``n_k x (N/n_k)`` matrix.

    With a matrix ``M``, the coupled unfolding ``[T_(k) | M]`` of the pair
    (:func:`check_pair`): the term by which every coupled norm shares the
    common mode.
    """
    axis = check_mode(k) if M is None else check_pair(T, M, k)
    T = np.asarray(T)
    if T.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={T.ndim}")
    T = T.transpose(_AXES[axis])
    n, a, b = T.shape
    Tk = T.reshape((n, a * b), order="F")
    return Tk if M is None else np.concatenate([Tk, M], axis=1)


def fold(Mk: np.ndarray, k: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor from its mode-``k`` unfolding."""
    axis = check_mode(k)
    if len(dims) != 3:
        raise ValueError(f"dims must have three entries, got {dims!r}")
    Mk = np.asarray(Mk)
    n, a, b = (dims[i] for i in _AXES[axis])
    if Mk.shape != (n, a * b):
        raise ValueError(
            f"mode-{k} unfolding of dims {dims} must have shape {(n, a * b)}, "
            f"got {Mk.shape}"
        )
    return Mk.reshape((n, a, b), order="F").transpose(_INVERSE[axis])


def tucker_synthesize(
    core: np.ndarray,
    U1: np.ndarray,
    U2: np.ndarray,
    U3: np.ndarray,
) -> np.ndarray:
    """Multilinear product ``core x1 U1 x2 U2 x3 U3``.

    Each factor ``U_k`` must be ``n_k x c_k`` with orthonormal columns
    (checked to 1e-10).  The result has multilinear rank at most
    ``core.shape``.
    """
    core = np.asarray(core)
    if core.ndim != 3:
        raise ValueError(f"core must be 3-way, got shape {core.shape}")
    factors = (U1, U2, U3)
    for k, U in enumerate(factors, start=1):
        U = np.asarray(U)
        if U.ndim != 2 or U.shape[1] != core.shape[k - 1]:
            raise ValueError(
                f"factor {k} must have {core.shape[k - 1]} columns, got shape {U.shape}"
            )
        gram = U.T @ U
        if U.shape[1] and np.max(np.abs(gram - np.eye(U.shape[1]))) > _ORTHO_TOL:
            raise ValueError(f"factor {k} does not have orthonormal columns")
    out = core
    for k, U in enumerate(factors, start=1):
        dims = list(out.shape)
        dims[k - 1] = U.shape[0]
        out = fold(np.asarray(U) @ unfold(out, k), k, tuple(dims))
    return out


@dataclass(frozen=True)
class ObservationMask:
    """Set of observed positions of a matrix or a 3-way tensor.

    ``indices`` is an ``(n_obs, ndim)`` integer array of 0-based positions,
    kept sorted lexicographically and free of duplicates; ``shape`` is the
    shape of the array being masked, integers >= 0, kept as a tuple of ints.
    """

    shape: tuple[int, ...]
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_settings(vars(self), shape=0)
        if np.ndim(self.shape) != 1:
            raise ValueError(f"shape must be a sequence of integers >= 0, got {self.shape!r}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        idx = np.asarray(self.indices)
        if idx.size == 0 and idx.ndim < 2:  # ``[]``: no positions, of any width
            idx = np.empty((0, len(self.shape)), dtype=np.intp)
        elif idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"mask indices must be integers, got dtype {idx.dtype}")
        if idx.ndim != 2 or idx.shape[1] != len(self.shape):
            raise ValueError(
                f"indices must be (n, {len(self.shape)}), got {idx.shape}"
            )
        if idx.size:
            if idx.min() < 0 or np.any(idx >= np.asarray(self.shape)):
                raise ValueError("mask index out of bounds")
            order = np.lexsort(idx.T[::-1])
            idx = idx[order]
            if np.any(np.all(idx[1:] == idx[:-1], axis=1)):
                raise ValueError("duplicate indices in mask")
        object.__setattr__(self, "indices", idx.astype(np.intp, copy=False))

    @classmethod
    def full(cls, shape: tuple[int, ...]) -> "ObservationMask":
        grids = np.indices(shape).reshape(len(shape), -1).T
        return cls(shape, grids)

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "ObservationMask":
        return cls(shape, np.empty((0, len(shape)), dtype=np.intp))

    def __len__(self) -> int:
        return self.indices.shape[0]

    def as_tuple(self) -> tuple[np.ndarray, ...]:
        """Index tuple usable for numpy fancy indexing."""
        return tuple(self.indices.T)

    def check(self, X, name: str) -> None:
        """Raise ``ValueError`` naming ``name`` unless ``X`` has the mask's shape."""
        if np.shape(X) != self.shape:
            raise ValueError(f"{name} must have the mask's shape {self.shape}, got {np.shape(X)}")

    def indicator(self) -> np.ndarray:
        """Dense 0/1 float array of the mask."""
        out = np.zeros(self.shape)
        out[self.as_tuple()] = 1.0
        return out


def mask_apply(X: np.ndarray, mask: ObservationMask) -> np.ndarray:
    """Keep observed entries of ``X`` and zero out the rest."""
    X = np.asarray(X)
    mask.check(X, "X")
    out = np.zeros_like(X, dtype=float)
    ix = mask.as_tuple()
    out[ix] = X[ix]
    return out
