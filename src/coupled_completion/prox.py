"""Dense SVD, trace/spectral norms and the singular value thresholding
proximal operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdFactors",
    "svd",
    "trace_norm",
    "spectral_norm",
    "svt",
    "numerical_rank",
]

# singular values below this multiple of the largest one count as zero
RANK_RTOL = 1e-12
# smallest matrix side at which svt takes the Gram route; below it the LAPACK
# SVD is as fast (measured crossover, one BLAS thread)
GRAM_MIN_SIDE = 10
# the Gram matrix resolves singular values only down to this multiple of the
# largest one: its eigenvalues carry an absolute error of about eps * smax**2
GRAM_RTOL = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U @ diag(S) @ Vt`` with ``S`` sorted non-increasing."""

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.Vt


def _as_matrix(X: np.ndarray) -> np.ndarray:
    """``X`` as a float array; ``ValueError`` unless it is a matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={X.ndim}")
    return X


def _matrix(X: np.ndarray) -> np.ndarray:
    """``X`` as a float array; ``ValueError`` unless it is a finite matrix."""
    X = _as_matrix(X)
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix contains non-finite entries")
    return X


def svd(X: np.ndarray) -> SvdFactors:
    """Thin SVD of a dense matrix.

    Raises on non-finite input; LAPACK convergence failures propagate as
    ``numpy.linalg.LinAlgError``.
    """
    U, S, Vt = np.linalg.svd(_matrix(X), full_matrices=False)
    return SvdFactors(U=U, S=S, Vt=Vt)


def _singular_values(X: np.ndarray) -> np.ndarray:
    X = _matrix(X)
    if min(X.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(X, compute_uv=False)


def trace_norm(X: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    return float(_singular_values(X).sum())


def spectral_norm(X: np.ndarray) -> float:
    """Largest singular value (operator norm).

    The square root of the largest eigenvalue of the smaller Gram matrix of
    ``X / max|X|``, rescaled: that eigenvalue is well conditioned, with an
    absolute error of about eps times itself, so the value carries a
    relative error of about eps.  Scaling keeps the Gram matrix from
    overflowing or underflowing.
    """
    X = _as_matrix(X)
    peak = float(np.max(np.abs(X), initial=0.0))
    if not np.isfinite(peak):
        raise ValueError("matrix contains non-finite entries")
    if peak == 0.0:
        return 0.0
    A = X / peak
    G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
    return peak * float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)))


def numerical_rank(X: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Number of singular values above ``rtol`` times the largest."""
    s = _singular_values(X)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def svt(X: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: prox of ``tau * trace_norm`` at ``X``.

    Returns the unique minimizer of ``0.5 * ||Z - X||_F^2 + tau * ||Z||_tr``,
    i.e. ``U (S - tau)_+ Vt``.  When both sides are at least
    ``GRAM_MIN_SIDE`` it is computed from the Gram matrix of ``X`` (see
    :func:`_svt_gram`); the LAPACK SVD serves smaller matrices and the
    spectra the Gram route cannot resolve.
    """
    if tau < 0:
        raise ValueError(f"threshold must be non-negative, got {tau}")
    # shape only: finiteness is left to the SVD, off this hot path
    X = _as_matrix(X)
    if min(X.shape, default=0) == 0:
        return X.copy()
    if tau == 0.0:
        return X.copy()
    if min(X.shape) >= GRAM_MIN_SIDE:
        wide = X.shape[0] <= X.shape[1]
        Z = _svt_gram(X if wide else X.T, tau)
        if Z is not None:
            return Z if wide else Z.T
    f = svd(X)
    s = np.maximum(f.S - tau, 0.0)
    return (f.U * s) @ f.Vt


def _svt_gram(A: np.ndarray, tau: float) -> np.ndarray | None:
    """SVT of a wide matrix ``A`` from the eigendecomposition of ``A A^T``.

    With ``A A^T = U diag(s**2) U^T`` the thresholded matrix is
    ``U diag((1 - tau/s)_+) U^T A``, so no right singular vectors are formed;
    only the kept eigenvectors enter the products.  Returns None when the
    Gram matrix is not finite (non-finite or overflowing input) or a kept
    singular value lies below ``GRAM_RTOL`` times the largest, which the
    Gram matrix cannot resolve.
    """
    G = A @ A.T
    if not np.all(np.isfinite(G)):
        return None
    w, U = np.linalg.eigh(G)
    s = np.sqrt(np.maximum(w, 0.0))  # ascending, so the kept values are a suffix
    k = int(np.count_nonzero(s > tau))
    if k == 0:
        return np.zeros_like(A)
    if s[-k] < GRAM_RTOL * s[-1]:
        return None
    Uk = U[:, -k:]
    return (Uk * (1.0 - tau / s[-k:])) @ (Uk.T @ A)
