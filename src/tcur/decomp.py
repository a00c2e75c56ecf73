"""Tensor CUR decomposition with deterministic norm-score index selection.

Columns are scored by summed Fourier-domain fiber norms, the top-r kept;
rows are then scored on the restriction to the selected columns. The
sampled sub-tensors C = W(:, J, :), U = W(I, J, :), R = W(I, :, :) are
extracted in the Fourier domain and transformed back, which coincides with
spatial-domain index selection because the mode-3 FFT acts tube-wise.

Reconstruction is ``C * pinv(U) * R`` under the t-product. At n3 = 1 the
t-product is the matrix product, so the same functions give per-matrix CUR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, RankOutOfRange, ZeroTensor
from .tensor_ops import (
    DEFAULT_SV_TOL_FACTOR,
    _as_tensor3,
    fft_mode3,
    ifft_mode3,
    tpinv,
    tprod,
)


@dataclass(frozen=True)
class TcurFactors:
    """Frozen output of :func:`tcur`.

    Attributes:
        C: column slab, (n1, rank, n3).
        U_core: sampled intersection W(I, J, :), (rank, rank, n3).
            This is the raw sample, not its pseudoinverse.
        R: row slab, (rank, n2, n3).
        rows: selected row indices I, ascending.
        cols: selected column indices J, ascending.
        rank: number of sampled rows = columns.
        sv_tol_factor: truncation factor carried to reconstruction.
    """

    C: np.ndarray
    U_core: np.ndarray
    R: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    rank: int
    sv_tol_factor: float = DEFAULT_SV_TOL_FACTOR


def column_scores(w_hat: np.ndarray) -> np.ndarray:
    """Normalized column scores from Fourier-domain fiber norms.

    Score j is the sum over frontal slices of the 2-norm of column fiber
    (:, j, k), normalized so the scores sum to 1.

    Raises:
        ZeroTensor: all fibers have zero norm.
    """
    w_hat = _as_tensor3(w_hat, "w_hat", np.complex128)
    fiber = np.linalg.norm(w_hat, axis=0)  # (n2, n3)
    per_col = fiber.sum(axis=1)
    total = float(per_col.sum())
    if total == 0.0:
        raise ZeroTensor("cannot score columns of an all-zero tensor")
    return per_col / total


def row_scores(w_hat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Normalized row scores restricted to the selected columns.

    Score i sums, over frontal slices, the 2-norm of row fiber (i, J, k)
    with J = ``cols``; normalized to sum to 1.

    Raises:
        ZeroTensor: the restricted sub-tensor is all zero.
    """
    w_hat = _as_tensor3(w_hat, "w_hat", np.complex128)
    cols = _validate_index_set(cols, w_hat.shape[1], "cols")
    sub = w_hat[:, cols, :]
    fiber = np.linalg.norm(sub, axis=1)  # (n1, n3)
    per_row = fiber.sum(axis=1)
    total = float(per_row.sum())
    if total == 0.0:
        raise ZeroTensor("selected columns have zero norm in every row")
    return per_row / total


def select_top_r(scores: np.ndarray, r: int) -> np.ndarray:
    """Indices of the r largest scores, ties broken toward the smaller index.

    Returns the index set sorted ascending. Deterministic by construction.

    Raises:
        RankOutOfRange: r outside [1, len(scores)].
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not 1 <= r <= scores.size:
        raise RankOutOfRange(f"rank {r} outside [1, {scores.size}]")
    # Stable sort on the negated scores keeps the original (ascending index)
    # order among equal scores.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:r])


def _validate_index_set(idx, n: int, name: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp).ravel()
    if idx.size == 0:
        raise RankOutOfRange(f"{name} must select at least one index")
    if np.any(idx < 0) or np.any(idx >= n):
        raise DimMismatch(f"{name} out of bounds for size {n}: {idx.tolist()}")
    if np.any(np.diff(idx) <= 0):
        raise DimMismatch(f"{name} must be strictly increasing: {idx.tolist()}")
    return idx


def tcur(w: np.ndarray, rank: int) -> TcurFactors:
    """Tensor CUR decomposition of ``w`` at the given rank.

    Columns are selected first, rows second (conditioned on the selected
    columns). Factors are extracted in the Fourier domain and transformed
    back to the spatial domain.

    Args:
        w: tensor to decompose, (n1, n2, n3), nonzero.
        rank: number of columns and rows to sample, in [1, min(n1, n2)].

    Raises:
        RankOutOfRange: rank outside [1, min(n1, n2)].
        ZeroTensor: w has zero norm.
    """
    w = _as_tensor3(w, "w")
    n1, n2, _ = w.shape
    if not 1 <= rank <= min(n1, n2):
        raise RankOutOfRange(f"rank {rank} outside [1, {min(n1, n2)}] for dims {w.shape}")
    w_hat = fft_mode3(w)
    cols = select_top_r(column_scores(w_hat), rank)
    rows = select_top_r(row_scores(w_hat, cols), rank)
    c = ifft_mode3(w_hat[:, cols, :])
    u_core = ifft_mode3(w_hat[np.ix_(rows, cols)])
    r_slab = ifft_mode3(w_hat[rows, :, :])
    return TcurFactors(
        C=c,
        U_core=u_core,
        R=r_slab,
        rows=rows,
        cols=cols,
        rank=rank,
    )


def reconstruct(f: TcurFactors) -> np.ndarray:
    """Recompose ``C * pinv(U_core) * R`` under the t-product.

    Exact (to rounding) when the tensor had true tubal rank <= rank and
    the sampled core is full-rank, which holds generically.
    """
    u_pinv = tpinv(f.U_core, f.sv_tol_factor)
    return tprod(f.C, tprod(u_pinv, f.R))
