"""Tensor CUR decomposition with deterministic norm-score index selection.

Columns are scored by summed Fourier-domain fiber norms, the top-r kept;
rows are then scored on the restriction to the selected columns. The
sampled sub-tensors C = W(:, J, :) and R = W(I, :, :) are extracted in the
Fourier domain and transformed back, which coincides with spatial-domain
index selection because the mode-3 FFT acts tube-wise; U = W(I, J, :) is
then the row sample C(I, :, :). For the same reason :func:`tcur` never
holds the whole spectrum: it scores columns from the FFT of one column
block at a time, then transforms only the selected columns and rows again,
with every score and factor bit for bit what the whole spectrum gives.

Reconstruction is ``C * pinv(U) * R`` under the t-product. At n3 = 1 the
t-product is the matrix product, so the same functions give per-matrix CUR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimMismatch, NonFiniteInput, RankOutOfRange, ZeroTensor
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
        C: column slab W(:, J, :), (n1, rank, n3).
        R: row slab W(I, :, :), (rank, n2, n3).
        rows: selected row indices I, ascending.
        cols: selected column indices J, ascending.
        U_core: sampled intersection W(I, J, :), (rank, rank, n3), read
            off as ``C[rows]``: the raw sample, not its pseudoinverse.
        rank: number of sampled rows = columns, ``len(rows)``.
        sv_tol_factor: the fixed truncation factor reconstruction uses.

    Construction stores C and R as float64 and rows and cols as ``intp``.

    Raises:
        DimMismatch: C or R is not a real third-order tensor, or they are
            not (n1, r, n3) and (r, n2, n3) for one r and n3; rows or cols
            is not r strictly increasing integers below n1 or n2.
        NonFiniteInput: C or R has a NaN or infinite entry.
    """

    C: np.ndarray
    R: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    sv_tol_factor: ClassVar[float] = DEFAULT_SV_TOL_FACTOR

    rank = property(lambda self: len(self.rows))
    U_core = property(lambda self: self.C[self.rows])

    def __post_init__(self) -> None:
        c, r = _finite_tensor3(self.C, "factor C"), _finite_tensor3(self.R, "factor R")
        (n1, rank, n3), n2 = c.shape, r.shape[1]
        if r.shape != (rank, n2, n3):
            raise DimMismatch(f"factor R has shape {r.shape}, not ({rank}, n2, {n3}) "
                              f"for C of shape {c.shape}")
        for name, value in (("C", c), ("R", r),
                            ("rows", _validate_index_set(self.rows, n1, "rows", rank)),
                            ("cols", _validate_index_set(self.cols, n2, "cols", rank))):
            object.__setattr__(self, name, value)


def _fiber_sums(fibers: np.ndarray, axis: int) -> np.ndarray:
    """Per-index sums over frontal slices of the fiber 2-norms along ``axis``
    of a complex tensor, neither normalized nor checked."""
    # One einsum over a float64 view (real, imag as a last axis of 2) sums
    # the squares with no full-size temporary; np.linalg.norm made two.
    parts = fibers[..., None].view(np.float64)
    kept = "ijk".replace("ijk"[axis], "")
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _fiber_scores
        return np.sqrt(np.einsum(f"ijkc,ijkc->{kept}", parts, parts)).sum(axis=1)


def _fiber_scores(per_index: np.ndarray, empty: str) -> np.ndarray:
    """``per_index`` from :func:`_fiber_sums`, normalized to sum to 1; raises
    ZeroTensor with ``empty`` if all are zero, and NonFiniteInput if a sum is
    NaN or infinite (e.g. from an overflowed FFT)."""
    total = float(per_index.sum())
    if not np.isfinite(total):  # norms are >= 0, so one NaN or inf reaches the total
        raise NonFiniteInput(f"fiber norms sum to {total}: spectrum is not finite")
    if total == 0.0:
        raise ZeroTensor(empty)
    return per_index / total


_NO_COLUMN_NORM = "cannot score columns of an all-zero tensor"
_NO_ROW_NORM = "selected columns have zero norm in every row"


def column_scores(w_hat: np.ndarray) -> np.ndarray:
    """Normalized column scores from Fourier-domain fiber norms.

    Score j is the sum over frontal slices of the 2-norm of column fiber
    (:, j, k), normalized so the scores sum to 1.

    Raises:
        ZeroTensor: all fibers have zero norm.
        NonFiniteInput: a fiber norm is NaN or infinite.
    """
    w_hat = _as_tensor3(w_hat, "w_hat", np.complex128)
    return _fiber_scores(_fiber_sums(w_hat, 0), _NO_COLUMN_NORM)


def row_scores(w_hat: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Normalized row scores restricted to the selected columns.

    Score i sums, over frontal slices, the 2-norm of row fiber (i, J, k)
    with J = ``cols``; normalized to sum to 1.

    Raises:
        ZeroTensor: the restricted sub-tensor is all zero.
        NonFiniteInput: a fiber norm is NaN or infinite.
        RankOutOfRange: ``cols`` is empty.
        DimMismatch: ``cols`` is not strictly increasing integers below n2.
    """
    w_hat = _as_tensor3(w_hat, "w_hat", np.complex128)
    cols = _validate_index_set(cols, w_hat.shape[1], "cols")
    return _fiber_scores(_fiber_sums(w_hat[:, cols, :], 1), _NO_ROW_NORM)


def _check_rank(rank, n: int, context: str = "") -> None:
    """Raise RankOutOfRange unless ``rank`` is an integer (not a bool) in [1, n]."""
    if (isinstance(rank, bool) or not isinstance(rank, (int, np.integer))
            or not 1 <= rank <= n):
        raise RankOutOfRange(f"rank {rank!r} is not an integer in [1, {n}]{context}")


def select_top_r(scores: np.ndarray, r: int) -> np.ndarray:
    """Indices of the r largest scores, ties broken toward the smaller index.

    Returns the index set sorted ascending. Deterministic by construction.

    Raises:
        RankOutOfRange: r is not an integer in [1, len(scores)].
        NonFiniteInput: a score is NaN or infinite.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(scores).all():
        raise NonFiniteInput("cannot rank NaN or infinite scores")
    _check_rank(r, scores.size)
    # Stable sort on the negated scores keeps the original (ascending index)
    # order among equal scores.
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[:r])


def _validate_index_set(idx, n: int, name: str, size: int | None = None) -> np.ndarray:
    """``idx`` as ``intp``: strictly increasing integers below ``n``, and
    exactly ``size`` of them in one dimension if ``size`` is given."""
    if size is not None and np.shape(idx) != (size,):  # ravel would hide a 2-D set
        raise DimMismatch(f"{name} must be {size} indices, got shape {np.shape(idx)}")
    idx = np.asarray(idx).ravel()
    if idx.size == 0:
        raise RankOutOfRange(f"{name} must select at least one index")
    if idx.dtype.kind not in "iu":  # a float set would be truncated, a bool one read as 0/1
        raise DimMismatch(f"{name} must be integers, got {idx.dtype}: {idx.tolist()}")
    idx = idx.astype(np.intp, copy=False)
    if np.any(idx < 0) or np.any(idx >= n):
        raise DimMismatch(f"{name} out of bounds for size {n}: {idx.tolist()}")
    if np.any(np.diff(idx) <= 0):
        raise DimMismatch(f"{name} must be strictly increasing: {idx.tolist()}")
    return idx


#: Bytes of complex spectrum per column block in :func:`tcur` (a block is
#: at least one column wide). Chosen by timing; see CHANGES.md.
_BLOCK_BYTES = 4 << 20

#: A column block whose rows hold fewer input bytes than this is copied
#: contiguous before its FFT, adding half its spectrum's bytes: ``rfft`` of
#: the strided view runs one inner loop per row, and on short rows those
#: cost more than the copy (at 3072x768x12, 534 ms against 353 ms).
_MIN_ROW_BYTES = 4 << 10


def _blocks(n: int, spectrum_bytes_per_index: int) -> list[slice]:
    """Consecutive slices covering range(n), each holding at most
    ``_BLOCK_BYTES`` of spectrum (but at least one index)."""
    width = max(1, _BLOCK_BYTES // spectrum_bytes_per_index)
    return [slice(i, i + width) for i in range(0, n, width)]


def _finite_tensor3(t, name: str) -> np.ndarray:
    """``_as_tensor3(t, name)``, checked finite one row slab of :func:`tcur`
    at a time (contiguous in a C-ordered t; a loop-free t.min() and t.max()
    timed 1.4-1.6x slower); raises NonFiniteInput naming ``name``."""
    t = _as_tensor3(t, name)
    if not all(np.isfinite(t[b]).all() for b in _blocks(len(t), 2 * t[:1].nbytes)):
        raise NonFiniteInput(f"{name} has NaN or infinite entries")
    return t


def tcur(w: np.ndarray, rank: int) -> TcurFactors:
    """Tensor CUR decomposition of ``w`` at the given rank.

    Columns are selected first, rows second (conditioned on the selected
    columns). Factors are extracted in the Fourier domain and transformed
    back to the spatial domain.

    No temporary the size of ``w`` is made. Finiteness is checked in row
    slabs, and columns are scored from the FFT of one column block at a
    time, each at most ``_BLOCK_BYTES`` of spectrum (and copied contiguous
    first if its rows are short); the mode-3 FFT acts tube by tube, so the
    scores are those of the whole spectrum, bit for bit. Only the selected
    columns W(:, J, :) and rows W(I, :, :) are then transformed again, for
    the row scores and the factors.

    Args:
        w: tensor to decompose, (n1, n2, n3), nonzero.
        rank: number of columns and rows to sample, an integer in
            [1, min(n1, n2)].

    Raises:
        NonFiniteInput: w has a NaN or infinite entry, or its FFT overflows.
        RankOutOfRange: rank is not an integer in [1, min(n1, n2)].
        ZeroTensor: w has zero norm.
        DimMismatch: w is complex or not third-order.
    """
    w = _finite_tensor3(w, "w")
    n1, n2, n3 = w.shape
    _check_rank(rank, min(n1, n2), f" for dims {w.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches the scores' check
        blocks = _blocks(n2, 16 * n1 * n3)  # complex spectrum bytes of one column
        prep = np.ascontiguousarray if 8 * n3 * blocks[0].stop < _MIN_ROW_BYTES else np.asarray
        sums = np.concatenate([_fiber_sums(fft_mode3(prep(w[:, b])), 0) for b in blocks])
    cols = select_top_r(_fiber_scores(sums, _NO_COLUMN_NORM), rank)
    c_hat = fft_mode3(w[:, cols])
    rows = select_top_r(_fiber_scores(_fiber_sums(c_hat, 1), _NO_ROW_NORM), rank)
    c = ifft_mode3(c_hat)
    del c_hat  # freed before R's transforms, which set the peak
    return TcurFactors(C=c, R=ifft_mode3(fft_mode3(w[rows])), rows=rows, cols=cols)


def reconstruct(f: TcurFactors) -> np.ndarray:
    """Recompose ``C * pinv(U_core) * R`` under the t-product.

    Exact (to rounding) when the tensor had true tubal rank <= rank and
    the sampled core is full-rank, which holds generically.

    Raises:
        NonFiniteInput: the spectrum of U_core = C[rows] overflows (from ``tpinv``).
    """
    return tprod(f.C, tpinv(f.U_core), f.R)
