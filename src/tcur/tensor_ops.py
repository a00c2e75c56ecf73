"""Dense third-order tensor algebra built on the circular (t-) product.

A third-order tensor is a float64 numpy array of shape ``(n1, n2, n3)``;
``t[:, :, k]`` is its k-th frontal slice and ``t[i, j, :]`` a mode-3 tube.
The t-product ``A * B`` of tensors shaped ``(n1, n2, n3)`` and
``(n2, l, n3)`` is the block-circulant matrix built from the slices of A
acting on the vertically stacked slices of B, folded back to ``(n1, l, n3)``.

Two routes are provided. :func:`tprod` is the fast path: the mode-3
spectrum of a real tensor is conjugate-symmetric, so its first n3//2 + 1
slices determine it; they are held slice-major, ``(n3//2 + 1, n1, n2)``, and
multiplied in batched matrix products (:func:`tpinv` is one batched SVD).
Their inverse checks that the DC slice, and at even n3 the Nyquist slice,
is real; the full-spectrum :func:`ifft_mode3` checks every entry instead.
:func:`tprod_bruteforce` materializes the block-circulant matrix and is kept
as the oracle the fast path is tested against.

FFT convention: unnormalized forward transform, 1/n3 on the inverse
(numpy's default). All tolerances below assume this convention.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NonFiniteInput, ResidualImaginary, ZeroReference

#: Relative tolerance for the imaginary residue an inverse FFT discards.
#: Large enough to absorb FFT rounding, small enough to expose a spectrum
#: that was never conjugate-symmetric to begin with.
DEFAULT_IMAG_TOL = 1e-8

#: Singular-value truncation factor of tpinv, fixed: the usual
#: LAPACK-style cutoff eps * max(n1, n2) * sigma_max.
DEFAULT_SV_TOL_FACTOR = float(np.finfo(np.float64).eps)

#: Entries per chunk of :func:`rel_error` (512 KiB of float64 differences).
_REL_ERROR_CHUNK = 1 << 16


def _as_tensor3(t, name: str = "tensor", dtype=np.float64) -> np.ndarray:
    if np.iscomplexobj(t) and not np.issubdtype(dtype, np.complexfloating):
        # Casting would keep only the real part.
        raise DimMismatch(f"{name} must be real, got dtype {np.asarray(t).dtype}")
    arr = np.asarray(t, dtype=dtype)
    if arr.ndim != 3 or min(arr.shape) < 1:
        raise DimMismatch(
            f"{name} must be a third-order tensor with positive dims, "
            f"got shape {np.shape(t)}"
        )
    return arr


def fft_mode3(t: np.ndarray) -> np.ndarray:
    """Forward DFT along every mode-3 tube (unnormalized).

    Allocates only its result: the real-input ``rfft`` writes the first
    n3//2 + 1 slices into it, with no complex copy of ``t``, and the rest
    are filled in place as their conjugates, so the output is exactly
    conjugate-symmetric: ``out[:, :, k] == conj(out[:, :, -k % n3])``.

    Args:
        t: real tensor, shape (n1, n2, n3).

    Returns:
        Complex tensor of the same shape; entry (i, j, :) is the DFT of
        tube (i, j, :) of the input.

    Raises:
        DimMismatch: t is complex or not third-order.
    """
    t = _as_tensor3(t)
    n3 = t.shape[2]
    half = n3 // 2 + 1
    out = np.empty(t.shape, dtype=np.complex128)
    np.fft.rfft(t, axis=2, out=out[:, :, :half])
    np.conjugate(out[:, :, n3 - half:0:-1], out=out[:, :, half:])
    return out


def _real_part(out: np.ndarray, imag_max: float) -> np.ndarray:
    """``out``, the real part of an inverse FFT, if the imaginary residue it
    dropped is at most ``DEFAULT_IMAG_TOL * (1 + max|out|)``; a larger one
    comes from a spectrum that is not conjugate-symmetric along mode 3 (a
    caller bug, not rounding) and raises ResidualImaginary."""
    real_max = float(np.abs(out).max()) if imag_max > DEFAULT_IMAG_TOL else 0.0
    if imag_max > DEFAULT_IMAG_TOL * (1.0 + real_max):
        raise ResidualImaginary(
            f"imaginary residue {imag_max:.3e} exceeds "
            f"{DEFAULT_IMAG_TOL:.1e} * (1 + {real_max:.3e}); spectrum is not "
            "that of a real tensor"
        )
    return out


def ifft_mode3(t_hat: np.ndarray) -> np.ndarray:
    """Inverse DFT along mode 3 (with the 1/n3 factor), returning the real part.

    Args:
        t_hat: complex tensor, shape (n1, n2, n3).

    Raises:
        ResidualImaginary: an entry's imaginary part fails :func:`_real_part`.
    """
    full = np.fft.ifft(_as_tensor3(t_hat, dtype=np.complex128), axis=2)
    # Residue pass before the real-part copy; the reverse order measured 2-3x slower.
    return np.ascontiguousarray(_real_part(full.real, float(np.abs(full.imag).max())))


def _to_spec(t: np.ndarray) -> np.ndarray:
    """Half spectrum along mode 3, slice-major: (n3//2 + 1, n1, n2).

    These are the first n3//2 + 1 slices of :func:`fft_mode3`, which
    determine the rest; the real-input ``rfft`` allocates only them.
    """
    # Not C-contiguous, yet batched matmul on it is fast; copying the view
    # before the rfft made the rfft about 3x slower.
    return np.fft.rfft(t.transpose(2, 0, 1), axis=0)


def _from_spec(s: np.ndarray, n3: int) -> np.ndarray:
    """Contiguous real (n1, l, n3) tensor from a slice-major half spectrum.

    ``irfft`` writes straight into the C-contiguous result, so no
    full-size temporary is made. The residue :func:`_real_part` checks is
    the most that the imaginary parts ``irfft`` drops, of the DC slice and
    at even n3 the Nyquist slice, add to an entry of the inverse.
    """
    edges = s[::n3 // 2] if n3 % 2 == 0 else s[:1]  # views: DC (and Nyquist) slice
    # Taken before ``out`` is allocated, so its temporaries are freed by then.
    imag_max = float(np.abs(edges.imag).sum(axis=0).max()) / n3
    out = np.empty((s.shape[1], s.shape[2], n3))
    np.fft.irfft(s.transpose(1, 2, 0), n=n3, axis=2, out=out)
    return _real_part(out, imag_max)


def _tprod_operands(ts) -> list[np.ndarray]:
    ts = [_as_tensor3(t, f"operand {i}") for i, t in enumerate(ts, 1)]
    for i, (a, b) in enumerate(zip(ts, ts[1:]), 1):
        if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
            raise DimMismatch(f"t-product needs (n1, n2, n3) x (n2, l, n3), got operand "
                              f"{i} {a.shape} x operand {i + 1} {b.shape}")
    return ts


def tprod(a: np.ndarray, b: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """t-product ``a * b * ...`` via the Fourier-domain fast path.

    Transforms each operand along mode 3 (half spectrum) once, multiplies
    frontal slices left to right in batched products, and transforms back once.

    Args:
        a: tensor, shape (n1, n2, n3).
        b, *more: tensors, shapes (n2, l, n3), (l, m, n3), ...

    Returns:
        Tensor of shape (n1, last operand's second dim, n3).

    Raises:
        DimMismatch: an operand is complex or not third-order, or neighbours
            differ in inner dimension or n3.
    """
    first, *rest = _tprod_operands((a, b, *more))
    spec = _to_spec(first)
    for t in rest:
        spec = spec @ _to_spec(t)
    return _from_spec(spec, first.shape[2])


def tprod_bruteforce(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t-product by materializing the block-circulant matrix (oracle).

    Builds the (n1*n3) x (n2*n3) circulant of A's frontal slices, with
    block (p, q) holding slice ((p - q) mod n3), multiplies it by B's
    vertically stacked slices, and folds the result back into a tensor.
    Quadratic in n3; kept purely as the reference the fast path is
    checked against.
    """
    a, b = _tprod_operands((a, b))
    n1, n2, n3 = a.shape
    l = b.shape[1]

    circ = np.zeros((n1 * n3, n2 * n3))
    for p in range(n3):
        for q in range(n3):
            circ[p * n1:(p + 1) * n1, q * n2:(q + 1) * n2] = a[:, :, (p - q) % n3]

    stacked = np.zeros((n2 * n3, l))
    for k in range(n3):
        stacked[k * n2:(k + 1) * n2, :] = b[:, :, k]

    flat = circ @ stacked
    out = np.empty((n1, l, n3))
    for k in range(n3):
        out[:, :, k] = flat[k * n1:(k + 1) * n1, :]
    return out


def ttranspose(a: np.ndarray) -> np.ndarray:
    """Tensor transpose: each frontal slice transposed, slices 2..n3 reversed.

    This is the adjoint for the t-product inner product:
    ``(A * B)^T == B^T * A^T`` and ``<A * B, C> == <B, A^T * C>``.
    """
    a = _as_tensor3(a)
    return a.transpose(1, 0, 2)[:, :, -np.arange(a.shape[2]) % a.shape[2]]


def tidentity(n: int, n3: int) -> np.ndarray:
    """Identity tensor: slice 1 is the n x n identity, all other slices zero."""
    if n < 1 or n3 < 1:
        raise DimMismatch(f"identity dims must be positive, got n={n}, n3={n3}")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def tpinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse in the t-product sense.

    Computed slice-wise in the Fourier domain: each complex frontal slice
    is pseudoinverted via its SVD, keeping only singular values above
    ``DEFAULT_SV_TOL_FACTOR * max(n1, n2) * sigma_max``, then transformed back.
    sigma_max is the largest singular value over all slices (numpy's
    ``pinv`` rule for the block-diagonal Fourier operator), so a slice that
    is zero up to FFT rounding inverts to zero, as does an all-zero tensor.

    Satisfies the Penrose identities under the t-product:
    ``A * A+ * A == A`` and ``A+ * A * A+ == A+`` (up to rounding).

    Raises:
        NonFiniteInput: the half spectrum is not finite (a NaN or infinite
            entry, or an FFT that overflows).
    """
    a = _as_tensor3(a)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
        spec = _to_spec(a)
    if not np.isfinite(spec).all():
        raise NonFiniteInput("cannot pseudoinvert a tensor whose spectrum is not finite")
    u, s, vh = np.linalg.svd(spec, full_matrices=False)
    keep = s > DEFAULT_SV_TOL_FACTOR * max(a.shape[:2]) * s.max(initial=0.0)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    pinv_hat = (vh.conj().swapaxes(1, 2) * inv_s[:, None, :]) @ u.conj().swapaxes(1, 2)
    return _from_spec(pinv_hat, a.shape[2])


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm over all entries (works for real and complex)."""
    return float(np.linalg.norm(np.asarray(a).ravel()))


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||_F / ||b||_F``, with b as the reference.

    Both sums of squares are taken over bounded chunks of the entries, the
    differences in one reused buffer, so no full-size ``a - b`` is made.

    Raises:
        DimMismatch: shapes differ.
        ZeroReference: the reference has zero norm.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimMismatch(f"rel_error needs matching dims, got {a.shape} vs {b.shape}")
    diff = np.empty(_REL_ERROR_CHUNK, np.result_type(a, b, 1.0))
    num = den = 0.0
    with np.nditer([a, b], ["external_loop", "buffered", "zerosize_ok"],
                   buffersize=len(diff)) as chunks:
        for x, y in chunks:
            d = np.subtract(x, y, out=diff[:len(x)])
            num += np.vdot(d, d).real
            den += np.vdot(y, y).real
    if den == 0.0:
        raise ZeroReference("reference tensor has zero Frobenius norm")
    return float(np.sqrt(num) / np.sqrt(den))
