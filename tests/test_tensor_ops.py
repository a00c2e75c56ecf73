"""Tensor algebra tests: frozen hand oracles first, then seeded property loops."""

import numpy as np
import pytest

from tcur import (
    DimMismatch,
    NonFiniteInput,
    ResidualImaginary,
    ZeroReference,
    fft_mode3,
    fro_norm,
    ifft_mode3,
    rel_error,
    tidentity,
    tpinv,
    tprod,
    tprod_bruteforce,
    ttranspose,
)
from tcur.tensor_ops import DEFAULT_IMAG_TOL, _from_spec, _to_spec


# ------------------------------------------------------------- hand oracles

def test_fft_two_slice_tubes():
    # length-2 transform: [1, 1] -> [2, 0], [1, -1] -> [0, 2]
    t = np.zeros((1, 2, 2))
    t[0, 0, :] = [1.0, 1.0]
    t[0, 1, :] = [1.0, -1.0]
    h = fft_mode3(t)
    assert np.allclose(h[0, 0, :], [2.0, 0.0])
    assert np.allclose(h[0, 1, :], [0.0, 2.0])


def test_tprod_two_slice_hand_product():
    # slices of A*B at n3=2 are A1B1 + A2B2 and A2B1 + A1B2
    a = np.zeros((2, 2, 2))
    a[:, :, 0] = [[1, 2], [3, 4]]
    a[:, :, 1] = [[0, 1], [1, 0]]
    b = np.zeros((2, 2, 2))
    b[:, :, 0] = np.eye(2)
    b[:, :, 1] = 2 * np.eye(2)
    want0 = np.array([[1.0, 4.0], [5.0, 4.0]])   # A1 + 2*A2
    want1 = np.array([[2.0, 5.0], [7.0, 8.0]])   # A2 + 2*A1
    for impl in (tprod, tprod_bruteforce):
        c = impl(a, b)
        assert np.allclose(c[:, :, 0], want0, atol=1e-12)
        assert np.allclose(c[:, :, 1], want1, atol=1e-12)


def test_tprod_scalar_tubes_circular_convolution():
    a = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    b = np.array([4.0, 5.0, 6.0]).reshape(1, 1, 3)
    want = np.array([31.0, 31.0, 28.0])
    assert np.allclose(tprod(a, b).ravel(), want, atol=1e-12)
    assert np.allclose(tprod_bruteforce(a, b).ravel(), want)


def test_fro_norm_hand_value():
    assert fro_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0), abs=1e-15)


def test_ttranspose_reverses_trailing_slices():
    a = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    at = ttranspose(a)
    assert at.shape == (3, 2, 3)
    assert np.array_equal(at[:, :, 0], a[:, :, 0].T)
    assert np.array_equal(at[:, :, 1], a[:, :, 2].T)
    assert np.array_equal(at[:, :, 2], a[:, :, 1].T)


def test_tidentity_structure():
    e = tidentity(3, 4)
    assert e.shape == (3, 3, 4)
    assert np.array_equal(e[:, :, 0], np.eye(3))
    assert not e[:, :, 1:].any()


@pytest.mark.parametrize("n,n3", [(0, 3), (3, 0)])
def test_tidentity_rejects_non_positive_dims(n, n3):
    with pytest.raises(DimMismatch):
        tidentity(n, n3)


def test_tpinv_scalar_tube_hand_value():
    # tube [3, 1]: transforms to [4, 2], inverts to [1/4, 1/2],
    # comes back as [3/8, -1/8]
    a = np.array([3.0, 1.0]).reshape(1, 1, 2)
    p = tpinv(a)
    assert np.allclose(p.ravel(), [0.375, -0.125], atol=1e-14)
    assert np.allclose(tprod(a, p).ravel(), [1.0, 0.0], atol=1e-14)


# -------------------------------------------------------------- fast == slow

def test_tprod_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n1, n2, l = (int(v) for v in rng.integers(1, 9, size=3))
        n3 = int(rng.integers(1, 7))
        a = rng.standard_normal((n1, n2, n3))
        b = rng.standard_normal((n2, l, n3))
        assert rel_error(tprod(a, b), tprod_bruteforce(a, b)) <= 1e-10
    # the half spectrum is the DC slice alone at n3 = 1, gains a Nyquist
    # slice at every even n3 and has none at odd n3
    for n3 in (1, 2, 3, 4, 5, 8):
        a = rng.standard_normal((5, 4, n3))
        b = rng.standard_normal((4, 3, n3))
        assert rel_error(tprod(a, b), tprod_bruteforce(a, b)) <= 1e-10
    # chains of 3 and 4 operands against the nested oracle
    for n_ops in (3, 4):
        for _ in range(20):
            dims = [int(v) for v in rng.integers(1, 7, size=n_ops + 1)]
            n3 = int(rng.integers(1, 7))
            ts = [rng.standard_normal((p, q, n3)) for p, q in zip(dims, dims[1:])]
            want = ts[-1]
            for t in reversed(ts[:-1]):
                want = tprod_bruteforce(t, want)
            assert rel_error(tprod(*ts), want) <= 1e-10


def test_tprod_chain_keeps_every_operand():
    # 11 doubled identities then a: dropping any operand changes the result
    a = np.random.default_rng(3).standard_normal((3, 2, 4))
    chain = [2.0 * tidentity(3, 4)] * 11 + [a]
    assert rel_error(tprod(*chain), 2.0**11 * a) <= 1e-12
    with pytest.raises(DimMismatch, match="operand 11 .* x operand 12"):
        tprod(*chain[:-1], np.ones((2, 2, 4)))


def test_tprod_single_slice_is_matmul():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3, 1))
    b = rng.standard_normal((3, 5, 1))
    assert np.allclose(tprod(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-13)


# ------------------------------------------------------------ transform laws

def test_fft_roundtrip_and_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for dims in ((4, 3, 5), (2, 2, 1), (1, 6, 8)):
        t = rng.standard_normal(dims)
        assert rel_error(ifft_mode3(fft_mode3(t)), t) <= 1e-12
        h = fft_mode3(t)
        n3 = dims[2]
        for k in range(n3):
            assert np.abs(h[:, :, k] - h[:, :, (n3 - k) % n3].conj()).max() <= 1e-12


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 7, 8])
def test_fft_matches_numpy_and_is_exactly_conjugate_symmetric(n3):
    # the upper slices are written as conjugates of the lower ones, so the
    # symmetry holds bit for bit, DC and Nyquist included
    t = np.random.default_rng(n3).standard_normal((5, 6, n3))
    h = fft_mode3(t)
    want = np.fft.fft(t, axis=2)
    assert np.abs(h - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(h, h[:, :, -np.arange(n3) % n3].conj())


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 7, 8])
def test_tprod_is_bitwise_the_transposed_copy_of_irfft(n3):
    # irfft straight into the (n1, l, n3) result, not along axis 0 and then
    # a transposed copy: same numbers, same C-contiguous layout
    rng = np.random.default_rng(10 + n3)
    a = rng.standard_normal((6, 3, n3))
    b = rng.standard_normal((3, 5, n3))
    c = tprod(a, b)
    s = _to_spec(a) @ _to_spec(b)
    want = np.ascontiguousarray(np.fft.irfft(s, n=n3, axis=0).transpose(1, 2, 0))
    assert c.flags.c_contiguous
    assert np.array_equal(c, want)


def test_ifft_rejects_asymmetric_spectrum():
    bad = np.zeros((2, 2, 3), dtype=np.complex128)
    bad[:, :, 1] = 1j  # no conjugate partner in slice 2
    with pytest.raises(ResidualImaginary):
        ifft_mode3(bad)


def test_ifft_rejects_residue_above_fixed_tolerance():
    # The tolerance is 1e-8 relative: 1e-12 of imaginary DC is rounding,
    # 1e-7 is a spectrum that was never real.
    h = fft_mode3(np.ones((2, 2, 2)))
    h[0, 0, 0] += 1e-12j
    ifft_mode3(h)
    h[0, 0, 0] += 1e-7j
    with pytest.raises(ResidualImaginary):
        ifft_mode3(h)


def test_half_spectrum_inverse_rejects_nonreal_dc_and_nyquist():
    # irfft would drop these imaginary parts without a word
    for n3, k in ((1, 0), (2, 0), (2, 1), (3, 0), (4, 0), (4, 2), (5, 0)):
        s = _to_spec(np.ones((2, 3, n3)))
        s[k] += 1e-3j
        with pytest.raises(ResidualImaginary):
            _from_spec(s, n3)
    # an interior slice has a conjugate partner outside the half spectrum
    t = np.random.default_rng(8).standard_normal((2, 3, 5))
    s = _to_spec(t)
    assert rel_error(_from_spec(s, 5), t) <= 1e-12
    s[2] += 1e-3j
    _from_spec(s, 5)


@pytest.mark.parametrize("n3", [3, 4])
@pytest.mark.parametrize("scale", [1 - 1e-6, 1 + 1e-6], ids=["under", "over"])
def test_both_inverses_share_one_residue_boundary(n3, scale):
    # An imaginary x on one DC entry leaves a residue of x / n3 in both
    # inverses; the bound is DEFAULT_IMAG_TOL * (1 + max|real|) = tol * 6 here.
    t = np.full((2, 3, n3), 5.0)
    x = scale * DEFAULT_IMAG_TOL * (1.0 + 5.0) * n3
    h = fft_mode3(t)
    h[1, 2, 0] += 1j * x
    s = _to_spec(t)
    s[0, 1, 2] += 1j * x
    for inverse in (lambda: ifft_mode3(h), lambda: _from_spec(s, n3)):
        if scale < 1:
            assert rel_error(inverse(), t) <= 1e-15
        else:
            with pytest.raises(ResidualImaginary):
                inverse()


# -------------------------------------------------------------- ring algebra

class TestRingLaws:
    rng = np.random.default_rng(11)

    def test_identity_absorbs(self):
        a = self.rng.standard_normal((4, 3, 5))
        assert rel_error(tprod(tidentity(4, 5), a), a) <= 1e-12
        assert rel_error(tprod(a, tidentity(3, 5)), a) <= 1e-12

    def test_associative(self):
        a = self.rng.standard_normal((3, 4, 4))
        b = self.rng.standard_normal((4, 5, 4))
        c = self.rng.standard_normal((5, 2, 4))
        assert rel_error(tprod(tprod(a, b), c), tprod(a, tprod(b, c))) <= 1e-9

    def test_distributive(self):
        a = self.rng.standard_normal((3, 4, 4))
        b = self.rng.standard_normal((4, 5, 4))
        c = self.rng.standard_normal((4, 5, 4))
        assert rel_error(tprod(a, b + c), tprod(a, b) + tprod(a, c)) <= 1e-10

    def test_transpose_involution(self):
        a = self.rng.standard_normal((3, 5, 4))
        assert np.array_equal(ttranspose(ttranspose(a)), a)

    def test_transpose_antidistributes_over_product(self):
        a = self.rng.standard_normal((3, 4, 5))
        b = self.rng.standard_normal((4, 2, 5))
        assert rel_error(ttranspose(tprod(a, b)),
                         tprod(ttranspose(b), ttranspose(a))) <= 1e-10

    def test_transpose_is_the_inner_product_adjoint(self):
        # <A*B, C> == <B, A^T*C>; a slice transpose without the
        # reversal passes the previous two tests but not this one
        a = self.rng.standard_normal((3, 4, 5))
        b = self.rng.standard_normal((4, 2, 5))
        c = self.rng.standard_normal((3, 2, 5))
        lhs = float(np.sum(tprod(a, b) * c))
        rhs = float(np.sum(b * tprod(ttranspose(a), c)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


# ------------------------------------------------------------- pseudoinverse

def test_tpinv_penrose_laws():
    rng = np.random.default_rng(5)
    for dims in ((4, 4, 3), (5, 3, 4), (3, 6, 2), (2, 2, 1)):
        a = rng.standard_normal(dims)
        p = tpinv(a)
        assert p.shape == (dims[1], dims[0], dims[2])
        assert rel_error(tprod(a, tprod(p, a)), a) <= 1e-8
        assert rel_error(tprod(p, tprod(a, p)), p) <= 1e-8
    # Fourier slices of rank 2 (tubal rank 2), or exactly zero: constant
    # tubes leave only the DC slice, alternating tubes only the Nyquist slice;
    # zero-mean tubes leave a DC slice that is zero up to FFT rounding
    x = rng.standard_normal((4, 3, 1))
    z = np.random.default_rng(0).standard_normal((3, 3, 5))
    z -= z.mean(axis=2, keepdims=True)
    for a in (tprod(rng.standard_normal((5, 2, 4)), rng.standard_normal((2, 6, 4))),
              tprod(rng.standard_normal((5, 2, 3)), rng.standard_normal((2, 6, 3))),
              np.repeat(x, 3, axis=2), np.repeat(x, 4, axis=2),
              x * np.array([1.0, -1.0, 1.0, -1.0]), z):
        p = tpinv(a)
        assert rel_error(tprod(a, tprod(p, a)), a) <= 1e-8
        assert rel_error(tprod(p, tprod(a, p)), p) <= 1e-8


def test_tpinv_inverts_the_invertible():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 4, 3)) + 4.0 * tidentity(4, 3)
    assert rel_error(tprod(tpinv(a), a), tidentity(4, 3)) <= 1e-8


def test_tpinv_of_zero_is_zero():
    assert not tpinv(np.zeros((3, 4, 2))).any()


@pytest.mark.parametrize("fill,n3", [(np.nan, 4), (np.inf, 4), (1e308, 4), (np.inf, 5)],
                         ids=["nan", "inf", "fft-overflow", "inf-odd-n3"])
def test_tpinv_rejects_non_finite_spectrum(fill, n3):
    # four 1e308 in one tube overflow its DC sum; an odd n3 takes the other rfft kernel
    a = np.ones((3, 3, n3))
    a[1, 2, :] = fill
    with pytest.raises(NonFiniteInput):
        tpinv(a)


def test_tpinv_truncates_rank_deficiency():
    # rank-1 slice: pinv must not blow up on the null directions
    a = np.zeros((3, 3, 1))
    a[:, :, 0] = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    p = tpinv(a)
    assert np.isfinite(p).all()
    assert rel_error(tprod(a, tprod(p, a)), a) <= 1e-10


# ------------------------------------------------------------------ plumbing

@pytest.mark.parametrize("bad", [np.ones((3, 3)), np.ones((2, 2, 2, 2)), np.ones(4),
                                 1j * np.ones((3, 3, 1))])  # complex: not cut to its real part
def test_nontensor_inputs_rejected(bad):
    with pytest.raises(DimMismatch):
        tprod(bad, np.ones((3, 3, 1)))
    with pytest.raises(DimMismatch):
        tprod(np.ones((3, 3, 1)), np.ones((3, 3, 1)), bad)
    with pytest.raises(DimMismatch):
        fft_mode3(bad)


def test_tprod_shape_mismatches_rejected():
    with pytest.raises(DimMismatch):
        tprod(np.ones((2, 3, 4)), np.ones((2, 3, 4)))  # inner dims differ
    with pytest.raises(DimMismatch):
        tprod(np.ones((2, 3, 4)), np.ones((3, 2, 5)))  # slice counts differ
    with pytest.raises(DimMismatch, match="operand 2"):
        tprod(np.ones((2, 3, 4)), np.ones((3, 2, 4)), np.ones((3, 2, 4)))  # third's inner dim
    with pytest.raises(DimMismatch, match="operand 3"):
        tprod(np.ones((2, 3, 4)), np.ones((3, 2, 4)), np.ones((2, 2, 5)))  # third's n3


def test_rel_error_contract():
    a = np.ones((2, 2, 2))
    assert rel_error(a, a) == 0.0
    with pytest.raises(ZeroReference):
        rel_error(a, np.zeros_like(a))
    with pytest.raises(DimMismatch):
        rel_error(a, np.ones((2, 2, 3)))


def _rel_error_cases():
    rng = np.random.default_rng(7)
    big = rng.standard_normal((2, 192, 160, 24))  # several chunks each
    cube = rng.standard_normal((2, 40, 30, 20))
    z = rng.standard_normal((2, 9, 8, 7)) + 1j * rng.standard_normal((2, 9, 8, 7))
    return {
        "multi-chunk": (big[0], big[1]),
        "transposed": (cube[0].transpose(2, 0, 1), cube[1].transpose(2, 0, 1)),
        "strided-mixed": (cube[0][::2, :, ::-1], np.ascontiguousarray(cube[1][::2, :, ::-1])),
        "complex": (z[0], z[1]),
        "complex-vs-real": (z[0], z[1].real),
        "real-vs-complex": (z[0].real, z[1]),
        "1-d": (big[0].ravel()[:1000], big[1].ravel()[:1000]),
        "2-d": (cube[0][:, :, 3], cube[1][:, :, 3].T.copy().T),
    }


@pytest.mark.parametrize("case", sorted(_rel_error_cases()))
def test_rel_error_matches_numpy_norms(case):
    a, b = _rel_error_cases()[case]
    want = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert abs(rel_error(a, b) - want) <= 1e-14 * want


# ------------------------------------------------------ memory high-water

def test_fft_allocates_only_its_result(traced_peak):
    # No complex copy of the input. The shape keeps the fixed ufunc buffer
    # (~256 KiB) of the in-place conjugate fill under the 5% margin.
    t = np.random.default_rng(0).standard_normal((160, 128, 32))
    out_bytes = 16 * t.size
    peak = traced_peak(lambda: fft_mode3(t))
    assert peak <= 1.05 * out_bytes, f"peak {peak / out_bytes:.2f}x the output"


def test_tprod_allocates_only_the_half_spectrum_and_result(traced_peak):
    # The operands' half spectra are rank-sized; the product's half spectrum
    # and the result are the only full-size arrays.
    rng = np.random.default_rng(1)
    n1, r, l, n3 = 96, 4, 80, 16
    a = rng.standard_normal((n1, r, n3))
    b = rng.standard_normal((r, l, n3))
    floor = 16 * (n3 // 2 + 1) * n1 * l + 8 * n1 * l * n3
    peak = traced_peak(lambda: tprod(a, b))
    assert peak <= 1.05 * floor, f"peak {peak / floor:.2f}x half spectrum + result"


def test_rel_error_makes_no_full_size_difference(traced_peak):
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 192, 160, 24))
    peak = traced_peak(lambda: rel_error(a, b))
    assert peak <= 0.2 * a.nbytes, f"peak {peak / a.nbytes:.2f}x one tensor"
