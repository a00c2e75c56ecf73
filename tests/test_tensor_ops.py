"""Tensor algebra tests: frozen hand oracles first, then seeded property loops."""

import numpy as np
import pytest

from tcur import (
    DimMismatch,
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
from tcur.tensor_ops import _from_spec, _to_spec


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


def test_ifft_rejects_asymmetric_spectrum():
    bad = np.zeros((2, 2, 3), dtype=np.complex128)
    bad[:, :, 1] = 1j  # no conjugate partner in slice 2
    with pytest.raises(ResidualImaginary):
        ifft_mode3(bad)


def test_ifft_tolerance_is_adjustable():
    h = fft_mode3(np.ones((2, 2, 2)))
    h[0, 0, 0] += 1e-7j
    with pytest.raises(ResidualImaginary):
        ifft_mode3(h)
    ifft_mode3(h, tol=1e-4)  # loosened, passes


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


def test_tpinv_truncates_rank_deficiency():
    # rank-1 slice: pinv must not blow up on the null directions
    a = np.zeros((3, 3, 1))
    a[:, :, 0] = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    p = tpinv(a)
    assert np.isfinite(p).all()
    assert rel_error(tprod(a, tprod(p, a)), a) <= 1e-10


# ------------------------------------------------------------------ plumbing

@pytest.mark.parametrize("bad", [np.ones((3, 3)), np.ones((2, 2, 2, 2)), np.ones(4)])
def test_nontensor_inputs_rejected(bad):
    with pytest.raises(DimMismatch):
        tprod(bad, np.ones((3, 3, 1)))


def test_tprod_shape_mismatches_rejected():
    with pytest.raises(DimMismatch):
        tprod(np.ones((2, 3, 4)), np.ones((2, 3, 4)))  # inner dims differ
    with pytest.raises(DimMismatch):
        tprod(np.ones((2, 3, 4)), np.ones((3, 2, 5)))  # slice counts differ


def test_rel_error_contract():
    a = np.ones((2, 2, 2))
    assert rel_error(a, a) == 0.0
    with pytest.raises(ZeroReference):
        rel_error(a, np.zeros_like(a))
    with pytest.raises(DimMismatch):
        rel_error(a, np.ones((2, 2, 3)))
