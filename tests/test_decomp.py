import dataclasses
import warnings

import numpy as np
import pytest

from tcur import (
    DimMismatch,
    NonFiniteInput,
    RankOutOfRange,
    ZeroTensor,
    column_scores,
    decomp,
    fft_mode3,
    ifft_mode3,
    reconstruct,
    rel_error,
    row_scores,
    select_top_r,
    tcur,
    tprod,
)


def low_tubal_rank(rng, n1, n2, n3, r):
    return tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))


def test_column_scores_single_slice_hand_value():
    w = np.array([[3.0, 4.0]]).reshape(1, 2, 1)
    alpha = column_scores(fft_mode3(w))
    assert np.allclose(alpha, [3.0 / 7.0, 4.0 / 7.0], atol=1e-15)


def test_column_scores_two_slice_hand_value():
    # tubes [1,1] and [1,-1] transform to [2,0] and [0,2]: equal weight
    w = np.zeros((1, 2, 2))
    w[0, 0, :] = [1.0, 1.0]
    w[0, 1, :] = [1.0, -1.0]
    alpha = column_scores(fft_mode3(w))
    assert np.allclose(alpha, [0.5, 0.5], atol=1e-15)


def test_row_scores_restrict_to_selected_columns():
    w = np.zeros((2, 2, 1))
    w[:, :, 0] = [[3.0, 0.0], [0.0, 4.0]]
    beta = row_scores(fft_mode3(w), np.array([0]))
    assert np.allclose(beta, [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("cols,error", [
    ([], RankOutOfRange),
    ([0, 3], DimMismatch),
    ([-1, 1], DimMismatch),
    ([2, 1], DimMismatch),
    ([1, 1], DimMismatch),
    ([0.7, 2.9], DimMismatch),
    (np.array([0.0, 2.0]), DimMismatch),
    ([False, True], DimMismatch),
], ids=["empty", "out-of-range", "negative", "decreasing", "repeated",
        "fractional", "float-dtype", "bool"])
def test_row_scores_reject_bad_column_sets(cols, error):
    # [0.7, 2.9] must not be truncated to [0, 2] and scored as if valid
    h = fft_mode3(np.random.default_rng(2).standard_normal((4, 3, 2)))
    with pytest.raises(error):
        row_scores(h, cols)


def test_scores_sum_to_one():
    rng = np.random.default_rng(3)
    for dims in ((5, 7, 3), (2, 2, 1), (8, 3, 6)):
        h = fft_mode3(rng.standard_normal(dims))
        alpha = column_scores(h)
        assert alpha.min() >= 0.0
        assert abs(float(alpha.sum()) - 1.0) <= 1e-12
        beta = row_scores(h, select_top_r(alpha, min(2, dims[1])))
        assert beta.min() >= 0.0
        assert abs(float(beta.sum()) - 1.0) <= 1e-12


def test_scores_reject_zero_tensor():
    with pytest.raises(ZeroTensor):
        column_scores(fft_mode3(np.zeros((3, 3, 2))))


def test_select_top_r_breaks_ties_toward_smaller_index():
    assert select_top_r(np.array([0.4, 0.4, 0.2]), 2).tolist() == [0, 1]
    assert select_top_r(np.array([0.2, 0.4, 0.4]), 1).tolist() == [1]
    assert select_top_r(np.array([0.25, 0.25, 0.25, 0.25]), 3).tolist() == [0, 1, 2]


def test_select_top_r_sorted_ascending():
    idx = select_top_r(np.array([0.1, 0.5, 0.2, 0.15, 0.05]), 3)
    assert idx.tolist() == sorted(idx.tolist()) == [1, 2, 3]


@pytest.mark.parametrize("r", [0, -1, 4, 3.0, 2.5, True])
def test_select_top_r_rank_bounds(r):
    with pytest.raises(RankOutOfRange):
        select_top_r(np.array([0.5, 0.3, 0.2]), r)


@pytest.mark.parametrize("r", [0, 6, 99, 3.0, 2.5, True])
def test_tcur_rank_bounds(r, monkeypatch):
    monkeypatch.setattr(decomp, "fft_mode3", None)  # the rank is checked before any transform
    with pytest.raises(RankOutOfRange):
        tcur(np.ones((5, 6, 2)), r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tcur_rejects_non_finite_input(bad):
    w = np.random.default_rng(0).standard_normal((6, 5, 4))
    w[2, 3, 1] = bad
    with pytest.raises(NonFiniteInput):
        tcur(w, 2)


def test_tcur_rejects_finite_input_whose_spectrum_overflows():
    # Every entry is finite, but summing the tubes in the FFT overflows
    # (1e308), or the FFT is finite and the fiber norms overflow (1e160).
    for fill in (1e308, 1e160):
        with pytest.raises(NonFiniteInput):
            tcur(np.full((3, 3, 4), fill), 1)


def test_tcur_rejects_complex_input():
    with pytest.raises(DimMismatch, match="real"):
        tcur(1j * np.ones((3, 3, 4)), 1)


def _norm_scores(w_hat, axis):
    per_index = np.linalg.norm(w_hat, axis=axis).sum(axis=1)
    return per_index / per_index.sum()


def test_scores_match_a_norm_reference_on_any_layout():
    h = fft_mode3(np.random.default_rng(4).standard_normal((9, 12, 6)))
    cols = np.array([1, 4, 5])
    for view in (h, h[:, ::2, :], h.transpose(1, 0, 2), h[:, :, ::-1], np.asfortranarray(h)):
        np.testing.assert_allclose(column_scores(view), _norm_scores(view, 0),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(row_scores(view, cols), _norm_scores(view[:, cols], 1),
                                   rtol=1e-14, atol=0)


def test_scores_keep_exact_ties():
    w = np.random.default_rng(6).standard_normal((11, 13, 5))
    w[:, [4, 9, 12]] = w[:, [1]]
    w[[3, 10]] = w[[7]]
    h = fft_mode3(w)
    alpha = column_scores(h)
    assert alpha[1] == alpha[4] == alpha[9] == alpha[12]
    beta = row_scores(h, np.arange(13))
    assert beta[3] == beta[7] == beta[10]


def test_scores_overflow_is_named_with_warnings_as_errors():
    # finite entries whose squares overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            column_scores(np.full((3, 4, 2), 1e200 + 1e200j))
        with pytest.raises(NonFiniteInput):
            row_scores(np.full((3, 4, 2), 1e200 + 0j), np.array([0, 2]))


def test_column_scores_allocate_no_full_size_temporary(traced_peak):
    h = fft_mode3(np.random.default_rng(8).standard_normal((64, 64, 16)))
    peak = traced_peak(lambda: column_scores(h))
    assert peak <= 0.05 * h.nbytes, f"peak {peak / h.nbytes:.3f}x the input"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scores_reject_non_finite_spectrum(bad):
    w_hat = np.ones((2, 3, 2), dtype=complex)
    w_hat[1, 2, 0] = bad
    with pytest.raises(NonFiniteInput):
        column_scores(w_hat)
    with pytest.raises(NonFiniteInput):
        row_scores(w_hat, np.array([0, 2]))
    assert row_scores(w_hat, np.array([0, 1])).tolist() == [0.5, 0.5]  # bad entry not selected
    with pytest.raises(NonFiniteInput):
        column_scores(np.full((2, 2, 2), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_select_top_r_rejects_non_finite_scores(bad):
    with pytest.raises(NonFiniteInput):
        select_top_r(np.array([bad, 1.0, 0.5]), 1)


def test_selection_deterministic_and_scale_invariant():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((6, 7, 4))
    f = tcur(w, 3)
    again = tcur(w.copy(), 3)
    assert np.array_equal(f.rows, again.rows)
    assert np.array_equal(f.cols, again.cols)
    for s in (1e-3, 1e3):
        fs = tcur(s * w, 3)
        assert np.array_equal(f.rows, fs.rows)
        assert np.array_equal(f.cols, fs.cols)


def test_selection_equivariant_under_column_permutation():
    rng = np.random.default_rng(13)
    w = rng.standard_normal((5, 8, 3))
    f = tcur(w, 3)
    perm = rng.permutation(8)
    fp = tcur(w[:, perm, :], 3)
    # selected columns name the same columns of the original tensor
    assert sorted(perm[fp.cols].tolist()) == f.cols.tolist()
    assert np.array_equal(fp.rows, f.rows)


def test_factors_sample_the_spatial_tensor():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((6, 7, 4))
    f = tcur(w, 3)
    assert rel_error(f.C, w[:, f.cols, :]) <= 1e-12
    assert rel_error(f.U_core, w[np.ix_(f.rows, f.cols)]) <= 1e-12
    assert rel_error(f.R, w[f.rows, :, :]) <= 1e-12


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 8])
def test_core_is_the_row_sample_of_c(n3):
    # U_core is not transformed on its own: it is C's row sample, bit for
    # bit what an inverse FFT of the sampled spectrum gives.
    rng = np.random.default_rng(40 + n3)
    w = rng.standard_normal((7, 6, n3))
    f = tcur(w, 3)
    assert np.array_equal(f.U_core, f.C[f.rows])
    assert np.array_equal(f.U_core, ifft_mode3(fft_mode3(w)[np.ix_(f.rows, f.cols)]))


def test_exact_reconstruction_at_true_tubal_rank():
    rng = np.random.default_rng(17)
    for _ in range(20):
        r = int(rng.integers(1, 5))
        n1 = int(rng.integers(2 * r, 13))
        n2 = int(rng.integers(2 * r, 13))
        n3 = int(rng.integers(1, 7))
        w = low_tubal_rank(rng, n1, n2, n3, r)
        f = tcur(w, r)
        assert rel_error(reconstruct(f), w) <= 1e-8
    # n3 = 1 is matrix CUR: a rank-3 matrix is recovered from 3 rows and columns
    rng = np.random.default_rng(31)
    w = (rng.standard_normal((8, 3)) @ rng.standard_normal((3, 9)))[:, :, None]
    assert np.abs(reconstruct(tcur(w, 3)) - w).max() / np.abs(w).max() <= 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_reconstruct_rejects_non_finite_core(bad):
    # A factor set refuses a non-finite C or R when it is built: in the core
    # (a selected row of C), in an unselected row of C, or in R. What is left
    # for reconstruct is a finite core whose spectrum overflows.
    f = tcur(np.random.default_rng(29).standard_normal((5, 6, 4)), 2)
    other = min(set(range(5)) - set(f.rows.tolist()))
    for field, at in (("C", (f.rows[0], 1, 2)), ("C", (other, 0, 1)), ("R", (1, 3, 0))):
        t = getattr(f, field).copy()
        t[at] = bad
        with pytest.raises(NonFiniteInput, match=f"factor {field}"):
            dataclasses.replace(f, **{field: t})
    c = f.C.copy()
    c[f.rows] = 1e308  # finite, but the core's DC slice sums to 4e308
    with pytest.raises(NonFiniteInput):
        reconstruct(dataclasses.replace(f, C=c))


def test_full_selection_recovers_any_tensor():
    rng = np.random.default_rng(19)
    w = rng.standard_normal((5, 8, 3))
    assert rel_error(reconstruct(tcur(w, 5)), w) <= 1e-8


def test_factor_shapes_and_immutability():
    rng = np.random.default_rng(23)
    w = rng.standard_normal((6, 7, 4))
    f = tcur(w, 2)
    assert f.C.shape == (6, 2, 4)
    assert f.U_core.shape == (2, 2, 4)
    assert f.R.shape == (2, 7, 4)
    assert f.rank == len(f.rows) == 2
    with pytest.raises(AttributeError):
        f.rank = 3  # derived from rows, and the dataclass is frozen
    with pytest.raises(AttributeError):
        f.U_core = np.zeros((2, 2, 4))  # derived from C and rows


def test_factor_set_stores_its_core_once():
    f = tcur(np.random.default_rng(24).standard_normal((6, 7, 4)), 3)
    assert [fd.name for fd in dataclasses.fields(f)] == ["C", "R", "rows", "cols"]
    assert np.array_equal(f.U_core, f.C[f.rows])
    # A core other than C[rows] cannot be put in: it is not a field.
    with pytest.raises(TypeError):
        dataclasses.replace(f, U_core=f.U_core + 1)


@pytest.mark.parametrize("edit", [
    lambda f: {"rows": f.rows[None, :]},
    lambda f: {"rows": np.array([0, 0, 5])},
    lambda f: {"rows": f.rows[:2]},
    lambda f: {"cols": np.array([0, 1, 7])},
    lambda f: {"cols": f.cols + 0.5},
    lambda f: {"R": f.R[:2]},
    lambda f: {"R": f.R[:, :, :3]},
    lambda f: {"C": f.C[:, :, 0]},
    lambda f: {"C": f.C + 0j},
], ids=["rows-2d", "rows-repeated", "rows-too-few", "cols-out-of-bounds", "cols-fractional",
        "R-other-rank", "R-other-n3", "C-not-third-order", "C-complex"])
def test_factor_set_that_breaks_a_rule_is_refused_when_built(edit):
    f = tcur(np.random.default_rng(24).standard_normal((6, 7, 4)), 3)
    with pytest.raises(DimMismatch):
        dataclasses.replace(f, **edit(f))


def test_factor_set_stores_index_sets_as_intp():
    f = tcur(np.random.default_rng(24).standard_normal((6, 7, 4)), 3)
    g = dataclasses.replace(f, rows=f.rows.astype(np.uint8), cols=f.cols.tolist())
    assert g.rows.dtype == g.cols.dtype == np.intp
    assert np.array_equal(g.U_core, f.U_core)


def _full_spectrum_tcur(w, r):
    # The whole-spectrum formula tcur used before it worked in column
    # blocks; kept as the oracle the blocked path must match bit for bit.
    h = fft_mode3(w)
    cols = select_top_r(column_scores(h), r)
    rows = select_top_r(row_scores(h, cols), r)
    c = ifft_mode3(h[:, cols, :])
    return rows, cols, c, c[rows], ifft_mode3(h[rows])


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("block_cols", [1, 3, None], ids=["1-col", "3-col", "constant"])
def test_blocked_tcur_matches_the_full_spectrum_bit_for_bit(n3, block_cols, monkeypatch):
    if block_cols is not None:
        monkeypatch.setattr(decomp, "_BLOCK_BYTES", block_cols * 16 * 9 * n3)
    rng = np.random.default_rng(60 + n3)
    w = rng.standard_normal((9, 11, n3))
    w[:, 2] *= 3.0
    w[:, 10] = w[:, 2]  # an exact tie for the top score, in a later block
    for r in (1, 2, 5):
        f = tcur(w, r)
        want = _full_spectrum_tcur(w, r)
        for got, exp in zip((f.rows, f.cols, f.C, f.U_core, f.R), want):
            assert got.dtype == exp.dtype and got.shape == exp.shape
            assert got.tobytes() == exp.tobytes()
    assert tcur(w, 1).cols.tolist() == [2]  # the tie goes to the smaller index


@pytest.mark.parametrize("dims", [(96, 700, 16), (700, 96, 16)], ids=["wide", "tall"])
def test_blocked_tcur_matches_the_full_spectrum_across_constant_sized_blocks(dims):
    # The tall blocks' rows are short, so they are copied before the FFT.
    w = np.random.default_rng(67).standard_normal(dims)
    assert w.size * 16 > 2 * decomp._BLOCK_BYTES  # three blocks or more
    f = tcur(w, 8)
    for got, exp in zip((f.rows, f.cols, f.C, f.U_core, f.R), _full_spectrum_tcur(w, 8)):
        assert got.tobytes() == exp.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308], ids=["nan", "inf", "overflow"])
def test_tcur_finds_a_bad_value_in_the_last_block(bad, monkeypatch):
    monkeypatch.setattr(decomp, "_BLOCK_BYTES", 1)  # one row, or one column, per block
    w = np.random.default_rng(68).standard_normal((4, 5, 3))
    if bad == 1e308:
        w[:, -1, :] = bad  # finite, but the last column's FFT overflows
    else:
        w[-1, -1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput):
            tcur(w, 2)
        if bad != 1e308:  # non-finite input is named before a bad rank
            with pytest.raises(NonFiniteInput):
                tcur(w, 99)
        with pytest.raises(ZeroTensor):
            tcur(np.zeros((4, 5, 3)), 2)


def test_tcur_holds_no_full_size_temporary(traced_peak):
    # ckpt-pipeline's shape: its spectrum spans three blocks; the whole
    # spectrum alone would be 2x the input.
    w = np.random.default_rng(69).standard_normal((192, 160, 24))
    peak = traced_peak(lambda: tcur(w, 12))
    assert peak <= 1.2 * w.nbytes, f"peak {peak / w.nbytes:.3f}x the input"


def test_finite_check_holds_no_full_size_mask(traced_peak):
    # Ten row slabs, each of _BLOCK_BYTES of spectrum and a mask of an
    # eightieth of the input; one whole-tensor mask would be an eighth.
    w = np.random.default_rng(70).standard_normal((320, 128, 64))
    assert len(decomp._blocks(len(w), 2 * w[:1].nbytes)) == 10
    peak = traced_peak(lambda: decomp._finite_tensor3(w, "w"))
    assert peak <= 0.05 * w.nbytes, f"peak {peak / w.nbytes:.3f}x the input"
    w[-1, -1, -1] = np.inf  # in the last slab
    with pytest.raises(NonFiniteInput, match="w has NaN or infinite"):
        decomp._finite_tensor3(w, "w")
