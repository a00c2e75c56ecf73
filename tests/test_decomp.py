import numpy as np
import pytest

from tcur import (
    RankOutOfRange,
    ZeroTensor,
    column_scores,
    fft_mode3,
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


@pytest.mark.parametrize("r", [0, -1, 4])
def test_select_top_r_rank_bounds(r):
    with pytest.raises(RankOutOfRange):
        select_top_r(np.array([0.5, 0.3, 0.2]), r)


@pytest.mark.parametrize("r", [0, 6, 99])
def test_tcur_rank_bounds(r):
    with pytest.raises(RankOutOfRange):
        tcur(np.ones((5, 6, 2)), r)


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
    assert f.rank == 2
    with pytest.raises(AttributeError):
        f.rank = 3  # frozen dataclass
