import numpy as np
import pytest

from tcur import (
    DimMismatch,
    LayerWeights,
    RankOutOfRange,
    StackingConfig,
    count_matrix_baseline,
    count_params,
    delta,
    effective_weights,
    init_adapter,
    stack_layers,
    tprod,
    unstack_layers,
)
from tcur.adapter import ROLE_ORDER, core_entries


@pytest.mark.parametrize("dims,rank", [((5, 6, 3), 2), ((4, 4, 1), 3), ((7, 3, 2), 1)])
def test_fresh_adapter_is_the_identity(dims, rank):
    rng = np.random.default_rng(1)
    base = rng.standard_normal(dims)
    a = init_adapter(base, rank)
    assert not a.U.any()
    assert a.U.shape == (rank, rank, dims[2])
    assert np.array_equal(effective_weights(a), base)  # zero error, not approx


def test_adapter_factor_shapes():
    a = init_adapter(np.random.default_rng(2).standard_normal((6, 9, 4)), 3)
    assert a.C.shape == (6, 3, 4)
    assert a.R.shape == (3, 9, 4)
    assert a.rank == 3


def test_frozen_factors_refuse_writes():
    a = init_adapter(np.random.default_rng(3).standard_normal((5, 5, 2)), 2)
    for arr in (a.base, a.C, a.R):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 99.0
    a.U[0, 0, 0] = 1.0  # the core is the learnable part


def test_init_adapter_rank_bounds():
    base = np.ones((4, 5, 2))
    with pytest.raises(RankOutOfRange):
        init_adapter(base, 0)
    with pytest.raises(RankOutOfRange):
        init_adapter(base, 5)


def test_delta_is_bilinear_in_the_core():
    rng = np.random.default_rng(4)
    a = init_adapter(rng.standard_normal((5, 6, 3)), 2)
    u1 = rng.standard_normal(a.U.shape)
    u2 = rng.standard_normal(a.U.shape)
    a.U = u1
    d1 = delta(a)
    a.U = u2
    d2 = delta(a)
    a.U = 3.0 * u1 + u2
    assert np.abs(delta(a) - (3.0 * d1 + d2)).max() <= 1e-10 * (1 + np.abs(d1).max())


def test_delta_matches_direct_product():
    rng = np.random.default_rng(5)
    a = init_adapter(rng.standard_normal((5, 6, 3)), 2)
    a.U = rng.standard_normal(a.U.shape)
    want = tprod(a.C, tprod(a.U, a.R))
    assert np.array_equal(delta(a), want)
    assert np.allclose(effective_weights(a), a.base + want, atol=1e-14)


# ------------------------------------------------------------------ stacking

class TestStacking:
    cfg = StackingConfig(d=6, n_layers=2)

    def make_layers(self, rng):
        d = self.cfg.d
        return [
            LayerWeights(
                q=rng.standard_normal((d, d)), k=rng.standard_normal((d, d)),
                v=rng.standard_normal((d, d)), o=rng.standard_normal((d, d)),
                up=rng.standard_normal((d, 4 * d)), down=rng.standard_normal((4 * d, d)),
            )
            for _ in range(self.cfg.n_layers)
        ]

    def test_shapes(self):
        assert self.cfg.sa_shape == (6, 6, 8)
        assert self.cfg.up_shape == (6, 24, 2)
        assert self.cfg.down_shape == (24, 6, 2)

    def test_slice_indexing_law(self):
        rng = np.random.default_rng(6)
        layers = self.make_layers(rng)
        w_sa, w_up, w_down = stack_layers(layers, self.cfg)
        for li, lw in enumerate(layers):
            for ri, mat in enumerate(lw.roles()):
                assert np.array_equal(w_sa[:, :, 4 * li + ri], mat)
            assert np.array_equal(w_up[:, :, li], lw.up)
            assert np.array_equal(w_down[:, :, li], lw.down)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        layers = self.make_layers(rng)
        back = unstack_layers(*stack_layers(layers, self.cfg), self.cfg)
        assert len(back) == len(layers)
        for lw, rt in zip(layers, back):
            for m1, m2 in zip((*lw.roles(), lw.up, lw.down), (*rt.roles(), rt.up, rt.down)):
                assert np.array_equal(m1, m2)

    def test_role_order_is_qkvo(self):
        assert ROLE_ORDER == ("q", "k", "v", "o")

    def test_wrong_layer_count_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(DimMismatch):
            stack_layers(self.make_layers(rng)[:1], self.cfg)

    def test_wrong_matrix_shape_rejected(self):
        rng = np.random.default_rng(9)
        layers = self.make_layers(rng)
        layers[1].up = rng.standard_normal((6, 23))
        with pytest.raises(DimMismatch):
            stack_layers(layers, self.cfg)

    def test_wrong_down_shape_rejected(self):
        rng = np.random.default_rng(9)
        layers = self.make_layers(rng)
        layers[0].down = rng.standard_normal((6, 24))  # the transpose of (24, 6)
        with pytest.raises(DimMismatch):
            stack_layers(layers, self.cfg)

    def test_integer_matrices_stack_as_float64(self):
        rng = np.random.default_rng(10)
        layers = [
            LayerWeights(*(np.rint(10 * m).astype(np.int64)
                           for m in (lw.q, lw.k, lw.v, lw.o, lw.up, lw.down)))
            for lw in self.make_layers(rng)
        ]
        stacked = stack_layers(layers, self.cfg)
        assert [w.dtype for w in stacked] == [np.float64] * 3
        assert np.array_equal(stacked[2][:, :, 1], layers[1].down)

    def test_unstack_returns_contiguous_copies(self):
        rng = np.random.default_rng(11)
        stacked = stack_layers(self.make_layers(rng), self.cfg)
        before = [w.copy() for w in stacked]
        for lw in unstack_layers(*stacked, self.cfg):
            for m in (*lw.roles(), lw.up, lw.down):
                assert m.flags.c_contiguous
                m[...] = 0.0
        assert all(np.array_equal(w, b) for w, b in zip(stacked, before))


def test_stacking_config_validation():
    with pytest.raises(DimMismatch):
        StackingConfig(d=0, n_layers=3)
    with pytest.raises(DimMismatch):
        StackingConfig(d=6, n_layers=0)
    with pytest.raises(DimMismatch):
        StackingConfig(d=6, n_layers=2, n_heads=4)  # 4 does not divide 6


# -------------------------------------------------------------- param counts

def test_core_entries_arithmetic():
    assert core_entries(8, 48) == 3072
    assert core_entries(8, 12) == 768
    assert core_entries(1, 1) == 1


def test_count_params_reference_configuration():
    cfg = StackingConfig(d=768, n_layers=12, n_heads=12)
    rep = count_params(cfg, 8)
    by_name = {g.name: g for g in rep.groups}
    assert by_name["sa"].core_shape == (8, 8, 48)
    assert by_name["up"].core_shape == (8, 8, 12)
    assert by_name["down"].core_shape == (8, 8, 12)
    assert [g.entries for g in rep.groups] == [3072, 768, 768]
    assert rep.total == 4608
    assert "decoder" in rep.caveat
    assert any("4608" in ln or "4,608" in ln for ln in rep.lines())


def test_matrix_baseline_reference_configuration():
    cfg = StackingConfig(d=768, n_layers=12)
    mb = count_matrix_baseline(cfg, 2)
    assert mb.n_matrices == 72       # six matrices per layer
    assert mb.per_matrix == 4
    assert mb.total == 288


def test_counts_scale_with_rank_and_depth():
    cfg = StackingConfig(d=32, n_layers=3)
    assert count_params(cfg, 2).total == 4 * (12 + 3 + 3)
    assert count_matrix_baseline(cfg, 3).total == 9 * 18
