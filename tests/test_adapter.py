import warnings

import numpy as np
import pytest

from tcur import (
    Adapter,
    DimMismatch,
    LayerWeights,
    NonFiniteInput,
    RankOutOfRange,
    StackingConfig,
    count_matrix_baseline,
    count_params,
    delta,
    effective_weights,
    init_adapter,
    rel_error,
    stack_layers,
    tprod,
    unstack_layers,
)
from tcur.adapter import ROLE_ORDER, core_entries
from tcur.trainer import safe_step_size


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


def test_adapter_rank_is_the_core_size_and_read_only():
    a = init_adapter(np.random.default_rng(2).standard_normal((6, 9, 4)), 3)
    a.U = np.zeros((3, 3, 4))
    assert a.rank == a.U.shape[0] == 3
    with pytest.raises(AttributeError):
        a.rank = 2


def _adapter_parts(seed=5):
    a = init_adapter(np.random.default_rng(seed).standard_normal((5, 4, 3)), 2)
    return {"base": a.base, "C": a.C, "R": a.R, "U": a.U}


@pytest.mark.parametrize("field,bad", [
    ("C", np.zeros((5, 2, 2))),  # n3 cut short
    ("C", np.zeros((4, 2, 3))),  # n1 not the base's
    ("R", np.zeros((2, 3, 3))),  # n2 not the base's
    ("R", np.zeros((3, 4, 3))),  # rank not U's
    ("U", np.zeros((2, 3, 3))),  # not square
    ("U", np.zeros((3, 3, 3))),  # rank not C's or R's
    ("U", np.zeros((2, 2))),     # not third-order
    ("base", np.zeros((5, 4, 2))),  # a base of another shape
    ("base", np.zeros((5, 4))),
    ("C", np.zeros((5, 2, 3)) + 1j),  # the right shape, but complex
    ("R", np.zeros((2, 4, 3)) + 1j),
], ids=["C-n3", "C-n1", "R-n2", "R-rank", "U-not-square", "U-rank", "U-2d",
        "base-n3", "base-2d", "C-complex", "R-complex"])
def test_hand_built_adapter_rejects_factors_that_do_not_fit(field, bad):
    parts = _adapter_parts()
    parts[field] = bad
    with pytest.raises(DimMismatch):
        Adapter(**parts)


def test_frozen_factors_refuse_writes():
    a = init_adapter(np.random.default_rng(3).standard_normal((5, 5, 2)), 2)
    for arr in (a.base, a.C, a.R):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 99.0
    a.U[0, 0, 0] = 1.0  # the core is the learnable part


@pytest.mark.parametrize("field", ["base", "C", "R", "U"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_hand_built_adapter_rejects_non_finite_factors(field, bad):
    a = init_adapter(np.random.default_rng(4).standard_normal((5, 4, 3)), 2)
    parts = {"base": a.base.copy(), "C": a.C.copy(), "R": a.R.copy(), "U": a.U.copy()}
    parts[field][0, 1, 2] = bad
    with pytest.raises(NonFiniteInput, match=field):
        safe_step_size(Adapter(**parts))


@pytest.mark.parametrize("convert", [
    lambda t: t.tolist(),
    lambda t: t.astype(np.float32),
    lambda t: np.rint(4 * t).astype(np.int64),
], ids=["list", "float32", "int64"])
def test_hand_built_adapter_holds_float64(convert):
    a = init_adapter(np.random.default_rng(4).standard_normal((5, 4, 3)), 2)
    given = {n: convert(getattr(a, n)) for n in ("base", "C", "R", "U")}
    b = Adapter(**given)
    for name, t in given.items():
        held = getattr(b, name)
        assert isinstance(held, np.ndarray) and held.dtype == np.float64, name
        assert np.array_equal(held, np.asarray(t, dtype=np.float64)), name
    for frozen in (b.base, b.C, b.R):
        assert not frozen.flags.writeable
    b.U[0, 0, 0] = 1.0  # the core stays learnable
    assert effective_weights(b).dtype == np.float64


def test_init_adapter_rank_bounds():
    base = np.ones((4, 5, 2))
    with pytest.raises(RankOutOfRange):
        init_adapter(base, 0)
    with pytest.raises(RankOutOfRange):
        init_adapter(base, 5)
    with pytest.raises(RankOutOfRange):
        init_adapter(base, 3.0)


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
    want = tprod(a.C, a.U, a.R)
    assert np.array_equal(delta(a), want)
    assert rel_error(want, tprod(a.C, tprod(a.U, a.R))) <= 1e-12  # the nested product
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
            for ri, role in enumerate(ROLE_ORDER):
                assert np.array_equal(w_sa[:, :, 4 * li + ri], getattr(lw, role))
            assert np.array_equal(w_up[:, :, li], lw.up)
            assert np.array_equal(w_down[:, :, li], lw.down)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        layers = self.make_layers(rng)
        back = unstack_layers(*stack_layers(layers, self.cfg), self.cfg)
        assert len(back) == len(layers)
        for lw, rt in zip(layers, back):
            for name in (*ROLE_ORDER, "up", "down"):
                assert np.array_equal(getattr(lw, name), getattr(rt, name))

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

    def test_complex_matrix_rejected_not_cut_to_real(self):
        rng = np.random.default_rng(9)
        layers = self.make_layers(rng)
        layers[1].q = layers[1].q + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(DimMismatch, match="layer 1 q"):
                stack_layers(layers, self.cfg)

    def test_wrong_down_shape_rejected(self):
        rng = np.random.default_rng(9)
        layers = self.make_layers(rng)
        layers[0].down = rng.standard_normal((6, 24))  # the transpose of (24, 6)
        with pytest.raises(DimMismatch):
            stack_layers(layers, self.cfg)

    def test_unstack_rejects_wrongly_shaped_group(self):
        rng = np.random.default_rng(12)
        w_sa, w_up, w_down = stack_layers(self.make_layers(rng), self.cfg)
        with pytest.raises(DimMismatch):
            unstack_layers(w_sa, w_up[:, :, :1], w_down, self.cfg)

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
            for m in (getattr(lw, name) for name in (*ROLE_ORDER, "up", "down")):
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


@pytest.mark.parametrize("n_heads", [0, -3])
def test_stacking_config_rejects_non_positive_heads(n_heads):
    with pytest.raises(DimMismatch):
        StackingConfig(d=6, n_layers=2, n_heads=n_heads)


@pytest.mark.parametrize("kwargs", [
    {"d": 64.0, "n_layers": 2},
    {"d": 64, "n_layers": 2.5},
    {"d": True, "n_layers": 2},
    {"d": 64, "n_layers": True},
    {"d": 64, "n_layers": "2"},
    {"d": 64, "n_layers": 2, "n_heads": 4.0},
    {"d": 64, "n_layers": 2, "n_heads": True},
], ids=["d-float", "layers-fractional", "d-bool", "layers-bool", "layers-str",
        "heads-float", "heads-bool"])
def test_stacking_config_rejects_non_integer_counts(kwargs):
    # a float count would reach the shapes, a bool be read as 1
    with pytest.raises(DimMismatch, match="must be an integer"):
        StackingConfig(**kwargs)


def test_stacking_config_takes_numpy_integers():
    cfg = StackingConfig(d=np.int64(8), n_layers=np.int32(2), n_heads=np.int64(2))
    assert cfg.sa_shape == (8, 8, 8)
    assert cfg.down_shape == (32, 8, 2)


# -------------------------------------------------------------- param counts

def test_core_entries_arithmetic():
    assert core_entries(8, 48) == 3072
    assert core_entries(8, 12) == 768
    assert core_entries(1, 1) == 1


@pytest.mark.parametrize("rank", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("count", [count_params, count_matrix_baseline])
def test_core_counts_reject_non_integer_rank(count, rank):
    with pytest.raises(DimMismatch, match="rank must be an integer"):
        core_entries(rank, 4)
    with pytest.raises(DimMismatch):
        count(StackingConfig(d=32, n_layers=3), rank)
    assert core_entries(np.int64(2), 4) == 16


@pytest.mark.parametrize("rank", [0, -2])
@pytest.mark.parametrize("count", [count_params, count_matrix_baseline])
def test_core_counts_reject_non_positive_rank(count, rank):
    with pytest.raises(DimMismatch):
        core_entries(rank, 4)
    with pytest.raises(DimMismatch):
        count(StackingConfig(d=32, n_layers=3), rank)


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
