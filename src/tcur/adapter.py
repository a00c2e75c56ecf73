"""Frozen-factor tensor adapters with a zero-initialized learnable core.

Per-layer transformer weight matrices are stacked along the frontal (third)
dimension into three tensors (attention projections, MLP up, MLP down),
and each stacked tensor gets an independent adapter: C and R come from the
tensor CUR decomposition of the frozen base weights and never change, while
the small core U (rank x rank x n3) starts at zero and is the only thing
trained. Effective weights are ``base + C * U * R``, so a freshly built
adapter reproduces the base exactly.

Slice ordering inside the attention stack is layer-major with role order
(q, k, v, o); this layout is part of the checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomp import tcur
from .errors import DimMismatch
from .tensor_ops import _as_tensor3, tprod

#: Role order of the four attention projections within each layer's
#: block of frontal slices. Fixed; recorded in checkpoints.
ROLE_ORDER = ("q", "k", "v", "o")

#: Caveat attached to every parameter-count report.
PARAM_COUNT_CAVEAT = (
    "Counts cover the learnable adapter cores only. End-to-end fine-tuning "
    "budgets for a full network additionally include every component trained "
    "outside the adapters (e.g. a fully updated convolutional decoder), so "
    "published whole-model parameter totals are much larger than these core "
    "counts."
)


@dataclass(frozen=True)
class StackingConfig:
    """Shape bookkeeping for stacking per-layer weights into tensors.

    ``n_heads`` is recorded for documentation only: per-head projections
    are assumed merged into full d x d matrices before stacking, so head
    count never enters the stacked shapes.
    """

    d: int
    n_layers: int
    n_heads: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or self.n_layers < 1:
            raise DimMismatch(
                f"d and n_layers must be positive, got d={self.d}, "
                f"n_layers={self.n_layers}"
            )
        if self.n_heads is not None and self.d % self.n_heads != 0:
            raise DimMismatch(f"d={self.d} not divisible by n_heads={self.n_heads}")

    @property
    def sa_shape(self) -> tuple[int, int, int]:
        return (self.d, self.d, 4 * self.n_layers)

    @property
    def up_shape(self) -> tuple[int, int, int]:
        return (self.d, 4 * self.d, self.n_layers)

    @property
    def down_shape(self) -> tuple[int, int, int]:
        return (4 * self.d, self.d, self.n_layers)


@dataclass
class LayerWeights:
    """One transformer layer's weight matrices.

    q, k, v, o are (d, d); up is (d, 4d); down is (4d, d).
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    up: np.ndarray
    down: np.ndarray

    def roles(self) -> tuple[np.ndarray, ...]:
        return (self.q, self.k, self.v, self.o)


def _check_layer_shapes(lw: LayerWeights, cfg: StackingConfig, layer: int) -> None:
    d = cfg.d
    for name, m in zip(ROLE_ORDER, lw.roles()):
        if np.shape(m) != (d, d):
            raise DimMismatch(
                f"layer {layer} role {name}: expected {(d, d)}, got {np.shape(m)}"
            )
    if np.shape(lw.up) != (d, 4 * d):
        raise DimMismatch(f"layer {layer} up: expected {(d, 4 * d)}, got {np.shape(lw.up)}")
    if np.shape(lw.down) != (4 * d, d):
        raise DimMismatch(
            f"layer {layer} down: expected {(4 * d, d)}, got {np.shape(lw.down)}"
        )


def stack_layers(
    layers: list[LayerWeights],
    cfg: StackingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-layer matrices into (W_sa, W_up, W_down) tensors.

    W_sa slice 4*layer + role holds the role-th attention projection of
    that layer (role order q, k, v, o); W_up and W_down hold one slice per
    layer. Pure reindexing, no arithmetic.
    """
    if len(layers) != cfg.n_layers:
        raise DimMismatch(f"expected {cfg.n_layers} layers, got {len(layers)}")
    w_sa = np.empty(cfg.sa_shape)
    w_up = np.empty(cfg.up_shape)
    w_down = np.empty(cfg.down_shape)
    for li, lw in enumerate(layers):
        _check_layer_shapes(lw, cfg, li)
        for ri, m in enumerate(lw.roles()):
            w_sa[:, :, 4 * li + ri] = m
        w_up[:, :, li] = lw.up
        w_down[:, :, li] = lw.down
    return w_sa, w_up, w_down


def unstack_layers(
    w_sa: np.ndarray,
    w_up: np.ndarray,
    w_down: np.ndarray,
    cfg: StackingConfig,
) -> list[LayerWeights]:
    """Exact inverse of :func:`stack_layers`."""
    w_sa = _as_tensor3(w_sa, "w_sa")
    w_up = _as_tensor3(w_up, "w_up")
    w_down = _as_tensor3(w_down, "w_down")
    if w_sa.shape != cfg.sa_shape:
        raise DimMismatch(f"w_sa: expected {cfg.sa_shape}, got {w_sa.shape}")
    if w_up.shape != cfg.up_shape:
        raise DimMismatch(f"w_up: expected {cfg.up_shape}, got {w_up.shape}")
    if w_down.shape != cfg.down_shape:
        raise DimMismatch(f"w_down: expected {cfg.down_shape}, got {w_down.shape}")
    layers = []
    for li in range(cfg.n_layers):
        q, k, v, o = (w_sa[:, :, 4 * li + ri].copy() for ri in range(4))
        layers.append(
            LayerWeights(
                q=q, k=k, v=v, o=o,
                up=w_up[:, :, li].copy(),
                down=w_down[:, :, li].copy(),
            )
        )
    return layers


@dataclass
class Adapter:
    """Frozen (base, C, R) plus the learnable core U.

    Construction marks base, C and R read-only in place; training only
    ever reassigns U. A zero U makes the adapter a no-op.
    """

    base: np.ndarray   # (n1, n2, n3), frozen
    C: np.ndarray      # (n1, rank, n3), frozen
    R: np.ndarray      # (rank, n2, n3), frozen
    U: np.ndarray      # (rank, rank, n3), learnable
    rank: int

    def __post_init__(self):
        for frozen in (self.base, self.C, self.R):
            frozen.setflags(write=False)


def init_adapter(base: np.ndarray, rank: int) -> Adapter:
    """Build an adapter from the tensor CUR decomposition of ``base``.

    The decomposition's sampled core is discarded: the adapter's U is a
    fresh zero tensor, distinct from the reconstruction core, so the
    effective weights start exactly equal to the base.

    Raises:
        NonFiniteInput, RankOutOfRange, ZeroTensor: propagated from the
            decomposition.
    """
    base = _as_tensor3(base, "base").copy()
    f = tcur(base, rank)
    n3 = base.shape[2]
    return Adapter(base=base, C=f.C.copy(), R=f.R.copy(), U=np.zeros((rank, rank, n3)), rank=rank)


def delta(a: Adapter) -> np.ndarray:
    """Additive weight update ``C * U * R``; zero whenever U is zero."""
    return tprod(a.C, tprod(a.U, a.R))


def effective_weights(a: Adapter) -> np.ndarray:
    """``base + C * U * R``, the weights the adapted model would run with."""
    return a.base + delta(a)


def core_entries(rank: int, n_slices: int) -> int:
    """Learnable entries of one rank x rank x n_slices core."""
    return rank * rank * n_slices


@dataclass(frozen=True)
class GroupCount:
    name: str
    core_shape: tuple[int, int, int]
    entries: int


@dataclass(frozen=True)
class ParamReport:
    """Learnable-core counts for the three stacked weight groups."""

    groups: tuple[GroupCount, ...]
    total: int
    caveat: str = field(default=PARAM_COUNT_CAVEAT)

    def lines(self) -> list[str]:
        out = [
            f"{g.name}: core {g.core_shape[0]}x{g.core_shape[1]}x{g.core_shape[2]}"
            f" = {g.entries} entries"
            for g in self.groups
        ]
        out.append(f"total learnable adapter entries: {self.total}")
        out.append(f"note: {self.caveat}")
        return out


@dataclass(frozen=True)
class MatrixBaselineCount:
    """Learnable-core count for the per-matrix baseline on the same weights."""

    n_matrices: int
    per_matrix: int
    total: int


def count_params(cfg: StackingConfig, rank: int) -> ParamReport:
    """Learnable adapter entries for each stacked group at the given rank."""
    if rank < 1:
        raise DimMismatch(f"rank must be positive, got {rank}")
    groups = []
    for name, n_slices in (
        ("sa", 4 * cfg.n_layers),
        ("up", cfg.n_layers),
        ("down", cfg.n_layers),
    ):
        groups.append(
            GroupCount(
                name=name,
                core_shape=(rank, rank, n_slices),
                entries=core_entries(rank, n_slices),
            )
        )
    return ParamReport(groups=tuple(groups), total=sum(g.entries for g in groups))


def count_matrix_baseline(cfg: StackingConfig, rank: int) -> MatrixBaselineCount:
    """Per-matrix baseline: one rank x rank core per stacked weight matrix."""
    if rank < 1:
        raise DimMismatch(f"rank must be positive, got {rank}")
    n_matrices = 6 * cfg.n_layers  # 4 attention + 2 MLP matrices per layer
    return MatrixBaselineCount(
        n_matrices=n_matrices,
        per_matrix=rank * rank,
        total=n_matrices * rank * rank,
    )
