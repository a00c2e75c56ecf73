"""Frozen-factor tensor adapters with a zero-initialized learnable core.

Per-layer transformer weight matrices are stacked along the frontal (third)
dimension into three tensors (attention projections, MLP up, MLP down),
and each stacked tensor gets an independent adapter: C and R come from the
tensor CUR decomposition of the frozen base weights and never change, while
the small core U (rank x rank x n3) starts at zero and is the only thing
trained. Effective weights are ``base + C * U * R``, so a freshly built
adapter reproduces the base exactly.

``LAYOUT`` defines the stacking once; shapes, stack/unstack and parameter
counts derive from it. Slices are layer-major, and the attention stack's
role order (q, k, v, o) is part of the checkpoint format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .decomp import _finite_tensor3, tcur
from .errors import DimMismatch
from .tensor_ops import _as_tensor3, tprod

#: Role order of the four attention projections within each layer's
#: block of frontal slices. Fixed; recorded in checkpoints.
ROLE_ORDER = ("q", "k", "v", "o")

#: Stacked group -> (LayerWeights fields filling it, in slice order within
#: a layer; frontal-slice (rows, cols) as multiples of d).
LAYOUT = {
    "sa": (ROLE_ORDER, (1, 1)),
    "up": (("up",), (1, 4)),
    "down": (("down",), (4, 1)),
}

#: Caveat attached to every parameter-count report.
PARAM_COUNT_CAVEAT = (
    "Counts cover the learnable adapter cores only. End-to-end fine-tuning "
    "budgets for a full network additionally include every component trained "
    "outside the adapters (e.g. a fully updated convolutional decoder), so "
    "published whole-model parameter totals are much larger than these core "
    "counts."
)


def _check_count(name: str, value) -> None:
    """Raise DimMismatch unless ``value`` is an integer (not a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DimMismatch(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class StackingConfig:
    """Shape bookkeeping for stacking per-layer weights into tensors.

    ``n_heads`` is recorded for documentation only: per-head projections
    are assumed merged into full d x d matrices before stacking, so head
    count never enters the stacked shapes.

    Raises:
        DimMismatch: d, n_layers or a given n_heads is not an integer
            (not a bool) >= 1, or n_heads does not divide d.
    """

    d: int
    n_layers: int
    n_heads: int | None = None

    def __post_init__(self) -> None:
        _check_count("d", self.d)
        _check_count("n_layers", self.n_layers)
        if self.n_heads is not None:
            _check_count("n_heads", self.n_heads)
            if self.d % self.n_heads != 0:
                raise DimMismatch(f"d={self.d} not divisible by n_heads={self.n_heads}")

    def shape(self, group: str) -> tuple[int, int, int]:
        """(rows, cols, frontal slices) of one stacked group of ``LAYOUT``."""
        fields, (m, n) = LAYOUT[group]
        return (m * self.d, n * self.d, len(fields) * self.n_layers)

    sa_shape = property(lambda self: self.shape("sa"))
    up_shape = property(lambda self: self.shape("up"))
    down_shape = property(lambda self: self.shape("down"))


@dataclass
class LayerWeights:
    """One transformer layer's weight matrices, shaped as ``LAYOUT`` says."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    o: np.ndarray
    up: np.ndarray
    down: np.ndarray


def stack_layers(
    layers: list[LayerWeights],
    cfg: StackingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-layer matrices into float64 (W_sa, W_up, W_down) tensors.

    Slice k of a group holds the k-th (layer, field) pair of its ``LAYOUT``
    entry in layer-major order, so W_sa slice 4*layer + role holds that
    layer's role-th projection. Pure reindexing, no arithmetic.

    Raises:
        DimMismatch: not ``cfg.n_layers`` layers, or a matrix that is not
            shaped as ``LAYOUT`` says or is complex.
    """
    if len(layers) != cfg.n_layers:
        raise DimMismatch(f"expected {cfg.n_layers} layers, got {len(layers)}")
    stacked = []
    for group, (fields, _) in LAYOUT.items():
        w = np.empty(cfg.shape(group))
        for k, (li, name) in enumerate(product(range(cfg.n_layers), fields)):
            m = getattr(layers[li], name)
            if np.shape(m) != w.shape[:2]:
                raise DimMismatch(f"layer {li} {name}: expected {w.shape[:2]}, got {np.shape(m)}")
            if np.iscomplexobj(m):  # assigning it would keep only the real part
                raise DimMismatch(f"layer {li} {name} must be real, got {np.asarray(m).dtype}")
            w[:, :, k] = m
        stacked.append(w)
    return tuple(stacked)


def unstack_layers(
    w_sa: np.ndarray,
    w_up: np.ndarray,
    w_down: np.ndarray,
    cfg: StackingConfig,
) -> list[LayerWeights]:
    """Exact inverse of :func:`stack_layers`; returns contiguous copies."""
    fields_by_layer = [{} for _ in range(cfg.n_layers)]
    for (group, (fields, _)), w in zip(LAYOUT.items(), (w_sa, w_up, w_down)):
        w = _as_tensor3(w, f"w_{group}")
        if w.shape != cfg.shape(group):
            raise DimMismatch(f"w_{group}: expected {cfg.shape(group)}, got {w.shape}")
        for k, (li, name) in enumerate(product(range(cfg.n_layers), fields)):
            fields_by_layer[li][name] = w[:, :, k].copy()
    return [LayerWeights(**f) for f in fields_by_layer]


@dataclass
class Adapter:
    """Frozen (base, C, R) plus the learnable core U; ``rank`` is U's size.

    Construction stores each tensor as float64 (a float64 array as
    given) and marks base, C and R read-only; training only ever
    reassigns U. A zero U makes the adapter a no-op.

    Raises:
        DimMismatch: a tensor is not real and third-order, or C, R and U
            are not (n1, r, n3), (r, n2, n3) and (r, r, n3) for base's dims.
        NonFiniteInput: base, C, R or U has a NaN or infinite entry.
    """

    base: np.ndarray   # (n1, n2, n3), frozen
    C: np.ndarray      # (n1, rank, n3), frozen
    R: np.ndarray      # (rank, n2, n3), frozen
    U: np.ndarray      # (rank, rank, n3), learnable

    rank = property(lambda self: self.U.shape[0])

    def __post_init__(self):
        self.base = _finite_tensor3(self.base, "adapter base")
        n1, n2, n3 = self.base.shape
        r = _as_tensor3(self.U, "adapter factor U").shape[0]
        for name, want in (("C", (n1, r, n3)), ("R", (r, n2, n3)), ("U", (r, r, n3))):
            t = _finite_tensor3(getattr(self, name), f"adapter factor {name}")
            if t.shape != want:
                raise DimMismatch(f"adapter factor {name} has shape {t.shape}, not {want}")
            setattr(self, name, t)
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
    return Adapter(base=base, C=f.C, R=f.R, U=np.zeros((rank, rank, base.shape[2])))


def delta(a: Adapter) -> np.ndarray:
    """Additive weight update ``C * U * R``; zero whenever U is zero."""
    return tprod(a.C, a.U, a.R)


def effective_weights(a: Adapter) -> np.ndarray:
    """``base + C * U * R``, the weights the adapted model would run with."""
    return a.base + delta(a)


def core_entries(rank: int, n_slices: int) -> int:
    """Learnable entries of one rank x rank x n_slices core.

    Raises:
        DimMismatch: rank is not an integer (not a bool) >= 1.
    """
    _check_count("rank", rank)
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
    caveat: str = field(default=PARAM_COUNT_CAVEAT, init=False)

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
    slices = {g: cfg.shape(g)[2] for g in LAYOUT}
    groups = tuple(
        GroupCount(name=g, core_shape=(rank, rank, n), entries=core_entries(rank, n))
        for g, n in slices.items()
    )
    return ParamReport(groups=groups, total=sum(g.entries for g in groups))


def count_matrix_baseline(cfg: StackingConfig, rank: int) -> MatrixBaselineCount:
    """Per-matrix baseline: one rank x rank core per stacked weight matrix."""
    n = sum(cfg.shape(g)[2] for g in LAYOUT)
    return MatrixBaselineCount(n_matrices=n, per_matrix=core_entries(rank, 1),
                               total=core_entries(rank, n))
