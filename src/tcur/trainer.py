"""Toy-scale core training with analytic gradients and baselines.

The objective is the quadratic tensor-target loss ``0.5 * ||W - T||_F^2``
on the adapter's effective weights, the one desk-scale objective whose
optimum and convergence behavior are known in closed form. The gradient
with respect to the core follows from the t-product adjoint:

    dL/dU = C^T * (W - T) * R^T

verified here both by the inner-product adjoint identity and by central
finite differences. Gradient descent with the power-iteration step size is
the reference path (monotone on quadratics); Adam is available but makes
no monotonicity promise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adapter import Adapter, core_entries, effective_weights, init_adapter
from .decomp import tcur
from .errors import DimMismatch, DivergenceDetected
from .report import ComparisonReport, ReportRecord
from .tensor_ops import _as_tensor3, fro_norm, tprod, ttranspose

PLANT_MODES = ("in_span", "out_of_span")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Power iteration for the step size: steps, relative stopping change, and
# the seed of the start vector.
_POWER_ITERS = 20
_POWER_REL_TOL = 1e-6
_POWER_SEED = 0


@dataclass(frozen=True)
class SyntheticTask:
    """Random base weights plus a planted target.

    With ``plant_mode="in_span"`` the perturbation is ``C * G * R`` for the
    base's own CUR factors at ``plant_rank`` and a random G, so an adapter
    of the same rank can reach (numerically) zero loss. ``out_of_span``
    plants a dense random perturbation with no such guarantee.
    """

    base: np.ndarray
    target: np.ndarray
    plant_mode: str
    seed: int
    plant_rank: int


def make_task(
    dims: tuple[int, int, int],
    rank: int,
    plant_mode: str = "in_span",
    seed: int = 0,
) -> SyntheticTask:
    """Build a synthetic fine-tuning task with a planted perturbation."""
    if plant_mode not in PLANT_MODES:
        raise ValueError(f"plant_mode must be one of {PLANT_MODES}, got {plant_mode!r}")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dims)
    if plant_mode == "in_span":
        f = tcur(base, rank)
        g = rng.standard_normal((rank, rank, dims[2]))
        target = base + tprod(f.C, tprod(g, f.R))
    else:
        target = base + rng.standard_normal(dims)
    return SyntheticTask(
        base=base, target=target, plant_mode=plant_mode, seed=seed, plant_rank=rank
    )


def loss_tensor_target(w: np.ndarray, t: np.ndarray) -> float:
    """Quadratic loss ``0.5 * ||w - t||_F^2``."""
    w = _as_tensor3(w, "w")
    t = _as_tensor3(t, "t")
    if w.shape != t.shape:
        raise DimMismatch(f"loss needs matching dims, got {w.shape} vs {t.shape}")
    d = w - t
    return 0.5 * float(np.sum(d * d))  # not fro_norm**2: skip the sqrt round trip


def task_loss(a: Adapter, task: SyntheticTask) -> float:
    return loss_tensor_target(effective_weights(a), task.target)


def grad_core(a: Adapter, g: np.ndarray) -> np.ndarray:
    """Core gradient ``C^T * g * R^T`` for an upstream gradient g = dL/dW.

    This is the adjoint of ``V -> C * V * R`` under the entrywise inner
    product: ``<grad_core(a, G), V> == <G, C * V * R>``.
    """
    g = _as_tensor3(g, "g")
    if g.shape != a.base.shape:
        raise DimMismatch(f"upstream gradient dims {g.shape} != base dims {a.base.shape}")
    return tprod(ttranspose(a.C), tprod(g, ttranspose(a.R)))


def finite_diff_grad(a: Adapter, task: SyntheticTask, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the task loss over every core entry.

    The per-entry step is ``eps * (1 + |entry|)``. Cost is two loss
    evaluations per core entry (rank^2 * n3 total), so keep dims small.
    Exact up to rounding on the quadratic loss.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    out = np.empty_like(a.U)
    for idx in np.ndindex(a.U.shape):
        h = eps * (1.0 + abs(float(a.U[idx])))
        u_plus = a.U.copy()
        u_plus[idx] += h
        u_minus = a.U.copy()
        u_minus[idx] -= h
        lp = task_loss(_with_core(a, u_plus), task)
        lm = task_loss(_with_core(a, u_minus), task)
        out[idx] = (lp - lm) / (2.0 * h)
    return out


def _with_core(a: Adapter, u: np.ndarray) -> Adapter:
    return Adapter(base=a.base, C=a.C, R=a.R, U=u, rank=a.rank)


def hessian_apply(a: Adapter, v: np.ndarray) -> np.ndarray:
    """Quadratic-form operator ``V -> C^T * (C * V * R) * R^T``."""
    return grad_core(a, tprod(a.C, tprod(v, a.R)))


def hessian_max_eig(a: Adapter) -> float:
    """Largest eigenvalue of the core Hessian, by power iteration."""
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(a.U.shape)
    v /= fro_norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERS):
        hv = hessian_apply(a, v)
        nrm = fro_norm(hv)
        if nrm == 0.0:
            return 0.0
        v = hv / nrm
        if lam > 0.0 and abs(nrm - lam) <= _POWER_REL_TOL * nrm:
            return nrm
        lam = nrm
    return lam


def safe_step_size(a: Adapter) -> float:
    """``1 / lambda_max`` of the core Hessian; monotone for gd on this loss."""
    lam = hessian_max_eig(a)
    if lam == 0.0:
        raise ValueError("zero curvature: adapter factors span nothing to train")
    return 1.0 / lam


@dataclass
class TrainHistory:
    """Per-step record of one training run (loss is post-update)."""

    initial_loss: float
    loss: list[float]
    grad_norm: list[float]
    step_size: list[float]


def train(
    a: Adapter,
    task: SyntheticTask,
    steps: int,
    lr: float,
    optimizer: str = "gd",
    rel_stop: float | None = None,
) -> TrainHistory:
    """Fit the adapter core to the task target.

    Only ``a.U`` is updated; base, C, R are untouched. Stops early when
    the loss falls to ``rel_stop * initial`` (if given).

    Args:
        steps: number of update steps, >= 1.
        lr: step size, >= 0 (0 leaves the core unchanged).
        optimizer: "gd" or "adam" (Adam with the usual 0.9/0.999/1e-8).
        rel_stop: optional relative early-stop threshold.

    Raises:
        DivergenceDetected: loss exceeded 1e6 x the initial loss.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    if optimizer not in ("gd", "adam"):
        raise ValueError(f"optimizer must be 'gd' or 'adam', got {optimizer!r}")

    initial = task_loss(a, task)
    guard = 1e6 * initial
    history = TrainHistory(initial_loss=initial, loss=[], grad_norm=[], step_size=[])

    m = np.zeros_like(a.U)
    v = np.zeros_like(a.U)
    for t in range(1, steps + 1):
        residual = effective_weights(a) - task.target
        grad = grad_core(a, residual)
        if optimizer == "gd":
            a.U = a.U - lr * grad
        else:
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            a.U = a.U - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        loss = task_loss(a, task)
        history.loss.append(loss)
        history.grad_norm.append(fro_norm(grad))
        history.step_size.append(lr)
        if loss > guard:
            raise DivergenceDetected(
                f"loss {loss:.3e} exceeded 1e6 x initial ({initial:.3e}) at step {t}"
            )
        if rel_stop is not None and loss <= rel_stop * initial:
            break
    return history


def _fit_tcur(task: SyntheticTask, rank: int, steps: int, rel_stop: float) -> tuple[float, int]:
    a = init_adapter(task.base, rank)
    lr = safe_step_size(a)
    hist = train(a, task, steps=steps, lr=lr, optimizer="gd", rel_stop=rel_stop)
    n3 = task.base.shape[2]
    return hist.loss[-1], core_entries(rank, n3)


def _fit_matrix_cur(task: SyntheticTask, rank: int, steps: int, rel_stop: float) -> tuple[float, int]:
    # One independent n3 = 1 adapter per frontal slice; the quadratic loss
    # decomposes slice-wise, so the total is the sum of per-slice finals.
    n3 = task.base.shape[2]
    total = 0.0
    for k in range(n3):
        base_k = task.base[:, :, k:k + 1].copy()
        target_k = task.target[:, :, k:k + 1].copy()
        a_k = init_adapter(base_k, rank)
        task_k = SyntheticTask(
            base=base_k, target=target_k, plant_mode=task.plant_mode,
            seed=task.seed, plant_rank=rank,
        )
        lr = safe_step_size(a_k)
        hist = train(a_k, task_k, steps=steps, lr=lr, optimizer="gd", rel_stop=rel_stop)
        total += hist.loss[-1]
    return total, n3 * rank * rank


def run_baselines(
    task: SyntheticTask,
    rank: int,
    steps: int = 2000,
    rel_stop: float = 1e-10,
) -> ComparisonReport:
    """Fit the task with the full, per-matrix, and tensor-adapter routes.

    The full route is the unconstrained optimum in closed form (the final
    weights ARE the target, so its loss is exactly zero); the other two
    run gradient descent with their safe step sizes and an early stop.
    """
    dims = task.base.shape
    records = []

    t0 = time.perf_counter()
    full_loss = loss_tensor_target(task.target, task.target)
    records.append(
        ReportRecord(
            method="full",
            params=int(np.prod(dims)),
            metric=full_loss,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            rank=rank,
            dims=dims,
        )
    )

    t0 = time.perf_counter()
    mc_loss, mc_params = _fit_matrix_cur(task, rank, steps, rel_stop)
    records.append(
        ReportRecord(
            method="matrix_cur",
            params=mc_params,
            metric=mc_loss,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            rank=rank,
            dims=dims,
        )
    )

    t0 = time.perf_counter()
    tc_loss, tc_params = _fit_tcur(task, rank, steps, rel_stop)
    records.append(
        ReportRecord(
            method="tcur",
            params=tc_params,
            metric=tc_loss,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            rank=rank,
            dims=dims,
        )
    )

    return ComparisonReport(records=records, seed=task.seed, rank=rank, dims=dims)
