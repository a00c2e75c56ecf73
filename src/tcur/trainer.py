"""Toy-scale core training with analytic gradients and baselines.

The objective is the quadratic tensor-target loss ``0.5 * ||W - T||_F^2``
on the adapter's effective weights, the one desk-scale objective whose
optimum and convergence behavior are known in closed form. With
D = T - base it is ``0.5 * ||C * U * R - D||_F^2``, and the gradient with
respect to the core follows from the t-product adjoint:

    dL/dU = C^T * (C * U * R - D) * R^T

``grad_core`` is that adjoint in space, the reference definition, verified
both by the inner-product adjoint identity and by central finite
differences. ``train`` and ``task_loss`` never leave the mode-3 half
spectrum: C, R and D are transformed once per run, and each step forms one
residual E = C U R - D slice by slice, which gives both the gradient
(``C_k^H E_k R_k^H``, mapped back to a real core) and the loss (by
Parseval). Gradient descent with step size ``1 / lambda_max`` is the
reference path (monotone on quadratics), lambda_max taken in closed form
from the Fourier slices of C and R; Adam is available but makes no
monotonicity promise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapter import Adapter, core_entries, init_adapter
from .decomp import tcur
from .errors import CurvatureMismatch, DimMismatch, DivergenceDetected, NonFiniteInput
from .report import ComparisonReport, ReportRecord
from .tensor_ops import _as_tensor3, _from_spec, _to_spec, fro_norm, tpinv, tprod, ttranspose

PLANT_MODES = ("in_span", "out_of_span")
OPTIMIZERS = ("gd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Largest ||hessian_apply(V) - lambda V|| / lambda accepted for the closed-form
# eigenpair; rounding leaves about 1e-15.
_EIG_REL_TOL = 1e-10


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
        target = base + tprod(f.C, g, f.R)
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
    """``loss_tensor_target(effective_weights(a), task.target)``, computed
    on the half spectrum with the arithmetic ``train`` uses for its loss."""
    c_hat, r_hat, d_hat = _spec_task(a, task)
    return _spec_loss(_spec_residual(c_hat, r_hat, d_hat, a.U), a.base.shape[2])


def _spec_task(a: Adapter, task: SyntheticTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half spectra of C, R and D = target - base."""
    target = _as_tensor3(task.target, "target")
    if target.shape != a.base.shape:
        raise DimMismatch(f"target dims {target.shape} != base dims {a.base.shape}")
    return _to_spec(a.C), _to_spec(a.R), _to_spec(target - a.base)


def _spec_residual(c_hat: np.ndarray, r_hat: np.ndarray, d_hat: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Half spectrum of the residual ``C * U * R - D``."""
    return c_hat @ (_to_spec(u) @ r_hat) - d_hat


def _spec_loss(e_hat: np.ndarray, n3: int) -> float:
    """``0.5 * ||E||_F^2`` from E's half spectrum, by Parseval.

    The DC slice, and at even n3 the Nyquist slice, stand for themselves;
    every other slice also stands for its conjugate twin, so counts twice.
    """
    re_im = np.ascontiguousarray(e_hat).view(np.float64)
    sq = np.einsum("kij,kij->k", re_im, re_im)  # |E_k|_F^2 per slice
    return float(sq.sum() + sq[1:(n3 + 1) // 2].sum()) / (2.0 * n3)


def _spec_grad(c_hat: np.ndarray, e_hat: np.ndarray, r_hat: np.ndarray, n3: int) -> np.ndarray:
    """Real core gradient ``C^T * E * R^T`` from half spectra: ``C_k^H E_k R_k^H``."""
    return _from_spec(c_hat.conj().swapaxes(1, 2) @ e_hat @ r_hat.conj().swapaxes(1, 2), n3)


def grad_core(a: Adapter, g: np.ndarray) -> np.ndarray:
    """Core gradient ``C^T * g * R^T`` for an upstream gradient g = dL/dW.

    This is the adjoint of ``V -> C * V * R`` under the entrywise inner
    product: ``<grad_core(a, G), V> == <G, C * V * R>``.
    """
    g = _as_tensor3(g, "g")
    if g.shape != a.base.shape:
        raise DimMismatch(f"upstream gradient dims {g.shape} != base dims {a.base.shape}")
    return tprod(ttranspose(a.C), g, ttranspose(a.R))


def finite_diff_grad(a: Adapter, task: SyntheticTask) -> np.ndarray:
    """Central-difference gradient of the task loss over every core entry.

    The per-entry step is ``1e-5 * (1 + |entry|)``. Cost is two loss
    evaluations per core entry (rank^2 * n3 total), so keep dims small.
    Exact up to rounding on the quadratic loss. Each loss is
    ``task_loss``'s arithmetic on the perturbed core, with C, R and D
    transformed once.
    """
    n3 = a.base.shape[2]
    c_hat, r_hat, d_hat = _spec_task(a, task)
    out = np.empty_like(a.U)
    for idx in np.ndindex(a.U.shape):
        h = 1e-5 * (1.0 + abs(float(a.U[idx])))
        u_plus = a.U.copy()
        u_plus[idx] += h
        u_minus = a.U.copy()
        u_minus[idx] -= h
        lp = _spec_loss(_spec_residual(c_hat, r_hat, d_hat, u_plus), n3)
        lm = _spec_loss(_spec_residual(c_hat, r_hat, d_hat, u_minus), n3)
        out[idx] = (lp - lm) / (2.0 * h)
    return out


def hessian_apply(a: Adapter, v: np.ndarray) -> np.ndarray:
    """Quadratic-form operator ``V -> C^T * (C * V * R) * R^T``."""
    return grad_core(a, tprod(a.C, v, a.R))


def hessian_max_eig(a: Adapter) -> float:
    """Largest eigenvalue of the core Hessian, in closed form.

    The Hessian is block diagonal in the mode-3 Fourier domain, acting on
    slice k as ``V_k -> C_k^H C_k V_k R_k R_k^H`` (Kilmer & Martin, LAA
    2011), so its largest eigenvalue is
    ``max_k sigma_max(C_k)^2 * sigma_max(R_k)^2``, attained by
    ``V_k = u w^H`` (u: top right singular vector of C_k, w: top left
    singular vector of R_k). That eigenvector, mapped back to a real
    tensor, goes through ``hessian_apply`` once to confirm the eigenvalue.

    Raises:
        CurvatureMismatch: ``hessian_apply`` does not return lambda times
            the eigenvector (to 1e-10 relative), i.e. the gradient path and
            the spectral arithmetic disagree about the Hessian.
    """
    _, s_c, vh_c = np.linalg.svd(_to_spec(a.C), full_matrices=False)
    u_r, s_r, _ = np.linalg.svd(_to_spec(a.R), full_matrices=False)
    lams = (s_c[:, 0] * s_r[:, 0]) ** 2
    k = int(np.argmax(lams))
    lam = float(lams[k])
    x = np.outer(vh_c[k, 0].conj(), u_r[k, :, 0].conj())
    # A DC or Nyquist slice must be real: rotate the largest entry onto the
    # real axis (_from_spec rejects an imaginary part that irfft would drop).
    top = x.flat[np.argmax(np.abs(x))]
    x *= np.conj(top) / abs(top)
    spec = np.zeros((s_c.shape[0],) + x.shape, dtype=complex)
    spec[k] = x
    v = _from_spec(spec, a.U.shape[2])
    v /= fro_norm(v)
    residual = fro_norm(hessian_apply(a, v) - lam * v)
    if residual > _EIG_REL_TOL * lam:
        raise CurvatureMismatch(
            f"hessian_apply moves the slice-{k} eigenvector of lambda_max {lam:.6e} "
            f"by {residual:.3e} (tol {_EIG_REL_TOL:.0e} * lambda_max)"
        )
    return lam


def safe_step_size(a: Adapter) -> float:
    """``1 / lambda_max`` of the core Hessian; monotone for gd on this loss."""
    lam = hessian_max_eig(a)
    if lam == 0.0:
        raise ValueError("zero curvature: adapter factors span nothing to train")
    return 1.0 / lam


@dataclass
class TrainHistory:
    """Per-step record of one training run (loss is post-update) at step size ``lr``."""

    initial_loss: float
    loss: list[float]
    grad_norm: list[float]
    lr: float


def _check_finite_real(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an ``int``, ``float``, ``np.integer``
    or ``np.floating`` (not a bool) that is a float in [0, inf)."""
    real = not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))
    try:
        ok = real and 0 <= float(value) < math.inf  # also rejects NaN
    except OverflowError:  # an int past float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real >= 0, got {value!r}")


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
    the loss falls to ``rel_stop * initial`` (if given). Each step takes the
    gradient and the post-update loss from one half-spectrum residual; the
    update itself (gd or Adam) is applied to the real core.

    Args:
        steps: number of update steps, >= 1.
        lr: step size, a finite real >= 0 (0 leaves the core unchanged).
        optimizer: "gd" or "adam" (Adam with the usual 0.9/0.999/1e-8).
        rel_stop: optional relative early-stop threshold, a finite real >= 0.

    Raises:
        ValueError: steps is not an integer (``int`` or ``np.integer``,
            not ``bool``) >= 1, lr or rel_stop is not a finite real
            (``int``, ``float``, ``np.integer`` or ``np.floating``, not
            ``bool``) >= 0, or an unknown optimizer.
        NonFiniteInput: the initial loss is NaN or infinite.
        DivergenceDetected: a step's loss is NaN or infinite, or exceeded
            1e6 x the initial loss.
    """
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    _check_finite_real("lr", lr)
    if rel_stop is not None:
        _check_finite_real("rel_stop", rel_stop)
    if optimizer not in OPTIMIZERS:
        names = " or ".join(map(repr, OPTIMIZERS))
        raise ValueError(f"optimizer must be {names}, got {optimizer!r}")

    initial = task_loss(a, task)
    if not math.isfinite(initial):
        raise NonFiniteInput(f"initial loss is {initial}: base, target or adapter not finite")
    guard = 1e6 * initial
    history = TrainHistory(initial_loss=initial, loss=[], grad_norm=[], lr=lr)

    n3 = a.base.shape[2]
    c_hat, r_hat, d_hat = _spec_task(a, task)
    m = np.zeros_like(a.U)
    v = np.zeros_like(a.U)
    e_hat = _spec_residual(c_hat, r_hat, d_hat, a.U)
    for t in range(1, steps + 1):
        grad = _spec_grad(c_hat, e_hat, r_hat, n3)
        if optimizer == "gd":
            a.U = a.U - lr * grad
        else:
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            a.U = a.U - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # The post-update residual is also the next step's gradient input.
        e_hat = _spec_residual(c_hat, r_hat, d_hat, a.U)
        loss = _spec_loss(e_hat, n3)  # == task_loss(a, task), bit for bit
        history.loss.append(loss)
        history.grad_norm.append(fro_norm(grad))
        if not math.isfinite(loss) or loss > guard:
            raise DivergenceDetected(
                f"loss {loss:.3e} is not finite or exceeded 1e6 x initial "
                f"({initial:.3e}) at step {t}"
            )
        if rel_stop is not None and loss <= rel_stop * initial:
            break
    return history


def _fit_tcur(task: SyntheticTask, rank: int) -> tuple[float, int]:
    # Block diagonal per Fourier slice: the minimum-norm optimum is C+ * D * R+.
    a = init_adapter(task.base, rank)
    a.U = tprod(tpinv(a.C), task.target - task.base, tpinv(a.R))
    return task_loss(a, task), core_entries(rank, task.base.shape[2])


def _fit_matrix_cur(task: SyntheticTask, rank: int) -> tuple[float, int]:
    # One independent n3 = 1 adapter per frontal slice; the quadratic loss
    # decomposes slice-wise, so the total is the sum of per-slice optima.
    fits = [
        _fit_tcur(replace(task, base=task.base[:, :, k:k + 1], target=task.target[:, :, k:k + 1]),
                  rank)
        for k in range(task.base.shape[2])
    ]
    return sum(loss for loss, _ in fits), sum(params for _, params in fits)


def run_baselines(task: SyntheticTask, rank: int) -> ComparisonReport:
    """Fit the task with the full, per-matrix, and tensor-adapter routes.

    Every route's metric is its optimal loss in closed form. The full route's
    final weights ARE the target, so its loss is exactly zero; each adapter
    route takes the least-squares core ``C+ * D * R+`` over its frozen
    factors, with D = target - base.
    """
    dims = task.base.shape
    fits = (
        ("full", lambda: (loss_tensor_target(task.target, task.target), int(np.prod(dims)))),
        ("matrix_cur", lambda: _fit_matrix_cur(task, rank)),
        ("tcur", lambda: _fit_tcur(task, rank)),
    )
    records = []
    for method, fit in fits:
        t0 = time.perf_counter()
        loss, params = fit()
        records.append(ReportRecord(method=method, params=params, metric=loss,
                                    wall_ms=(time.perf_counter() - t0) * 1e3))
    return ComparisonReport(records=records, seed=task.seed, rank=rank, dims=dims)
