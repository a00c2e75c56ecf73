from dataclasses import replace

import numpy as np
import pytest

from tcur import (
    CurvatureMismatch,
    DimMismatch,
    DivergenceDetected,
    NonFiniteInput,
    finite_diff_grad,
    grad_core,
    hessian_max_eig,
    init_adapter,
    make_task,
    run_baselines,
    safe_step_size,
    train,
    tprod,
)
from tcur import trainer
from tcur.adapter import Adapter, effective_weights
from tcur.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SyntheticTask,
    hessian_apply,
    loss_tensor_target,
    task_loss,
)


def test_loss_hand_value():
    # all-ones difference on 2x2x2: 0.5 * 8 = 4
    assert loss_tensor_target(np.ones((2, 2, 2)), np.zeros((2, 2, 2))) == 4.0
    assert loss_tensor_target(np.ones((2, 2, 2)), np.ones((2, 2, 2))) == 0.0
    with pytest.raises(DimMismatch):
        loss_tensor_target(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


def test_make_task_deterministic():
    t1 = make_task((6, 6, 3), 2, "in_span", seed=11)
    t2 = make_task((6, 6, 3), 2, "in_span", seed=11)
    assert t1.base.tobytes() == t2.base.tobytes()
    assert t1.target.tobytes() == t2.target.tobytes()
    t3 = make_task((6, 6, 3), 2, "in_span", seed=12)
    assert t1.target.tobytes() != t3.target.tobytes()


def test_make_task_rejects_unknown_mode():
    with pytest.raises(ValueError):
        make_task((4, 4, 2), 2, "sideways", seed=0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for trial in range(4):
        dims = (int(rng.integers(3, 7)), int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        r = int(rng.integers(1, min(dims[:2]) + 1))
        task = make_task(dims, r, "out_of_span", seed=trial)
        a = init_adapter(task.base, r)
        a.U = rng.standard_normal(a.U.shape)
        analytic = grad_core(a, effective_weights(a) - task.target)
        fd = finite_diff_grad(a, task)
        assert float(np.max(np.abs(fd - analytic) / (1.0 + np.abs(analytic)))) <= 1e-6


def test_grad_is_the_adjoint_of_the_core_map():
    rng = np.random.default_rng(2)
    a = init_adapter(rng.standard_normal((5, 6, 3)), 2)
    for _ in range(5):
        g = rng.standard_normal((5, 6, 3))
        v = rng.standard_normal(a.U.shape)
        lhs = float(np.sum(grad_core(a, g) * v))
        rhs = float(np.sum(g * tprod(a.C, tprod(v, a.R))))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_grad_rejects_wrong_dims():
    a = init_adapter(np.random.default_rng(3).standard_normal((4, 4, 2)), 2)
    with pytest.raises(DimMismatch):
        grad_core(a, np.ones((4, 4, 3)))


def test_zero_lr_single_step_leaves_loss_unchanged():
    task = make_task((5, 5, 2), 2, "in_span", seed=4)
    a = init_adapter(task.base, 2)
    before = task_loss(a, task)
    hist = train(a, task, steps=1, lr=0.0)
    assert hist.loss == [before]
    assert not a.U.any()


def _spatial_train(a, task, steps, lr, optimizer, rel_stop):
    # Reference loop in space: each step's gradient is grad_core of the
    # residual effective_weights - target, each loss the spatial sum.
    initial = loss_tensor_target(effective_weights(a), task.target)
    m = np.zeros_like(a.U)
    v = np.zeros_like(a.U)
    losses = []
    residual = effective_weights(a) - task.target
    for t in range(1, steps + 1):
        grad = grad_core(a, residual)
        if optimizer == "gd":
            a.U = a.U - lr * grad
        else:
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            a.U = a.U - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        residual = effective_weights(a) - task.target
        losses.append(0.5 * float(np.sum(residual * residual)))
        if rel_stop is not None and losses[-1] <= rel_stop * initial:
            break
    return losses


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize("plant_mode", ["in_span", "out_of_span"])
def test_spectral_train_matches_spatial_reference(n3, optimizer, plant_mode):
    task = make_task((8, 7, n3), 3, plant_mode, seed=20 + n3)
    a = init_adapter(task.base, 3)
    ref = init_adapter(task.base, 3)
    lr = safe_step_size(a) if optimizer == "gd" else 0.05
    # Out of span Adam at a fixed lr never settles, and past ~200 steps it
    # amplifies rounding to ~1e-11 relative; re-associating the spatial
    # gradient alone does the same, so Adam is compared over 100 steps.
    if plant_mode == "in_span":
        steps, rel_stop = 3000, 1e-8
    else:
        steps, rel_stop = (300 if optimizer == "gd" else 100), None
    hist = train(a, task, steps=steps, lr=lr, optimizer=optimizer, rel_stop=rel_stop)
    losses = _spatial_train(ref, task, steps, lr, optimizer, rel_stop)
    assert len(hist.loss) == len(losses)
    if plant_mode == "in_span" and optimizer == "gd":
        assert len(losses) < steps  # the early stop fired on both sides
    assert np.linalg.norm(a.U - ref.U) <= 1e-12 * np.linalg.norm(ref.U)
    assert hist.loss == pytest.approx(losses, rel=1e-9)


@pytest.mark.parametrize("n3", [1, 2, 3, 4, 5, 8])
def test_task_loss_matches_spatial_loss(n3):
    rng = np.random.default_rng(30 + n3)
    task = make_task((6, 5, n3), 2, "out_of_span", seed=n3)
    a = init_adapter(task.base, 2)
    a.U = rng.standard_normal(a.U.shape)
    ref = loss_tensor_target(effective_weights(a), task.target)
    assert abs(task_loss(a, task) - ref) <= 1e-12 * ref
    wrong = SyntheticTask(base=task.base, target=task.target[:, :-1], plant_mode="out_of_span",
                          seed=0, plant_rank=2)
    with pytest.raises(DimMismatch):
        task_loss(a, wrong)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_target_raises(bad):
    task = make_task((5, 5, 3), 2, "in_span", seed=19)
    target = task.target.copy()
    target[1, 2, 0] = bad
    a = init_adapter(task.base, 2)
    with pytest.raises(NonFiniteInput):
        train(a, SyntheticTask(base=task.base, target=target, plant_mode="in_span",
                               seed=19, plant_rank=2), steps=3, lr=safe_step_size(a))
    assert not a.U.any()


def test_non_finite_step_loss_is_divergence():
    # train refuses lr = inf itself, so a finite lr this large stands in:
    # at 1e300 the first step's loss overflows to inf; at 1e306 the core
    # itself overflows, C * U * R meets inf - inf and the loss is NaN,
    # which no comparison against the guard catches.
    task = make_task((5, 5, 3), 2, "in_span", seed=21)
    for lr, loss in ((1e300, "inf"), (1e306, "nan")):
        a = init_adapter(task.base, 2)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(DivergenceDetected, match=f"loss {loss} is not finite"):
            train(a, task, steps=3, lr=lr)


def test_train_argument_validation():
    task = make_task((4, 4, 2), 2, seed=5)
    a = init_adapter(task.base, 2)
    for steps in (0, True, 2.5, "3"):  # a bool would run one step, a str fail on `<`
        with pytest.raises(ValueError):
            train(a, task, steps=steps, lr=0.1)
    assert not a.U.any()
    assert len(train(a, task, steps=np.int64(2), lr=0.1).loss) == 2
    with pytest.raises(ValueError):
        train(a, task, steps=1, lr=-0.1)
    with pytest.raises(ValueError):
        train(a, task, steps=1, lr=0.1, optimizer="sgd")
    # A str or complex would fail on `<`, a bool run as 0 or 1, an infinite
    # lr escape as numpy's RuntimeWarning from the next spectrum, and an int
    # past float range as OverflowError.
    u = a.U.copy()
    for bad in ("0.1", 1j, True, np.inf, np.float32(np.inf), 10**400):
        with pytest.raises(ValueError, match="lr must be a finite real"):
            train(a, task, steps=1, lr=bad)
        with pytest.raises(ValueError, match="rel_stop must be a finite real"):
            train(a, task, steps=1, lr=0.1, rel_stop=bad)
    assert np.array_equal(a.U, u)
    for lr in (0, np.int64(0), np.float32(0.0)):
        assert len(train(a, task, steps=1, lr=lr, rel_stop=np.float64(0.5)).loss) == 1


@pytest.mark.parametrize("kwargs", [
    {"lr": float("nan")},
    {"lr": 0.1, "rel_stop": float("nan")},
    {"lr": 0.1, "rel_stop": -1e-6},
])
def test_train_rejects_nan_step_size_and_bad_rel_stop(kwargs):
    task = make_task((4, 4, 2), 2, seed=5)
    a = init_adapter(task.base, 2)
    with pytest.raises(ValueError):
        train(a, task, steps=3, **kwargs)
    assert not a.U.any()


def test_safe_step_descent_is_monotone_and_leaves_factors_alone():
    task = make_task((8, 8, 4), 3, "in_span", seed=6)
    a = init_adapter(task.base, 3)
    frozen = (a.C.tobytes(), a.R.tobytes(), a.base.tobytes())
    hist = train(a, task, steps=400, lr=safe_step_size(a))
    seq = [hist.initial_loss] + hist.loss
    assert all(b <= x for x, b in zip(seq, seq[1:]))
    assert hist.loss[-1] < 1e-3 * hist.initial_loss
    assert (a.C.tobytes(), a.R.tobytes(), a.base.tobytes()) == frozen
    assert hist.loss[-1] == task_loss(a, task)  # the post-update loss, exactly


def test_in_span_task_trains_to_numerical_zero():
    task = make_task((10, 10, 5), 3, "in_span", seed=7)
    a = init_adapter(task.base, 3)
    hist = train(a, task, steps=5000, lr=safe_step_size(a), rel_stop=1e-10)
    assert hist.loss[-1] <= 1e-10 * hist.initial_loss


def test_out_of_span_task_has_a_positive_floor():
    task = make_task((8, 8, 3), 2, "out_of_span", seed=8)
    a = init_adapter(task.base, 2)
    hist = train(a, task, steps=3000, lr=safe_step_size(a), rel_stop=1e-12)
    assert hist.loss[-1] > 1e-3            # cannot be represented exactly
    assert hist.grad_norm[-1] < 1e-6 * hist.grad_norm[0]  # but it did converge


def test_adam_descends():
    task = make_task((8, 8, 4), 3, "in_span", seed=9)
    a = init_adapter(task.base, 3)
    hist = train(a, task, steps=800, lr=0.05, optimizer="adam")
    assert hist.loss[-1] < 1e-2 * hist.initial_loss
    assert hist.loss[-1] == task_loss(a, task)


def test_divergence_guard_trips():
    task = make_task((6, 6, 3), 2, "in_span", seed=10)
    a = init_adapter(task.base, 2)
    with pytest.raises(DivergenceDetected):
        train(a, task, steps=2000, lr=1e4 * safe_step_size(a))


def test_early_stop_shortens_history():
    task = make_task((8, 8, 4), 3, "in_span", seed=12)
    a = init_adapter(task.base, 3)
    hist = train(a, task, steps=5000, lr=safe_step_size(a), rel_stop=1e-6)
    assert len(hist.loss) < 5000
    assert hist.loss[-1] <= 1e-6 * hist.initial_loss
    assert len(hist.loss) == len(hist.grad_norm)
    assert hist.lr == safe_step_size(a)


def test_hessian_operator_and_step_size():
    rng = np.random.default_rng(13)
    a = init_adapter(rng.standard_normal((7, 7, 3)), 3)
    lam = hessian_max_eig(a)
    assert lam > 0.0
    assert safe_step_size(a) == pytest.approx(1.0 / lam)
    # operator is symmetric positive semidefinite
    v = rng.standard_normal(a.U.shape)
    w = rng.standard_normal(a.U.shape)
    assert float(np.sum(hessian_apply(a, v) * w)) == pytest.approx(
        float(np.sum(v * hessian_apply(a, w))), rel=1e-10
    )
    assert float(np.sum(v * hessian_apply(a, v))) >= 0.0
    # the closed form is deterministic, so the value is reproducible
    assert hessian_max_eig(a) == hessian_max_eig(a)


def _dense_hessian_max_eig(a):
    # Column j of the dense Hessian is hessian_apply of the j-th unit core.
    n = a.U.size
    cols = [hessian_apply(a, e.reshape(a.U.shape)).ravel() for e in np.eye(n)]
    return float(np.linalg.eigvalsh(np.stack(cols, axis=1))[-1])


def _small_core_shapes():
    # Every (rank, n3) with rank^2 * n3 <= 200 for n3 in 1..6, n1 and n2 >= rank.
    rng = np.random.default_rng(14)
    for n3 in range(1, 7):
        for r in range(1, int((200 / n3) ** 0.5) + 1):
            yield (r + int(rng.integers(0, 4)), r + int(rng.integers(0, 4)), n3), r


def test_hessian_max_eig_matches_dense_eigvalsh():
    rng = np.random.default_rng(15)
    shapes = list(_small_core_shapes())
    assert len(shapes) == 50
    for dims, r in shapes:
        a = init_adapter(rng.standard_normal(dims), r)
        dense = _dense_hessian_max_eig(a)
        assert abs(hessian_max_eig(a) - dense) <= 1e-12 * dense, (dims, r)


@pytest.mark.parametrize("tubes", [np.ones(6), (-1.0) ** np.arange(6) + 0.1],
                         ids=["dc-only", "nyquist-dominant"])
def test_hessian_max_eig_on_real_edge_slices(tubes):
    m = np.random.default_rng(16).standard_normal((7, 6))
    a = init_adapter(m[:, :, None] * tubes, 3)
    dense = _dense_hessian_max_eig(a)
    assert abs(hessian_max_eig(a) - dense) <= 1e-12 * dense


def test_curvature_mismatch_when_gradient_path_disagrees(monkeypatch):
    a = init_adapter(np.random.default_rng(17).standard_normal((6, 5, 4)), 2)
    grad = trainer.grad_core
    monkeypatch.setattr(trainer, "grad_core", lambda a, g: 1.01 * grad(a, g))
    with pytest.raises(CurvatureMismatch):
        safe_step_size(a)


def test_zero_curvature_raises_value_error():
    rng = np.random.default_rng(18)
    a = Adapter(base=rng.standard_normal((5, 4, 3)), C=np.zeros((5, 2, 3)),
                R=rng.standard_normal((2, 4, 3)), U=np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="zero curvature"):
        safe_step_size(a)


def test_run_baselines_report():
    task = make_task((10, 10, 4), 3, "in_span", seed=2)
    rep = run_baselines(task, 3)
    methods = [r.method for r in rep.records]
    assert methods == ["full", "matrix_cur", "tcur"]
    by = {r.method: r for r in rep.records}
    assert by["full"].metric == 0.0                     # closed-form optimum
    assert by["full"].params == 400
    assert by["matrix_cur"].params == by["tcur"].params == 36
    initial = loss_tensor_target(task.base, task.target)
    assert by["tcur"].metric <= 1e-8 * initial          # in span by construction
    assert by["tcur"].metric < by["matrix_cur"].metric  # slice-wise route cannot mix slices
    assert rep.seed == 2
    assert all(r.wall_ms >= 0.0 for r in rep.records)


def _dense_floor(task, r):
    """Least-squares optimum of ``0.5 * ||C * U * R - D||^2`` over the dense
    operator vec(U) -> vec(C * U * R), with C and R from ``init_adapter``.

    The operator comes from the t-product's definition as a circular
    convolution of tubes, (C * U * R)_k = sum_{p, q} C_p U_q R_{k-p-q}, so no
    FFT is involved: column (i, j, q) holds C(:, i) conv R(j, :) shifted by q.
    """
    a = init_adapter(task.base, r)
    n3 = task.base.shape[2]
    shift = (np.arange(n3)[:, None] - np.arange(n3)[None, :]) % n3  # (m - p) mod n3
    conv = np.einsum("aip,jbmp->aijbm", a.C, a.R[:, :, shift])
    op = conv[..., shift].transpose(0, 3, 4, 1, 2, 5).reshape(task.base.size, a.U.size)
    d = (task.target - task.base).ravel()
    res = op @ np.linalg.lstsq(op, d, rcond=None)[0] - d
    return 0.5 * float(res @ res)


def _closed_form_cases():
    # Every (rank, n3) with rank^2 * n3 <= 200 for n3 in 1..6, in and out of span.
    for i, (dims, r) in enumerate(_small_core_shapes()):
        for mode in ("in_span", "out_of_span"):
            yield make_task(dims, r, mode, seed=i), r
    # A tubal-rank-1 base: every Fourier slice of its rank-2 column sample C
    # has rank 1, so the least-squares optimum is not unique.
    rng = np.random.default_rng(41)
    base = tprod(rng.standard_normal((6, 1, 4)), rng.standard_normal((1, 5, 4)))
    yield SyntheticTask(base=base, target=base + rng.standard_normal(base.shape),
                        plant_mode="out_of_span", seed=41, plant_rank=2), 2


def test_baseline_metrics_are_the_dense_least_squares_optima():
    cases = list(_closed_form_cases())
    assert len(cases) == 101
    c_hat = np.fft.fft(init_adapter(cases[-1][0].base, 2).C, axis=2).transpose(2, 0, 1)
    s = np.linalg.svd(c_hat, compute_uv=False)
    assert np.all(s[:, 1] <= 1e-12 * s[:, 0])  # the last case's C is rank deficient
    for task, r in cases:
        by = {rec.method: rec.metric for rec in run_baselines(task, r).records}
        n3 = task.base.shape[2]
        slice_floors = sum(
            _dense_floor(replace(task, base=task.base[:, :, k:k + 1],
                                 target=task.target[:, :, k:k + 1]), r)
            for k in range(n3)
        )
        initial = loss_tensor_target(task.base, task.target)
        for metric, floor in ((by["tcur"], _dense_floor(task, r)),
                              (by["matrix_cur"], slice_floors)):
            # In span, or when C and R are square and invertible, the floor is
            # rounding (~1e-30 x initial); elsewhere the match is to ~1e-15.
            assert abs(metric - floor) <= 1e-10 * floor + 1e-20 * initial, (task.base.shape, r)


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_gd_reaches_the_out_of_span_floor(n3):
    task = make_task((20, 16, n3), 3, "out_of_span", seed=0)
    floor = _dense_floor(task, 3)
    assert floor > 0.1 * loss_tensor_target(task.base, task.target)  # a real floor
    a = init_adapter(task.base, 3)
    hist = train(a, task, steps=1000, lr=safe_step_size(a))
    assert abs(hist.loss[-1] - floor) <= 1e-9 * floor
