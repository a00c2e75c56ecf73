"""Self-check suite: every library invariant, runnable from the CLI.

Each check is a small named function of the seed returning (ok, detail).
Its tolerance is a fixed literal in the check; nothing scales it. The
suite is deterministic given a seed.

``FAULTS`` is a table of test hooks, not configuration: each entry names
one library function and a ``corrupt(original)`` that returns a broken
stand-in for it. ``inject_fault`` swaps the stand-in into every ``tcur``
module that binds the original for the duration of a run, to prove the
suite has teeth.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adapter as adp
from . import checkpoint as ckpt
from . import decomp
from . import tensor_ops as ops
from . import trainer
from .errors import CorruptCheckpoint, ResidualImaginary


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _within(err, tol, what):
    return err <= tol, f"{what} {err:.2e} (tol {tol:.1e})"


def _tubal_rank_tensor(rng, n1, n2, n3, r):
    return ops.tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))


# ---------------------------------------------------------------- tensor ops

def check_oracle_equivalence(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n1, n2, l = rng.integers(1, 9, size=3)
        n3 = int(rng.integers(1, 7))
        a = rng.standard_normal((int(n1), int(n2), n3))
        b = rng.standard_normal((int(n2), int(l), n3))
        worst = max(worst, ops.rel_error(ops.tprod(a, b), ops.tprod_bruteforce(a, b)))
    return _within(worst, 1e-10, "max rel err")


def check_fft_roundtrip(seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((4, 3, 5))
    err = ops.rel_error(ops.ifft_mode3(ops.fft_mode3(t)), t)
    return _within(err, 1e-12, "rel err")


def check_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((3, 4, 6), (2, 2, 5), (5, 1, 1)):
        h = ops.fft_mode3(rng.standard_normal(dims))
        n3 = dims[2]
        for k in range(n3):
            worst = max(worst, float(np.abs(h[:, :, k] - h[:, :, (n3 - k) % n3].conj()).max()))
    return _within(worst, 1e-12, "max symmetry residue")


def check_asymmetric_spectrum_rejected(seed):
    bad = np.zeros((2, 2, 2), dtype=np.complex128)
    bad[:, :, 1] = 1j
    try:
        ops.ifft_mode3(bad)
    except ResidualImaginary:
        return True, "asymmetric spectrum raised ResidualImaginary"
    return False, "asymmetric spectrum was silently accepted"


def check_identity_laws(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 3, 5))
    left = ops.rel_error(ops.tprod(ops.tidentity(4, 5), a), a)
    right = ops.rel_error(ops.tprod(a, ops.tidentity(3, 5)), a)
    worst = max(left, right)
    return _within(worst, 1e-12, "identity laws rel err")


def check_transpose_involution(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5, 4))
    ok = np.array_equal(ops.ttranspose(ops.ttranspose(a)), a)
    return ok, "double transpose restored the tensor" if ok else "involution broken"


def check_adjoint_law(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((4, 2, 5))
    err = ops.rel_error(
        ops.ttranspose(ops.tprod(a, b)),
        ops.tprod(ops.ttranspose(b), ops.ttranspose(a)),
    )
    return _within(err, 1e-10, "(A*B)^T vs B^T*A^T rel err")


def check_transpose_inner_adjoint(seed):
    # <A*B, C> == <B, A^T*C>: the property that makes ttranspose the
    # adjoint (plain slice-wise transposition would pass the law above
    # but fail this one).
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((4, 2, 5))
    c = rng.standard_normal((3, 2, 5))
    lhs = float(np.sum(ops.tprod(a, b) * c))
    rhs = float(np.sum(b * ops.tprod(ops.ttranspose(a), c)))
    err = abs(lhs - rhs) / (1.0 + abs(lhs))
    return _within(err, 1e-10, "inner-product adjoint rel err")


def check_associativity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4, 4))
    b = rng.standard_normal((4, 5, 4))
    c = rng.standard_normal((5, 2, 4))
    err = ops.rel_error(
        ops.tprod(ops.tprod(a, b), c), ops.tprod(a, ops.tprod(b, c))
    )
    return _within(err, 1e-9, "associativity rel err")


def check_pinv_penrose(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((4, 4, 3), (5, 3, 4), (3, 6, 2)):
        a = rng.standard_normal(dims)
        p = ops.tpinv(a)
        worst = max(worst, ops.rel_error(ops.tprod(a, ops.tprod(p, a)), a))
        worst = max(worst, ops.rel_error(ops.tprod(p, ops.tprod(a, p)), p))
    return _within(worst, 1e-8, "Penrose identities rel err")


# ------------------------------------------------------------- decomposition

def check_score_normalization(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((5, 7, 3), (2, 2, 1), (8, 3, 6)):
        h = ops.fft_mode3(rng.standard_normal(dims))
        alpha = decomp.column_scores(h)
        cols = decomp.select_top_r(alpha, min(2, dims[1]))
        beta = decomp.row_scores(h, cols)
        worst = max(worst, abs(float(alpha.sum()) - 1.0), abs(float(beta.sum()) - 1.0))
        if alpha.min() < 0 or beta.min() < 0:
            return False, "negative score"
    return _within(worst, 1e-12, "sum-to-one residue")


def check_selection_determinism(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((6, 7, 4))
    f1 = decomp.tcur(w, 3)
    f2 = decomp.tcur(w.copy(), 3)
    if not (np.array_equal(f1.rows, f2.rows) and np.array_equal(f1.cols, f2.cols)):
        return False, "repeated runs disagreed on I, J"
    for s in (1e-3, 1e3):
        fs = decomp.tcur(s * w, 3)
        if not (np.array_equal(f1.rows, fs.rows) and np.array_equal(f1.cols, fs.cols)):
            return False, f"selection changed under scaling by {s}"
    return True, "identical I, J across reruns and scalings {1e-3, 1, 1e3}"


def check_selection_oracle(seed):
    # Selection is scale-invariant, so pin it with planted dominant indices.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((6, 7, 4))
    cols = np.sort(rng.choice(7, 2, replace=False))
    rows = np.sort(rng.choice(6, 2, replace=False))
    w[:, cols, :] *= 100.0
    w[np.ix_(rows, cols)] *= 100.0
    f = decomp.tcur(w, 2)
    ok = np.array_equal(f.cols, cols) and np.array_equal(f.rows, rows)
    return ok, (f"planted I={rows.tolist()}, J={cols.tolist()}; "
                f"selected I={f.rows.tolist()}, J={f.cols.tolist()}")


def check_sampling_commutation(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((6, 7, 4))
    f = decomp.tcur(w, 3)
    errs = (
        ops.rel_error(f.C, w[:, f.cols, :]),
        ops.rel_error(f.U_core, w[np.ix_(f.rows, f.cols)]),
        ops.rel_error(f.R, w[f.rows, :, :]),
    )
    worst = max(errs)
    return _within(worst, 1e-12, "Fourier vs spatial sampling rel err")


def check_cur_exactness(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(12):
        r = int(rng.integers(1, 4))
        n1 = int(rng.integers(2 * r, 11))
        n2 = int(rng.integers(2 * r, 11))
        n3 = int(rng.integers(1, 6))
        w = _tubal_rank_tensor(rng, n1, n2, n3, r)
        f = decomp.tcur(w, r)
        worst = max(worst, ops.rel_error(decomp.reconstruct(f), w))
    return _within(worst, 1e-8, "true-rank reconstruction rel err")


def check_full_rank_recovery(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 8, 3))
    f = decomp.tcur(w, 5)
    err = ops.rel_error(decomp.reconstruct(f), w)
    return _within(err, 1e-8, "full-selection recovery rel err")


# ------------------------------------------------------------------ adapters

def check_zero_core_identity(seed):
    rng = np.random.default_rng(seed)
    for dims, r in (((5, 6, 3), 2), ((4, 4, 1), 3), ((7, 3, 2), 1)):
        a = adp.init_adapter(rng.standard_normal(dims), r)
        if not np.array_equal(adp.effective_weights(a), a.base):
            return False, f"fresh adapter at dims {dims} does not reproduce base"
    return True, "fresh adapters reproduce the base with zero error"


def check_delta_bilinearity(seed):
    rng = np.random.default_rng(seed)
    a = adp.init_adapter(rng.standard_normal((5, 6, 3)), 2)
    u1 = rng.standard_normal(a.U.shape)
    u2 = rng.standard_normal(a.U.shape)
    d1 = adp.delta(trainer._with_core(a, u1))
    d2 = adp.delta(trainer._with_core(a, u2))
    d12 = adp.delta(trainer._with_core(a, u1 + u2))
    err = ops.rel_error(d12, d1 + d2)
    return _within(err, 1e-12, "delta additivity rel err")


def check_stack_roundtrip(seed):
    rng = np.random.default_rng(seed)
    cfg = adp.StackingConfig(d=4, n_layers=3)
    layers = [
        adp.LayerWeights(**{f: rng.standard_normal(cfg.shape(g)[:2])
                            for g, (fields, _) in adp.LAYOUT.items() for f in fields})
        for _ in range(cfg.n_layers)
    ]
    back = adp.unstack_layers(*adp.stack_layers(layers, cfg), cfg)
    ok = all(np.array_equal(getattr(a, f), getattr(b, f))
             for a, b in zip(layers, back) for f in vars(a))
    return ok, "stack/unstack round trip " + ("exact" if ok else "not exact")


def check_param_count_arithmetic(seed):
    cfg = adp.StackingConfig(d=768, n_layers=12, n_heads=12)
    rep = adp.count_params(cfg, 8)
    shapes = tuple(g.core_shape for g in rep.groups)
    if shapes != ((8, 8, 48), (8, 8, 12), (8, 8, 12)) or rep.total != 4608:
        return False, f"tensor-core counts wrong: {shapes}, total {rep.total}"
    mb = adp.count_matrix_baseline(cfg, 2)
    if (mb.n_matrices, mb.total) != (72, 288):
        return False, f"matrix baseline counts wrong: {mb}"
    if not rep.caveat:
        return False, "parameter report lost its caveat"
    return True, "core counts 4608 (tensor, r=8) and 288 (matrix, r=2) as derived"


# ------------------------------------------------------------------ training

def check_grad_adjoint_identity(seed):
    rng = np.random.default_rng(seed)
    a = adp.init_adapter(rng.standard_normal((5, 6, 3)), 2)
    worst = 0.0
    for _ in range(5):
        g = rng.standard_normal((5, 6, 3))
        v = rng.standard_normal(a.U.shape)
        lhs = float(np.sum(trainer.grad_core(a, g) * v))
        rhs = float(np.sum(g * ops.tprod(a.C, ops.tprod(v, a.R))))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return _within(worst, 1e-10, "gradient adjoint identity rel err")


def check_finite_diff_grad(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(3):
        dims = (int(rng.integers(3, 7)), int(rng.integers(3, 7)), int(rng.integers(1, 5)))
        r = int(rng.integers(1, min(dims[:2]) + 1))
        task = trainer.make_task(dims, r, "out_of_span", seed=seed + trial)
        a = adp.init_adapter(task.base, r)
        a.U = rng.standard_normal(a.U.shape)
        analytic = trainer.grad_core(a, adp.effective_weights(a) - task.target)
        fd = trainer.finite_diff_grad(a, task)
        worst = max(worst, float(np.max(np.abs(fd - analytic) / (1.0 + np.abs(analytic)))))
    return _within(worst, 1e-6, "analytic vs central-difference rel err")


def check_training_descent(seed):
    task = trainer.make_task((8, 8, 4), 3, "in_span", seed=seed)
    a = adp.init_adapter(task.base, 3)
    frozen_before = (a.C.tobytes(), a.R.tobytes(), a.base.tobytes())
    lr = trainer.safe_step_size(a)
    hist = trainer.train(a, task, steps=3000, lr=lr, optimizer="gd", rel_stop=1e-9)
    frozen_after = (a.C.tobytes(), a.R.tobytes(), a.base.tobytes())
    seq = [hist.initial_loss] + hist.loss
    if any(b > a_ for a_, b in zip(seq, seq[1:])):
        return False, "loss increased under the safe step size"
    if frozen_before != frozen_after:
        return False, "training touched C, R, or base"
    final_rel = hist.loss[-1] / hist.initial_loss
    return final_rel <= 1e-8, f"loss shrank to {final_rel:.2e} x initial in {len(hist.loss)} steps"


# ---------------------------------------------------------------- checkpoint

def check_checkpoint_roundtrip(seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "t.tcur"
        w = rng.standard_normal((4, 5, 3))
        ckpt.write_checkpoint(path, w)
        first = path.read_bytes()
        back = ckpt.read_checkpoint(path)
        if not np.array_equal(back, w):
            return False, "raw tensor round trip not value-exact"
        ckpt.write_checkpoint(path, back)
        if path.read_bytes() != first:
            return False, "re-serialization is not byte-identical"
        # corruption must trip the checksum
        corrupt = bytearray(first)
        corrupt[-12] ^= 0x01
        path.write_bytes(bytes(corrupt))
        try:
            ckpt.read_checkpoint(path)
        except CorruptCheckpoint:
            return True, "round trip byte-exact; payload flip detected"
        return False, "payload corruption went undetected"


CHECKS = {
    "oracle-equivalence": check_oracle_equivalence,
    "fft-roundtrip": check_fft_roundtrip,
    "conjugate-symmetry": check_conjugate_symmetry,
    "asymmetric-spectrum": check_asymmetric_spectrum_rejected,
    "identity-laws": check_identity_laws,
    "transpose-involution": check_transpose_involution,
    "adjoint-law": check_adjoint_law,
    "transpose-inner-adjoint": check_transpose_inner_adjoint,
    "associativity": check_associativity,
    "pinv-penrose": check_pinv_penrose,
    "score-normalization": check_score_normalization,
    "selection-determinism": check_selection_determinism,
    "selection-oracle": check_selection_oracle,
    "sampling-commutation": check_sampling_commutation,
    "cur-exactness": check_cur_exactness,
    "full-rank-recovery": check_full_rank_recovery,
    "zero-core-identity": check_zero_core_identity,
    "delta-bilinearity": check_delta_bilinearity,
    "stack-roundtrip": check_stack_roundtrip,
    "param-count-arithmetic": check_param_count_arithmetic,
    "grad-adjoint-identity": check_grad_adjoint_identity,
    "finite-diff-grad": check_finite_diff_grad,
    "training-descent": check_training_descent,
    "checkpoint-roundtrip": check_checkpoint_roundtrip,
}


# ------------------------------------------------------------ fault injection

def _bitrot(write):
    def bad(path, payload):
        write(path, payload)
        raw = bytearray(Path(path).read_bytes())
        raw[-10] ^= 0x01
        Path(path).write_bytes(bytes(raw))
    return bad


def _reversed(column_scores):
    # Still non-negative and summing to 1, but ranks the columns backwards.
    def bad(w_hat):
        s = column_scores(w_hat)
        return (s.max() + s.min() - s) / (s.size * (s.max() + s.min()) - 1.0)
    return bad


#: Named test hooks, name -> (module, attr, corrupt): ``corrupt(original)``
#: returns a broken stand-in for ``module.attr``. Injecting any of them
#: must make the suite fail.
FAULTS = {
    "tprod-scale": (ops, "tprod", lambda tprod: lambda a, b: tprod(a, b) * (1.0 + 1e-6)),
    "fft-normalized": (ops, "fft_mode3", lambda fft: lambda t: fft(t) / np.shape(t)[2]),
    "scores-reversed": (decomp, "column_scores", _reversed),
    "ttranspose-no-reverse": (ops, "ttranspose",
                              lambda _: lambda a: np.asarray(a).transpose(1, 0, 2).copy()),
    "grad-scale": (trainer, "grad_core", lambda grad: lambda a, g: 1.01 * grad(a, g)),
    "checkpoint-bitrot": (ckpt, "write_checkpoint", _bitrot),
}


@contextlib.contextmanager
def inject_fault(name: str):
    """Temporarily replace one library function with its corrupted version.

    Modules that from-import a function hold their own binding of it, so
    the original is replaced in every loaded module of this package that
    binds it; callers anywhere in the call graph then see the fault.
    """
    module, attr, corrupt = FAULTS[name]
    good = getattr(module, attr)
    bad = corrupt(good)
    undo = []
    try:
        for n, ns in list(sys.modules.items()):
            if ns is not None and (n == __package__ or n.startswith(__package__ + ".")):
                for key, val in list(vars(ns).items()):
                    if val is good:
                        undo.append((ns, key))
                        setattr(ns, key, bad)
        yield
    finally:
        for ns, key in reversed(undo):
            setattr(ns, key, good)


def run_suite(seed: int = 0, fault: str | None = None) -> list[CheckResult]:
    """Run every check; returns one result per check, in registry order."""
    results = []
    with inject_fault(fault) if fault else contextlib.nullcontext():
        for name, fn in CHECKS.items():
            try:
                ok, detail = fn(seed)
            except Exception as e:  # a check must never take the suite down
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results
