"""Self-check suite: every library invariant, runnable from the CLI.

Each check is a small named function returning (ok, detail). The suite is
deterministic given a seed. Faults, deliberate named corruptions of one
library function each, can be injected around a run to prove the suite
has teeth; they are test hooks, not configuration.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass

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


def _rand_t(rng, dims, scale=1.0):
    return scale * rng.standard_normal(dims)


def _tubal_rank_tensor(rng, n1, n2, n3, r):
    return ops.tprod(_rand_t(rng, (n1, r, n3)), _rand_t(rng, (r, n2, n3)))


# ---------------------------------------------------------------- tensor ops

def check_oracle_equivalence(seed, tol_scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n1, n2, l = rng.integers(1, 9, size=3)
        n3 = int(rng.integers(1, 7))
        a = _rand_t(rng, (int(n1), int(n2), n3))
        b = _rand_t(rng, (int(n2), int(l), n3))
        worst = max(worst, ops.rel_error(ops.tprod(a, b), ops.tprod_bruteforce(a, b)))
    tol = 1e-10 * tol_scale
    return worst <= tol, f"max rel err {worst:.2e} (tol {tol:.1e})"


def check_fft_roundtrip(seed, tol_scale):
    rng = np.random.default_rng(seed)
    t = _rand_t(rng, (4, 3, 5))
    err = ops.rel_error(ops.ifft_mode3(ops.fft_mode3(t)), t)
    tol = 1e-12 * tol_scale
    return err <= tol, f"rel err {err:.2e} (tol {tol:.1e})"


def check_conjugate_symmetry(seed, tol_scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((3, 4, 6), (2, 2, 5), (5, 1, 1)):
        h = ops.fft_mode3(_rand_t(rng, dims))
        n3 = dims[2]
        for k in range(n3):
            worst = max(worst, float(np.abs(h[:, :, k] - h[:, :, (n3 - k) % n3].conj()).max()))
    tol = 1e-12 * tol_scale
    return worst <= tol, f"max symmetry residue {worst:.2e} (tol {tol:.1e})"


def check_asymmetric_spectrum_rejected(seed, tol_scale):
    bad = np.zeros((2, 2, 2), dtype=np.complex128)
    bad[:, :, 1] = 1j
    try:
        ops.ifft_mode3(bad)
    except ResidualImaginary:
        return True, "asymmetric spectrum raised ResidualImaginary"
    return False, "asymmetric spectrum was silently accepted"


def check_identity_laws(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (4, 3, 5))
    left = ops.rel_error(ops.tprod(ops.tidentity(4, 5), a), a)
    right = ops.rel_error(ops.tprod(a, ops.tidentity(3, 5)), a)
    worst = max(left, right)
    tol = 1e-12 * tol_scale
    return worst <= tol, f"identity laws rel err {worst:.2e} (tol {tol:.1e})"


def check_transpose_involution(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (3, 5, 4))
    ok = np.array_equal(ops.ttranspose(ops.ttranspose(a)), a)
    return ok, "double transpose restored the tensor" if ok else "involution broken"


def check_adjoint_law(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (3, 4, 5))
    b = _rand_t(rng, (4, 2, 5))
    err = ops.rel_error(
        ops.ttranspose(ops.tprod(a, b)),
        ops.tprod(ops.ttranspose(b), ops.ttranspose(a)),
    )
    tol = 1e-10 * tol_scale
    return err <= tol, f"(A*B)^T vs B^T*A^T rel err {err:.2e} (tol {tol:.1e})"


def check_transpose_inner_adjoint(seed, tol_scale):
    # <A*B, C> == <B, A^T*C>: the property that makes ttranspose the
    # adjoint (plain slice-wise transposition would pass the law above
    # but fail this one).
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (3, 4, 5))
    b = _rand_t(rng, (4, 2, 5))
    c = _rand_t(rng, (3, 2, 5))
    lhs = float(np.sum(ops.tprod(a, b) * c))
    rhs = float(np.sum(b * ops.tprod(ops.ttranspose(a), c)))
    err = abs(lhs - rhs) / (1.0 + abs(lhs))
    tol = 1e-10 * tol_scale
    return err <= tol, f"inner-product adjoint rel err {err:.2e} (tol {tol:.1e})"


def check_associativity(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (3, 4, 4))
    b = _rand_t(rng, (4, 5, 4))
    c = _rand_t(rng, (5, 2, 4))
    err = ops.rel_error(
        ops.tprod(ops.tprod(a, b), c), ops.tprod(a, ops.tprod(b, c))
    )
    tol = 1e-9 * tol_scale
    return err <= tol, f"associativity rel err {err:.2e} (tol {tol:.1e})"


def check_pinv_penrose(seed, tol_scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((4, 4, 3), (5, 3, 4), (3, 6, 2)):
        a = _rand_t(rng, dims)
        p = ops.tpinv(a)
        worst = max(worst, ops.rel_error(ops.tprod(a, ops.tprod(p, a)), a))
        worst = max(worst, ops.rel_error(ops.tprod(p, ops.tprod(a, p)), p))
    tol = 1e-8 * tol_scale
    return worst <= tol, f"Penrose identities rel err {worst:.2e} (tol {tol:.1e})"


# ------------------------------------------------------------- decomposition

def check_score_normalization(seed, tol_scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in ((5, 7, 3), (2, 2, 1), (8, 3, 6)):
        h = ops.fft_mode3(_rand_t(rng, dims))
        alpha = decomp.column_scores(h)
        cols = decomp.select_top_r(alpha, min(2, dims[1]))
        beta = decomp.row_scores(h, cols)
        worst = max(worst, abs(float(alpha.sum()) - 1.0), abs(float(beta.sum()) - 1.0))
        if alpha.min() < 0 or beta.min() < 0:
            return False, "negative score"
    tol = 1e-12 * tol_scale
    return worst <= tol, f"sum-to-one residue {worst:.2e} (tol {tol:.1e})"


def check_selection_determinism(seed, tol_scale):
    rng = np.random.default_rng(seed)
    w = _rand_t(rng, (6, 7, 4))
    f1 = decomp.tcur(w, 3)
    f2 = decomp.tcur(w.copy(), 3)
    if not (np.array_equal(f1.rows, f2.rows) and np.array_equal(f1.cols, f2.cols)):
        return False, "repeated runs disagreed on I, J"
    for s in (1e-3, 1e3):
        fs = decomp.tcur(s * w, 3)
        if not (np.array_equal(f1.rows, fs.rows) and np.array_equal(f1.cols, fs.cols)):
            return False, f"selection changed under scaling by {s}"
    return True, "identical I, J across reruns and scalings {1e-3, 1, 1e3}"


def check_sampling_commutation(seed, tol_scale):
    rng = np.random.default_rng(seed)
    w = _rand_t(rng, (6, 7, 4))
    f = decomp.tcur(w, 3)
    errs = (
        ops.rel_error(f.C, w[:, f.cols, :]),
        ops.rel_error(f.U_core, w[np.ix_(f.rows, f.cols)]),
        ops.rel_error(f.R, w[f.rows, :, :]),
    )
    worst = max(errs)
    tol = 1e-12 * tol_scale
    return worst <= tol, f"Fourier vs spatial sampling rel err {worst:.2e} (tol {tol:.1e})"


def check_cur_exactness(seed, tol_scale):
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
    tol = 1e-8 * tol_scale
    return worst <= tol, f"true-rank reconstruction rel err {worst:.2e} (tol {tol:.1e})"


def check_full_rank_recovery(seed, tol_scale):
    rng = np.random.default_rng(seed)
    w = _rand_t(rng, (5, 8, 3))
    f = decomp.tcur(w, 5)
    err = ops.rel_error(decomp.reconstruct(f), w)
    tol = 1e-8 * tol_scale
    return err <= tol, f"full-selection recovery rel err {err:.2e} (tol {tol:.1e})"


# ------------------------------------------------------------------ adapters

def check_zero_core_identity(seed, tol_scale):
    rng = np.random.default_rng(seed)
    for dims, r in (((5, 6, 3), 2), ((4, 4, 1), 3), ((7, 3, 2), 1)):
        a = adp.init_adapter(_rand_t(rng, dims), r)
        if not np.array_equal(adp.effective_weights(a), a.base):
            return False, f"fresh adapter at dims {dims} does not reproduce base"
    return True, "fresh adapters reproduce the base with zero error"


def check_delta_bilinearity(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = adp.init_adapter(_rand_t(rng, (5, 6, 3)), 2)
    u1 = _rand_t(rng, a.U.shape)
    u2 = _rand_t(rng, a.U.shape)
    d1 = adp.delta(trainer._with_core(a, u1))
    d2 = adp.delta(trainer._with_core(a, u2))
    d12 = adp.delta(trainer._with_core(a, u1 + u2))
    err = ops.rel_error(d12, d1 + d2)
    tol = 1e-12 * tol_scale
    return err <= tol, f"delta additivity rel err {err:.2e} (tol {tol:.1e})"


def check_stack_roundtrip(seed, tol_scale):
    rng = np.random.default_rng(seed)
    cfg = adp.StackingConfig(d=4, n_layers=3)
    layers = [
        adp.LayerWeights(
            q=_rand_t(rng, (4, 4, 1))[:, :, 0], k=_rand_t(rng, (4, 4, 1))[:, :, 0],
            v=_rand_t(rng, (4, 4, 1))[:, :, 0], o=_rand_t(rng, (4, 4, 1))[:, :, 0],
            up=_rand_t(rng, (4, 16, 1))[:, :, 0], down=_rand_t(rng, (16, 4, 1))[:, :, 0],
        )
        for _ in range(3)
    ]
    w_sa, w_up, w_down = adp.stack_layers(layers, cfg)
    back = adp.unstack_layers(w_sa, w_up, w_down, cfg)
    for orig, rt in zip(layers, back):
        for m_orig, m_rt in zip(
            (*orig.roles(), orig.up, orig.down), (*rt.roles(), rt.up, rt.down)
        ):
            if not np.array_equal(m_orig, m_rt):
                return False, "stack/unstack round trip not exact"
    return True, "stack/unstack round trip exact"


def check_param_count_arithmetic(seed, tol_scale):
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

def check_grad_adjoint_identity(seed, tol_scale):
    rng = np.random.default_rng(seed)
    a = adp.init_adapter(_rand_t(rng, (5, 6, 3)), 2)
    worst = 0.0
    for _ in range(5):
        g = _rand_t(rng, (5, 6, 3))
        v = _rand_t(rng, a.U.shape)
        lhs = float(np.sum(trainer.grad_core(a, g) * v))
        rhs = float(np.sum(g * ops.tprod(a.C, ops.tprod(v, a.R))))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    tol = 1e-10 * tol_scale
    return worst <= tol, f"gradient adjoint identity rel err {worst:.2e} (tol {tol:.1e})"


def check_finite_diff_grad(seed, tol_scale):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(3):
        dims = (int(rng.integers(3, 7)), int(rng.integers(3, 7)), int(rng.integers(1, 5)))
        r = int(rng.integers(1, min(dims[:2]) + 1))
        task = trainer.make_task(dims, r, "out_of_span", seed=seed + trial)
        a = adp.init_adapter(task.base, r)
        a.U = _rand_t(rng, a.U.shape)
        analytic = trainer.grad_core(a, adp.effective_weights(a) - task.target)
        fd = trainer.finite_diff_grad(a, task)
        worst = max(worst, float(np.max(np.abs(fd - analytic) / (1.0 + np.abs(analytic)))))
    tol = 1e-6 * tol_scale
    return worst <= tol, f"analytic vs central-difference rel err {worst:.2e} (tol {tol:.1e})"


def check_training_descent(seed, tol_scale):
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
    ok = final_rel <= 1e-8 * tol_scale
    return ok, f"loss shrank to {final_rel:.2e} x initial in {len(hist.loss)} steps"


# ---------------------------------------------------------------- checkpoint

def check_checkpoint_roundtrip(seed, tol_scale):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "t.tcur"
        w = _rand_t(rng, (4, 5, 3))
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

def _fault_tprod_scale():
    orig = ops.tprod
    def bad(a, b):
        return orig(a, b) * (1.0 + 1e-6)
    return [(ops, "tprod", bad)]


def _fault_fft_normalized():
    orig = ops.fft_mode3
    def bad(t):
        h = orig(t)
        return h / h.shape[2]
    return [(ops, "fft_mode3", bad)]


def _fault_scores_unnormalized():
    def bad(w_hat):
        fiber = np.linalg.norm(np.asarray(w_hat, dtype=np.complex128), axis=0)
        return fiber.sum(axis=1)
    return [(decomp, "column_scores", bad)]


def _fault_ttranspose_no_reverse():
    def bad(a):
        return np.asarray(a).transpose(1, 0, 2).copy()
    return [(ops, "ttranspose", bad)]


def _fault_grad_scale():
    orig = trainer.grad_core
    def bad(a, g):
        return 1.01 * orig(a, g)
    return [(trainer, "grad_core", bad)]


def _fault_checkpoint_bitrot():
    orig = ckpt.write_checkpoint
    def bad(path, payload):
        orig(path, payload)
        from pathlib import Path
        raw = bytearray(Path(path).read_bytes())
        raw[-10] ^= 0x01
        Path(path).write_bytes(bytes(raw))
    return [(ckpt, "write_checkpoint", bad)]


#: Named test hooks that each corrupt one library function. Injecting any
#: of them must make the suite fail.
FAULTS = {
    "tprod-scale": _fault_tprod_scale,
    "fft-normalized": _fault_fft_normalized,
    "scores-unnormalized": _fault_scores_unnormalized,
    "ttranspose-no-reverse": _fault_ttranspose_no_reverse,
    "grad-scale": _fault_grad_scale,
    "checkpoint-bitrot": _fault_checkpoint_bitrot,
}


@contextlib.contextmanager
def inject_fault(name: str):
    """Temporarily replace one library function with a corrupted version.

    Modules that from-import a function hold their own binding of it, so
    the original is replaced in every loaded module of this package that
    binds it; callers anywhere in the call graph then see the fault.
    """
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == __package__ or n.startswith(__package__ + "."))]
    undo = []
    try:
        for mod, attr, bad in FAULTS[name]():
            good = getattr(mod, attr)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is good:
                        undo.append((ns, key, good))
                        setattr(ns, key, bad)
        yield
    finally:
        for ns, key, good in reversed(undo):
            setattr(ns, key, good)


def run_suite(seed: int = 0, tol_scale: float = 1.0, fault: str | None = None) -> list[CheckResult]:
    """Run every check; returns one result per check, in registry order."""
    results = []
    with inject_fault(fault) if fault else contextlib.nullcontext():
        for name, fn in CHECKS.items():
            try:
                ok, detail = fn(seed, tol_scale)
            except Exception as e:  # a check must never take the suite down
                ok, detail = False, f"raised {type(e).__name__}: {e}"
            results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results
