"""Span tracer that wraps tcur's public functions from outside the package.

``from .x import y`` copies a function into the importing module, so
patching ``tensor_ops.tprod`` alone would miss the calls ``decomp``,
``adapter`` and ``trainer`` make through their own bindings.
:func:`rebind` therefore replaces a function in every ``tcur`` namespace
that holds it, and :class:`Tracer` installs its wrappers that way.

Each call becomes one span (name, start, end, parent, job id). Spans are
kept in compact typed arrays and written out when the benchmark ends;
calls and self/inclusive times are also aggregated per label as they
close. Self time is the inclusive time minus the time of wrapped children.
"""

from __future__ import annotations

import array
import math
import os
import sys
import time
import tracemalloc

import numpy as np

#: The wrapped functions: (module, attribute path, label). The label
#: names the metrics, ``<module>.<label>.*``; two attributes may share one.
SPEC = (
    ("tensor_ops", "tprod", "tprod"),
    ("tensor_ops", "fft_mode3", "fft_mode3"),
    ("tensor_ops", "ifft_mode3", "ifft_mode3"),
    ("tensor_ops", "tpinv", "tpinv"),
    ("tensor_ops", "ttranspose", "ttranspose"),
    ("tensor_ops", "rel_error", "rel_error"),
    ("decomp", "tcur", "tcur"),
    ("decomp", "reconstruct", "reconstruct"),
    ("decomp", "column_scores", "column_scores"),
    ("decomp", "row_scores", "row_scores"),
    ("decomp", "select_top_r", "select_top_r"),
    ("adapter", "stack_layers", "stack_layers"),
    ("adapter", "init_adapter", "init_adapter"),
    ("adapter", "effective_weights", "effective_weights"),
    ("trainer", "train", "train"),
    ("trainer", "safe_step_size", "safe_step_size"),
    ("trainer", "hessian_max_eig", "hessian_max_eig"),
    ("trainer", "hessian_apply", "hessian_apply"),
    ("trainer", "grad_core", "grad_core"),
    ("trainer", "task_loss", "task_loss"),
    ("checkpoint", "write_checkpoint", "write"),
    ("checkpoint", "read_checkpoint", "read"),
    ("cli", "main", "main"),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in SPEC))


def _tcur_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tcur" or name.startswith("tcur."))]


def rebind(module: str, attr: str, replacement) -> list:
    """Put ``replacement`` wherever ``tcur.<module>.<attr>`` is bound.

    ``attr`` is a function name or ``Class.method``. Returns the undo
    list for :func:`restore`.
    """
    owner = sys.modules[f"tcur.{module}"]
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = vars(owner)[name]
    undo = [(owner, name, original)]
    setattr(owner, name, replacement)
    if not cls_path:
        for ns in _tcur_namespaces():
            for key, val in list(vars(ns).items()):
                if val is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def original_of(module: str, attr: str):
    owner = sys.modules[f"tcur.{module}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return getattr(owner, "__wrapped__", owner)


# ----------------------------------------------------------- computed costs

def _fft_flop(tubes: int, n3: int) -> float:
    # 5 N log2 N per complex length-N transform (radix-2 equivalent count).
    return 5.0 * n3 * math.log2(n3) * tubes if n3 > 1 else 0.0


def tprod_cost(a_shape, b_shape) -> tuple[float, float]:
    """Computed (flop, bytes) of one ``tprod`` from operand shapes.

    Stages: FFT of A and B, one complex product per slice (8 real flops
    per complex multiply-add), inverse FFT of C. Bytes assume each stage
    reads its inputs once and writes its outputs once (f64 real inputs,
    c128 spectra, real copy of the result); cache reuse is ignored.
    """
    n1, n2, n3 = a_shape
    l = b_shape[1]
    na, nb, nc = n1 * n2 * n3, n2 * l * n3, n1 * l * n3
    flop = (_fft_flop(n1 * n2, n3) + _fft_flop(n2 * l, n3)
            + 8.0 * n1 * n2 * l * n3 + _fft_flop(n1 * l, n3))
    nbytes = 24 * (na + nb) + 16 * (na + nb + nc) + 32 * nc + 24 * nc
    return flop, float(nbytes)


def tpinv_cost(a_shape) -> tuple[float, float]:
    """Computed (flop, bytes) of one ``tpinv`` from the operand shape.

    Per slice: a thin complex SVD, counted as 4x the real R-SVD count
    6pq^2 + 20q^3 (Golub & Van Loan, p = max(n1, n2), q = min), then the
    pseudoinverse product V S^-1 U^H at 8 flops per complex multiply-add.
    FFT and inverse FFT as in :func:`tprod_cost`.
    """
    n1, n2, n3 = a_shape
    p, q = max(n1, n2), min(n1, n2)
    n = n1 * n2 * n3
    flop = (2 * _fft_flop(n1 * n2, n3)
            + n3 * (4.0 * (6 * p * q * q + 20 * q ** 3) + 8.0 * n1 * n2 * q))
    svd_out = n3 * (p * q + q + q * q)
    nbytes = 24 * n + 16 * (n + svd_out) + 16 * (svd_out + n) + 32 * n + 24 * n
    return flop, float(nbytes)


# ------------------------------------------------------------------ tracer

class Tracer:
    """Wraps every function in :data:`SPEC`; aggregates while spans close.

    With ``alloc=True`` each checkpoint call also runs under tracemalloc
    and records its peak allocation; that pass is for the allocation ratio
    only, because tracemalloc slows every allocation it sees.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.labels = sorted({f"{m}.{label}" for m, _, label in SPEC})
        self._lid = {name: i for i, name in enumerate(self.labels)}
        k = len(self.labels)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.incl_s = [0.0] * k
        # Spans, one entry each, in typed arrays to keep the trace small.
        self.span_label = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_job = array.array("i")
        self.job = -1
        self._stack: list[list] = []  # [span index, child seconds]
        # Per-label extras filled by result hooks.
        self.flop = {"tensor_ops.tprod": 0.0, "tensor_ops.tpinv": 0.0}
        self.nbytes = {"tensor_ops.tprod": 0.0, "tensor_ops.tpinv": 0.0,
                       "checkpoint.write": 0.0, "checkpoint.read": 0.0}
        self.train_steps = 0
        self.alloc_ratio = {"checkpoint.write": [], "checkpoint.read": []}
        self._undo: list = []

    # -- installation

    def install(self) -> None:
        hooks = self._hooks()
        for module, attr, label in SPEC:
            name = f"{module}.{label}"
            wrapper = self._wrap(original_of(module, attr), name, hooks.get(name))
            self._undo += rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording

    def _wrap(self, fn, name: str, hook):
        """A wrapper that records one span per call, then runs ``hook``.

        The hook sees (args, kwargs, result) after the span has closed, so
        its cost falls to the caller's self time, not to the wrapped call.
        """
        lid = self._lid[name]
        alloc = self.alloc and name.startswith("checkpoint.")
        # Locals, not attribute lookups: a toy-shape training job makes ~8k calls.
        stack, clock = self._stack, time.perf_counter
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        span_start, span_end = self.span_start, self.span_end
        add_label, add_parent = self.span_label.append, self.span_parent.append
        add_job, add_start, add_end = (self.span_job.append, span_start.append,
                                       span_end.append)

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            add_label(lid)
            add_parent(stack[-1][0] if stack else -1)
            add_job(self.job)
            add_end(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if alloc:
                tracemalloc.start()
            t0 = clock()
            add_start(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                dur = t1 - t0
                span_end[idx] = t1
                calls[lid] += 1
                incl_s[lid] += dur
                self_s[lid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, result)
            if alloc:
                path = args[0] if args else kwargs["path"]
                self.alloc_ratio[name].append(peak / os.path.getsize(path))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self) -> dict:
        def tprod(args, kwargs, result):
            f, b = tprod_cost(np.shape(args[0]), np.shape(args[1]))
            self.flop["tensor_ops.tprod"] += f
            self.nbytes["tensor_ops.tprod"] += b

        def tpinv(args, kwargs, result):
            f, b = tpinv_cost(np.shape(args[0]))
            self.flop["tensor_ops.tpinv"] += f
            self.nbytes["tensor_ops.tpinv"] += b

        def train(args, kwargs, result):
            self.train_steps += len(result.loss)

        def ckpt(name):
            def hook(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                self.nbytes[name] += os.path.getsize(path)
            return hook

        return {
            "tensor_ops.tprod": tprod,
            "tensor_ops.tpinv": tpinv,
            "trainer.train": train,
            "checkpoint.write": ckpt("checkpoint.write"),
            "checkpoint.read": ckpt("checkpoint.read"),
        }

    # -- results

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one label."""
        i = self._lid[name]
        return self.calls[i], self.self_s[i], self.incl_s[i]

    def module_self_s(self, module: str) -> float:
        return sum(s for name, s in zip(self.labels, self.self_s)
                   if name.startswith(module + "."))

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def n_spans(self) -> int:
        return len(self.span_start)

    def save_spans(self, path) -> None:
        """Write the spans as one compact binary file (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.span_label, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
        )
