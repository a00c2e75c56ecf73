"""The benchmark's workloads, each with its inputs and output checks.

A workload turns (workload seed, job index) into one job's inputs, runs
the job against tcur, and checks the job's output. The job seed is the
workload seed plus the job index. Inputs are built before a job's timer
starts and checked after it stops. Every call into tcur goes through the
package at call time (``tcur.x``, ``tcur.cli.main``), so the tracer's
wrappers see it. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import tcur
import tcur.cli


class JobFailed(Exception):
    """A job ran but its output failed a check."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise JobFailed(reason)


def cli(*argv) -> tuple[int, str]:
    """Run ``tcur <argv>`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tcur.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class AdapterStacked:
    """Library jobs on stacked d=64, 4-layer transformer weights at rank 8."""

    name = "adapter-stacked"
    cycle = 3  # jobs before the inputs repeat their kind (here: weight group)
    # Timed job set and traced pass, in whole cycles. The timed set is
    # sized so that three rounds over it fit in run_seconds with room.
    jobs = 57
    trace_jobs = 6
    largest_array = 256 * 64 * 4 * 8
    # Labels that must record calls here, and modules that must not.
    runs = {"tensor_ops.tprod", "tensor_ops.fft_mode3", "tensor_ops.ifft_mode3",
            "tensor_ops.ttranspose", "decomp.tcur", "adapter.stack_layers",
            "adapter.init_adapter", "adapter.effective_weights", "trainer.train",
            "trainer.safe_step_size", "trainer.hessian_apply", "trainer.grad_core",
            "trainer.task_loss", "checkpoint.write", "checkpoint.read"}
    flat = {"cli"}
    D, LAYERS, RANK, STEPS = 64, 4, 8, 5

    def __init__(self, workdir: Path):
        self.cfg = tcur.StackingConfig(d=self.D, n_layers=self.LAYERS)
        self.path = workdir / "adapter.tcur"

    def prepare(self, index: int, seed: int):
        # Weights at the usual 1/sqrt(d) init scale; the target adds dense
        # noise, which no rank-8 core can reach (out of span).
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(self.D)
        d, h = self.D, 4 * self.D
        layers = [
            tcur.LayerWeights(*(scale * rng.standard_normal(s)
                                for s in [(d, d)] * 4 + [(d, h), (h, d)]))
            for _ in range(self.LAYERS)
        ]
        group = index % self.cycle
        shape = (self.cfg.sa_shape, self.cfg.up_shape, self.cfg.down_shape)[group]
        noise = 0.1 * scale * rng.standard_normal(shape)
        return layers, group, noise, seed

    def run(self, inputs):
        layers, group, noise, seed = inputs
        base = tcur.stack_layers(layers, self.cfg)[group]
        a = tcur.init_adapter(base, self.RANK)
        lr = tcur.safe_step_size(a)
        task = tcur.SyntheticTask(base=base, target=base + noise, plant_mode="out_of_span",
                                  seed=seed, plant_rank=self.RANK)
        hist = tcur.train(a, task, steps=self.STEPS, lr=lr)
        weights = tcur.effective_weights(a)
        tcur.write_checkpoint(self.path, a)
        back = tcur.read_checkpoint(self.path)
        return a, hist, weights, back

    def check(self, inputs, result) -> None:
        a, hist, weights, back = result
        _require(isinstance(back, tcur.Adapter), f"read back {type(back).__name__}")
        for field in ("base", "C", "R", "U"):
            _require(_same_bits(getattr(a, field), getattr(back, field)),
                     f"read-back {field} differs from what was written")
        _require(back.rank == a.rank, "read-back rank differs")
        _require(hist.loss[-1] <= hist.initial_loss,
                 f"loss rose from {hist.initial_loss!r} to {hist.loss[-1]!r}")
        _require(weights.shape == a.base.shape and bool(np.isfinite(weights).all()),
                 "effective weights malformed")


class CkptPipeline:
    """The README pipeline through the CLI: gen, decompose, reconstruct."""

    name = "ckpt-pipeline"
    cycle = 1
    jobs = 66
    trace_jobs = 6
    largest_array = 192 * 160 * 24 * 8
    runs = {"tensor_ops.tprod", "tensor_ops.fft_mode3", "tensor_ops.ifft_mode3",
            "tensor_ops.tpinv", "decomp.tcur", "decomp.reconstruct",
            "checkpoint.write", "checkpoint.read", "cli.main"}
    flat = {"trainer", "adapter"}
    DIMS, RANK = (192, 160, 24), 12

    def __init__(self, workdir: Path):
        self.w, self.f, self.b = (workdir / n for n in ("w.tcur", "f.tcur", "b.tcur"))

    def prepare(self, index: int, seed: int):
        return (
            ("gen", "--dims", *self.DIMS, "--tubal-rank", self.RANK, "--seed", seed,
             "--out", self.w),
            ("decompose", self.w, "--rank", self.RANK, "--out", self.f),
            ("reconstruct", self.f, "--out", self.b, "--reference", self.w),
        )

    def run(self, commands):
        results = []
        for argv in commands:
            code, out = cli(*argv)
            results.append((code, out))
            if code != 0:
                break
        return results

    def check(self, commands, results) -> None:
        codes = [code for code, _ in results]
        _require(codes == [0, 0, 0], f"exit codes {codes}")
        doc = json.loads(results[-1][1])
        _require(doc["dims"] == list(self.DIMS), f"dims {doc['dims']}")
        _require(doc["rel_error"] <= 1e-10, f"rel_error {doc['rel_error']:.3e} > 1e-10")


WORKLOADS = {w.name: w for w in (AdapterStacked, CkptPipeline)}
