"""Self-tests of the benchmark itself.

The trace wrappers must reach every layer a workload runs, including calls
made through ``from .x import y`` bindings, and must account for nearly all
of a job's time; a wrong job output must be counted as a failure; the
benchmark must keep its output contract and refuse to run without sources.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tcur  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_cycle(name: str, workdir: Path, trace=None) -> tuple[run.Runner, float]:
    runner = run.Runner(name, seed=0, workdir=workdir)
    wall = sum(runner.job(i, trace) for i in range(1, runner.wl.cycle + 1))
    return runner, wall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_reaches_every_layer_it_should(name, tmp_path):
    t = tracer.Tracer()
    with t:
        # The from-import bindings hold the same wrapper as the defining module.
        assert hasattr(tcur.decomp.tprod, "__wrapped__")
        assert tcur.decomp.tprod is tcur.tensor_ops.tprod
        assert tcur.trainer.init_adapter is tcur.adapter.init_adapter
        runner, wall = one_cycle(name, tmp_path, t)
    assert runner.failed == 0, runner.reasons
    wl = WORKLOADS[name]
    for label in wl.runs:
        assert t.stat(label)[0] >= 1, f"{label} recorded no call on {name}"
    for label in t.labels:
        if label.split(".")[0] in wl.flat:
            assert t.stat(label)[0] == 0, f"{label} ran on {name}, where it should be flat"
    assert t.total_self_s() >= 0.9 * wall
    # Uninstalled: every namespace holds the plain function again.
    assert not hasattr(tcur.decomp.tprod, "__wrapped__")
    assert tcur.decomp.tprod is tcur.tensor_ops.tprod


def _flip_core(orig):
    def read_checkpoint(path):
        out = orig(path)
        out.U = out.U.copy()
        out.U.flat[0] += 1.0
        return out
    return read_checkpoint


def _scale(orig):
    return lambda f: 1.001 * orig(f)


# Each fault breaks one workload's output; (module, attr, fault, jobs failing per cycle).
FAULTS = {
    "adapter-stacked": ("checkpoint", "read_checkpoint", _flip_core, 3),
    "ckpt-pipeline": ("decomp", "reconstruct", _scale, 1),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrong_output_is_counted_as_failure(name, tmp_path):
    module, attr, fault, expected = FAULTS[name]
    undo = tracer.rebind(module, attr, fault(tracer.original_of(module, attr)))
    try:
        runner, _ = one_cycle(name, tmp_path)
    finally:
        tracer.restore(undo)
    assert runner.attempted == WORKLOADS[name].cycle
    assert runner.failed == expected, runner.reasons
    runner, _ = one_cycle(name, tmp_path)
    assert runner.failed == 0, runner.reasons


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ckpt-pipeline", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(v["unit"] == units[k] for k, v in doc["metrics"].items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ckpt-pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
