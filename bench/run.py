"""tcur benchmark: one workload, closed loop, one client.

Run from the root of a source checkout:

    python3 bench/run.py --workload adapter-stacked --seed 0 --seconds 60 --trace 0

``--trace 0`` measures end to end: the median of several fresh-process
set-ups, then rounds over the workload's job set for ``--seconds``, each
job's latency being its best of three rounds. ``--trace 1`` wraps
tcur's public functions (tracer.py) and reports per-layer metrics. Every
job's output is checked. Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A summary (and, when traced, the spans) is written to
``bench/out/``. The program is imported from ``src/`` of the checkout;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is single-client and its shapes are small,
# so extra threads add scheduling noise, not speed. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 7
ROUNDS = 3
MAX_REASONS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import tcur from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import tcur

    if Path(tcur.__file__).resolve().parent != SRC / "tcur":
        sys.exit(f"bench: imported tcur from {tcur.__file__}, not {SRC}")


class Runner:
    """Runs jobs of one workload and keeps the failure count."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import workloads

        self.wl = workloads.WORKLOADS[name](workdir)
        self.job_failed = workloads.JobFailed
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def job(self, index: int, tracer=None) -> float:
        """Run job ``index``, check its output; returns its latency in seconds."""
        inputs = self.wl.prepare(index, self.seed + index)
        if tracer is not None:
            tracer.job = index
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.run(inputs)
        except Exception:  # a job that raises is a failed job; keep going
            self._fail(index, traceback.format_exc(limit=3))
            return time.perf_counter() - t0
        latency = time.perf_counter() - t0
        try:
            self.wl.check(inputs, result)
        except self.job_failed as e:
            self._fail(index, str(e))
        except (KeyError, TypeError, ValueError) as e:  # malformed output
            self._fail(index, f"unreadable output: {e!r}")
        return latency

    def _fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"job {index} (seed {self.seed + index}): {reason}")


def setup(name: str, seed: int, workdir: Path) -> Runner:
    """Import tcur, build the workload's inputs, run one untimed warm-up job."""
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    runner = Runner(name, seed, workdir)
    runner.job(0)
    return runner


def probe_setup_times(args) -> list[float]:
    """Time process start -> ready for the first timed job, in fresh processes.

    The child prints its CLOCK_MONOTONIC reading when set-up is done; the
    parent subtracts its own reading taken just before the spawn.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: set-up probe exited {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


# ------------------------------------------------------------------ context

def context(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    caches = {}
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for line in out.splitlines():
            key, _, val = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = val.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
        "cache": caches,
    }


# ------------------------------------------------------------ measurements

def measure_end_to_end(args, runner: Runner, setup_times: list[float]):
    """Rounds over the workload's fixed job set until time is up.

    A shared machine slows down in bursts and in spells of several
    seconds, so one run of a job mixes them into its cost. A job's latency
    is the best of its first ROUNDS runs, one per round; a round goes over
    every job, so a job's runs lie many seconds apart. Later rounds are
    run but not counted, so the statistic is the same at any speed.
    """
    import numpy as np

    lat: dict[int, list[float]] = {}
    failed_before = runner.failed
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while time.perf_counter() < deadline:
        for index in range(1, runner.wl.jobs + 1):
            lat.setdefault(index, []).append(runner.job(index))
            if time.perf_counter() >= deadline:
                break
    loop_wall = time.perf_counter() - t_start
    runs = sum(len(v) for v in lat.values())
    best = [min(v[:ROUNDS]) for v in lat.values()]
    short = sum(len(v) < ROUNDS for v in lat.values())
    n = len(best)
    p50, p90 = (float(v) for v in np.percentile(best, [50, 90]))
    beyond = sum(v > p90 for v in best)
    failed = runner.failed - failed_before
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        ("setup_s", statistics.median(setup_times), "s",
         "median of fresh-process set-ups: " + ", ".join(f"{t:.4f}" for t in setup_times)),
        ("job_s.p50", p50, "s",
         f"n={n} jobs, best of {ROUNDS} rounds each ({short} got fewer: time ran out)"),
        ("job_s.p90", p90, "s", f"n={n} jobs, {beyond} beyond"),
        ("jobs_per_s", n / sum(best), "1/s", "jobs / sum of their best latencies; "
         f"loop rate {(runs - failed) / loop_wall:.4f} passed runs/s"),
        ("fail_frac", runner.failed / runner.attempted, "ratio",
         f"{runner.failed} failed / {runner.attempted} attempted, warm-up included"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
    ]


def measure_traced(args, runner: Runner):
    from tracer import MODULES, Tracer

    wl = runner.wl
    indices = range(1, 1 + wl.trace_jobs)
    tracer = Tracer()
    untraced = traced = 0.0
    passes = 0
    deadline = time.perf_counter() + args.seconds
    # Alternate untraced and traced passes over the same jobs until time is up.
    pair = 0.0
    while passes == 0 or time.perf_counter() + pair < deadline:
        t0 = time.perf_counter()
        untraced += sum(runner.job(i) for i in indices)
        with tracer:
            traced += sum(runner.job(i, tracer) for i in indices)
        passes += 1
        pair = time.perf_counter() - t0

    alloc = Tracer(alloc=True)
    with alloc:
        for i in indices[:wl.cycle]:
            runner.job(i, alloc)

    wall = traced / passes

    def per_pass(x):
        return x / passes

    def frac(x):
        return x / traced if traced else 0.0

    rows = []
    for module in MODULES:
        rows.append((f"{module}.share", frac(tracer.module_self_s(module)), "ratio", ""))
    for name in tracer.labels:
        calls, self_s, incl_s = tracer.stat(name)
        rows.append((f"{name}.calls", per_pass(calls), "count", "per pass"))
        rows.append((f"{name}.self_frac", frac(self_s), "ratio",
                     f"self {per_pass(self_s):.6f} s, incl {per_pass(incl_s):.6f} s per pass"))
    rows.append(("trainer.safe_step_size.incl_frac",
                 frac(tracer.stat("trainer.safe_step_size")[2]), "ratio", ""))

    for name in ("tensor_ops.tprod", "tensor_ops.tpinv"):
        rows.append((f"{name}.gflop", per_pass(tracer.flop[name]) / 1e9, "GFLOP", "computed, per pass"))
        rows.append((f"{name}.gb", per_pass(tracer.nbytes[name]) / 1e9, "GB", "computed, per pass"))
    tprod_incl = tracer.stat("tensor_ops.tprod")[2]
    rows.append(("tensor_ops.tprod.gflop_per_s",
                 tracer.flop["tensor_ops.tprod"] / tprod_incl / 1e9 if tprod_incl else 0.0,
                 "GFLOP/s", "computed GFLOP / inclusive tprod seconds"))

    train_incl = tracer.stat("trainer.train")[2]
    rows.append(("trainer.train.steps", per_pass(tracer.train_steps), "count", "per pass"))
    rows.append(("trainer.train.steps_per_s",
                 tracer.train_steps / train_incl if train_incl else 0.0, "1/s", ""))

    for name in ("checkpoint.write", "checkpoint.read"):
        _, _, incl = tracer.stat(name)
        nbytes = tracer.nbytes[name]
        rows.append((f"{name}.bytes", per_pass(nbytes), "B", "per pass"))
        rows.append((f"{name}.mb_per_s", nbytes / incl / 1e6 if incl else 0.0, "MB/s", ""))
        ratios = alloc.alloc_ratio[name]
        rows.append((f"{name}.peak_alloc_ratio", max(ratios) if ratios else 0.0, "ratio",
                     f"max over {len(ratios)} calls of tracemalloc peak / file bytes"))

    rows.append(("trace.wall_s", wall, "s", f"traced job time per pass of {len(indices)} jobs"))
    rows.append(("trace.coverage", frac(tracer.total_self_s()), "ratio",
                 "wrapped self time / traced job time"))
    rows.append(("trace.overhead_frac", traced / untraced - 1.0, "ratio",
                 f"traced / untraced job time - 1, {passes} passes each"))
    extra = {"passes": passes, "jobs_per_pass": len(indices), "spans": tracer.n_spans(),
             "self_s": {n: per_pass(tracer.stat(n)[1]) for n in tracer.labels},
             "incl_s": {n: per_pass(tracer.stat(n)[2]) for n in tracer.labels}}
    return rows, extra, tracer


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcur" / "__init__.py").is_file():
        print(f"bench: no tcur sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    declared = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic())
            return 0
        setup_times = [] if args.trace else probe_setup_times(args)
        runner = setup(args.workload, args.seed, workdir)
        if args.trace:
            rows, extra, tracer = measure_traced(args, runner)
        else:
            rows, extra, tracer = measure_end_to_end(args, runner, setup_times), {}, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ctx = context(args)
    print("# " + "  ".join(f"{k}={v}" for k, v in ctx.items()))
    print(f"# workload {args.workload}: {runner.wl.__doc__}")
    print(f"# largest array {runner.wl.largest_array / 2**20:.2f} MiB, below the last-level "
          "cache: byte counts are computed from shapes, not measured bandwidth")
    for name, value, unit, note in rows:
        print(f"{name:<40} {value:>14.6g} {unit:<8} {note}")
    for reason in runner.reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    metrics = {n: {"value": v, "unit": u} for n, v, u, _ in rows}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"context": ctx, "attempted": runner.attempted, "failed": runner.failed,
               "metrics": metrics, **extra}
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.save_spans(OUT / f"{stem}-spans.npz")

    missing = [n for n in declared if n not in metrics]
    if missing:
        print(f"bench: metrics declared but not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: metrics[n] for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
