"""Command-line interface.

Subcommands: gen, decompose, reconstruct, verify, finetune, report.
Exit codes: 0 success, 1 invalid arguments, 2 I/O failure, 3 verification
failure. Every randomized path takes --seed and echoes it in the output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import adapter as adp
from . import checkpoint as ckpt
from . import decomp
from . import report as rpt
from . import trainer
from . import verify
from .errors import CheckpointError, TcurError
from .tensor_ops import rel_error, tprod


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; our contract reserves 2
    # for I/O, so remap argument errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text):
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _emit(text, out_path):
    text = text.rstrip("\n") + "\n"  # exactly one trailing newline
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tcur", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random tensor checkpoint")
    g.add_argument("--dims", nargs=3, type=_positive_int, required=True,
                   metavar=("N1", "N2", "N3"))
    g.add_argument("--tubal-rank", type=_positive_int, default=None,
                   help="plant an exact low tubal rank (default: dense random)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output checkpoint path")

    d = sub.add_parser("decompose", help="tensor CUR decomposition of a checkpoint")
    d.add_argument("input", help="raw tensor checkpoint")
    d.add_argument("--rank", type=_positive_int, required=True)
    d.add_argument("--out", required=True, help="output factor checkpoint path")

    r = sub.add_parser("reconstruct", help="rebuild a tensor from CUR factors")
    r.add_argument("input", help="factor checkpoint")
    r.add_argument("--out", required=True, help="output tensor checkpoint path")
    r.add_argument("--reference", default=None,
                   help="raw tensor checkpoint to report rel_error against")

    v = sub.add_parser("verify", help="run the full invariant suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--inject-fault", choices=sorted(verify.FAULTS), default=None,
                   help="test hook: corrupt one library function for this run")

    f = sub.add_parser("finetune", help="train an adapter core on a synthetic task")
    f.add_argument("--dims", nargs=3, type=_positive_int, default=(16, 16, 8),
                   metavar=("N1", "N2", "N3"))
    f.add_argument("--rank", type=_positive_int, default=4)
    f.add_argument("--steps", type=_positive_int, default=2000)
    f.add_argument("--lr", type=float, default=None,
                   help="step size (default: 1/lambda_max via power iteration)")
    f.add_argument("--optimizer", choices=("gd", "adam"), default="gd")
    f.add_argument("--plant-mode", choices=trainer.PLANT_MODES, default="in_span")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--rel-stop", type=float, default=1e-10,
                   help="stop once loss / initial loss falls below this")
    f.add_argument("--format", choices=("json", "csv"), default="json")
    f.add_argument("--out", default=None, help="write the history here instead of stdout")
    f.add_argument("--save-adapter", default=None, help="also checkpoint the trained adapter")

    t = sub.add_parser("report", help="comparison and parameter-count reports")
    t.add_argument("--kind", choices=("baselines", "params"), default="baselines")
    t.add_argument("--dims", nargs=3, type=_positive_int, default=(12, 12, 6),
                   metavar=("N1", "N2", "N3"))
    t.add_argument("--rank", type=_positive_int, default=3)
    t.add_argument("--steps", type=_positive_int, default=2000)
    t.add_argument("--plant-mode", choices=trainer.PLANT_MODES, default="in_span")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--no-timing", action="store_true",
                   help="zero the wall_ms column for bitwise-reproducible output")
    t.add_argument("--d", type=_positive_int, default=768,
                   help="params kind: embedding width")
    t.add_argument("--layers", type=_positive_int, default=12,
                   help="params kind: encoder depth")
    t.add_argument("--matrix-rank", type=_positive_int, default=2,
                   help="params kind: rank of the per-matrix baseline")
    t.add_argument("--format", choices=("json", "csv"), default="json")
    t.add_argument("--out", default=None)

    return p


def cmd_gen(args) -> int:
    n1, n2, n3 = args.dims
    rng = np.random.default_rng(args.seed)
    if args.tubal_rank is not None:
        r = args.tubal_rank
        if r > min(n1, n2):
            raise TcurError(f"tubal rank {r} exceeds min(n1, n2) = {min(n1, n2)}")
        w = tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))
    else:
        w = rng.standard_normal((n1, n2, n3))
    ckpt.write_checkpoint(args.out, w)
    print(json.dumps({"seed": args.seed, "dims": [n1, n2, n3],
                      "tubal_rank": args.tubal_rank, "path": args.out}))
    return 0


def cmd_decompose(args) -> int:
    payload = ckpt.read_checkpoint(args.input)
    if not isinstance(payload, np.ndarray):
        raise TcurError(f"{args.input} is not a raw tensor checkpoint")
    f = decomp.tcur(payload, args.rank)
    ckpt.write_checkpoint(args.out, f)
    print(json.dumps({"dims": list(payload.shape), "rank": f.rank,
                      "rows": f.rows.tolist(), "cols": f.cols.tolist(),
                      "path": args.out}))
    return 0


def cmd_reconstruct(args) -> int:
    payload = ckpt.read_checkpoint(args.input)
    if not isinstance(payload, decomp.TcurFactors):
        raise TcurError(f"{args.input} is not a factor checkpoint")
    w = decomp.reconstruct(payload)
    ckpt.write_checkpoint(args.out, w)
    summary = {"dims": list(w.shape), "rank": payload.rank, "path": args.out}
    if args.reference is not None:
        ref = ckpt.read_checkpoint(args.reference)
        if not isinstance(ref, np.ndarray):
            raise TcurError(f"{args.reference} is not a raw tensor checkpoint")
        summary["rel_error"] = rel_error(w, ref)
    print(json.dumps(summary))
    return 0


def cmd_verify(args) -> int:
    print(f"seed {args.seed}"
          + (f"  injected-fault {args.inject_fault}" if args.inject_fault else ""))
    results = verify.run_suite(seed=args.seed, fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


def cmd_finetune(args) -> int:
    dims = tuple(args.dims)
    task = trainer.make_task(dims, args.rank, args.plant_mode, seed=args.seed)
    a = adp.init_adapter(task.base, args.rank)
    if args.lr is not None:
        lr = args.lr
    elif args.optimizer == "gd":
        lr = trainer.safe_step_size(a)
    else:
        lr = 0.01
    hist = trainer.train(a, task, steps=args.steps, lr=lr,
                         optimizer=args.optimizer, rel_stop=args.rel_stop)
    if args.save_adapter is not None:
        ckpt.write_checkpoint(args.save_adapter, a)
    text = (rpt.render_history_json(hist, args.seed, args.optimizer, lr)
            if args.format == "json" else rpt.render_history_csv(hist, args.seed))
    _emit(text, args.out)
    return 0


def cmd_report(args) -> int:
    if args.kind == "params":
        cfg = adp.StackingConfig(d=args.d, n_layers=args.layers)
        rep = adp.count_params(cfg, args.rank)
        base = adp.count_matrix_baseline(cfg, args.matrix_rank)
        if args.format == "json":
            baseline = {"rank": args.matrix_rank, **asdict(base)}
            text = rpt.to_json({**asdict(rep), "matrix_baseline": baseline})
        else:
            text = rpt.to_csv(["name", "entries"], [
                *((g.name, g.entries) for g in rep.groups),
                ("total", rep.total),
                (f"matrix_baseline_r{args.matrix_rank}", base.total),
            ])
        _emit(text, args.out)
        # keep stdout parseable but always surface the caveat
        print(rep.caveat, file=sys.stderr)
        return 0

    task = trainer.make_task(tuple(args.dims), args.rank, args.plant_mode,
                             seed=args.seed)
    comparison = trainer.run_baselines(task, args.rank, steps=args.steps)
    if args.no_timing:
        comparison = comparison.without_timing()
    text = comparison.to_json() if args.format == "json" else comparison.to_csv()
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "decompose": cmd_decompose,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "finetune": cmd_finetune,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as e:
        print(f"tcur: checkpoint error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"tcur: i/o error: {e}", file=sys.stderr)
        return 2
    except (TcurError, ValueError) as e:
        print(f"tcur: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
