"""Machine-readable result records and the JSON/CSV renderer of every report."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, replace


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def to_csv(header, rows) -> str:
    """A header line and one line per row, each ending in a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


@dataclass(frozen=True)
class ReportRecord:
    """One method's result on one task; ``metric`` is its optimal loss on the task."""

    method: str  # one of: full, matrix_cur, tcur
    params: int
    metric: float
    wall_ms: float


@dataclass
class ComparisonReport:
    """Baseline roster results for one synthetic task; its records share ``rank`` and ``dims``."""

    records: list[ReportRecord]
    seed: int
    rank: int
    dims: tuple[int, int, int]

    def without_timing(self) -> "ComparisonReport":
        """Copy with wall times zeroed, for bitwise-reproducible output."""
        return replace(self, records=[replace(r, wall_ms=0.0) for r in self.records])

    def to_json(self) -> str:
        records = [{**asdict(r), "rank": self.rank, "dims": self.dims} for r in self.records]
        return to_json({**asdict(self), "records": records})

    def to_csv(self) -> str:
        return to_csv(
            ["method", "params", "metric", "wall_ms", "rank", "dims", "seed"],
            ([r.method, r.params, repr(r.metric), repr(r.wall_ms), self.rank,
              "x".join(map(str, self.dims)), self.seed] for r in self.records),
        )


def _history_steps(history):
    return enumerate(zip(history.loss, history.grad_norm))


def render_history_json(history, seed: int, optimizer: str) -> str:
    return to_json({
        "seed": seed,
        "optimizer": optimizer,
        "lr": history.lr,
        "initial_loss": history.initial_loss,
        "final_loss": history.loss[-1],
        "steps_run": len(history.loss),
        "steps": [
            {"step": i, "loss": l, "grad_norm": g, "step_size": history.lr}
            for i, (l, g) in _history_steps(history)
        ],
    })


def render_history_csv(history, seed: int) -> str:
    return to_csv(
        ["step", "loss", "grad_norm", "step_size", "seed"],
        ([i, repr(l), repr(g), repr(history.lr), seed] for i, (l, g) in _history_steps(history)),
    )
