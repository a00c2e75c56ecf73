import json
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from tcur import (
    Adapter,
    TcurError,
    init_adapter,
    make_task,
    read_checkpoint,
    reconstruct,
    safe_step_size,
    train,
    write_checkpoint,
)
from tcur.adapter import PARAM_COUNT_CAVEAT
from tcur.cli import build_parser, main
from tcur.verify import FAULTS, inject_fault


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ happy paths

def test_gen_decompose_reconstruct_flow(tmp_path, capsys):
    w_path = str(tmp_path / "w.tcur")
    f_path = str(tmp_path / "f.tcur")
    back_path = str(tmp_path / "back.tcur")

    code, out, _ = run_cli(capsys, "gen", "--dims", "8", "9", "4",
                           "--tubal-rank", "3", "--seed", "7", "--out", w_path)
    assert code == 0
    assert json.loads(out)["seed"] == 7

    code, out, _ = run_cli(capsys, "decompose", w_path, "--rank", "3", "--out", f_path)
    assert code == 0
    info = json.loads(out)
    assert info["rank"] == 3
    assert len(info["rows"]) == len(info["cols"]) == 3

    code, out, _ = run_cli(capsys, "reconstruct", f_path, "--out", back_path,
                           "--reference", w_path)
    assert code == 0
    assert json.loads(out)["rel_error"] <= 1e-8  # generated at true rank

    w = read_checkpoint(w_path)
    back = read_checkpoint(back_path)
    assert np.abs(w - back).max() <= 1e-8 * np.abs(w).max()


def test_gen_is_seed_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.tcur"), str(tmp_path / "b.tcur")
    assert run_cli(capsys, "gen", "--dims", "4", "4", "2", "--seed", "3", "--out", p1)[0] == 0
    assert run_cli(capsys, "gen", "--dims", "4", "4", "2", "--seed", "3", "--out", p2)[0] == 0
    assert (tmp_path / "a.tcur").read_bytes() == (tmp_path / "b.tcur").read_bytes()


def test_finetune_report_and_adapter_export(tmp_path, capsys):
    ad_path = str(tmp_path / "adapter.tcur")
    code, out, _ = run_cli(capsys, "finetune", "--dims", "8", "8", "4", "--rank", "2",
                           "--steps", "400", "--seed", "5", "--save-adapter", ad_path)
    assert code == 0
    hist = json.loads(out)
    assert hist["seed"] == 5
    assert hist["optimizer"] == "gd"
    assert hist["final_loss"] < hist["initial_loss"]
    assert hist["steps"][0]["step"] == 0
    assert isinstance(read_checkpoint(ad_path), Adapter)


def test_finetune_identical_seeds_identical_output(capsys):
    args = ("finetune", "--dims", "6", "6", "3", "--rank", "2",
            "--steps", "50", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_finetune_adam_default_step_size(capsys):
    code, out, _ = run_cli(capsys, "finetune", "--dims", "4", "4", "2", "--rank", "2",
                           "--steps", "3", "--optimizer", "adam")
    assert code == 0
    assert json.loads(out)["lr"] == 0.01


def test_finetune_csv_format(capsys):
    code, out, _ = run_cli(capsys, "finetune", "--dims", "5", "5", "2", "--rank", "2",
                           "--steps", "20", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,loss,grad_norm,step_size,seed"
    assert len(lines) == 21


def test_report_baselines_json_and_determinism(capsys):
    args = ("report", "--kind", "baselines", "--dims", "8", "8", "3", "--rank", "2",
            "--seed", "2", "--no-timing")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    rep = json.loads(out1)
    assert rep["seed"] == 2
    assert [r["method"] for r in rep["records"]] == ["full", "matrix_cur", "tcur"]
    assert all(r["wall_ms"] == 0.0 for r in rep["records"])
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_report_baselines_csv(capsys):
    code, out, _ = run_cli(capsys, "report", "--dims", "6", "6", "2", "--rank", "2",
                           "--seed", "4", "--format", "csv", "--no-timing")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,params,metric,wall_ms,rank,dims,seed"
    assert len(lines) == 4


def test_report_params_reference_numbers(capsys):
    code, out, err = run_cli(capsys, "report", "--kind", "params", "--rank", "8",
                             "--matrix-rank", "2")
    assert code == 0
    rep = json.loads(out)
    shapes = [tuple(g["core_shape"]) for g in rep["groups"]]
    assert shapes == [(8, 8, 48), (8, 8, 12), (8, 8, 12)]
    assert rep["total"] == 4608
    assert rep["matrix_baseline"]["total"] == 288
    assert rep["matrix_baseline"]["n_matrices"] == 72
    assert "decoder" in err  # the caveat reaches the terminal


def test_report_out_file(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "report", "--kind", "params", "--rank", "8",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["total"] == 4608


PARAMS_ARGS = ("report", "--kind", "params", "--rank", "4", "--matrix-rank", "3",
               "--d", "64", "--layers", "3")


def _core(rank, slices, entries, name):
    return (f'    {{\n      "core_shape": [\n        {rank},\n        {rank},\n'
            f'        {slices}\n      ],\n      "entries": {entries},\n'
            f'      "name": "{name}"\n    }}')


def test_report_params_json_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, *PARAMS_ARGS)
    assert code == 0
    assert out == (
        "{\n"
        f'  "caveat": {json.dumps(PARAM_COUNT_CAVEAT)},\n'
        '  "groups": [\n'
        + ",\n".join([_core(4, 12, 192, "sa"), _core(4, 3, 48, "up"),
                      _core(4, 3, 48, "down")])
        + "\n  ],\n"
        '  "matrix_baseline": {\n'
        '    "n_matrices": 18,\n'
        '    "per_matrix": 9,\n'
        '    "rank": 3,\n'
        '    "total": 162\n'
        "  },\n"
        '  "total": 288\n'
        "}\n"
    )


def test_report_params_csv_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, *PARAMS_ARGS, "--format", "csv")
    assert code == 0
    assert out == ("name,entries\nsa,192\nup,48\ndown,48\ntotal,288\n"
                   "matrix_baseline_r3,162\n")


@pytest.mark.parametrize("argv", [
    ("finetune", "--dims", "4", "4", "2", "--rank", "2", "--steps", "5"),
    ("report", "--dims", "4", "4", "2", "--rank", "2", "--no-timing"),
])
def test_csv_output_ends_in_one_newline(argv, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    out_path = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "--format", "csv", "--out", str(out_path))[0] == 0
    assert out_path.read_text() == out


def test_verify_clean_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    assert "seed 0" in out
    assert "FAIL" not in out


def test_verify_fault_exits_three(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "0",
                           "--inject-fault", "scores-reversed")
    assert code == 3
    assert "FAIL" in out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_hooks_reach_library_internals(fault, tmp_path):
    # cli, decomp, adapter and trainer hold their own bindings of the
    # hooked functions; a hook must reach those too, and be fully undone after
    task = make_task((6, 7, 4), 3, "out_of_span", seed=0)
    w_path, f_path = tmp_path / "w.tcur", tmp_path / "f.tcur"
    write_checkpoint(w_path, task.base)

    def downstream():
        f_path.write_bytes(bytes(1 << 14))  # a longer file to write over
        assert main(["decompose", str(w_path), "--rank", "3", "--out", str(f_path)]) == 0
        f = read_checkpoint(f_path)
        a = init_adapter(task.base, 3)
        hist = train(a, task, steps=3, lr=safe_step_size(a))
        return reconstruct(f), f.C, a.U, np.array(hist.loss)

    clean = downstream()
    with inject_fault(fault):
        try:
            faulty = downstream()
        except TcurError:
            faulty = None  # a raised error is a changed result too
    assert faulty is None or any(not np.array_equal(x, y) for x, y in zip(clean, faulty))
    assert all(np.array_equal(x, y) for x, y in zip(clean, downstream()))


# -------------------------------------------------------------- exit codes

def test_invalid_arguments_exit_one(tmp_path, capsys):
    bad_calls = [
        ("nonsense",),
        ("gen", "--dims", "2", "2", "--out", str(tmp_path / "x")),   # dims arity
        ("gen", "--dims", "2", "2", "2"),                            # missing --out
        ("decompose", str(tmp_path / "w.tcur"), "--rank", "0", "--out", "x"),
        ("finetune", "--optimizer", "newton"),
        ("verify", "--inject-fault", "not-a-fault"),
        ("verify", "--tol", "10"),                                   # no such flag
        ("report", "--steps", "5"),                  # closed-form baselines take no steps
        ("gen", "--dims", "2", "3", "2", "--tubal-rank", "3", "--out", str(tmp_path / "x")),
    ]
    for argv in bad_calls:
        code = main(list(argv))
        capsys.readouterr()
        assert code == 1, argv


def test_parser_is_built_once_and_keeps_nothing_between_calls(capsys):
    assert build_parser() is build_parser()
    params = ("report", "--kind", "params", "--format", "csv")
    _, rank8, _ = run_cli(capsys, *params, "--rank", "8")
    assert run_cli(capsys, "report", "--kind", "nope")[0] == 1
    _, default, _ = run_cli(capsys, *params)
    assert default != rank8
    assert default == run_cli(capsys, *params, "--rank", "3")[1]


@pytest.mark.parametrize("argv", [
    ("gen", "--dims", "2", "2", "2", "--out", "x.tcur"),
    ("verify",),
    ("finetune",),
    ("report",),
])
def test_negative_seed_exits_one(argv, capsys):
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert "non-negative integer" in err


@pytest.mark.parametrize("flags", [("--lr", "nan"), ("--rel-stop", "nan"), ("--rel-stop", "-1")])
def test_finetune_bad_step_size_or_rel_stop_exits_one(flags, capsys):
    code, out, err = run_cli(capsys, "finetune", "--steps", "5", *flags)
    assert code == 1
    assert out == ""
    assert "ValueError" in err


def test_rank_out_of_range_exits_one(tmp_path, capsys):
    w_path = str(tmp_path / "w.tcur")
    run_cli(capsys, "gen", "--dims", "4", "4", "2", "--seed", "0", "--out", w_path)
    code, _, err = run_cli(capsys, "decompose", w_path, "--rank", "99",
                           "--out", str(tmp_path / "f.tcur"))
    assert code == 1
    assert "RankOutOfRange" in err


def test_wrong_payload_kind_exits_one(tmp_path, capsys):
    w_path = str(tmp_path / "w.tcur")
    run_cli(capsys, "gen", "--dims", "4", "4", "2", "--seed", "0", "--out", w_path)
    code, _, err = run_cli(capsys, "reconstruct", w_path,
                           "--out", str(tmp_path / "o.tcur"))
    assert code == 1
    assert "not a factor checkpoint" in err
    f_path = str(tmp_path / "f.tcur")
    run_cli(capsys, "decompose", w_path, "--rank", "2", "--out", f_path)
    code, _, err = run_cli(capsys, "decompose", f_path, "--rank", "2",
                           "--out", str(tmp_path / "g.tcur"))
    assert code == 1
    assert "not a raw tensor checkpoint" in err
    code, _, err = run_cli(capsys, "reconstruct", f_path, "--out", str(tmp_path / "o.tcur"),
                           "--reference", f_path)
    assert code == 1
    assert "not a raw tensor checkpoint" in err


def test_missing_input_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", str(tmp_path / "absent.tcur"),
                           "--rank", "2", "--out", str(tmp_path / "f.tcur"))
    assert code == 2
    assert "i/o error" in err


def test_corrupt_input_exits_two(tmp_path, capsys):
    w_path = tmp_path / "w.tcur"
    run_cli(capsys, "gen", "--dims", "4", "4", "2", "--seed", "0", "--out", str(w_path))
    raw = bytearray(w_path.read_bytes())
    raw[-8] ^= 0xFF
    w_path.write_bytes(bytes(raw))
    code, _, err = run_cli(capsys, "decompose", str(w_path), "--rank", "2",
                           "--out", str(tmp_path / "f.tcur"))
    assert code == 2
    assert "checkpoint error" in err


def test_factor_file_whose_core_is_not_the_row_sample_exits_two(tmp_path, capsys):
    w_path, f_path = str(tmp_path / "w.tcur"), tmp_path / "f.tcur"
    run_cli(capsys, "gen", "--dims", "6", "7", "4", "--seed", "0", "--out", w_path)
    run_cli(capsys, "decompose", w_path, "--rank", "3", "--out", str(f_path))
    f = read_checkpoint(f_path)
    raw = f_path.read_bytes()
    # U_core is the second tensor in the file: add 1 to each of its doubles.
    start = 16 + struct.unpack_from("<I", raw, 12)[0] + f.C.nbytes
    core = np.frombuffer(raw, "<f8", f.U_core.size, start) + 1.0
    body = raw[4:start] + core.tobytes() + raw[start + core.nbytes:-4]
    f_path.write_bytes(b"TCUR" + body + struct.pack("<I", zlib.crc32(body)))  # valid CRC
    code, _, err = run_cli(capsys, "reconstruct", str(f_path), "--out", str(tmp_path / "o.tcur"))
    assert code == 2
    assert "checkpoint error" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "tcur", "report", "--kind", "params", "--rank", "8"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 4608
