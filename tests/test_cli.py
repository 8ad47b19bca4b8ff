"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framedual.cli import main
from framedual import serialize, cyclic_group, Multiplier


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_validate_heisenberg(tmp_path):
    code, text = run(tmp_path, "validate", "--multiplier", "heisenberg", "--N", "4")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["multiplier"]["passed"] is True
    assert doc["meta"]["tool"] == "framedual"


def test_validate_detects_broken_multiplier(tmp_path):
    g = cyclic_group(3)
    table = np.ones((3, 3), dtype=complex)
    table[1, 0] = 1j  # breaks mu(g, e) = 1
    mu_file = tmp_path / "mu.json"
    mu_file.write_text(json.dumps(serialize.multiplier_to_json(Multiplier(g, table))))
    code, text = run(tmp_path, "validate", "--group", "Z3",
                     "--multiplier", f"@{mu_file}")
    assert code == 1
    doc = json.loads(text)
    assert doc["result"]["multiplier"]["passed"] is False


def test_nan_multiplier_document(tmp_path, capsys):
    g = cyclic_group(3)
    table = np.ones((3, 3), dtype=complex)
    table[1, 2] = np.nan
    mu_file = tmp_path / "nan.json"
    mu_file.write_text(json.dumps(serialize.multiplier_to_json(Multiplier(g, table))))
    code, text = run(tmp_path, "validate", "--group", "Z3", "--multiplier", f"@{mu_file}")
    assert code == 1

    def reject(token):
        raise AssertionError(f"{token} in a report")

    doc = json.loads(text, parse_constant=reject)["result"]["multiplier"]
    assert doc["passed"] is False and doc["unit_modulus_ok"] is False
    assert doc["counterexample"] == ["unit_modulus", [1, 2]]
    capsys.readouterr()
    code, _ = run(tmp_path, "classify", "--group", "Z3", "--multiplier", f"@{mu_file}",
                  "--vector", "1,0,0")
    assert code == 2
    assert "first counterexample ('unit_modulus', (1, 2))" in capsys.readouterr().err


def test_classify_degenerate_gabor_window(tmp_path):
    code, text = run(tmp_path, "classify", "--rep", "gabor", "--lattice", "4,1,2",
                     "--window", "1,0,1,0")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["classification"]["is_complete_frame"] is False


def test_commutant_command(tmp_path):
    code, text = run(tmp_path, "commutant", "--rep", "regular", "--group", "Z6")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["commutant_dim"] == 6
    assert doc["result"]["is_factor"] is False


def test_certify_pair_command(tmp_path):
    code, text = run(tmp_path, "certify-pair", "--pair", "regular", "--group", "Z6",
                     "--multiplier", "trivial", "--seed", "3")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["report"]["feasible"] is True


def test_verify_duality_command(tmp_path):
    code, text = run(tmp_path, "verify-duality", "--pair", "regular", "--group", "Z3",
                     "--vector", "1,1,0")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["verdict"]["theorem_consistent"] is True


def test_sweep_command_and_exit_code(tmp_path):
    code, text = run(tmp_path, "sweep", "--pair", "regular", "--group", "Z12",
                     "--multiplier", "trivial", "--n", "25", "--seed", "7")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["n_inconsistent"] == 0
    assert doc["meta"]["seed"] == 7


def test_sweep_reports_byte_identical_across_jobs(tmp_path):
    args = ["sweep", "--pair", "regular", "--group", "Z8", "--multiplier", "trivial",
            "--n", "16", "--seed", "11"]
    out1 = tmp_path / "jobs1.json"
    out2 = tmp_path / "jobs8.json"
    assert main([*args, "--jobs", "1", "--output", str(out1)]) == 0
    assert main([*args, "--jobs", "8", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_csv_summary(tmp_path):
    import csv

    out = tmp_path / "summary.csv"
    code = main(["sweep", "--pair", "gabor", "--lattice", "6,1,2", "--n", "10",
                 "--seed", "2", "--format", "csv", "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair", "n", "failures", "worst_residual"]
    assert rows[1][2] == "0"


def test_dilate_command(tmp_path):
    code, text = run(tmp_path, "dilate", "--rep", "regular", "--group", "Z4",
                     "--vector", "1,1,0,0", "--mode", "parseval", "--seed", "5")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["dilation"]["mode"] == "parseval"


def test_gabor_command_with_window(tmp_path):
    code, text = run(tmp_path, "gabor", "--lattice", "4,1,2",
                     "--window", "1,0,1,0", "--zak")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["adjoint"] == [4, 2, 4]
    assert doc["result"]["window_verdict"]["theorem_consistent"] is True
    assert doc["result"]["zak"]["rows"] == 1


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["classify", "--rep", "gabor", "--vector", "1,0"]) == 2  # no lattice
    assert main(["sweep", "--pair", "gabor", "--lattice", "5,2,1"]) == 2  # bad steps
    assert main(["classify", "--rep", "regular", "--group", "Z3",
                 "--vector", "1,frog,0"]) == 2
    assert main(["gabor", "--lattice", "8,2,2", "--zak"]) == 2  # no window to transform
    captured = capsys.readouterr()
    assert "--zak needs --window" in captured.err and "Traceback" not in captured.err


def test_validate_rep_bundle(tmp_path):
    from framedual import cyclic_group, left_regular, trivial_multiplier

    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    bundle = serialize.rep_to_json(lam)
    good = tmp_path / "rep.json"
    good.write_text(json.dumps(bundle))
    code, text = run(tmp_path, "validate", "--rep-json", str(good))
    assert code == 0
    assert json.loads(text)["result"]["representation"]["passed"] is True

    bundle["matrices"][1]["entries"][0] = [2.0, 0.0]  # break unitarity
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    code, text = run(tmp_path, "validate", "--rep-json", str(bad))
    assert code == 1
    assert json.loads(text)["result"]["representation"]["passed"] is False


def test_character_rep_classify(tmp_path):
    code, text = run(tmp_path, "classify", "--rep", "character", "--N", "4",
                     "--freqs", "0,2", "--vector", "1,1")
    assert code == 0
    doc = json.loads(text)
    assert doc["result"]["classification"]["orbit_span_dim"] == 2


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 21}))
    out = tmp_path / "r.json"
    code = main(["sweep", "--pair", "regular", "--group", "Z4", "--n", "5",
                 "--seed", "1", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["seed"] == 21


def test_reports_identical_across_runs(tmp_path):
    args = ["classify", "--rep", "regular", "--group", "Z6", "--vector", "1,0,0,1,0,0"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--output", str(out1)]) == 0
    assert main([*args, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["--rep", "character", "--N", "8", "--freqs", "1,x", "--vector", "1,0"],
    ["--rep", "gabor", "--lattice", "4,x,2", "--vector", "1,0,0,0"],
    ["--rep", "character", "--N", "0", "--freqs", "1", "--vector", "1"],
])
def test_unparseable_list_flags_exit_2(capsys, argv):
    assert main(["classify", *argv]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [{"n": "abc"}, {"n": 2.5}, {"jobs": True},
                                       {"pair": "nonsense"}, {"func": "x"}, ["n"],
                                       {"rank_tol": float("nan")}, {"pair_tol": 0},
                                       {"flag_tol": float("inf")}])
def test_config_values_type_checked_exit_2(tmp_path, capsys, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code = main(["sweep", "--pair", "regular", "--group", "Z4", "--config", str(cfg)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("flag, argv", [
    ("--rank-tol", ["classify", "--group", "Z4", "--vector", "1,0,0,0"]),
    ("--flag-tol", ["sweep", "--group", "Z4", "--n", "4"]),
    ("--pair-tol", ["certify-pair", "--group", "Z4"]),
    ("--route-tol", ["dilate", "--group", "Z8", "--vector", "1,1,0,0,0,0,0,0"]),
    ("--unit-tol", ["validate", "--multiplier", "heisenberg", "--N", "4"]),
    ("--rep-tol", ["validate", "--multiplier", "heisenberg", "--N", "4"]),
])
def test_tolerances_must_be_finite_and_positive_exit_2(capsys, flag, argv, value):
    assert main([*argv, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "must be finite and > 0" in captured.err


def test_unreadable_config_exit_2(tmp_path, capsys):
    code = main(["sweep", "--pair", "regular", "--group", "Z4", "--config", str(tmp_path)])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_projective_custom_bundle_exit_2(tmp_path, capsys):
    from framedual import left_regular, trivial_multiplier

    g = cyclic_group(3)
    bundle = serialize.rep_to_json(left_regular(g, trivial_multiplier(g)))
    # pi(1) becomes the transposition (0 1): unitary, but pi(1) pi(1) is no
    # scalar multiple of pi(2)
    swap = np.eye(3)[[1, 0, 2]]
    bundle["matrices"][1] = serialize.matrix_to_json(swap)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    assert main(["commutant", "--rep", "custom", "--rep-json", str(bad)]) == 2
    assert main(["certify-pair", "--pair", "custom", "--pi-json", str(bad),
                 "--sigma-json", str(bad)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # validate still reports the failing bundle as an inconsistency
    code, text = run(tmp_path, "validate", "--rep-json", str(bad))
    assert code == 1
    assert json.loads(text)["result"]["representation"]["passed"] is False


def test_negative_draw_count_exit_2(capsys):
    assert main(["sweep", "--pair", "regular", "--group", "Z4", "--n", "-3"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_negative_search_count_exit_2(capsys):
    assert main(["certify-pair", "--group", "Z4", "--n", "-3"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "search draws must be >= 0" in err
    assert main(["certify-pair", "--group", "Z4", "--n", "0"]) == 0


def test_negative_tries_count_exit_2(capsys):
    argv = ["dilate", "--rep", "regular", "--group", "Z8", "--vector", "1,1,0,0,0,0,0,0"]
    assert main([*argv, "--max-tries", "-1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "tries must be >= 0" in err
    # zero tries stays valid: a delta already generates a complete frame
    assert main(["dilate", "--rep", "regular", "--group", "Z8",
                 "--vector", "1,0,0,0,0,0,0,0", "--max-tries", "0"]) == 0


def test_exhausted_search_exit_4(capsys):
    # the orbit of (1, 1, 0, ...) spans a proper subspace, so zero tries
    # cannot complete it; more tries would, so this is no counterexample
    argv = ["dilate", "--rep", "regular", "--group", "Z8", "--vector", "1,1,0,0,0,0,0,0"]
    assert main([*argv, "--max-tries", "0"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "SearchExhaustedError: dilation failed after 0 tries" in err
    assert main(argv) == 0


def test_malformed_bundle_structure_exit_2(tmp_path, capsys):
    from framedual import left_regular, trivial_multiplier

    g = cyclic_group(3)
    bundle = serialize.rep_to_json(left_regular(g, trivial_multiplier(g)))
    bundle["matrices"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    assert main(["validate", "--rep-json", str(bad)]) == 2
    assert main(["classify", "--rep", "custom", "--rep-json", str(bad),
                 "--vector", "1,0,0"]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("cayley", [[[0, 1], [1, "a"]], [[0, 1], [1, None]],
                                    [[0, 1], [1]], [[0.0, 1.0], [1.0, 0.0]]])
def test_malformed_cayley_table_exit_2(tmp_path, capsys, cayley):
    table = tmp_path / "c.json"
    table.write_text(json.dumps({"cayley": cayley}))
    assert main(["classify", "--group", f"@{table}", "--vector", "1,0"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unexpected_exception_exit_3(monkeypatch, capsys):
    import framedual.cli as cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("a fault of the program")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", "--group", "Z2", "--vector", "1,0"]) == 3
    err = capsys.readouterr().err
    assert "ZeroDivisionError" in err and "internal error" in err


def test_main_builds_the_parser_once(monkeypatch, capsys):
    import framedual.cli as cli

    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in (["classify", "--group", "Z4", "--vector", "1,0,0,0"], ["--version"],
                 ["validate", "--multiplier", "heisenberg", "--N", "2"], ["no-such-command"]):
        main(argv)
    assert len(built) == 1


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 21, "n": 7}))
    sweep = ["sweep", "--pair", "regular", "--group", "Z4", "--n", "5", "--seed", "1"]
    calls = [
        [*sweep, "--config", str(cfg)],
        sweep,
        ["classify", "--rep", "nonsense", "--vector", "1"],
        ["--version"],
        ["validate", "--multiplier", "heisenberg", "--N", "3", "--unit-tol", "0"],
        ["validate", "--multiplier", "heisenberg", "--N", "3"],
        ["sweep", "--pair", "gabor", "--lattice", "6,1,2", "--n", "10", "--seed", "2",
         "--format", "csv"],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        in_process.append((code, capsys.readouterr().out))
    src = Path(__file__).resolve().parents[1] / "src"
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "framedual.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        fresh.append((done.returncode, done.stdout))
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 2, 0, 0]
    assert in_process[0] != in_process[1]  # the override applies to its own call only
    assert in_process == fresh
