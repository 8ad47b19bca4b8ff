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


def test_key_error_is_a_program_fault_exit_3(monkeypatch, capsys):
    # no input path raises KeyError, so one is a fault of the program
    import framedual.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", "--group", "Z2", "--vector", "1,0"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'missing'" in err and "internal error" in err


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_validate_bundle_with_non_finite_entry(tmp_path, bad):
    from framedual import left_regular, trivial_multiplier

    g = cyclic_group(3)
    bundle = serialize.rep_to_json(left_regular(g, trivial_multiplier(g)))
    bundle["matrices"][1]["entries"][0] = [bad, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bundle))
    code, text = run(tmp_path, "validate", "--rep-json", str(path))
    assert code == 1

    def reject(token):
        raise AssertionError(f"{token} in a report")

    doc = json.loads(text, parse_constant=reject)["result"]["representation"]
    assert doc["passed"] is False
    assert doc["worst_pair"] is not None


# The tolerances each subcommand's handler passes to the library, whether it
# draws random vectors (takes --seed), and a call of it that exits 0.
FLAG_SURFACE = {
    "validate": ({"unit_tol", "rep_tol"}, False, ["--multiplier", "heisenberg", "--N", "2"]),
    "classify": ({"rank_tol", "flag_tol"}, False, ["--group", "Z2", "--vector", "1,0"]),
    "commutant": ({"rank_tol"}, False, ["--group", "Z2"]),
    "certify-pair": ({"rank_tol", "flag_tol", "pair_tol"}, True, ["--group", "Z2", "--n", "2"]),
    "verify-duality": ({"rank_tol", "flag_tol", "pair_tol"}, False,
                       ["--group", "Z2", "--vector", "1,0"]),
    "sweep": ({"rank_tol", "flag_tol", "pair_tol"}, True, ["--group", "Z2", "--n", "2"]),
    "dilate": ({"rank_tol", "flag_tol", "route_tol"}, True, ["--group", "Z2", "--vector", "1,0"]),
    "gabor": ({"rank_tol", "flag_tol", "pair_tol"}, False,
              ["--lattice", "4,2,2", "--window", "1,0,0,0"]),
}
ALL_TOLERANCES = ("rank_tol", "flag_tol", "pair_tol", "route_tol", "unit_tol", "rep_tol")


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_each_subcommand_takes_the_flags_it_reads(tmp_path, capsys, command):
    tolerances, seeded, argv = FLAG_SURFACE[command]
    for name in ALL_TOLERANCES:
        flag = "--" + name.replace("_", "-")
        assert main([command, *argv, flag, "1e-9"]) == (0 if name in tolerances else 2), flag
    assert main([command, *argv, "--seed", "3"]) == (0 if seeded else 2)
    assert "Traceback" not in capsys.readouterr().err
    code, text = run(tmp_path, command, *argv)
    assert code == 0
    meta = json.loads(text)["meta"]
    assert set(meta["tolerances"]) == tolerances
    assert meta["seed"] == (0 if seeded else None)


@pytest.mark.parametrize("command, flag, value", [
    ("validate", "--route-tol", "5"),
    ("commutant", "--flag-tol", "0.5"),
    ("classify", "--seed", "3"),
    ("gabor", "--route-tol", "1e-5"),
    ("verify-duality", "--seed", "1"),
])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, command, flag, value):
    argv = [command, *FLAG_SURFACE[command][2]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): json.loads(value)}))
    for extra in ([flag, value], ["--config", str(cfg)]):
        assert main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


# The kind flags each --rep / --pair kind reads; every other kind flag of the
# subcommand is one the kind would ignore.
KIND_READS = {
    "rep": {"regular": {"group", "multiplier", "side"}, "gabor": {"lattice"},
            "character": {"N", "freqs"}, "custom": {"rep_json"}},
    "pair": {"regular": {"group", "multiplier"}, "gabor": {"lattice"},
             "custom": {"pi_json", "sigma_json"}},
}
# Subcommand: (--rep or --pair, arguments that make the call exit 0).
KIND_COMMANDS = {
    "classify": ("rep", ["--vector", "1,2,3,4"]),
    "commutant": ("rep", []),
    "dilate": ("rep", ["--vector", "1,2,3,4"]),
    "certify-pair": ("pair", ["--n", "2"]),
    "verify-duality": ("pair", ["--vector", "1,2,3,4"]),
    "sweep": ("pair", ["--n", "2"]),
}
# A value of each kind flag that builds a 4-dimensional representation.
KIND_VALUES = {"group": "Z4", "multiplier": "trivial", "side": "right", "lattice": "4,2,2",
               "N": 4, "freqs": "0,1,2,3", "rep_json": "{left}", "pi_json": "{left}",
               "sigma_json": "{right}"}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    from framedual import left_regular, right_regular, trivial_multiplier

    g = cyclic_group(4)
    out = {}
    for side, build in (("left", left_regular), ("right", right_regular)):
        path = tmp_path_factory.mktemp("bundles") / f"{side}.json"
        path.write_text(json.dumps(serialize.rep_to_json(build(g, trivial_multiplier(g)))))
        out["{" + side + "}"] = str(path)
    return out


@pytest.mark.parametrize("command, kind, dest", [
    (command, kind, dest)
    for command, (selector, _) in KIND_COMMANDS.items()
    for kind in KIND_READS[selector]
    for dest in sorted(set().union(*KIND_READS[selector].values()))
])
def test_kind_flags_exit_2_unless_the_kind_reads_them(tmp_path, capsys, bundles,
                                                     command, kind, dest):
    selector, extra = KIND_COMMANDS[command]
    reads = KIND_READS[selector][kind]

    def value_of(name):
        return bundles.get(KIND_VALUES[name], KIND_VALUES[name])

    # the flags the kind requires besides the one under test; regular has defaults
    required = [] if kind == "regular" else [
        arg for other in sorted(reads - {dest})
        for arg in ("--" + other.replace("_", "-"), str(value_of(other)))]
    argv = [command, f"--{selector}", kind, *required, *extra]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: value_of(dest)}))
    out = tmp_path / "report.json"
    for given in (["--" + dest.replace("_", "-"), str(value_of(dest))], ["--config", str(cfg)]):
        out.unlink(missing_ok=True)
        code = main([*argv, *given, "--output", str(out)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        if dest not in reads:
            assert code == 2 and not out.exists(), given
            continue
        assert code == 0, given
        # the echo names the kind and the flags it reads, at their effective values
        config = json.loads(out.read_text())["meta"]["config"]
        assert config[selector] == kind and config[dest] == value_of(dest)
        assert set(config) & set().union(*KIND_READS[selector].values()) == reads


@pytest.mark.parametrize("argv, conflict", [
    (["classify", "--group", "Z2", "--vector", "1,0"], {"format": "json"}),
    (["validate", "--rep-json", "{left}"], {"multiplier": "trivial"}),
    (["validate", "--rep-json", "{left}"], {"group": "Z4"}),
    (["validate", "--rep-json", "{left}"], {"N": 4}),
    (["validate", "--group", "Z3"], {"N": 3}),
])
def test_flags_that_would_go_unread_exit_2(tmp_path, capsys, bundles, argv, conflict):
    argv = [bundles.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    (key, value), = conflict.items()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(conflict))
    for given in (["--" + key, str(value)], ["--config", str(cfg)]):
        assert main([*argv, *given]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "Z4", "--vector", "1e160,0,0,0"],
    ["verify-duality", "--group", "Z4", "--vector", "1e160,0,0,0"],
    ["gabor", "--lattice", "4,2,2", "--window", "1e160,0,0,0"],
    ["dilate", "--group", "Z4", "--vector", "1e160,0,0,0"],
    ["dilate", "--group", "Z4", "--vector", "1e160,0,0,0", "--mode", "parseval"],
    # the orbit product itself overflows: a finite entry times a non-real phase
    ["classify", "--rep", "character", "--N", "8", "--freqs", "1,3",
     "--vector", "1.7e308+1.7e308j,1"],
])
def test_overflowing_orbit_exit_2_without_warnings(capsys, argv):
    # RuntimeWarnings are errors under this suite's settings, so a warning
    # on the way would end as an internal error (exit 3)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("framedual: invalid input: the orbit overflows, "
                            "or the vector is not finite\n")


@pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "infj"])
@pytest.mark.parametrize("argv", [
    ["classify", "--group", "Z4", "--vector"],
    ["verify-duality", "--group", "Z4", "--vector"],
    ["gabor", "--lattice", "4,2,2", "--window"],
    ["dilate", "--group", "Z4", "--vector"],
    ["dilate", "--group", "Z4", "--mode", "parseval", "--vector"],
])
def test_non_finite_vector_entry_exit_2(capsys, argv, entry):
    assert main([*argv, f"1,{entry},0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "framedual: invalid input: vector entries must be finite\n"
