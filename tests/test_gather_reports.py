"""Sweep reports do not depend on whether the rank certificate of the flags
ran on orbits gathered as phase * x[perm] or on the dense orbits pi(g) x."""

import pytest

import framedual.frames as frames_module
from framedual.cli import main

SWEEPS = {
    # the five calls of a sweep-bulk round at seed 1
    "bulk-Z8": ["sweep", "--pair", "regular", "--group", "Z8", "--multiplier", "trivial",
                "--n", "3000", "--seed", "1", "--jobs", "1"],
    "bulk-heisenberg3": ["sweep", "--pair", "regular", "--group", "Z3xZ3",
                         "--multiplier", "heisenberg", "--n", "3000", "--seed", "1",
                         "--jobs", "1"],
    "bulk-gabor8": ["sweep", "--pair", "gabor", "--lattice", "8,2,2", "--n", "3000",
                    "--seed", "1", "--jobs", "1"],
    "bulk-gabor12": ["sweep", "--pair", "gabor", "--lattice", "12,3,2", "--n", "3000",
                     "--seed", "1", "--jobs", "1"],
    "bulk-Z8-jobs2": ["sweep", "--pair", "regular", "--group", "Z8", "--multiplier", "trivial",
                      "--n", "2000", "--seed", "1", "--jobs", "2"],
    "Z2xZ6": ["sweep", "--pair", "regular", "--group", "Z2xZ6", "--multiplier", "trivial",
              "--n", "300", "--seed", "4"],
    "heisenberg4": ["sweep", "--pair", "regular", "--group", "Z4xZ4",
                    "--multiplier", "heisenberg", "--n", "300", "--seed", "4"],
    "gabor16": ["sweep", "--pair", "gabor", "--lattice", "16,2,2", "--n", "300", "--seed", "4"],
    # a flag tolerance this loose breaks the Parseval clause: counterexamples
    "flag-tol-2": ["sweep", "--pair", "regular", "--group", "Z4", "--multiplier", "trivial",
                   "--n", "300", "--seed", "4", "--flag-tol", "2.0"],
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_bytes_match_the_dense_route(monkeypatch, capsys, name):
    argv = SWEEPS[name]
    gathered = []
    gather = frames_module._gathered_orbits

    def counted(rep, block, out):
        gathered.append(len(block))
        return gather(rep, block, out)

    monkeypatch.setattr(frames_module, "_gathered_orbits", counted)
    code, report = run(capsys, argv)
    assert gathered  # the certificate ran on gathered orbits
    with monkeypatch.context() as m:
        m.setattr(frames_module, "_gathered_orbits",
                  lambda rep, block, out: frames_module._orbits(rep.matrices, block))
        dense_code, dense_report = run(capsys, argv)
    assert code == dense_code == (1 if name == "flag-tol-2" else 0)
    assert report == dense_report and report.startswith("{")
