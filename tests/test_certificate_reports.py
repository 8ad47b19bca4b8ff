"""Reports of built-in constructions do not depend on whether the generator
certificate or the exhaustive check accepted the representation, nor on
whether validate read its report from the exponents or scanned the table."""

import pytest

import framedual.groups as groups_module
import framedual.reps as reps_module
from framedual.cli import main

COMMANDS = {
    "classify-Z64": ["classify", "--group", "Z64", "--vector", "1,2j,-1" + ",0.5" * 61],
    "classify-Z128": ["classify", "--group", "Z128", "--vector", "1,0,1j" + ",-0.25" * 125],
    "classify-heisenberg8": ["classify", "--group", "Z8xZ8", "--multiplier", "heisenberg",
                             "--vector", "2,1j" + ",0.5,-1" * 31],
    "classify-gabor16": ["classify", "--rep", "gabor", "--lattice", "16,1,1",
                         "--vector", "1,0.5j" + ",0.25" * 14],
    "classify-gabor24": ["classify", "--rep", "gabor", "--lattice", "24,2,2",
                         "--vector", "1,-1j" + ",0.5,0" * 11],
    "classify-gabor32": ["classify", "--rep", "gabor", "--lattice", "32,2,2",
                         "--vector", "1,1,2j" + ",0.5" * 29],
    "gabor-zak": ["gabor", "--lattice", "12,3,2", "--window", "1,2,0,1j,0,1,1,0,-1,0,0.5,1",
                  "--zak"],
    "certify-gabor": ["certify-pair", "--pair", "gabor", "--lattice", "12,3,2"],
    "certify-Z12": ["certify-pair", "--group", "Z12", "--n", "20"],
    "validate-heisenberg": ["validate", "--multiplier", "heisenberg", "--N", "12"],
    "dilate-Z8": ["dilate", "--group", "Z8", "--vector", "1,1,0,0,0,0,0,0"],
    "dilate-Z8-parseval": ["dilate", "--group", "Z8", "--vector", "1,1j,0,0,1,0,0,0",
                           "--mode", "parseval", "--seed", "3"],
}


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", COMMANDS)
def test_report_bytes_match_the_exhaustive_route(monkeypatch, capsys, name):
    argv = COMMANDS[name]
    fallbacks, scans = [], []
    validate = reps_module.validate_multiplier
    residuals = groups_module._cocycle_residuals

    def counted(mu):
        fallbacks.append(mu)
        return validate(mu)

    def scanned(t, cay, g1):
        scans.append(g1)
        return residuals(t, cay, g1)

    monkeypatch.setattr(reps_module, "validate_multiplier", counted)
    monkeypatch.setattr(groups_module, "_cocycle_residuals", scanned)
    code, report = run(capsys, argv)
    # every built-in construction took the certificate, and validate its
    # report from the exponents
    assert fallbacks == [] and scans == []
    with monkeypatch.context() as m:
        m.setattr(reps_module, "certify_multiplier", lambda mu: False)
        m.setattr(groups_module, "_homomorphic_exponents", lambda mu: None)
        full_code, full_report = run(capsys, argv)
    # the forced route ran the exhaustive check, over the dense table
    assert (fallbacks or argv[0] == "validate") and scans
    assert code == full_code == 0
    assert report == full_report and report.startswith("{")
