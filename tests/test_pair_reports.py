"""verify-duality and gabor --window decide the pair by the certificate and
never form the group average; every report, certify-pair and sweep included,
is byte for byte the one of the subspace route that decided pairs before."""

import json

import pytest

import framedual.duality as duality_module
from framedual import cyclic_group, from_cayley_table, left_regular, serialize, trivial_multiplier
from framedual.cli import main
from framedual.duality import PairCertificate
from framedual.reps import ProjectiveRep
from conftest import dihedral_cayley
from test_certificate_reports import COMMANDS
from test_gather_reports import SWEEPS
from test_pair_certificate import subspace_is_commuting_pair


def subspace_pair_certificate(pi, sigma, tol=duality_module.PAIR_TOL):
    check = subspace_is_commuting_pair(pi, sigma, tol)
    return PairCertificate(check.is_pair, float("nan"), check.pi_commutant_dim,
                           check.sigma_algebra_dim)


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Custom bundles: lambda_D3 (no partner of itself) and lambda_Z3."""
    out = tmp_path_factory.mktemp("bundles")
    paths = {}
    for name, group in (("D3", from_cayley_table(dihedral_cayley(3), label="D3")),
                        ("Z3", cyclic_group(3))):
        paths[name] = out / f"{name}.json"
        rep = left_regular(group, trivial_multiplier(group))
        paths[name].write_text(json.dumps(serialize.rep_to_json(rep)))
    return paths


WINDOW = "1,0.5j,-1,2,0,1,0.25,-0.5j"
DECIDING = {
    "verify-Z6": ["verify-duality", "--group", "Z6", "--vector", "1,2j,0,-1,0.5,3"],
    "verify-heisenberg3": ["verify-duality", "--group", "Z3xZ3", "--multiplier", "heisenberg",
                           "--vector", "1,0,2j,-1,0.5,0,1,1j,-2"],
    "verify-gabor8": ["verify-duality", "--pair", "gabor", "--lattice", "8,2,2",
                      "--vector", WINDOW],
    "gabor-window": ["gabor", "--lattice", "8,2,2", "--window", WINDOW],
    "gabor-zak": COMMANDS["gabor-zak"],
    "verify-custom-Z3": ["verify-duality", "--pair", "custom", "--pi-json", "{Z3}",
                         "--sigma-json", "{Z3}", "--vector", "1,2,3j"],
    "verify-custom-D3": ["verify-duality", "--pair", "custom", "--pi-json", "{D3}",
                         "--sigma-json", "{D3}", "--vector", "1,2,3j,0,1,-1"],
}
CERTIFYING = {
    **{name: argv for name, argv in COMMANDS.items() if name.startswith("certify")},
    "certify-heisenberg3": ["certify-pair", "--group", "Z3xZ3", "--multiplier", "heisenberg",
                            "--n", "10"],
    "certify-custom-D3": ["certify-pair", "--pair", "custom", "--pi-json", "{D3}",
                          "--sigma-json", "{D3}", "--n", "5"],
    **SWEEPS,
}


def resolved(argv, bundles):
    return [arg.format(**{name: str(path) for name, path in bundles.items()}) for arg in argv]


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", DECIDING)
def test_deciding_commands_form_no_group_average(monkeypatch, capsys, bundles, name):
    argv = resolved(DECIDING[name], bundles)
    formed = []
    for method in ("group_average", "algebra"):
        original = getattr(ProjectiveRep, method)

        def spy(self, *args, _original=original, _method=method, **kwargs):
            formed.append(_method)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(ProjectiveRep, method, spy)
    code, report = run(capsys, argv)
    assert formed == []
    assert code == (2 if name == "verify-custom-D3" else 0)
    with monkeypatch.context() as m:
        m.setattr(duality_module, "pair_certificate", subspace_pair_certificate)
        old_code, old_report = run(capsys, argv)
    assert "group_average" in formed  # the spy sees the subspace route
    assert (code, report) == (old_code, old_report)


@pytest.mark.parametrize("name", CERTIFYING)
def test_certify_and_sweep_reports_match_the_subspace_route(monkeypatch, capsys, bundles, name):
    argv = resolved(CERTIFYING[name], bundles)
    code, report = run(capsys, argv)
    assert report.startswith("{")
    assert code == (1 if name in ("certify-custom-D3", "flag-tol-2") else 0)
    with monkeypatch.context() as m:
        m.setattr(duality_module, "is_commuting_pair", subspace_is_commuting_pair)
        m.setattr(duality_module, "pair_certificate",
                  lambda pi, sigma, tol: pytest.fail("the certificate ran"))
        old_code, old_report = run(capsys, argv)
    assert (code, report) == (old_code, old_report)
