"""The wire keys of every report kind, pinned.

Reports are written by serialize.report_to_json from dataclass fields, so a
renamed field would silently rename a report key; these key sets catch that.
"""

import json

import pytest

from framedual import cyclic_group, left_regular, serialize, trivial_multiplier
from framedual.cli import main

CLASSIFICATION = {"orbit_span_dim", "lower_bound", "upper_bound", "is_complete_frame",
                  "is_frame_sequence", "is_parseval", "is_riesz_sequence", "is_orthonormal",
                  "rank_tolerance", "flag_tolerance"}
META = {"tool", "version", "command", "seed", "tolerances", "config"}


def under(prefix: str, keys) -> set:
    return {prefix} | {f"{prefix}.{key}" for key in keys}


VERDICT = ({"vector", "theorem_consistent"}
           | under("pi", CLASSIFICATION) | under("sigma", CLASSIFICATION)
           | under("clauses", ("frame_sequence", "frame_riesz", "parseval_orthonormal")))
SWEEP = {"pair", "seed", "clauses", "n_random", "n_adversarial", "n_skipped", "n_consistent",
         "n_inconsistent", "feasible", "commuting_residual", "parseval_gram_defect",
         "rank_tolerance", "flag_tolerance", "counterexamples"}


def key_paths(doc, prefix: str = "") -> set:
    """Every object key of a document as a dotted path; list items add []."""
    out = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            out |= {path} | key_paths(value, path)
    elif isinstance(doc, list):
        for item in doc:
            out |= key_paths(item, prefix + "[]")
    return out


CASES = {
    "classify": (["classify", "--group", "Z4", "--vector", "1,0,0,0"], 0,
                 {"representation"} | under("classification", CLASSIFICATION)),
    "validate-multiplier": (
        ["validate", "--multiplier", "heisenberg", "--N", "3"], 0,
        under("group", ("label", "order")) | under("multiplier", (
            "passed", "unit_modulus_ok", "normalization_ok", "cocycle_ok",
            "inverse_symmetry_ok", "max_residual", "counterexample", "tolerance"))),
    "validate-rep": (
        ["validate", "--rep-json", "{bundle}"], 0,
        under("representation", ("passed", "unitarity_residual", "identity_residual",
                                 "composition_residual", "worst_pair", "tolerance"))),
    "certify-pair": (
        ["certify-pair", "--group", "Z4", "--n", "5"], 0,
        {"pair"} | under("report", (
            "frame_vector", "frame_vector_sigma_bessel", "parseval_frame_vector",
            "riesz_vector", "feasible", "infeasibility", "notes", "seed", "n_samples"))
        | under("report.commuting", ("is_pair", "residual", "pi_commutant_dim",
                                     "sigma_algebra_dim"))),
    "verify-duality": (["verify-duality", "--group", "Z4", "--vector", "1,0,0,0"], 0,
                       {"pair"} | under("verdict", VERDICT)),
    "dilate": (["dilate", "--group", "Z4", "--vector", "1,1,0,0"], 0,
               {"representation", "method"}
               | under("dilation", ("h", "vector", "mode", "tries"))),
    "gabor-window-zak": (
        ["gabor", "--lattice", "4,2,2", "--window", "1,0,0,0", "--zak"], 0,
        {"lattice", "adjoint", "group_order", "adjoint_group_order", "pair"}
        | under("window_verdict", VERDICT) | under("zak", ("rows", "cols", "entries"))),
    # a flag tolerance this loose breaks the Parseval clause: counterexamples
    "sweep-counterexamples": (
        ["sweep", "--group", "Z4", "--n", "10", "--flag-tol", "2.0"], 1,
        SWEEP | {"counterexamples[].source", "counterexamples[].vector"}
        | under("counterexamples[].verdict", VERDICT)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_report_wire_keys(kind, tmp_path):
    argv, code, keys = CASES[kind]
    bundle = tmp_path / "bundle.json"
    group = cyclic_group(3)
    bundle.write_text(json.dumps(serialize.rep_to_json(left_regular(group,
                                                                    trivial_multiplier(group)))))
    out = tmp_path / "report.json"
    argv = [arg.replace("{bundle}", str(bundle)) for arg in argv]
    assert main([*argv, "--output", str(out)]) == code
    doc = json.loads(out.read_text())
    assert set(doc) == {"meta", "result"}
    assert set(doc["meta"]) == META
    assert key_paths(doc["result"]) == keys
