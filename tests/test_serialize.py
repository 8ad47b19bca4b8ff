"""JSON wire-format round trips and spec parsing."""

import numpy as np
import pytest

from framedual import (
    GaborLattice,
    InvalidParameterError,
    cyclic_group,
    duality_sweep,
    heisenberg_multiplier,
    left_regular,
    make_regular_pair,
    trivial_multiplier,
)
from framedual import serialize
from framedual.linalg import random_complex_vector, substream


def test_matrix_round_trip():
    rng = substream(211, 0)
    m = random_complex_vector(rng, 12).reshape(3, 4)
    doc = serialize.matrix_to_json(m)
    assert doc["rows"] == 3 and doc["cols"] == 4
    np.testing.assert_allclose(serialize.matrix_from_json(doc), m)


def test_matrix_from_json_validates_length():
    with pytest.raises(InvalidParameterError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_vector_round_trip_and_plain_numbers():
    v = np.array([1 + 2j, -0.5, 3j])
    doc = serialize.vector_to_json(v)
    np.testing.assert_allclose(serialize.vector_from_json(doc), v)
    np.testing.assert_allclose(serialize.vector_from_json([1, 0, 2]), [1, 0, 2])


def test_group_round_trip():
    g = cyclic_group(6)
    doc = serialize.group_to_json(g)
    back = serialize.group_from_json(doc)
    assert back == g and back.label == "Z6"


def test_group_from_json_validates():
    with pytest.raises(InvalidParameterError):
        serialize.group_from_json({"cayley": [[0, 0], [0, 0]]})


def test_multiplier_round_trip():
    mu = heisenberg_multiplier(3)
    doc = serialize.multiplier_to_json(mu)
    back = serialize.multiplier_from_json(mu.group, doc)
    np.testing.assert_allclose(back.table, mu.table)


def test_rep_round_trip():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    doc = serialize.rep_to_json(lam)
    back = serialize.rep_from_json(doc)
    assert back.group == lam.group
    np.testing.assert_allclose(back.matrices, lam.matrices)
    np.testing.assert_allclose(back.multiplier.table, lam.multiplier.table)


def test_parse_group_spec_labels():
    assert serialize.parse_group_spec("Z12").order == 12
    g = serialize.parse_group_spec("Z2xZ4")
    assert g.order == 8 and g.label == "Z2xZ4"
    with pytest.raises(InvalidParameterError):
        serialize.parse_group_spec("S3")


def test_parse_multiplier_spec():
    g = serialize.parse_group_spec("Z3xZ3")
    mu = serialize.parse_multiplier_spec(g, "heisenberg")
    np.testing.assert_allclose(mu.table, heisenberg_multiplier(3).table)
    with pytest.raises(InvalidParameterError):
        serialize.parse_multiplier_spec(cyclic_group(6), "heisenberg")
    with pytest.raises(InvalidParameterError):
        serialize.parse_multiplier_spec(cyclic_group(6), "unknown")


def test_parse_lattice_spec():
    assert serialize.parse_lattice_spec("12,3,2") == GaborLattice(12, 3, 2)
    assert serialize.parse_lattice_spec([4, 1, 2]) == GaborLattice(4, 1, 2)
    with pytest.raises(InvalidParameterError):
        serialize.parse_lattice_spec("12,3")


def test_resolve_pair_spec_regular_and_gabor():
    pi, sigma, label = serialize.resolve_pair_spec(
        {"kind": "regular", "group": "Z4", "multiplier": "trivial"})
    assert pi.dim == sigma.dim == 4
    assert "regular[Z4" in label
    pi, sigma, label = serialize.resolve_pair_spec(
        {"kind": "gabor", "lattice": [6, 1, 2]})
    assert pi.dim == 6
    assert "adjoint" in label


def test_resolve_rep_spec_kinds():
    rep = serialize.resolve_rep_spec({"kind": "regular", "group": "Z4",
                                      "multiplier": "trivial", "side": "right"})
    assert rep.label.startswith("rho")
    rep = serialize.resolve_rep_spec({"kind": "character", "n": 4, "freqs": [0, 2]})
    assert rep.dim == 2
    rep = serialize.resolve_rep_spec({"kind": "gabor", "lattice": "4,1,2"})
    assert rep.group.order == 8


def test_sweep_report_round_trip_through_json():
    g = cyclic_group(4)
    lam, rho = make_regular_pair(g, trivial_multiplier(g))
    report = duality_sweep(lam, rho, n_vectors=5, seed=1)
    doc = serialize.report_to_json(report)
    assert doc["n_inconsistent"] == 0
    assert doc["clauses"] == ["frame_sequence", "frame_riesz", "parseval_orthonormal"]
    rows = serialize.sweep_report_to_csv_rows(report)
    assert rows[0] == ["pair", "n", "failures", "worst_residual"]
    assert rows[1][2] == 0


def test_sweep_counterexample_dump_format():
    # exercise the dump path with a hand-built inconsistent verdict (honest
    # dual pairs never produce one)
    import dataclasses

    from framedual import classify, verify_duality
    from framedual.duality import SweepCounterexample

    g = cyclic_group(4)
    lam, rho = make_regular_pair(g, trivial_multiplier(g))
    vec = np.ones(4) / 2.0
    verdict = verify_duality(lam, rho, vec)
    broken = dataclasses.replace(verdict, theorem_consistent=False,
                                 clause_results={"frame_riesz": False})
    report = duality_sweep(lam, rho, n_vectors=3, seed=2)
    report = dataclasses.replace(
        report, n_inconsistent=1,
        counterexamples=[SweepCounterexample("forced", vec, broken)])
    doc = serialize.report_to_json(report)
    assert doc["counterexamples"][0]["source"] == "forced"
    assert doc["counterexamples"][0]["verdict"]["clauses"] == {"frame_riesz": False}
    assert serialize.vector_from_json(
        doc["counterexamples"][0]["vector"]).tolist() == vec.astype(complex).tolist()
    assert classify(lam, vec).is_frame_sequence  # sanity on the carrier vector
