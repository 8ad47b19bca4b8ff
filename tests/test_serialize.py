"""JSON wire-format round trips and spec parsing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_heisenberg_multiplier_lives_on_the_callers_group():
    g = serialize.parse_group_spec("Z3xZ3")
    mu = serialize.parse_multiplier_spec(g, "heisenberg")
    assert mu.group is g
    assert mu.table.tobytes() == heisenberg_multiplier(3).table.tobytes()


def test_a_heisenberg_pair_computes_its_generating_set_once(monkeypatch, capsys):
    import framedual.groups as groups_module
    from framedual.cli import main
    calls = []
    word_depths = groups_module._word_depths

    def counted(*args):
        calls.append(args)
        return word_depths(*args)

    monkeypatch.setattr(groups_module, "_word_depths", counted)
    assert main(["certify-pair", "--group", "Z4xZ4", "--multiplier", "heisenberg"]) == 0
    # three breadth-first searches find {1, 2, 4, 8} on one group (six when
    # the cocycle kept a group of its own)
    assert len(calls) == 3


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


@pytest.mark.parametrize("resolve, doc, message", [
    # an unknown kind
    (serialize.resolve_rep_spec, {"kind": "spiral"}, "unknown kind"),
    (serialize.resolve_pair_spec, {"kind": "character", "n": 4, "freqs": [0]}, "unknown kind"),
    # a field the kind does not read
    (serialize.resolve_rep_spec, {"kind": "gabor", "lattice": "8,2,2", "group": "Z9"},
     "does not read group"),
    (serialize.resolve_pair_spec, {"kind": "gabor", "lattice": "8,2,2", "group": "Z9"},
     "does not read group"),
    (serialize.resolve_rep_spec, {"group": "Z4", "lattice": "8,2,2"}, "does not read lattice"),
    (serialize.resolve_pair_spec, {"kind": "regular", "side": "right"}, "does not read side"),
    # a missing required field
    (serialize.resolve_rep_spec, {"kind": "gabor"}, "needs lattice"),
    (serialize.resolve_rep_spec, {"kind": "character", "n": 4}, "needs freqs"),
    (serialize.resolve_pair_spec, {"kind": "custom", "pi": {}}, "needs sigma"),
    # an unparseable field
    (serialize.resolve_rep_spec, {"kind": "character", "n": "x", "freqs": [0]}, "cannot parse n"),
    (serialize.resolve_rep_spec, {"kind": "character", "n": 4, "freqs": "1,x"},
     "cannot parse freqs"),
    (serialize.resolve_rep_spec, {"kind": "character", "n": 4, "freqs": 5}, "cannot parse freqs"),
    (serialize.resolve_pair_spec, {"kind": "gabor", "lattice": 8}, "cannot parse lattice"),
    (serialize.resolve_rep_spec, {"kind": "regular", "side": "up"}, "unknown side"),
    (serialize.resolve_pair_spec, ["regular"], "must be a JSON object"),
])
def test_spec_documents_are_read_through_the_kind_tables(resolve, doc, message):
    with pytest.raises(InvalidParameterError, match=message):
        resolve(doc)


def test_spec_defaults_come_from_the_kind_tables():
    assert serialize.spec_fields(serialize.REP_KINDS, {}) == (
        "regular", {"group": "Z4", "multiplier": "trivial", "side": "left"})
    _, _, label = serialize.resolve_pair_spec({})
    assert label == "regular[Z4,trivial]"
    assert serialize.resolve_rep_spec({"kind": "character", "n": "4", "freqs": "0,2"}).dim == 2


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


# JSON numbers: floats with signed zeros, infinities and NaN, ints inside and
# past int64 (but inside float range), and bools
json_numbers = (st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([0.0, -0.0, 2**63, 2**63 + 1, 2**64 - 1, 2**70 + 3, -2**63])
                | st.integers(-2**53, 2**53) | st.booleans())
json_pairs = st.lists(json_numbers, min_size=2, max_size=2)


def per_entry(items, ndim):
    """The entry-by-entry reader: pair_to_complex on every item."""
    if ndim == 0:
        return serialize.pair_to_complex(items)
    return [per_entry(item, ndim - 1) for item in items]


def assert_bit_equal(decoded, items, ndim):
    expected = np.array(per_entry(items, ndim), dtype=complex)
    assert decoded.shape == expected.shape
    assert np.array_equal(decoded.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.lists(json_pairs, max_size=12) | st.lists(json_numbers, max_size=12)
       | st.lists(json_pairs | json_numbers, max_size=12))
def test_vectors_decode_bit_for_bit_as_entry_by_entry(items):
    assert_bit_equal(serialize.vector_from_json(items), items, 1)
    doc = {"rows": 1, "cols": len(items), "entries": items}
    assert_bit_equal(serialize.matrix_from_json(doc), [items], 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(json_pairs, min_size=n, max_size=n), min_size=n, max_size=n)
    | st.lists(st.lists(json_numbers, min_size=n, max_size=n), min_size=n, max_size=n)
    | st.lists(st.lists(json_pairs | json_numbers, min_size=n, max_size=n),
               min_size=n, max_size=n))))
def test_multiplier_tables_decode_bit_for_bit_as_entry_by_entry(drawn):
    n, table = drawn
    mu = serialize.multiplier_from_json(cyclic_group(n), {"table": table})
    assert_bit_equal(mu.table, table, 2)


def test_signed_zeros_survive_the_bulk_decode():
    v = serialize.vector_from_json([[-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0]])
    assert np.signbit(v.real).tolist() == [True, False, True]
    assert np.signbit(v.imag).tolist() == [True, True, False]


@pytest.mark.parametrize("items", [[[1, 2], [3]], [[1, 2, 3]], [[[1, 2]]], [["a", 1]],
                                   [None], "12", 5, {"a": [1, 0]}])
def test_malformed_vectors_still_raise(items):
    with pytest.raises(InvalidParameterError):
        serialize.vector_from_json(items)


@pytest.mark.parametrize("entry", [[10**400, 0], [0, -10**400], 10**400])
def test_integers_past_float_range_are_malformed(entry):
    with pytest.raises(InvalidParameterError, match="OverflowError"):
        serialize.vector_from_json([[1, 0], entry])
    with pytest.raises(InvalidParameterError, match="OverflowError"):
        serialize.matrix_from_json({"rows": 1, "cols": 2, "entries": [entry, [1, 0]]})
    with pytest.raises(InvalidParameterError, match="OverflowError"):
        serialize.multiplier_from_json(cyclic_group(1), {"table": [[entry]]})
    json.dumps(entry)  # a document json can carry
