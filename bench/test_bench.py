"""Fast tests of the benchmark's own parts: python3 -m pytest -q bench"""

import threading
from pathlib import Path

import numpy as np
import pytest

import oracle
import spans
from workloads import WORKLOADS, Spec


def _rank(m, tol=1e-9):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0


def _dims(mats):
    """(commutant, algebra, center) dimensions by plain linear algebra: the
    commutant is the null space of the stacked Sylvester maps, the algebra
    the span of the images, the center their intersection."""
    g, d, _ = mats.shape
    eye = np.eye(d)
    sylvester = np.vstack([np.kron(u, eye) - np.kron(eye, u.T) for u in mats])
    _, s, vh = np.linalg.svd(sylvester, full_matrices=False)
    commutant = vh[s <= 1e-9 * s[0]].conj()
    algebra = mats.reshape(g, d * d)
    dim_c, dim_a = commutant.shape[0], _rank(algebra)
    return dim_c, dim_a, dim_a + dim_c - _rank(np.vstack([algebra, commutant]))


CASES = [
    ("cyclic", (4,), None, (4, 4, 4)),
    ("cyclic", (6,), None, (6, 6, 6)),
    ("cyclic", (2, 4), None, (8, 8, 8)),
    ("heisenberg", (2, 2), 2, (4, 4, 1)),
    ("heisenberg", (3, 3), 3, (9, 9, 1)),
]


@pytest.mark.parametrize("kind,orders,n,expected", CASES)
def test_regular_oracle_matches_closed_forms(kind, orders, n, expected):
    cayley, inverse = oracle.cyclic_product(orders)
    size = cayley.shape[0]
    mu = oracle.heisenberg_cocycle(n) if n else oracle.trivial_cocycle(size)
    left = oracle.dense(lambda x: oracle.regular_orbit(cayley, inverse, mu, x, "left"), size)
    right = oracle.dense(lambda x: oracle.regular_orbit(cayley, inverse, mu, x, "right"), size)
    for g in range(size):
        for h in range(size):
            assert np.allclose(left[g] @ left[h], mu[g, h] * left[cayley[g, h]])
            assert np.allclose(left[g] @ right[h], right[h] @ left[g])
    assert _dims(left) == expected
    if kind == "heisenberg":
        assert oracle.closed_form_dims(kind, n) == expected
    else:
        assert oracle.closed_form_dims(kind, size) == expected


@pytest.mark.parametrize("lattice", [(8, 2, 2), (12, 3, 2), (12, 2, 3), (12, 4, 2), (6, 1, 3)])
def test_gabor_oracle_matches_closed_forms(lattice):
    n, a, b = lattice
    pi = oracle.dense(lambda x: oracle.gabor_orbit(n, a, b, x), n)
    adjoint = oracle.dense(lambda x: oracle.gabor_orbit(n, n // b, n // a, x), n)
    mu = oracle.gabor_cocycle(n, a, b)
    cayley, _ = oracle.cyclic_product((n // a, n // b))
    size = cayley.shape[0]
    for g in range(size):
        for h in range(size):
            assert np.allclose(pi[g] @ pi[h], mu[g, h] * pi[cayley[g, h]])
    for u in pi:
        for v in adjoint:
            assert np.allclose(u @ v, v @ u)
    assert _dims(pi) == oracle.closed_form_dims("gabor", n, a, b)


def test_full_lattice_orbit_is_tight():
    x = np.arange(1, 9) + 1j
    c = oracle.classification(oracle.gabor_orbit(8, 1, 1, x))
    tight = 8 * np.vdot(x, x).real
    assert c["is_complete_frame"] and abs(c["lower_bound"] - tight) < 1e-9 * tight
    assert abs(c["upper_bound"] - tight) < 1e-9 * tight


def test_zak_sum_is_unitary():
    x = np.random.default_rng(0).standard_normal(12) + 0j
    assert np.isclose(np.linalg.norm(oracle.zak(x, 3)), np.linalg.norm(x))


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),     # overlaps a, as two pool workers do
        _span("a1", 2.0, 3.0, 1),
        _span("c", 8.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    agg = spans.aggregate(tree + [_span("c", 9.0, 9.5, 0)])
    assert agg["root"]["self_s"] == pytest.approx(3.5)
    assert agg["c"] == pytest.approx({"calls": 2, "time_s": 1.5, "self_s": 1.5,
                                      "note_max": None})


def test_covered_clips_to_the_parent():
    assert spans.covered([(-1.0, 1.0), (0.5, 0.7), (2.0, 5.0)], 0.0, 3.0) == pytest.approx(2.0)


def test_tracer_links_worker_spans_to_the_waiting_span():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tracer.wrap("outer", outer)()
    by_name = [(s.name, s.parent) for s in tracer.spans]
    assert by_name == [("outer", None), ("inner", 0), ("inner", 0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    workload, out = WORKLOADS[name], Path("unused")
    first = [c.argv for c in workload.calls(5, out)]
    assert first == [c.argv for c in workload.calls(5, out)]
    assert first != [c.argv for c in workload.calls(6, out)]


def test_spec_flags_name_the_same_pair():
    assert Spec("heisenberg", 3).pair_args() == [
        "--pair", "regular", "--group", "Z3xZ3", "--multiplier", "heisenberg"]
    assert Spec("gabor", 12, 3, 2).doc() == {"kind": "gabor", "lattice": [12, 3, 2]}
