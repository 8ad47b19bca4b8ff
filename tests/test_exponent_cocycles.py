"""Cocycles stored by their integer exponents: the table looked up on first
read and each row without it, bit for bit the dense formulas, the exponent
certificate held against the exhaustive check, and validation reports from
the exponents byte for byte those of the dense scan."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    FrameDualError,
    GaborLattice,
    Multiplier,
    certify_multiplier,
    classify,
    cyclic_group,
    direct_product,
    from_cayley_table,
    gabor_rep,
    heisenberg_multiplier,
    left_regular,
    monomial_rep,
    right_regular,
    trivial_multiplier,
    validate_multiplier,
)
from framedual.groups import (
    _certify_exponents,
    _homomorphic_exponents,
    time_frequency_multiplier,
)
from framedual.linalg import random_complex_vector, substream
from framedual.serialize import report_to_json
from conftest import dihedral_cayley


def roots(n):
    return np.exp(-2j * np.pi * np.arange(n) / n)


def assert_bits(mu, dense):
    """Every row, read before and after the table, and the table carry the
    bits of the dense array (tobytes also sees the sign of a zero)."""
    dense = np.ascontiguousarray(dense)
    for g in range(mu.group.order):
        assert mu.row(g).tobytes() == dense[g].tobytes(), g
    assert mu.table.tobytes() == dense.tobytes()
    assert mu.table.flags.c_contiguous and not mu.table.flags.writeable
    for g in range(mu.group.order):
        assert mu.row(g).tobytes() == dense[g].tobytes(), g


def assert_right_regular_bits(mu):
    """right_regular's nu keeps the bits of mu.table[inv, inv].T."""
    inv = mu.group.inverse
    nu = right_regular(mu.group, mu).multiplier
    assert nu.modulus == mu.modulus
    assert_bits(nu, mu.table[np.ix_(inv, inv)].T)


GROUPS = {
    "Z1": lambda: cyclic_group(1),
    "Z7": lambda: cyclic_group(7),
    "Z4xZ6": lambda: direct_product(cyclic_group(4), cyclic_group(6)),
    "D5": lambda: from_cayley_table(dihedral_cayley(5)),
}


@pytest.mark.parametrize("name", GROUPS)
def test_trivial_multiplier_is_np_ones_bit_for_bit(name):
    group = GROUPS[name]()
    mu = trivial_multiplier(group)
    assert mu.modulus == 1
    assert_bits(mu, np.ones((group.order, group.order), dtype=complex))
    assert_right_regular_bits(trivial_multiplier(group))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_heisenberg_multiplier_is_the_root_lookup_bit_for_bit(n):
    m, k = np.divmod(np.arange(n * n), n)
    assert_bits(heisenberg_multiplier(n), roots(n)[np.outer(k, m) % n])
    assert_right_regular_bits(heisenberg_multiplier(n))


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 24))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return GaborLattice(n, draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors)))


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_gabor_cocycle_is_the_root_lookup_bit_for_bit(lattice):
    n, a, b = lattice.n, lattice.a, lattice.b
    qm, qt = n // a, n // b
    m, k = np.divmod(np.arange(qm * qt), qt)
    mu = gabor_rep(lattice).multiplier
    assert_bits(mu, roots(n)[np.outer(b * k, a * m) % n])
    assert_right_regular_bits(mu)


@st.composite
def cyclic_product_exponents(draw):
    """A product of at most 64 elements of cyclic groups whose orders divide
    n, homomorphisms x -> sum_i c_i (n / n_i) x_i into Z_n for shift and
    ramp, and now and then one entry of shift moved off the homomorphism."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 12]))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    orders = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3)
                  .filter(lambda orders: np.prod(orders) <= 64))
    group = cyclic_group(orders[0])
    for order in orders[1:]:
        group = direct_product(group, cyclic_group(order))
    coords = np.unravel_index(np.arange(group.order), orders)

    def homomorphism():
        coefficients = draw(st.lists(st.integers(-20, 20), min_size=len(orders),
                                     max_size=len(orders)))
        return sum(c * (n // q) * x for c, q, x in zip(coefficients, orders, coords))

    shift, ramp = homomorphism(), homomorphism()
    if draw(st.booleans()):
        shift[draw(st.integers(0, group.order - 1))] += draw(st.integers(1, n - 1))
    return group, shift, ramp, n


@settings(max_examples=60, deadline=None)
@given(cyclic_product_exponents())
def test_exponent_form_on_cyclic_products(drawn):
    group, shift, ramp, n = drawn
    mu = time_frequency_multiplier(group, shift, ramp, n)
    assert_bits(mu, roots(n)[np.outer(shift, ramp) % n])
    valid = validate_multiplier(mu).passed
    # the exponent certificate never passes what the exhaustive check rejects
    if _certify_exponents(mu) or certify_multiplier(mu):
        assert valid
    if valid:
        assert_right_regular_bits(mu)


def test_exponent_certificate_builds_no_table():
    for mu in (heisenberg_multiplier(16), trivial_multiplier(cyclic_group(64)),
               gabor_rep(GaborLattice(32, 2, 2)).multiplier):
        assert _certify_exponents(mu) and certify_multiplier(mu)
        assert "table" not in vars(mu)


def outcome(build):
    """None if build() returns, else the class and message it raised."""
    try:
        build()
    except FrameDualError as exc:
        return type(exc), str(exc)
    return None


def forged(shift_at, by, ramp=None):
    """The Heisenberg Z4xZ4 exponents with shift[shift_at] moved by `by`,
    so that shift is no homomorphism."""
    mu = heisenberg_multiplier(4)
    shift = mu.shift.copy()
    shift[shift_at] += by
    return time_frequency_multiplier(mu.group, shift, mu.ramp if ramp is None else ramp, 4)


def gabor_monomial(mu):
    """monomial_rep of the Gabor (4,1,1) family with the cocycle mu."""
    rep = gabor_rep(GaborLattice(4, 1, 1))
    return lambda: monomial_rep(rep.group, mu, rep.perm, rep.phase)


def test_forged_exponents_fall_back_to_the_dense_outcome():
    group = heisenberg_multiplier(4).group
    # no cocycle: rejected, with the dense copy's class and message
    mu = forged(5, 1)
    dense = Multiplier(group, mu.table)
    assert not _certify_exponents(mu)
    assert not validate_multiplier(dense).passed
    for build in (left_regular, right_regular):
        expected = outcome(lambda: build(group, dense))
        assert expected is not None
        assert outcome(lambda: build(group, forged(5, 1))) == expected
    expected = outcome(gabor_monomial(dense))
    assert expected is not None and outcome(gabor_monomial(forged(5, 1))) == expected
    # a constant table: shift is no homomorphism, the table is a cocycle,
    # and the fallback accepts it as the dense certificate does
    mu = forged(5, 1, ramp=np.zeros(16, dtype=np.int64))
    dense = Multiplier(group, mu.table)
    assert not _certify_exponents(mu)
    assert certify_multiplier(mu) == certify_multiplier(dense) is True
    assert (left_regular(group, mu).phase.tobytes()
            == left_regular(group, dense).phase.tobytes())


def test_exponent_form_is_immutable():
    mu = heisenberg_multiplier(3)
    for name in ("shift", "ramp"):
        assert not getattr(mu, name).flags.writeable
    with pytest.raises(AttributeError):
        mu.modulus = 5
    assert Multiplier(mu.group, mu.table).modulus is None
    assert Multiplier(mu.group, mu.table) == mu


def test_time_frequency_multiplier_rejects_malformed_exponents():
    group = cyclic_group(4)
    with pytest.raises(FrameDualError, match="need n >= 1"):
        time_frequency_multiplier(group, np.arange(4), np.arange(4), 0)
    with pytest.raises(FrameDualError, match="shift"):
        time_frequency_multiplier(group, np.arange(3), np.arange(4), 4)
    with pytest.raises(FrameDualError, match="ramp"):
        time_frequency_multiplier(group, np.arange(4), np.linspace(0, 1, 4), 4)


@pytest.mark.parametrize("n,a,b", [(16, 1, 1), (12, 3, 2), (32, 2, 2)])
def test_gabor_build_and_classify_leave_the_table_unbuilt(n, a, b):
    rep = gabor_rep(GaborLattice(n, a, b))
    assert "table" not in vars(rep.multiplier)
    classify(rep, random_complex_vector(substream(21, n), n))
    assert "table" not in vars(rep.multiplier)


REGULAR_MULTIPLIERS = {
    "trivial-Z64": lambda: trivial_multiplier(cyclic_group(64)),
    "trivial-D5": lambda: trivial_multiplier(from_cayley_table(dihedral_cayley(5))),
    "heisenberg8": lambda: heisenberg_multiplier(8),
    "gabor-12-3-2": lambda: gabor_rep(GaborLattice(12, 3, 2)).multiplier,
    "gabor-16-1-1": lambda: gabor_rep(GaborLattice(16, 1, 1)).multiplier,
}


@pytest.mark.parametrize("name", REGULAR_MULTIPLIERS)
def test_regular_phases_come_from_the_exponents(name):
    mu = REGULAR_MULTIPLIERS[name]()
    group = mu.group
    left, right = left_regular(group, mu), right_regular(group, mu)
    assert "table" not in vars(mu)
    table = REGULAR_MULTIPLIERS[name]().table
    inv = group.inverse
    assert left.phase.tobytes() == np.take_along_axis(table, left.perm, axis=1).tobytes()
    assert right.phase.tobytes() == table[right.perm, inv[:, None]].tobytes()


def validation_bytes(mu, **kwargs):
    return json.dumps(report_to_json(validate_multiplier(mu, **kwargs)))


def assert_report_of_the_dense_scan(mu, **kwargs):
    """validate_multiplier prints the bytes of the dense copy's report, and
    reads the table only for exponents that are no homomorphisms, on the
    trivial group, or for a report that fails."""
    report = validate_multiplier(mu, **kwargs)
    exponent_route = _homomorphic_exponents(mu) is not None and report.passed
    assert ("table" not in vars(mu)) == exponent_route
    dense = Multiplier(mu.group, mu.table)
    assert validation_bytes(mu, **kwargs) == validation_bytes(dense, **kwargs)
    return report


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20))
def test_heisenberg_report_is_the_dense_scan(n):
    assert assert_report_of_the_dense_scan(heisenberg_multiplier(n)).passed


@settings(max_examples=30, deadline=None)
@given(lattices().filter(lambda lattice: lattice.n ** 2 <= 144 * lattice.a * lattice.b))
def test_gabor_report_is_the_dense_scan(lattice):
    assert assert_report_of_the_dense_scan(gabor_rep(lattice).multiplier).passed


@settings(max_examples=60, deadline=None)
@given(cyclic_product_exponents())
def test_cyclic_product_report_is_the_dense_scan(drawn):
    group, shift, ramp, n = drawn
    assert_report_of_the_dense_scan(time_frequency_multiplier(group, shift, ramp, n))


@pytest.mark.parametrize("name", GROUPS)
def test_trivial_report_is_the_dense_scan(name):
    assert assert_report_of_the_dense_scan(trivial_multiplier(GROUPS[name]())).passed


def test_failing_and_forged_reports_fall_back_to_the_dense_scan():
    # no homomorphism: a failing report, and a passing one of a constant table
    report = assert_report_of_the_dense_scan(forged(5, 1))
    assert not report.passed and report.counterexample[0] == "cocycle"
    assert assert_report_of_the_dense_scan(
        forged(5, 1, ramp=np.zeros(16, dtype=np.int64))).passed
    # a tolerance below the residual: the scan's first counterexample
    worst = validate_multiplier(heisenberg_multiplier(6)).max_residual
    assert worst > 0
    report = assert_report_of_the_dense_scan(heisenberg_multiplier(6), tol=worst / 2)
    assert not report.passed and report.counterexample is not None
    # Z1 has no generators
    mu = heisenberg_multiplier(1)
    assert _homomorphic_exponents(mu) is None
    assert assert_report_of_the_dense_scan(mu).passed


def test_report_of_roots_off_the_circle_is_the_dense_scan():
    """Roots scaled off the unit circle: unit modulus, not the cocycle
    identity, sets max_residual, and above the normalization residual."""
    mu = heisenberg_multiplier(6)
    vars(mu)["_roots"] = mu._roots * (1 + 2.5e-14)
    report = assert_report_of_the_dense_scan(mu)
    assert report.passed and report.max_residual > abs(mu._roots[0] - 1) > 1e-14
