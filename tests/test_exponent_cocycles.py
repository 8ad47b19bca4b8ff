"""Cocycles stored by their integer exponents: the table looked up on first
read and each row without it, bit for bit the dense formulas, and the
exponent certificate held against the exhaustive check."""

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
from framedual.groups import _certify_exponents, time_frequency_multiplier
from framedual.linalg import random_complex_vector, substream
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
