"""Groups, Cayley-table ingestion, and multiplier (2-cocycle) validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    FiniteGroup,
    InvalidParameterError,
    Multiplier,
    certify_multiplier,
    conjugate_multiplier,
    cyclic_group,
    direct_product,
    from_cayley_table,
    heisenberg_multiplier,
    trivial_multiplier,
    validate_multiplier,
)
from conftest import coboundary, dihedral_cayley, quaternion_cayley, random_cocycles


def test_cyclic_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.cayley.tolist() == [[0]]
    assert g.inverse.tolist() == [0]
    assert g.identity == 0


def test_cyclic_inverse_and_table():
    assert cyclic_group(4).inv(1) == 3
    assert cyclic_group(6).op(4, 5) == 3


def test_cyclic_rejects_zero():
    with pytest.raises(InvalidParameterError):
        cyclic_group(0)


def test_direct_product_z2_z2_self_inverse():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    for a in range(4):
        assert g.inv(a) == a


def test_direct_product_with_trivial_is_identity():
    g = cyclic_group(5)
    prod = direct_product(g, cyclic_group(1))
    assert np.array_equal(prod.cayley, g.cayley)
    assert np.array_equal(prod.inverse, g.inverse)


def test_z2_x_z3_isomorphic_to_z6_by_brute_force():
    # oracle: search all identity-fixing bijections for a table isomorphism
    g = direct_product(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    others = [a for a in range(6) if a != g.identity]
    found = False
    for images in itertools.permutations([k for k in range(6) if k != 0]):
        phi = {g.identity: 0}
        phi.update(dict(zip(others, images)))
        if all(phi[g.op(a, b)] == z6.op(phi[a], phi[b])
               for a in range(6) for b in range(6)):
            found = True
            break
    assert found


def test_direct_product_flattening_is_associative():
    a, b, c = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    left = direct_product(direct_product(a, b), c)
    right = direct_product(a, direct_product(b, c))
    assert np.array_equal(left.cayley, right.cayley)
    assert left.identity == right.identity


def test_inverse_round_trip():
    for g in (cyclic_group(7), direct_product(cyclic_group(2), cyclic_group(4))):
        inv = g.inverse
        assert np.array_equal(inv[inv], np.arange(g.order))


def test_from_cayley_validates_dihedral():
    g = from_cayley_table(dihedral_cayley(4), label="D4")
    assert g.order == 8
    assert not g.is_abelian


def test_from_cayley_rejects_non_associative():
    bad = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not a group
    with pytest.raises(InvalidParameterError):
        from_cayley_table(bad)


def test_from_cayley_rejects_missing_identity():
    bad = np.array([[0, 0], [0, 0]])
    with pytest.raises(InvalidParameterError):
        from_cayley_table(bad)


def test_from_cayley_accepts_relabelled_identity():
    g = from_cayley_table(np.array([[1, 0], [0, 1]]))
    assert g.identity == 1


def test_trivial_multiplier_is_valid():
    mu = trivial_multiplier(cyclic_group(3))
    assert np.array_equal(mu.table, np.ones((3, 3)))
    report = validate_multiplier(mu)
    assert report.passed and report.cocycle_ok


def test_heisenberg_n2_value():
    mu = heisenberg_multiplier(2)
    # element (m, k) has index 2m + k: (0,1) -> 1, (1,0) -> 2
    assert mu.table[1, 2] == pytest.approx(-1.0)


def test_heisenberg_n4_cocycle_brute_force():
    # oracle: evaluate the cocycle identity on all 16^3 triples directly
    mu = heisenberg_multiplier(4)
    cay = mu.group.cayley
    t = mu.table
    worst = 0.0
    for g1 in range(16):
        for g2 in range(16):
            for g3 in range(16):
                lhs = t[g1, cay[g2, g3]] * t[g2, g3]
                rhs = t[cay[g1, g2], g3] * t[g1, g2]
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12
    assert validate_multiplier(mu).passed


def test_heisenberg_zero_second_coordinate_rows_are_one():
    n = 4
    mu = heisenberg_multiplier(n)
    for m in range(n):
        g = m * n  # element (m, 0)
        np.testing.assert_allclose(mu.table[g, :], np.ones(n * n), atol=1e-15)


def test_condition_inverse_symmetry_holds():
    mu = heisenberg_multiplier(4)
    g = mu.group
    idx = np.arange(g.order)
    np.testing.assert_allclose(mu.table[idx, g.inverse], mu.table[g.inverse, idx],
                               atol=1e-12)
    assert validate_multiplier(mu).inverse_symmetry_ok


def test_validate_flags_broken_normalization():
    g = cyclic_group(5)
    table = np.ones((5, 5), dtype=complex)
    table[2, g.identity] = 1j
    report = validate_multiplier(Multiplier(g, table))
    assert not report.passed
    assert not report.normalization_ok
    assert report.counterexample[0] == "normalization"


def test_validate_flags_unit_modulus():
    g = cyclic_group(3)
    table = np.ones((3, 3), dtype=complex)
    table[1, 2] = 2.0
    report = validate_multiplier(Multiplier(g, table))
    assert not report.unit_modulus_ok


def test_group_and_multiplier_keep_copies_of_the_callers_arrays():
    cayley = np.add.outer(np.arange(3), np.arange(3)).astype(np.int64) % 3
    inverse = (-np.arange(3, dtype=np.int64)) % 3
    table = np.ones((3, 3), dtype=complex)
    group = FiniteGroup(cayley, 0, inverse, label="Z3")
    mu = Multiplier(group, table)
    for caller, stored in ((cayley, group.cayley), (inverse, group.inverse),
                           (table, mu.table)):
        assert stored is not caller and caller.flags.writeable
        assert not stored.flags.writeable
    cayley[1, 1] = 0
    inverse[1] = 1
    table[1, 2] = 1j
    assert group.cayley.tolist() == cyclic_group(3).cayley.tolist()
    assert group.inverse.tolist() == [0, 2, 1]
    assert mu == trivial_multiplier(group)


def test_multiplier_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        Multiplier(cyclic_group(3), np.ones((4, 4)))


def test_conjugate_multiplier():
    g = cyclic_group(4)
    assert conjugate_multiplier(trivial_multiplier(g)) == trivial_multiplier(g)
    mu = heisenberg_multiplier(4)
    conj = conjugate_multiplier(mu)
    # entry ((0,1),(1,0)): exp(+2 pi i / 4) = i after conjugation
    assert conj.table[1, 4] == pytest.approx(1j)
    assert validate_multiplier(conj).passed
    assert conjugate_multiplier(conj) == mu


def test_group_equality_ignores_label():
    assert cyclic_group(4) == from_cayley_table(cyclic_group(4).cayley, label="other")


# --- generating sets and the generator-slice certificate --------------------

def brute_force_depths(group, elements):
    """Shortest word length in the elements for each group element, by
    breadth-first search over Python sets."""
    depths = {group.identity: 0}
    frontier = {group.identity}
    level = 0
    while frontier:
        level += 1
        frontier = {group.op(s, h) for s in elements for h in frontier} - depths.keys()
        depths.update(dict.fromkeys(frontier, level))
    return depths


SMALL_GROUPS = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z7": lambda: cyclic_group(7),
    "Z12": lambda: cyclic_group(12),
    "Z64": lambda: cyclic_group(64),
    "Z2xZ4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "Z6xZ4": lambda: direct_product(cyclic_group(6), cyclic_group(4)),
    "Z4xZ4xZ2": lambda: direct_product(direct_product(cyclic_group(4), cyclic_group(4)),
                                       cyclic_group(2)),
    "D4": lambda: from_cayley_table(dihedral_cayley(4), label="D4"),
    "D5": lambda: from_cayley_table(dihedral_cayley(5), label="D5"),
    "Q8": lambda: from_cayley_table(quaternion_cayley(), label="Q8"),
}


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_generating_set_generates_with_brute_force_depth(name):
    group = SMALL_GROUPS[name]()
    gens = group.generating_set
    depths = brute_force_depths(group, gens.elements)
    assert sorted(depths) == list(range(group.order))
    assert gens.depth == max(depths.values())
    assert group.identity not in gens.elements
    assert len(set(gens.elements)) == len(gens.elements)
    for s in gens.elements:  # closed under squaring
        assert group.op(s, s) in gens.elements or group.op(s, s) == group.identity
    assert group.generating_set is gens  # derived once


def test_generating_set_of_cyclic_groups_is_binary():
    gens = cyclic_group(128).generating_set
    assert gens.elements == (1, 2, 4, 8, 16, 32, 64) and gens.depth == 7
    assert cyclic_group(1).generating_set == ((), 0)


def test_cocycle_defect_is_a_three_cocycle():
    # the identity certify_multiplier's derivation rests on holds for any
    # table, here a random one on D4 that is no cocycle at all
    group = from_cayley_table(dihedral_cayley(4))
    rng = np.random.default_rng(5)
    t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = group.op

    def defect(a, b, c):
        return t[a, op(b, c)] * t[b, c] - t[op(a, b), c] * t[a, b]

    worst = 0.0
    for a, b, c, d in itertools.product(range(8), repeat=4):
        lhs = t[a, b] * defect(op(a, b), c, d)
        rhs = (t[a, op(op(b, c), d)] * defect(b, c, d) + t[op(op(a, b), c), d] * defect(a, b, c)
               + t[b, c] * defect(a, op(b, c), d) - t[c, d] * defect(a, b, op(c, d)))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def nonabelian_coboundaries():
    rng = np.random.default_rng(17)
    return [coboundary(from_cayley_table(table, label=label), rng.random(8))
            for label, table in (("D4", dihedral_cayley(4)), ("Q8", quaternion_cayley()))]


@settings(max_examples=40, deadline=None)
@given(mu=random_cocycles)
def test_certificate_passes_random_cocycles_and_agrees_with_oracle(mu):
    assert certify_multiplier(mu)
    assert validate_multiplier(mu).passed


def test_certificate_passes_nonabelian_coboundaries():
    for mu in nonabelian_coboundaries():
        assert not mu.group.is_abelian
        assert certify_multiplier(mu) and validate_multiplier(mu).passed


THETAS = (1e-13, 1e-11, 1e-6, 0.25)


def assert_sound(mu):
    """A passing certificate implies a passing exhaustive check."""
    if certify_multiplier(mu):
        assert validate_multiplier(mu).passed


@settings(max_examples=60, deadline=None)
@given(mu=random_cocycles, theta=st.sampled_from(THETAS),
       where=st.tuples(st.integers(0, 11), st.integers(0, 11)))
def test_certificate_sound_under_single_entry_mutations(mu, theta, where):
    table = mu.table.copy()
    g, h = (w % mu.group.order for w in where)
    table[g, h] *= np.exp(1j * theta)
    mutated = Multiplier(mu.group, table)
    assert_sound(mutated)
    if theta >= 1e-11:  # far above every generator-slice gate
        assert not certify_multiplier(mutated)


@pytest.mark.parametrize("theta", THETAS)
def test_certificate_sound_on_mutated_nonabelian_coboundaries(theta):
    for mu in nonabelian_coboundaries():
        group = mu.group
        for g, h in itertools.product(range(group.order), repeat=2):
            table = mu.table.copy()
            table[g, h] *= np.exp(1j * theta)
            mutated = Multiplier(group, table)
            assert_sound(mutated)
            # every entry enters every generator slice, so no mutation well
            # above the gate slips through
            if theta >= 1e-11:
                assert not certify_multiplier(mutated)


def test_certificate_checks_every_generator():
    # on Z4 x Z4 a table that depends on one coordinate only, and is no
    # cocycle there, is clean on the generator slices of the other factor
    group = direct_product(cyclic_group(4), cyclic_group(4))
    first, second = np.divmod(np.arange(16), 4)
    for coord in (first, second):
        table = np.exp(0.25j * np.outer(coord == 1, coord == 1))
        mu = Multiplier(group, table)
        assert not validate_multiplier(mu).passed
        assert not certify_multiplier(mu)
    # on Z4 (S = {1, 2}) the table exp(i/4 [x odd][y = 2]) is clean on the
    # slice of 2, symmetric on inverse pairs, and no cocycle
    x = np.arange(4)
    mu = Multiplier(cyclic_group(4), np.exp(0.25j * np.outer(x % 2 == 1, x == 2)))
    assert not validate_multiplier(mu).passed
    assert not certify_multiplier(mu)


def test_certificate_gate_covers_long_words():
    # on Z2^6 (S the six basis vectors, L = 6) the table exp(i eps |x| |y|),
    # |x| the Hamming weight, has residual 2 eps (|a & b| |c| - |a| |b & c|):
    # at most 10 eps on the generator slices, 18 eps over all triples
    group = cyclic_group(2)
    for _ in range(5):
        group = direct_product(group, cyclic_group(2))
    weight = np.array([bin(x).count("1") for x in range(64)])
    # generator slices within tol, a triple beyond it: the gate must be tighter
    mu = Multiplier(group, np.exp(7e-14j * np.outer(weight, weight)))
    assert not validate_multiplier(mu).passed
    assert not certify_multiplier(mu)
    mu = Multiplier(group, np.exp(5e-15j * np.outer(weight, weight)))
    assert certify_multiplier(mu) and validate_multiplier(mu).passed


@pytest.mark.parametrize("theta", THETAS)
def test_certificate_checks_normalization(theta):
    # a global phase keeps every cocycle residual at roundoff and breaks
    # only the normalization mu(e, g) = mu(g, e) = 1
    for mu in nonabelian_coboundaries() + [heisenberg_multiplier(4)]:
        turned = Multiplier(mu.group, mu.table * np.exp(1j * theta))
        assert_sound(turned)
        if theta >= 1e-11:
            assert not certify_multiplier(turned)


def test_certificate_declines_what_it_cannot_decide():
    assert not certify_multiplier(trivial_multiplier(cyclic_group(1)))
    assert validate_multiplier(trivial_multiplier(cyclic_group(1))).passed
    mu = heisenberg_multiplier(4)
    table = mu.table.copy()
    table[3, 5] = np.nan
    assert not certify_multiplier(Multiplier(mu.group, table))
    assert not validate_multiplier(Multiplier(mu.group, table)).passed
    table = mu.table * 1.5  # off the unit circle
    assert not certify_multiplier(Multiplier(mu.group, table))


@pytest.mark.parametrize("entry", [np.nan, complex(np.nan, 0.0), np.inf, complex(0.0, -np.inf)])
def test_validate_multiplier_names_a_non_finite_entry(entry):
    mu = heisenberg_multiplier(4)
    table = mu.table.copy()
    table[3, 5] = entry
    report = validate_multiplier(Multiplier(mu.group, table))
    assert not report.passed and not report.unit_modulus_ok and not report.cocycle_ok
    assert report.counterexample == ("unit_modulus", (3, 5))
    assert np.isfinite(report.max_residual)


def test_time_frequency_cocycle_certifies_at_every_size():
    # the exponent is reduced mod N before the lookup, so the roundoff of
    # the table does not grow with N and never reaches the certificate's gate
    for n in range(2, 41):
        assert certify_multiplier(heisenberg_multiplier(n)), n
