"""The pair certificate (generator commutators, the trace formula and the
rank of sigma's Hilbert-Schmidt Gram) held against the subspace route it
replaced as the pair decision: the range of pi's group average against the
span of sigma's image.  Verdicts and both dimensions must agree; the
Sylvester double commutant checks the dimensions on small cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    CommutingPairCheck,
    GaborLattice,
    InvalidParameterError,
    NotProjectiveError,
    cyclic_group,
    direct_product,
    from_cayley_table,
    gabor_rep,
    heisenberg_multiplier,
    is_commuting_pair,
    left_regular,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
    pair_certificate,
    trivial_multiplier,
)
from framedual.duality import PAIR_TOL
from framedual.groups import time_frequency_multiplier
from framedual.linalg import RANK_TOL, dft_matrix
from framedual.reps import ProjectiveRep
from framedual.vonneumann import commutant, double_commutant, operator_subspace_residual
from conftest import dihedral_cayley, quaternion_cayley, random_cocycles, relabelled


def subspace_is_commuting_pair(pi, sigma, tol=PAIR_TOL, rank_tol=RANK_TOL):
    """is_commuting_pair as the subspace route computed it: verdict and
    dimensions from pi's group average and the span of sigma's image."""
    if pi.dim != sigma.dim:
        raise InvalidParameterError(
            f"representations act on different spaces: {pi.dim} vs {sigma.dim}")
    comm = pi.commutant()
    alg = sigma.algebra(rank_tol)
    residual = operator_subspace_residual(comm, alg)
    return CommutingPairCheck(comm.dim == alg.dim and residual < tol, residual,
                              comm.dim, alg.dim)


def assert_routes_agree(pi, sigma):
    cert = pair_certificate(pi, sigma)
    check = subspace_is_commuting_pair(pi, sigma)
    assert (cert.is_pair, cert.pi_commutant_dim, cert.sigma_algebra_dim) \
        == (check.is_pair, check.pi_commutant_dim, check.sigma_algebra_dim)
    return cert


def dense(rep):
    """The same rep stored as a dense stack."""
    return ProjectiveRep(rep.group, rep.multiplier, rep.matrices, label=rep.label)


def group_of(name):
    tables = {"D3": dihedral_cayley(3), "D5": dihedral_cayley(5), "D6": dihedral_cayley(6),
              "Q8": quaternion_cayley()}
    return from_cayley_table(tables[name], label=name)


@st.composite
def lattices(draw, max_order=24):
    """A Gabor lattice whose two index groups have at most max_order elements."""
    n = draw(st.integers(1, 12))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = [(a, b) for a in divisors for b in divisors
             if max(a * b, (n // a) * (n // b)) <= max_order]
    return GaborLattice(n, *draw(st.sampled_from(pairs)))


@st.composite
def time_frequency_cocycles(draw):
    """exp(-2 pi i shift[g] ramp[h] / n) on a product of cyclic groups whose
    orders divide n, shift and ramp homomorphisms into Z_n."""
    n = draw(st.sampled_from([2, 3, 4, 6]))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    orders = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=3)
                  .filter(lambda orders: np.prod(orders) <= 18))
    group = cyclic_group(orders[0])
    for order in orders[1:]:
        group = direct_product(group, cyclic_group(order))
    coords = np.unravel_index(np.arange(group.order), orders)

    def homomorphism():
        coefficients = draw(st.lists(st.integers(-6, 6), min_size=len(orders),
                                     max_size=len(orders)))
        return sum(c * (n // q) * x for c, q, x in zip(coefficients, orders, coords))

    return time_frequency_multiplier(group, homomorphism(), homomorphism(), n)


@settings(max_examples=30, deadline=None)
@given(random_cocycles)
def test_random_cocycle_regular_pairs(mu):
    lam, rho = make_regular_pair(mu.group, mu)
    assert assert_routes_agree(lam, rho).is_pair
    assert_routes_agree(rho, lam)
    assert_routes_agree(lam, lam)


@settings(max_examples=30, deadline=None)
@given(time_frequency_cocycles())
def test_time_frequency_regular_pairs(mu):
    lam, rho = make_regular_pair(mu.group, mu)
    assert assert_routes_agree(lam, rho).is_pair
    assert_routes_agree(lam, lam)


@settings(max_examples=30, deadline=None)
@given(lattices())
def test_gabor_lattices_and_their_adjoints(lattice):
    pi, sigma = make_gabor_pair(lattice)
    assert assert_routes_agree(pi, sigma).is_pair
    assert assert_routes_agree(sigma, pi).is_pair
    assert_routes_agree(pi, pi)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
def test_relabelled_heisenberg_pairs(n, seed):
    # one monomial unitary conjugates both sides: still a pair, with phases
    # off the roots of unity
    mu = heisenberg_multiplier(n)
    lam, rho = make_regular_pair(mu.group, mu)
    cert = assert_routes_agree(relabelled(lam, seed), relabelled(rho, seed))
    assert cert.is_pair and cert.pi_commutant_dim == n * n


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.data())
def test_dense_subpairs(n, data):
    freqs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    group = cyclic_group(n)
    f = dft_matrix(n)[:, freqs]
    pi, sigma = make_regular_subpair(group, trivial_multiplier(group), f @ f.conj().T)
    assert pi.perm is None and sigma.perm is None
    cert = assert_routes_agree(pi, sigma)
    assert cert.is_pair and cert.pi_commutant_dim == len(freqs)


@pytest.mark.parametrize("name", ["Z1", "Z8", "heisenberg3", "gabor12,3,2", "D5", "D6", "Q8"])
def test_mixed_monomial_and_dense_sides(name):
    if name.startswith("gabor"):
        pi, sigma = make_gabor_pair(GaborLattice(*map(int, name[5:].split(","))))
    elif name.startswith("heisenberg"):
        mu = heisenberg_multiplier(int(name[10:]))
        pi, sigma = make_regular_pair(mu.group, mu)
    else:
        group = cyclic_group(int(name[1:])) if name[0] == "Z" else group_of(name)
        pi, sigma = make_regular_pair(group, trivial_multiplier(group))
    expected = assert_routes_agree(pi, sigma)
    assert expected.is_pair
    for p, s in ((dense(pi), sigma), (pi, dense(sigma)), (dense(pi), dense(sigma))):
        cert = assert_routes_agree(p, s)
        assert (cert.is_pair, cert.pi_commutant_dim, cert.sigma_algebra_dim) \
            == (expected.is_pair, expected.pi_commutant_dim, expected.sigma_algebra_dim)
        assert cert.commutator <= 1e-14 or not cert.is_pair


def regular_self(group, mu=None):
    lam = left_regular(group, mu or trivial_multiplier(group))
    return lam, lam


TRIVIAL_PAIRS = {
    "Z1": lambda: make_regular_pair(cyclic_group(1), trivial_multiplier(cyclic_group(1))),
    "gabor(1,1,1)": lambda: make_gabor_pair(GaborLattice(1, 1, 1)),
}

NON_PAIRS = {
    # (pair, dim pi(G)', dim sigma(G)'')
    "gabor(16,2,2) with itself": (lambda: (gabor_rep(GaborLattice(16, 2, 2)),) * 2, 4, 64),
    "gabor(12,2,2) against (12,4,4)": (
        lambda: (gabor_rep(GaborLattice(12, 2, 2)), gabor_rep(GaborLattice(12, 4, 4))), 4, 9),
    "lambda_D5 with itself": (lambda: regular_self(group_of("D5")), 10, 10),
    "heisenberg lambda with itself": (
        lambda: regular_self(heisenberg_multiplier(3).group, heisenberg_multiplier(3)), 9, 9),
}


@pytest.mark.parametrize("name", TRIVIAL_PAIRS)
def test_trivial_groups(name):
    cert = assert_routes_agree(*TRIVIAL_PAIRS[name]())
    assert cert.is_pair and cert.commutator == 0.0
    assert cert.pi_commutant_dim == cert.sigma_algebra_dim == 1


@pytest.mark.parametrize("name", NON_PAIRS)
def test_non_pairs(name):
    build, comm_dim, alg_dim = NON_PAIRS[name]
    pi, sigma = build()
    cert = assert_routes_agree(pi, sigma)
    assert not cert.is_pair
    assert (cert.pi_commutant_dim, cert.sigma_algebra_dim) == (comm_dim, alg_dim)
    # the generators do not commute: an entry of modulus about 1 or more
    assert cert.commutator > 0.5


ORACLE_CASES = {
    "Z4": lambda: make_regular_pair(cyclic_group(4), trivial_multiplier(cyclic_group(4))),
    "heisenberg2": lambda: make_regular_pair(heisenberg_multiplier(2).group,
                                             heisenberg_multiplier(2)),
    "gabor(4,2,1)": lambda: make_gabor_pair(GaborLattice(4, 2, 1)),
    "gabor(6,2,3)": lambda: make_gabor_pair(GaborLattice(6, 2, 3)),
    "D3": lambda: make_regular_pair(group_of("D3"), trivial_multiplier(group_of("D3"))),
    "lambda_D3 with itself": lambda: regular_self(group_of("D3")),
    "gabor(4,1,2) with itself": lambda: (gabor_rep(GaborLattice(4, 1, 2)),) * 2,
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_dimensions_match_the_sylvester_oracle(name):
    pi, sigma = ORACLE_CASES[name]()
    cert = pair_certificate(pi, sigma)
    assert cert.pi_commutant_dim == commutant(pi.matrices).dim
    assert cert.sigma_algebra_dim == double_commutant(sigma.matrices).dim


def test_pair_tol_gates_the_largest_generator_commutator():
    mu = heisenberg_multiplier(3)
    lam, rho = make_regular_pair(mu.group, mu)
    cert = pair_certificate(lam, rho)
    assert 0.0 < cert.commutator < 1e-14
    assert pair_certificate(lam, rho, tol=cert.commutator).is_pair
    assert not pair_certificate(lam, rho, tol=cert.commutator / 2).is_pair
    assert pair_certificate(lam, rho, tol=float("nan")).is_pair is False


def test_is_commuting_pair_reads_the_certificate(monkeypatch):
    import framedual.duality as duality_module
    pi, sigma = make_gabor_pair(GaborLattice(12, 3, 2))
    check = is_commuting_pair(pi, sigma)
    assert check.is_pair and check.pi_commutant_dim == check.sigma_algebra_dim == 6
    assert check.residual < 1e-8
    forged = duality_module.PairCertificate(False, 1.0, 5, 7)
    monkeypatch.setattr(duality_module, "pair_certificate", lambda p, s, tol: forged)
    check = is_commuting_pair(pi, sigma)
    assert (check.is_pair, check.pi_commutant_dim, check.sigma_algebra_dim) == (False, 5, 7)
    assert check.residual < 1e-8  # still the subspace residual


def test_gram_eigenvalues_clear_the_cut():
    # nonzero eigenvalues are |G| m / d >= sqrt|G|; the cut sits at sqrt|G| / 2
    for rep in (left_regular(cyclic_group(12), trivial_multiplier(cyclic_group(12))),
                gabor_rep(GaborLattice(12, 3, 2)), gabor_rep(GaborLattice(8, 1, 1))):
        g = rep.group
        flat = rep.matrices.reshape(g.order, -1)
        w = np.linalg.eigvalsh(flat.conj() @ flat.T)
        nonzero = w[w > 1e-9]
        assert nonzero.min() >= np.sqrt(g.order) - 1e-9
        assert np.abs(w[w <= 1e-9]).max(initial=0.0) < 1e-9
        np.testing.assert_allclose(rep.characters, np.trace(rep.matrices, axis1=1, axis2=2),
                                   atol=1e-14)


def test_trace_formula_off_an_integer_raises():
    g = cyclic_group(2)
    scaled = ProjectiveRep(g, trivial_multiplier(g), np.stack([np.eye(3), 2 * np.eye(3)]))
    with pytest.raises(NotProjectiveError, match="trace formula"):
        pair_certificate(scaled, scaled)
