"""Regular and monomial representations, cocycle recovery, subrepresentations."""

import numpy as np
import pytest

import framedual.reps as reps_module
from framedual import (
    FrameDualError,
    GaborLattice,
    InvalidParameterError,
    Multiplier,
    NotInvariantError,
    NotProjectiveError,
    ProjectiveRep,
    character_subrep,
    conjugate_multiplier,
    cyclic_group,
    direct_product,
    from_cayley_table,
    gabor_rep,
    gram_matrix,
    heisenberg_multiplier,
    left_regular,
    monomial_rep,
    right_regular,
    subrepresentation,
    trivial_multiplier,
    validate_multiplier,
    verify_rep,
)
from framedual.reps import derive_multiplier
from conftest import coboundary, dihedral_cayley, quaternion_cayley, random_cocycle
from framedual.linalg import dft_matrix, random_complex_vector, random_unitary, substream


def test_left_regular_z2_is_swap():
    g = cyclic_group(2)
    lam = left_regular(g, trivial_multiplier(g))
    np.testing.assert_allclose(lam.matrices[1], [[0, 1], [1, 0]])


def test_left_regular_sends_identity_vector_to_chi_g():
    # mu(g, e) = 1, so the orbit of the identity basis vector hits every chi_g
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    e = mu.group.identity
    for g in range(mu.group.order):
        expected = np.zeros(mu.group.order)
        expected[g] = 1.0
        np.testing.assert_allclose(lam.matrices[g][:, e], expected, atol=1e-14)


def test_left_regular_heisenberg_sign():
    # lambda((0,1)) chi_{(1,0)} = mu((0,1),(1,0)) chi_{(1,1)} = -chi_{(1,1)}
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    col = lam.matrices[1][:, 2]  # (0,1) has index 1, (1,0) index 2, (1,1) index 3
    expected = np.zeros(4, dtype=complex)
    expected[3] = -1.0
    np.testing.assert_allclose(col, expected, atol=1e-14)


def test_right_regular_z3_shift():
    g = cyclic_group(3)
    rho = right_regular(g, trivial_multiplier(g))
    out = rho.matrices[1] @ np.eye(3)[0]
    np.testing.assert_allclose(out, np.eye(3)[2], atol=1e-14)


def test_right_regular_identity_matrix():
    mu = heisenberg_multiplier(2)
    rho = right_regular(mu.group, mu)
    np.testing.assert_allclose(rho.matrices[mu.group.identity], np.eye(4), atol=1e-14)


@pytest.mark.parametrize("mu_factory", [
    lambda: trivial_multiplier(cyclic_group(6)),
    lambda: heisenberg_multiplier(2),
    lambda: heisenberg_multiplier(3),
])
def test_left_and_right_regular_commute(mu_factory):
    mu = mu_factory()
    lam = left_regular(mu.group, mu)
    rho = right_regular(mu.group, mu)
    worst = 0.0
    for g in range(mu.group.order):
        for h in range(mu.group.order):
            worst = max(worst, np.abs(
                lam.matrices[g] @ rho.matrices[h] - rho.matrices[h] @ lam.matrices[g]
            ).max())
    assert worst < 1e-12


def test_verify_rep_passes_regular():
    g = cyclic_group(6)
    report = verify_rep(left_regular(g, trivial_multiplier(g)))
    assert report.passed
    assert report.composition_residual < 1e-12


def test_verify_rep_catches_scaled_matrix():
    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    mats = lam.matrices.copy()
    mats[1] = 1.01 * mats[1]
    report = verify_rep(ProjectiveRep(g, lam.multiplier, mats))
    assert not report.passed
    assert report.worst_pair is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_rep_non_finite_entry_fails_with_finite_residuals(bad):
    # the failing compositions must not hide behind NaN comparisons: each
    # residual field stays finite and worst_pair names a pair through pi(1)
    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    mats = lam.matrices.copy()
    mats[1, 0, 0] = bad
    report = verify_rep(ProjectiveRep(g, lam.multiplier, mats))
    assert not report.passed
    assert np.isfinite([report.unitarity_residual, report.identity_residual,
                        report.composition_residual]).all()
    assert report.worst_pair is not None and 1 in report.worst_pair


def test_rep_keeps_a_copy_of_the_callers_stack():
    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    mats = lam.matrices.copy()
    rep = ProjectiveRep(g, lam.multiplier, mats)
    assert rep.matrices is not mats and mats.flags.writeable
    assert not rep.matrices.flags.writeable
    mats[1] = 0
    np.testing.assert_array_equal(rep.matrices, lam.matrices)


def test_right_regular_multiplier_trivial_case():
    g = cyclic_group(5)
    mu = trivial_multiplier(g)
    rho = right_regular(g, mu)
    assert rho.multiplier == conjugate_multiplier(mu)
    assert verify_rep(rho).passed


def test_right_regular_multiplier_heisenberg():
    # the stored cocycle is nu(g, h) = mu(h^-1, g^-1); it differs from the
    # conjugate table exactly by the coboundary of beta(g) = mu(g, g^-1)
    mu = heisenberg_multiplier(2)
    g = mu.group
    rho = right_regular(g, mu)
    assert verify_rep(rho).passed
    inv, cay = g.inverse, g.cayley
    n = g.order
    expected = np.array([[mu.table[inv[b], inv[a]] for b in range(n)] for a in range(n)])
    np.testing.assert_allclose(rho.multiplier.table, expected, atol=1e-14)
    assert np.abs(rho.multiplier.table - mu.table.conj()).max() > 1.0
    beta = mu.table[np.arange(n), inv]
    coboundary = np.outer(beta, beta) / beta[cay]
    np.testing.assert_allclose(rho.multiplier.table * mu.table, coboundary, atol=1e-12)


def test_derive_multiplier_genuine_rep_gives_trivial():
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    mu = derive_multiplier(lam.matrices, g)
    np.testing.assert_allclose(mu.table, np.ones((4, 4)), atol=1e-12)


def test_derive_multiplier_gabor_matrices():
    # oracle: build modulation/translation powers by hand and read the scalar
    n = 4
    m_op = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    t_op = np.zeros((n, n), dtype=complex)
    t_op[np.arange(n), (np.arange(n) - 1) % n] = 1
    group = heisenberg_multiplier(n).group
    mats = np.stack([
        np.linalg.matrix_power(m_op, m) @ np.linalg.matrix_power(t_op, k)
        for m in range(n) for k in range(n)
    ])
    mu = derive_multiplier(mats, group)
    np.testing.assert_allclose(mu.table, heisenberg_multiplier(n).table, atol=1e-12)


def test_derive_multiplier_invariant_under_conjugation():
    # the cocycle is a similarity invariant of the operator family
    mu = heisenberg_multiplier(3)
    lam = left_regular(mu.group, mu)
    u = random_unitary(substream(19, 0), lam.dim)
    conjugated = np.einsum("ij,gjk,kl->gil", u, lam.matrices, u.conj().T)
    recovered = derive_multiplier(conjugated, mu.group)
    np.testing.assert_allclose(recovered.table, mu.table, atol=1e-10)


def test_derive_multiplier_rejects_unrelated_unitaries():
    g = cyclic_group(2)
    rng = substream(17, 0)
    mats = np.stack([random_unitary(rng, 3), random_unitary(rng, 3)])
    with pytest.raises(NotProjectiveError):
        derive_multiplier(mats, g)


def monomial_inputs(rep):
    """(perm, phase) of a monomial stack: the column and value of the one
    nonzero entry in each row."""
    perm = np.abs(rep.matrices).argmax(axis=2)
    phase = np.take_along_axis(rep.matrices, perm[:, :, None], axis=2)[:, :, 0]
    return perm, phase


def test_monomial_rep_reproduces_left_regular():
    mu = heisenberg_multiplier(3)
    group = mu.group
    lam = left_regular(group, mu)
    # row r of L(g) holds mu(g, g^-1 r) in column g^-1 r
    perm = group.cayley[group.inverse]
    phase = np.take_along_axis(mu.table, perm, axis=1)
    rep = monomial_rep(group, mu, perm, phase, label="lam")
    assert np.array_equal(rep.matrices, lam.matrices)
    assert rep.multiplier is mu and rep.label == "lam"
    assert verify_rep(rep).passed


GABOR_6_2_3 = gabor_rep(GaborLattice(6, 2, 3))


def mutated(change=None, g=0):
    """monomial_rep's arguments for the Gabor (6,2,3) rep, after change."""
    rep = GABOR_6_2_3
    perm, phase = monomial_inputs(rep)
    table = rep.multiplier.table.copy()
    if change is not None:
        change(perm, phase, table, g)
    return rep.group, Multiplier(rep.group, table), perm, phase


def flip_phase(perm, phase, table, g):
    phase[g, 2] *= -1


def swap_columns(perm, phase, table, g):
    perm[g, [0, 1]] = perm[g, [1, 0]]


def tilt_cocycle(perm, phase, table, g):
    table[g, 3] *= np.exp(0.25j)


def repeat_column(perm, phase, table, g):
    perm[g, 1] = perm[g, 0]


def test_monomial_rep_unmutated_inputs_rebuild_the_stack():
    rep = monomial_rep(*mutated())
    assert np.array_equal(rep.matrices, GABOR_6_2_3.matrices)


@pytest.mark.parametrize("change,caught_by", [
    (flip_phase, "differs from mu"),
    (swap_columns, "has its entry in column"),
    (tilt_cocycle, "differs from mu"),
    (repeat_column, "is not a permutation"),
])
@pytest.mark.parametrize("g", [1, 2, 5])
def test_monomial_rep_mutations_not_projective(change, caught_by, g):
    with pytest.raises(NotProjectiveError, match=caught_by):
        monomial_rep(*mutated(change, g))


def nudge_cocycle(perm, phase, table, g):
    table[g, 3] *= np.exp(1e-11j)


def test_monomial_rep_validates_cocycle_at_unit_tol():
    # a nudge of 1e-11 passes the composition check at REP_TOL but breaks
    # the cocycle identity at UNIT_TOL
    with pytest.raises(InvalidParameterError, match="invalid multiplier"):
        monomial_rep(*mutated(nudge_cocycle, 2))


def test_monomial_rep_rejects_phase_off_unit_circle():
    group, mu, perm, phase = mutated()
    phase[4, 1] *= 1.5
    with pytest.raises(NotProjectiveError, match="modulus"):
        monomial_rep(group, mu, perm, phase)


def test_monomial_rep_rejects_nan_phase():
    group, mu, perm, phase = mutated()
    phase[4, 1] = np.nan
    with pytest.raises(NotProjectiveError, match="modulus"):
        monomial_rep(group, mu, perm, phase)


def nan_cocycle(perm, phase, table, g):
    table[g, 3] = np.nan


def test_monomial_rep_nan_cocycle_entry_fails_the_composition_gate():
    with pytest.raises(NotProjectiveError, match="differs from mu"):
        monomial_rep(*mutated(nan_cocycle, 2))


def test_monomial_rep_rejects_malformed_inputs():
    group, mu, perm, phase = mutated()
    with pytest.raises(InvalidParameterError):
        monomial_rep(group, mu, perm[:-1], phase[:-1])
    with pytest.raises(InvalidParameterError):
        monomial_rep(group, mu, perm, phase[:, :-1])
    with pytest.raises(InvalidParameterError):
        monomial_rep(group, mu, perm.astype(float), phase)
    out_of_range = perm.copy()
    out_of_range[1, 0] = 6
    with pytest.raises(InvalidParameterError):
        monomial_rep(group, mu, out_of_range, phase)
    other = cyclic_group(group.order)
    with pytest.raises(InvalidParameterError):
        monomial_rep(group, trivial_multiplier(other), perm, phase)


def test_subrepresentation_full_projection():
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    sub = subrepresentation(lam, np.eye(4))
    assert sub.dim == 4
    assert verify_rep(sub).passed


def test_subrepresentation_dft_frequencies():
    # restriction of lambda(Z4) to DFT frequencies {0,1}; characters 1 + i^g
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    f = dft_matrix(4)
    p = f[:, :2] @ f[:, :2].conj().T
    sub = subrepresentation(lam, p)
    assert sub.dim == 2
    assert verify_rep(sub).passed
    traces = np.array([np.trace(sub.matrices[k]) for k in range(4)])
    np.testing.assert_allclose(traces, 1 + 1j ** np.arange(4), atol=1e-10)


def test_subrepresentation_rejects_non_projection():
    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    with pytest.raises(InvalidParameterError):
        subrepresentation(lam, 0.5 * np.eye(3))


def test_subrepresentation_rejects_non_commuting_projection():
    g = cyclic_group(3)
    lam = left_regular(g, trivial_multiplier(g))
    p = np.zeros((3, 3))
    p[0, 0] = 1.0  # coordinate projection does not commute with the shift
    with pytest.raises(NotInvariantError):
        subrepresentation(lam, p)


def test_character_subrep_values():
    rep = character_subrep(4, [0, 2])
    np.testing.assert_allclose(rep.matrices[1], np.diag([1.0, -1.0]), atol=1e-14)
    assert verify_rep(rep).passed


def test_character_subrep_rejects_empty_group():
    with pytest.raises(InvalidParameterError):
        character_subrep(0, [1])


def test_character_subrep_single_frequency_is_trivial_rep():
    rep = character_subrep(5, [0])
    assert rep.dim == 1
    for k in range(5):
        np.testing.assert_allclose(rep.matrices[k], [[1.0]], atol=1e-14)


def test_character_subrep_full_set_matches_regular_characters():
    # same characters as the regular representation: N delta_{g,0}
    n = 6
    rep = character_subrep(n, range(n))
    lam = left_regular(cyclic_group(n), trivial_multiplier(cyclic_group(n)))
    for g in range(n):
        assert np.trace(rep.matrices[g]) == pytest.approx(np.trace(lam.matrices[g]), abs=1e-10)


def test_character_subrep_rejects_empty():
    with pytest.raises(InvalidParameterError):
        character_subrep(4, [])


def test_regular_orbit_of_identity_vector_is_orthonormal(lam_z6):
    e = np.zeros(6)
    e[lam_z6.group.identity] = 1.0
    np.testing.assert_allclose(gram_matrix(lam_z6, e), np.eye(6), atol=1e-12)


def test_rep_requires_matching_multiplier_group():
    g = cyclic_group(3)
    with pytest.raises(InvalidParameterError):
        left_regular(g, trivial_multiplier(cyclic_group(4)))


def test_left_regular_random_multiplier_group_mismatch_shapes():
    g = cyclic_group(3)
    bad = Multiplier(g, np.ones((3, 3)) * 1j)  # violates normalization
    with pytest.raises(InvalidParameterError):
        left_regular(g, bad)


def test_orbit_matrix_definition(lam_heis2):
    # analysis rows are conjugated orbit vectors for a random input
    from framedual import analysis_op
    rng = substream(23, 0)
    xi = random_complex_vector(rng, 4)
    theta = analysis_op(lam_heis2, xi)
    for g in range(4):
        np.testing.assert_allclose(theta[g], (lam_heis2.matrices[g] @ xi).conj(), atol=1e-14)


# --- the generator certificate against the all-pairs route -----------------

def outcome(build):
    """(exception class, message, matrices) of one construction."""
    try:
        rep = build()
    except FrameDualError as exc:
        return type(exc), str(exc), None
    return None, None, rep.matrices


def both_routes(monkeypatch, build):
    """The outcome as is, and with the certificate made to never pass, which
    forces the check over all pairs and validate_multiplier."""
    as_is = outcome(build)
    with monkeypatch.context() as m:
        m.setattr(reps_module, "certify_multiplier", lambda mu: False)
        full = outcome(build)
    return as_is, full


def assert_same_outcome(as_is, full):
    assert as_is[:2] == full[:2]
    assert (as_is[2] is None) == (full[2] is None)
    if as_is[2] is not None:
        assert np.array_equal(as_is[2], full[2])


def certified_cocycles():
    rng = np.random.default_rng(23)
    return {
        "heisenberg3": heisenberg_multiplier(3),
        "Z2xZ4": random_cocycle([2, 4], [1, 3, 0], list(rng.random(12))),
        "D4": coboundary(from_cayley_table(dihedral_cayley(4), label="D4"), rng.random(8)),
        "Q8": coboundary(from_cayley_table(quaternion_cayley(), label="Q8"), rng.random(8)),
    }


def regular_as_monomial(group, mu):
    # row r of L(g) holds mu(g, g^-1 r) in column g^-1 r
    perm = group.cayley[group.inverse]
    phase = np.take_along_axis(mu.table, perm, axis=1)
    return perm, phase


def mutation_sites(group):
    """(g, h) entries to mutate: a generator row, the last element's row,
    the normalization row and column, and an inverse pair."""
    s = group.generating_set.elements[0]
    last = group.order - 1
    other = (group.identity + 1) % group.order
    return [(s, last), (last, s), (group.identity, other), (other, group.identity),
            (other, group.inv(other))]


THETAS = (1e-13, 1e-11, 1e-6, 0.25)


@pytest.mark.parametrize("name", ["heisenberg3", "Z2xZ4", "D4", "Q8"])
@pytest.mark.parametrize("theta", THETAS)
def test_regular_reps_decide_as_the_full_route(monkeypatch, name, theta):
    mu = certified_cocycles()[name]
    group = mu.group
    perm, phase = regular_as_monomial(group, mu)
    for g, h in mutation_sites(group):
        table = mu.table.copy()
        table[g, h] *= np.exp(1j * theta)
        bad = Multiplier(group, table)
        for build in (lambda: left_regular(group, bad), lambda: right_regular(group, bad),
                      lambda: monomial_rep(group, bad, perm, phase)):
            assert_same_outcome(*both_routes(monkeypatch, build))


def turn_cocycle_entry(theta):
    def change(perm, phase, table, g):
        table[g, 4] *= np.exp(1j * theta)
    return change


@pytest.mark.parametrize("theta", THETAS)
def test_monomial_rep_phase_mutations_decide_as_the_full_route(monkeypatch, theta):
    for g in (1, 2, 5):
        for i in (0, 3):
            group, mu, perm, phase = mutated()
            phase[g, i] *= np.exp(1j * theta)
            assert_same_outcome(*both_routes(
                monkeypatch, lambda: monomial_rep(group, mu, perm, phase)))
        group, mu, perm, phase = mutated(turn_cocycle_entry(theta), g)
        assert_same_outcome(*both_routes(
            monkeypatch, lambda: monomial_rep(group, mu, perm, phase)))


@pytest.mark.parametrize("factor", [0, 1])
def test_monomial_certificate_checks_every_generator(monkeypatch, factor):
    # Z4 x Z4 on C^4: (a, b) shifts by one coordinate plus f of the other,
    # f(x) = x^2 mod 4 no homomorphism, so only the generators of the other
    # factor see that the columns do not compose
    group = direct_product(cyclic_group(4), cyclic_group(4))
    coords = np.divmod(np.arange(16), 4)
    shift = coords[factor] + coords[1 - factor] ** 2 % 4
    perm = (np.arange(4)[None, :] - shift[:, None]) % 4
    phase = np.ones((16, 4), dtype=complex)
    as_is, full = both_routes(
        monkeypatch, lambda: monomial_rep(group, trivial_multiplier(group), perm, phase))
    assert as_is[0] is NotProjectiveError
    assert_same_outcome(as_is, full)


def test_monomial_certificate_gate_covers_long_words(monkeypatch):
    # a family on C^1 near the trivial character of Z2^6: phase(x) =
    # exp(i eps |x|^2) with |x| the Hamming weight, so the composition
    # residual |a|^2 + |b|^2 - |a + b|^2 is at most 12 eps on the generator
    # rows but 72 eps at a = b
    group = cyclic_group(2)
    for _ in range(5):
        group = direct_product(group, cyclic_group(2))
    weight = np.array([bin(x).count("1") for x in range(64)])
    perm = np.zeros((64, 1), dtype=int)
    for eps, accepted in ((5e-12, False), (5e-13, True)):
        phase = np.exp(1j * eps * weight[:, None] ** 2)
        as_is, full = both_routes(
            monkeypatch, lambda: monomial_rep(group, trivial_multiplier(group), perm, phase))
        assert (as_is[0] is None) == accepted
        assert_same_outcome(as_is, full)


def test_certificate_decides_unmutated_constructions(monkeypatch):
    calls = []

    def counted(mu):
        calls.append(mu)
        return validate_multiplier(mu)

    monkeypatch.setattr(reps_module, "validate_multiplier", counted)
    for mu in certified_cocycles().values():
        left_regular(mu.group, mu)
        right_regular(mu.group, mu)
        monomial_rep(mu.group, mu, *regular_as_monomial(mu.group, mu))
    for lattice in ((6, 2, 3), (16, 1, 1), (32, 2, 2)):
        gabor_rep(GaborLattice(*lattice))
    assert calls == []
    # the trivial group has no generators: the full route decides
    group = cyclic_group(1)
    left_regular(group, trivial_multiplier(group))
    assert len(calls) == 1


def test_composition_residual_expansion():
    # the identity monomial_rep's derivation rests on holds for any monomial
    # family and any table; here neither is projective
    rep = GABOR_6_2_3
    group, cay = rep.group, rep.group.cayley
    rng = np.random.default_rng(29)
    mats = rep.matrices * np.exp(0.1j * rng.standard_normal(rep.matrices.shape[:2]))[:, :, None]
    t = rep.multiplier.table * np.exp(0.1j * rng.standard_normal(rep.multiplier.table.shape))

    def r(g, h):
        return mats[g] @ mats[h] - t[g, h] * mats[cay[g, h]]

    def defect(a, b, c):
        return t[a, cay[b, c]] * t[b, c] - t[cay[a, b], c] * t[a, b]

    worst = 0.0
    for s in group.generating_set.elements:
        for g2 in range(group.order):
            for h in range(group.order):
                g = cay[s, g2]
                lhs = t[s, g2] * r(g, h)
                rhs = (t[g2, h] * r(s, cay[g2, h]) + mats[s] @ r(g2, h)
                       - r(s, g2) @ mats[h] + defect(s, g2, h) * mats[cay[g, h]])
                worst = max(worst, np.abs(lhs - rhs).max())
    assert worst < 1e-12
