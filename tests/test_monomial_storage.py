"""Monomial storage: the built-in constructions keep (perm, phase) and scatter
the dense stack on first read, entry for entry the stack that the per-g
scatters below build; the orbit routes scatter it slab by slab instead, and
form the orbits of the dense stack bit for bit without ever holding it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    GaborLattice,
    ProjectiveRep,
    adjoint_lattice,
    analysis_op,
    character_subrep,
    classify,
    classify_block,
    cyclic_group,
    frame_operator,
    from_cayley_table,
    gabor_rep,
    gram_matrix,
    heisenberg_multiplier,
    left_regular,
    parseval_normalize,
    right_regular,
    trivial_multiplier,
)
import framedual.reps as reps_module
from framedual.frames import _orbits, _rep_orbits
from framedual.linalg import random_complex_block

from conftest import coboundary, dihedral_cayley, quaternion_cayley, random_monomial_reps, unbuilt


def dense_left_regular(group, mu):
    """Column h of L(g) is mu(g, h) at row g*h, one scatter per g."""
    n = group.order
    cols = np.arange(n)
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.cayley[g, cols], cols] = mu.table[g, cols]
    return mats


def dense_right_regular(group, mu):
    """Column h of R(g) is mu(h, g^-1) at row h*g^-1, one scatter per g."""
    n = group.order
    cay, inv = group.cayley, group.inverse
    cols = np.arange(n)
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, cay[cols, inv[g]], cols] = mu.table[cols, inv[g]]
    return mats


def dense_character(n, ks):
    """diag(exp(2 pi i g k / n), k in ks), filled on the diagonal."""
    phases = np.exp(2j * np.pi * np.arange(n)[:, None] * np.asarray(ks)[None, :] / n)
    mats = np.zeros((n, len(ks), len(ks)), dtype=complex)
    idx = np.arange(len(ks))
    mats[:, idx, idx] = phases
    return mats


def assert_regular_pair_matches(group, mu):
    assert np.array_equal(left_regular(group, mu).matrices, dense_left_regular(group, mu))
    assert np.array_equal(right_regular(group, mu).matrices, dense_right_regular(group, mu))


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclic_regular_reps_match_the_dense_scatter(n):
    group = cyclic_group(n)
    assert_regular_pair_matches(group, trivial_multiplier(group))


@pytest.mark.parametrize("n", range(2, 9))
def test_heisenberg_regular_reps_match_the_dense_scatter(n):
    mu = heisenberg_multiplier(n)
    assert_regular_pair_matches(mu.group, mu)


@settings(max_examples=25, deadline=None)
@given(table=st.sampled_from([dihedral_cayley(4), quaternion_cayley()]),
       phases=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_nonabelian_regular_reps_match_the_dense_scatter(table, phases):
    mu = coboundary(from_cayley_table(table), phases)
    assert_regular_pair_matches(mu.group, mu)


@pytest.mark.parametrize("n, freqs", [(1, [0]), (4, [0, 2]), (8, [1, 3, 5]),
                                      (12, [11, 0, 7, 7, 19]), (16, range(16))])
def test_character_reps_match_the_diagonal_fill(n, freqs):
    rep = character_subrep(n, freqs)
    ks = sorted({k % n for k in freqs})
    assert rep.dim == len(ks)
    assert np.array_equal(rep.matrices, dense_character(n, ks))


def test_construction_allocates_no_stack():
    # the dense stack of Z256 would be 256^3 complex entries, 256 MiB
    group = cyclic_group(256)
    mu = trivial_multiplier(group)
    tracemalloc.start()
    try:
        rep = left_regular(group, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dim == 256
    assert peak < 8 * 2 ** 20


def test_stack_is_read_only_contiguous_and_cached():
    group = cyclic_group(6)
    rep = left_regular(group, trivial_multiplier(group))
    mats = rep.matrices
    assert mats.shape == (6, 6, 6) and mats.dtype == complex
    assert mats.flags.c_contiguous and not mats.flags.writeable
    assert rep.matrices is mats
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        rep.matrices = mats.copy()


# --- orbits slab by slab -------------------------------------------------------

def _builtin_reps():
    z7, d4 = cyclic_group(7), from_cayley_table(dihedral_cayley(4))
    mu3 = heisenberg_multiplier(3)
    mu_d4 = coboundary(d4, np.linspace(0.1, 0.8, 8))
    reps = [left_regular(z7, trivial_multiplier(z7)), right_regular(z7, trivial_multiplier(z7)),
            left_regular(mu3.group, mu3), right_regular(mu3.group, mu3),
            left_regular(d4, mu_d4), right_regular(d4, mu_d4),
            character_subrep(12, [11, 0, 7])]
    for lattice in (GaborLattice(12, 3, 2), GaborLattice(16, 2, 2), GaborLattice(6, 1, 1)):
        reps += [gabor_rep(lattice), gabor_rep(adjoint_lattice(lattice))]
    return reps


BUILTIN_REPS = _builtin_reps()


def assert_slab_orbits_are_dense_orbits(rep, seed):
    """With slabs of one element, and of a count that does not divide |G|,
    the slabs are the dense stack's, and the orbits of a block and of a
    single vector are _orbits of the dense stack byte for byte, while the
    rep's own stack stays unbuilt."""
    n = rep.group.order
    dense = unbuilt(rep).matrices
    xs = random_complex_block(seed, range(5), rep.dim)
    orbits = _orbits(dense, xs)
    for size in [1] + [k for k in range(2, n) if n % k][:1]:
        copy = unbuilt(rep)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(reps_module, "SLAB_BYTES", size * 16 * rep.dim ** 2)
            starts = []
            for start, slab in copy.slabs():
                assert not slab.flags.writeable
                assert np.array_equal(slab, dense[start:start + size])
                starts.append(start)
            assert starts == list(range(0, n, size))
            assert _rep_orbits(copy, xs).tobytes() == orbits.tobytes()
            assert _rep_orbits(copy, xs[0]).tobytes() == orbits[0].tobytes()
        assert "matrices" not in vars(copy)


@pytest.mark.parametrize("rep", BUILTIN_REPS, ids=lambda rep: rep.label)
def test_slab_orbits_are_dense_orbits(rep):
    assert_slab_orbits_are_dense_orbits(rep, 5)


@settings(max_examples=30, deadline=None)
@given(random_monomial_reps, st.integers(0, 2**32 - 1))
def test_slab_orbits_are_dense_orbits_on_random_cocycles(rep, seed):
    assert_slab_orbits_are_dense_orbits(rep, seed)


def test_dense_rep_yields_its_stack_whole():
    rep = BUILTIN_REPS[2]
    dense = ProjectiveRep(rep.group, rep.multiplier, rep.matrices)
    assert [(start, slab is dense.matrices) for start, slab in dense.slabs()] == [(0, True)]


@pytest.mark.parametrize("route", [
    classify, lambda rep, x: classify_block(rep, x[None]), frame_operator, gram_matrix,
    analysis_op, parseval_normalize,
], ids=["classify", "classify_block", "frame_operator", "gram_matrix", "analysis_op",
        "parseval_normalize"])
def test_report_routes_leave_the_stack_unbuilt(route):
    # each route's result is the one it gives on a dense copy of the rep, bit for bit
    for rep in BUILTIN_REPS:
        x = random_complex_block(9, [0], rep.dim)[0]
        copy = unbuilt(rep)
        got = route(copy, x)
        assert "matrices" not in vars(copy)
        expected = route(ProjectiveRep(rep.group, rep.multiplier, rep.matrices), x)
        if isinstance(got, np.ndarray):
            assert got.tobytes() == expected.tobytes()
        else:
            assert got == expected


def test_classify_holds_no_stack():
    # the dense stack of Z256 would be 256^3 complex entries, 256 MiB
    group = cyclic_group(256)
    rep = left_regular(group, trivial_multiplier(group))
    x = random_complex_block(2, [0], 256)[0]
    tracemalloc.start()
    try:
        cls = classify(rep, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.is_complete_frame and "matrices" not in vars(rep)
    assert peak < 16 * 2 ** 20
