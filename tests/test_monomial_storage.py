"""Monomial storage: the built-in constructions keep (perm, phase) and scatter
the dense stack on first read, entry for entry the stack that the per-g
scatters below build."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    character_subrep,
    cyclic_group,
    from_cayley_table,
    heisenberg_multiplier,
    left_regular,
    right_regular,
    trivial_multiplier,
)

from conftest import coboundary, dihedral_cayley, quaternion_cayley


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
