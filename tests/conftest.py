"""Shared fixtures: small groups, multipliers, and representations."""

import numpy as np
import pytest
from hypothesis import strategies as st

from framedual import (
    Multiplier,
    cyclic_group,
    direct_product,
    heisenberg_multiplier,
    left_regular,
    monomial_rep,
    right_regular,
    trivial_multiplier,
    validate_multiplier,
)
from framedual.reps import ProjectiveRep


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def z2xz4():
    return direct_product(cyclic_group(2), cyclic_group(4))


@pytest.fixture(scope="session")
def heis2():
    return heisenberg_multiplier(2)


@pytest.fixture(scope="session")
def lam_z4(z4):
    return left_regular(z4, trivial_multiplier(z4))


@pytest.fixture(scope="session")
def lam_z6(z6):
    return left_regular(z6, trivial_multiplier(z6))


@pytest.fixture(scope="session")
def rho_z6(z6):
    return right_regular(z6, trivial_multiplier(z6))


@pytest.fixture(scope="session")
def lam_heis2(heis2):
    return left_regular(heis2.group, heis2)


def dihedral_cayley(n: int) -> np.ndarray:
    """Cayley table of the dihedral group of order 2n.

    Element i + n*j stands for r^i s^j with the relations r^n = s^2 = e and
    s r = r^{-1} s, so (r^a s^b)(r^c s^d) = r^{a + c(-1)^b} s^{b + d}.
    """
    size = 2 * n
    table = np.zeros((size, size), dtype=int)
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    rot = (a + (c if b == 0 else -c)) % n
                    table[a + n * b, c + n * d] = rot + n * ((b + d) % 2)
    return table


def quaternion_cayley() -> np.ndarray:
    """Cayley table of the quaternion group Q8.

    Element u + 4*s stands for (-1)^s q_u with q = (1, i, j, k), so that
    i^2 = j^2 = k^2 = ijk = -1.
    """
    # units[u][v] = (sign, w) with q_u q_v = sign * q_w
    units = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]
    table = np.zeros((8, 8), dtype=int)
    for a in range(8):
        for b in range(8):
            sign, w = units[a % 4][b % 4]
            negative = (a // 4 + b // 4 + (sign < 0)) % 2
            table[a, b] = w + 4 * negative
    return table


def coboundary(group, phases) -> Multiplier:
    """The cocycle f(g) f(h) / f(gh) of the phases f = exp(2 pi i phases),
    with f(e) = 1: a valid table on any group, abelian or not."""
    f = np.exp(2j * np.pi * np.asarray(phases[:group.order], dtype=float))
    f[group.identity] = 1.0
    return Multiplier(group, np.outer(f, f) / f[group.cayley])


def random_cocycle(orders, ks, betas) -> Multiplier:
    """A random cocycle on Z_{n1} x ...: a product of bicharacters
    exp(2 pi i k x_j(g) x_i(h) / gcd(n_i, n_j)), one per pair of factors,
    times the coboundary of random phases beta (beta(e) = 1)."""
    group = cyclic_group(orders[0])
    for n in orders[1:]:
        group = direct_product(group, cyclic_group(n))
    coords = np.unravel_index(np.arange(group.order), orders)
    table = np.ones((group.order, group.order), dtype=complex)
    pairs = [(i, j) for i in range(len(orders)) for j in range(i + 1, len(orders))]
    for (i, j), k in zip(pairs, ks):
        q = np.gcd(orders[i], orders[j])
        table *= np.exp(2j * np.pi * k * np.outer(coords[j], coords[i]) / q)
    beta = np.exp(2j * np.pi * np.asarray(betas[:group.order]))
    beta[group.identity] = 1.0
    table *= np.outer(beta, beta) / beta[group.cayley]
    return Multiplier(group, table)


def random_cocycle_rep(orders, ks, betas, side):
    """Regular rep of Z_{n1} x ... with a random cocycle (random_cocycle)."""
    mu = random_cocycle(orders, ks, betas)
    assert validate_multiplier(mu).passed
    return (left_regular if side == "left" else right_regular)(mu.group, mu)


cocycle_args = dict(
    orders=st.lists(st.integers(2, 3), min_size=2, max_size=2)
    | st.just([2, 2, 2]) | st.just([2, 4]) | st.just([2, 6]),
    ks=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    betas=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
)
random_cocycles = st.builds(random_cocycle, **cocycle_args)
random_reps = st.builds(random_cocycle_rep, **cocycle_args,
                        side=st.sampled_from(["left", "right"]))


def relabelled(rep, seed: int):
    """rep conjugated by a random monomial unitary D P, built by monomial_rep:
    the basis permuted by a random tau and multiplied by unit phases
    exp(i theta) with theta uniform, so no phase is a root of unity.  Row i
    of the new pi(g) holds phase[g, tau_i] u_i conj(u_j) in column
    j = tau^-1(perm[g, tau_i])."""
    rng = np.random.default_rng(seed)
    tau = rng.permutation(rep.dim)
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, rep.dim))
    perm = np.argsort(tau)[rep.perm[:, tau]]
    phase = rep.phase[:, tau] * u * u[perm].conj()
    return monomial_rep(rep.group, rep.multiplier, perm, phase, label=f"{rep.label}~{seed}")


def unbuilt(rep):
    """A new instance of a rep stored in monomial form: its dense stack is
    built only on first read of .matrices."""
    return ProjectiveRep._monomial(rep.group, rep.multiplier, rep.perm, rep.phase, rep.label)


random_monomial_reps = st.builds(relabelled, random_reps, st.integers(0, 2**32 - 1))
