"""Finite Gabor systems on C^n: translation and modulation operators, lattice
representations, the adjoint lattice, and the Zak transform.

The lattice convention puts the modulation step first: the representation of
(m, k) is M^{am} T^{bk}, so "a" subsamples frequency and "b" subsamples time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .groups import cyclic_group, direct_product, time_frequency_multiplier
from .reps import ProjectiveRep, monomial_rep


@dataclass(frozen=True)
class GaborLattice:
    """Sub-lattice a Z_n x b Z_n of the time-frequency plane over Z_n."""

    n: int
    a: int  # modulation step, divides n
    b: int  # translation step, divides n

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("ambient dimension must be >= 1")
        for name, step in (("a", self.a), ("b", self.b)):
            if not (1 <= step <= self.n) or self.n % step != 0:
                raise InvalidParameterError(
                    f"lattice step {name}={step} must divide n={self.n}"
                )


def translation(n: int) -> np.ndarray:
    """Cyclic shift: (T x)[k] = x[(k - 1) mod n]."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    t = np.zeros((n, n), dtype=complex)
    t[np.arange(n), (np.arange(n) - 1) % n] = 1.0
    return t


def modulation(n: int) -> np.ndarray:
    """Pointwise phase ramp: M = diag(exp(2 pi i k / n))."""
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def gabor_rep(lattice: GaborLattice) -> ProjectiveRep:
    """Projective representation (m, k) -> M^{am} T^{bk} on C^n.

    The index group is Z_{n/a} x Z_{n/b}.  Each M^{am} T^{bk} is monomial:
    row i holds exp(2 pi i (am) i / n) in column (i - bk) mod n.  The
    cocycle is written down from T^{bk} M^{am'} = e^{-2 pi i (am')(bk)/n}
    M^{am'} T^{bk}, so mu((m, k), (m', k')) = exp(-2 pi i ((am')(bk) mod n) / n),
    and monomial_rep checks every twisted composition in monomial form.
    """
    n, a, b = lattice.n, lattice.a, lattice.b
    qm, qt = n // a, n // b
    group = direct_product(cyclic_group(qm), cyclic_group(qt))
    m, k = np.divmod(np.arange(qm * qt), qt)
    i = np.arange(n)
    perm = (i - b * k[:, None]) % n
    phase = np.exp(2j * np.pi * (a * m)[:, None] * i / n)
    mu = time_frequency_multiplier(group, b * k, a * m, n)
    return monomial_rep(group, mu, perm, phase, label=f"gabor[{n};{a},{b}]")


def adjoint_lattice(lattice: GaborLattice) -> GaborLattice:
    """Steps swap and invert through n: (n, a, b) -> (n, n/b, n/a)."""
    return GaborLattice(lattice.n, lattice.n // lattice.b, lattice.n // lattice.a)


def zak_transform(f, a: int) -> np.ndarray:
    """Zak transform with a time cells: an a x (n/a) array

        Z f[j, k] = (n/a)^(-1/2) * sum_m f[j + m a] exp(-2 pi i m k / (n/a)),

    unitary from C^n onto C^{a x (n/a)} in the Frobenius norm.
    """
    x = np.asarray(f, dtype=complex).reshape(-1)
    n = x.size
    if n == 0:
        raise InvalidParameterError("empty vector")
    if not (1 <= a <= n) or n % a != 0:
        raise InvalidParameterError(f"a={a} must divide the vector length {n}")
    q = n // a
    rows = x.reshape(q, a).T  # rows[j, m] = f[j + m a]
    return np.fft.fft(rows, axis=1) / np.sqrt(q)
