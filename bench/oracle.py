"""Reference constructions that check framedual's outputs from outside.

Nothing here imports framedual.  Groups are products of cyclic groups with
elements indexed in mixed radix, first factor most significant, which is the
order framedual's direct products and Gabor lattices use.  Representations
are never stored as dense stacks: an orbit {pi(g) x} is built directly, a
regular representation as a permutation times a cocycle phase and a Gabor
representation as np.roll times a phase ramp.  Spectra come from numpy's
eigvalsh and svd on the orbit matrix, not from framedual's linalg layer.
"""

from __future__ import annotations

import math

import numpy as np

RANK_TOL = 1e-9   # framedual's documented default relative rank cut
FLAG_TOL = 1e-8   # its documented Parseval / orthonormal gate
PAIR_TOL = 1e-8   # its documented algebra-equality gate
REP_TOL = 1e-10   # its documented representation residual gate


def cyclic_product(orders) -> tuple[np.ndarray, np.ndarray]:
    """Cayley table and inverse map of Z_{n1} x ... x Z_{nr}."""
    orders = tuple(int(n) for n in orders)
    coords = np.indices(orders).reshape(len(orders), -1)        # (r, |G|)
    mods = np.array(orders)[:, None, None]
    products = (coords[:, :, None] + coords[:, None, :]) % mods  # (r, |G|, |G|)
    cayley = np.ravel_multi_index(tuple(products), orders)
    inverse = np.ravel_multi_index(tuple((-coords) % mods[:, :, 0]), orders)
    return cayley, inverse


def trivial_cocycle(order: int) -> np.ndarray:
    return np.ones((order, order), dtype=complex)


def heisenberg_cocycle(n: int) -> np.ndarray:
    """mu((m, k), (m', k')) = exp(-2 pi i k m' / n) on Z_n x Z_n."""
    idx = np.arange(n * n)
    m, k = idx // n, idx % n
    return np.exp(-2j * np.pi * np.outer(k, m) / n)


def gabor_cocycle(n: int, a: int, b: int) -> np.ndarray:
    """Phase of M^{am} T^{bk} M^{am'} T^{bk'} against M^{a(m+m')} T^{b(k+k')}:
    exp(-2 pi i a b k m' / n), since T^j M^l = exp(-2 pi i l j / n) M^l T^j."""
    qm, qt = n // a, n // b
    idx = np.arange(qm * qt)
    m, k = idx // qt, idx % qt
    return np.exp(-2j * np.pi * a * b * np.outer(k, m) / n)


def regular_orbit(cayley, inverse, cocycle, x, side: str = "left") -> np.ndarray:
    """Rows pi(g) x of the left (L(g) e_h = mu(g, h) e_{gh}) or right
    (R(g) e_h = mu(h, g^-1) e_{h g^-1}) regular representation."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    rows = np.arange(n)[:, None]
    orbit = np.zeros((n, n), dtype=complex)
    if side == "left":
        orbit[rows, cayley] = cocycle * x[None, :]
    else:
        orbit[rows, cayley[:, inverse].T] = cocycle[:, inverse].T * x[None, :]
    return orbit


def gabor_orbit(n: int, a: int, b: int, x) -> np.ndarray:
    """Rows M^{am} T^{bk} x for (m, k) in Z_{n/a} x Z_{n/b}, row m*(n/b) + k."""
    x = np.asarray(x, dtype=complex)
    qm, qt = n // a, n // b
    shifted = np.stack([np.roll(x, b * k) for k in range(qt)])             # (qt, n)
    ramps = np.exp(2j * np.pi * a * np.outer(np.arange(qm), np.arange(n)) / n)
    return (ramps[:, None, :] * shifted[None, :, :]).reshape(qm * qt, n)


def dense(orbit_of, dim: int) -> np.ndarray:
    """The stack of matrices pi(g), column j being the orbit of e_j.  Only
    for small cases: tests and the bundles written at set-up."""
    eye = np.eye(dim, dtype=complex)
    return np.stack([orbit_of(eye[j]) for j in range(dim)], axis=2)


def closed_form_dims(kind: str, n: int, a: int = 0, b: int = 0) -> tuple[int, int, int]:
    """(commutant, generated algebra, center) dimensions of pi(G).

    cyclic Z_n, trivial cocycle: n, n, n.  Heisenberg Z_n x Z_n: n^2, n^2, 1.
    Gabor (n, a, b): a b, (n/a)(n/b), (n/lcm(a, n/b)) (n/lcm(b, n/a)).
    """
    if kind == "cyclic":
        return n, n, n
    if kind == "heisenberg":
        return n * n, n * n, 1
    if kind == "gabor":
        center = (n // math.lcm(a, n // b)) * (n // math.lcm(b, n // a))
        return a * b, (n // a) * (n // b), center
    raise ValueError(f"unknown kind {kind!r}")


def frame_operator(orbit) -> np.ndarray:
    """S = sum_g (pi(g) x)(pi(g) x)*."""
    return orbit.T @ orbit.conj()


def classification(orbit, rank_tol: float = RANK_TOL,
                   flag_tol: float = FLAG_TOL) -> dict:
    """Frame bounds and flags of the orbit, from eigvalsh of S and the
    singular values of the orbit matrix (whose squares are the Gram
    spectrum)."""
    size, dim = orbit.shape
    evals = np.linalg.eigvalsh(frame_operator(orbit))
    top = max(float(evals[-1]), 0.0)
    nonzero = evals[evals > rank_tol * top] if top > 0 else evals[:0]
    lower = float(nonzero[0]) if nonzero.size else 0.0
    upper = float(nonzero[-1]) if nonzero.size else 0.0
    sv2 = np.linalg.svd(orbit, compute_uv=False) ** 2
    gram_rank = int(np.count_nonzero(sv2 > rank_tol * sv2[0])) if sv2[0] > 0 else 0
    gram = orbit.conj() @ orbit.T
    is_frame_sequence = bool(np.any(orbit != 0))
    return {
        "orbit_span_dim": int(nonzero.size),
        "lower_bound": lower,
        "upper_bound": upper,
        "is_frame_sequence": is_frame_sequence,
        "is_complete_frame": is_frame_sequence and nonzero.size == dim,
        "is_parseval": (is_frame_sequence and nonzero.size > 0
                        and abs(lower - 1.0) <= flag_tol and abs(upper - 1.0) <= flag_tol),
        "is_riesz_sequence": gram_rank == size,
        "is_orthonormal": bool(np.abs(gram - np.eye(size)).max() < flag_tol),
    }


def psd_inverse_sqrt(s, rank_tol: float = RANK_TOL) -> np.ndarray:
    """S^{-1/2} on the support of a PSD matrix, zero off it."""
    w, v = np.linalg.eigh(s)
    keep = w > rank_tol * max(float(w[-1]), 0.0)
    out = np.zeros_like(w)
    out[keep] = w[keep] ** -0.5
    return (v * out) @ v.conj().T


def zak(x, a: int) -> np.ndarray:
    """Zak transform by its defining sum (no FFT):
    Z[j, k] = (n/a)^{-1/2} sum_m x[j + m a] exp(-2 pi i m k / (n/a))."""
    x = np.asarray(x, dtype=complex)
    q = x.size // a
    out = np.zeros((a, q), dtype=complex)
    for j in range(a):
        for k in range(q):
            out[j, k] = sum(x[j + m * a] * np.exp(-2j * np.pi * m * k / q)
                            for m in range(q)) / math.sqrt(q)
    return out
