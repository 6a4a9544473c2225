"""Seeded deterministic generators for paths, actions and model scenarios.

All randomness flows through a counter-based Philox generator so identical
seeds reproduce identical objects bit for bit.
"""

from math import pi

import numpy as np
import scipy.linalg as sl

from ..spectra import isotypic_split
from ..specflow import Path

__all__ = [
    "rng_for",
    "rand_unitary",
    "rand_hermitian",
    "zn_action",
    "commuting_hermitian_path",
    "commuting_unitary_path",
    "commuting_static_unitary",
    "commutant_loop",
    "lagrangian_loop_pair",
]


def rng_for(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def rand_unitary(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def rand_hermitian(n, rng, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A + A.conj().T) / 2.0


def zn_action(dim, order, rng):
    """Random Z_order action: h = R diag(w^{k_i}) R^* with w = e^{2 pi i/order}.

    Returns (h, weights k_i, block index lists, R).
    """
    ks = np.sort(rng.integers(0, order, size=dim))
    w = np.exp(2j * pi / order)
    R = rand_unitary(dim, rng)
    h = R @ np.diag(w ** ks) @ R.conj().T
    blocks = [np.nonzero(ks == k)[0] for k in np.unique(ks)]
    return h, ks, blocks, R


def _block_embed(blocks, dim, pieces):
    M = np.zeros((dim, dim), dtype=complex)
    for idx, piece in zip(blocks, pieces):
        M[np.ix_(idx, idx)] = piece
    return M


def commuting_hermitian_path(dim, order, rng, scale=1.5):
    """Smooth Hermitian path commuting with a random Z_order action.

    Built blockwise in the action's eigenbasis:
    B(t) = R [C0 + t C1 + sin(pi t) C2 + cos(2 pi t) C3] R^*.
    Returns (Path, h).
    """
    h, _, blocks, R = zn_action(dim, order, rng)
    coeffs = []
    for idx in blocks:
        b = len(idx)
        coeffs.append([rand_hermitian(b, rng, scale),
                       rand_hermitian(b, rng, scale),
                       rand_hermitian(b, rng, 0.7 * scale),
                       rand_hermitian(b, rng, 0.4 * scale)])

    def sampler(t):
        pieces = [c[0] + t * c[1] + np.sin(pi * t) * c[2] + np.cos(2 * pi * t) * c[3]
                  for c in coeffs]
        inner = _block_embed(blocks, dim, pieces)
        return R @ inner @ R.conj().T

    return Path(dim, sampler), h


def commuting_unitary_path(dim, order, rng, windings=1, amp=1.0, loop=False):
    """Smooth unitary path commuting with a random Z_order action.

    With loop=True the path closes (f(1) = f(0)) while still winding
    `windings` times on random eigendirections.  Returns (Path, a).
    """
    a, _, blocks, R = zn_action(dim, order, rng)
    pieces = []
    for idx in blocks:
        b = len(idx)
        H0 = rand_hermitian(b, rng, amp)
        H2 = rand_hermitian(b, rng, 0.6 * amp)
        K = np.diag(rng.integers(-windings, windings + 1, size=b).astype(float))
        E0 = sl.expm(1j * H0)
        if loop:
            def piece(t, E0=E0, K=K, H2=H2):
                return E0 @ sl.expm(2j * pi * t * K) @ sl.expm(1j * np.sin(pi * t) * H2)
        else:
            H1 = rand_hermitian(b, rng, amp)
            def piece(t, E0=E0, K=K, H1=H1, H2=H2):
                return E0 @ sl.expm(2j * pi * t * K) @ \
                    sl.expm(1j * (t * H1 + np.sin(pi * t) * H2))
        pieces.append(piece)

    def sampler(t):
        inner = _block_embed(blocks, dim, [p(t) for p in pieces])
        return R @ inner @ R.conj().T

    return Path(dim, sampler), a


def commuting_static_unitary(dim, order, rng, amp=1.0):
    """A unitary matrix commuting with a random Z_order action: (U, a)."""
    a, _, blocks, R = zn_action(dim, order, rng)
    pieces = [sl.expm(1j * rand_hermitian(len(idx), rng, amp)) for idx in blocks]
    return R @ _block_embed(blocks, dim, pieces) @ R.conj().T, a


def commutant_loop(a, rng, windings=1):
    """A unitary loop commuting with the actor a, built blockwise in a's
    eigenbasis: E0 exp(2 pi i t K) exp(i sin(pi t) H2) per eigenvalue cluster,
    drawing H0 (E0 = exp(i H0)), H2 and the integer diagonal K in that order."""
    n = a.shape[0]
    V, blocks, _ = isotypic_split(a, n)
    pieces = []
    for idx in blocks:
        b = len(idx)
        H0 = rand_hermitian(b, rng, 0.9)
        H2 = rand_hermitian(b, rng, 0.5)
        K = np.diag(rng.integers(-windings, windings + 1, size=b).astype(float))
        E0 = sl.expm(1j * H0)
        def piece(t, E0=E0, K=K, H2=H2):
            return E0 @ sl.expm(2j * pi * t * K) @ sl.expm(1j * np.sin(pi * t) * H2)
        pieces.append(piece)

    def loop(t):
        inner = _block_embed(blocks, n, [p(t) for p in pieces])
        return V @ inner @ V.conj().T

    return loop


def lagrangian_loop_pair(n, order, rng, windings=1):
    """Two loops of Lagrangian-projection unitaries commuting with one actor.

    Returns (T sampler, S sampler, a).  Loops guarantee that winding counts
    are insensitive to wall placement, which the twisted-path identity test
    relies on.
    """
    pT, a = commuting_unitary_path(n, order, rng, windings, amp=0.9, loop=True)
    return pT.sampler, commutant_loop(a, rng, windings), a
