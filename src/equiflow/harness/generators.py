"""Seeded deterministic generators for paths, actions and model scenarios.

All randomness flows through a counter-based Philox generator so identical
seeds reproduce identical objects bit for bit.
"""

from math import pi

import numpy as np
import scipy.linalg as sl

from ..spectra import isotypic_split
from ..specflow import Path, _from_stack

__all__ = [
    "rng_for",
    "rand_unitary",
    "rand_hermitian",
    "zn_action",
    "commuting_hermitian_path",
    "commuting_unitary_path",
    "commuting_static_unitary",
    "commutant_loop",
    "blockwise_unitary_path",
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


def _exp_i(X):
    """exp(i X) of a stack of Hermitian matrices, from one batched eigh."""
    lam, W = np.linalg.eigh(X)
    return (W * np.exp(1j * lam)[..., None, :]) @ np.swapaxes(W.conj(), -1, -2)


def blockwise_unitary_path(Q, blocks, factors):
    """Unitary sampler t -> sum_b Q_b U_b(t) Q_b* with Q_b = Q[:, blocks[b]] and

        U_b(t) = E0 exp(2 pi i t diag(k)) exp(i (t H1 + sin(pi t) H2))

    for factors[b] = (E0, k, H2, H1); H1 = None makes the block a loop.  The
    stack is one formula, Q U(t) Q* with U(t) block-diagonal on the blocks'
    index sets, with constants built here.  When every block is a loop,
    exp(i sin(pi t) H2) = W exp(i sin(pi t) diag(lam)) W* from the blockwise
    eigendecomposition of H2; else one batched eigh per stack of the block
    diagonal of t H1 + sin(pi t) H2.  The pointwise call is stack([t])[0]."""
    dim = Q.shape[1]
    E0, k, H2, H1 = zip(*factors)
    order = np.argsort(np.concatenate(blocks))  # concatenated block entries -> index order
    A = Q @ _block_embed(blocks, dim, E0)
    k = np.concatenate(k)[order]
    if all(h is None for h in H1):
        lam, W = zip(*map(np.linalg.eigh, H2))
        lam, W = np.concatenate(lam)[order], _block_embed(blocks, dim, W)
        B = (Q @ W).conj().T

        def stack(ts):
            DW = np.exp(2j * pi * np.outer(ts, k))[:, :, None] * W
            return A @ (DW * np.exp(1j * np.outer(np.sin(pi * ts), lam))[:, None, :]) @ B
    else:
        H1 = _block_embed(blocks, dim, [np.zeros_like(h2) if h1 is None else h1
                                        for h1, h2 in zip(H1, H2)])
        H2, B = _block_embed(blocks, dim, H2), Q.conj().T

        def stack(ts):
            flow = _exp_i(ts[:, None, None] * H1 + np.sin(pi * ts)[:, None, None] * H2)
            return (A * np.exp(2j * pi * np.outer(ts, k))[:, None, :]) @ flow @ B

    return _from_stack(stack)


def commuting_hermitian_path(dim, order, rng):
    """Smooth Hermitian path commuting with a random Z_order action.

    Built blockwise in the action's eigenbasis:
    B(t) = R [C0 + t C1 + sin(pi t) C2 + cos(2 pi t) C3] R^*, the C drawn at
    scales 1.5, 1.5, 0.7 * 1.5 and 0.4 * 1.5, batched as one product of the
    (K, 4) basis values and the four embedded coefficients.
    Returns (Path, h).
    """
    h, _, blocks, R = zn_action(dim, order, rng)
    C = np.zeros((4, dim, dim), dtype=complex)
    for idx in blocks:
        b = len(idx)
        C[:, idx[:, None], idx] = [rand_hermitian(b, rng, 1.5), rand_hermitian(b, rng, 1.5),
                                   rand_hermitian(b, rng, 0.7 * 1.5),
                                   rand_hermitian(b, rng, 0.4 * 1.5)]
    C = R @ C @ R.conj().T

    def stack(ts):
        basis = np.stack([np.ones_like(ts), ts, np.sin(pi * ts), np.cos(2 * pi * ts)], axis=1)
        return (basis @ C.reshape(4, -1)).reshape(len(ts), dim, dim)

    return Path(dim, _from_stack(stack)), h


def commuting_unitary_path(dim, order, rng, windings=1, amp=1.0, loop=False):
    """Smooth unitary path commuting with a random Z_order action:
    R_b E0 exp(2 pi i t K) exp(i (t H1 + sin(pi t) H2)) R_b* per block b of
    the action's eigenbasis R, drawing H0 (E0 = exp(i H0)), H2, the integer
    diagonal K and then H1 per block.

    With loop=True, H1 = 0 (not drawn): the path closes (f(1) = f(0)) while
    still winding `windings` times on random eigendirections.  Returns
    (Path, a).
    """
    a, _, blocks, R = zn_action(dim, order, rng)
    factors = []
    for idx in blocks:
        b = len(idx)
        H0 = rand_hermitian(b, rng, amp)
        H2 = rand_hermitian(b, rng, 0.6 * amp)
        k = rng.integers(-windings, windings + 1, size=b).astype(float)
        H1 = None if loop else rand_hermitian(b, rng, amp)
        factors.append((sl.expm(1j * H0), k, H2, H1))
    return Path(dim, blockwise_unitary_path(R, blocks, factors)), a


def commuting_static_unitary(dim, order, rng):
    """A unitary matrix commuting with a random Z_order action: (U, a)."""
    a, _, blocks, R = zn_action(dim, order, rng)
    pieces = [sl.expm(1j * rand_hermitian(len(idx), rng)) for idx in blocks]
    return R @ _block_embed(blocks, dim, pieces) @ R.conj().T, a


def commutant_loop(a, rng, windings=1):
    """A unitary loop commuting with the actor a, built blockwise in a's
    eigenbasis: E0 exp(2 pi i t K) exp(i sin(pi t) H2) per eigenvalue cluster,
    drawing H0 (E0 = exp(i H0)), H2 and the integer diagonal K in that order."""
    n = a.shape[0]
    V, blocks, _ = isotypic_split(a, n)
    factors = []
    for idx in blocks:
        b = len(idx)
        H0 = rand_hermitian(b, rng, 0.9)
        H2 = rand_hermitian(b, rng, 0.5)
        k = rng.integers(-windings, windings + 1, size=b).astype(float)
        factors.append((sl.expm(1j * H0), k, H2, None))
    return blockwise_unitary_path(V, blocks, factors)


def lagrangian_loop_pair(n, order, rng, windings=1):
    """Two loops of Lagrangian-projection unitaries commuting with one actor.

    Returns (T sampler, S sampler, a).  Loops guarantee that winding counts
    are insensitive to wall placement, which the twisted-path identity test
    relies on.
    """
    pT, a = commuting_unitary_path(n, order, rng, windings, amp=0.9, loop=True)
    return pT.sampler, commutant_loop(a, rng, windings), a
