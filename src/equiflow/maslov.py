"""Equivariant Maslov index of Lagrangian-pair paths (two independent modes),
the Maslov triple index, and the Maslov cycle predicate.

A path of Lagrangian pairs is carried by the unitaries (T(t), S(t)) of its
two projection paths, each a `Path` (`LagrangianPath` is the same class) or
any callable t -> unitary.  The index counts intersections ker P(t) & im Q(t),
equivalently crossings of spec(T*(t)S(t)) through -1, signed by the crossing
direction.  Both modes count per isotypic block of the actor: a crossing of
m branches of the chi-block weighs chi * m.  Both read their block samples
from `spectra.isotypic_blocks`, so every sample either mode takes is checked
to commute with the actor (NotCommuting).
"""

import numpy as np

from .errors import NotCommuting, TrackingAmbiguous
from .spectra import isotypic_blocks
from .specflow import Path, adjoint, product
from .symplectic import as_projection, pair_report
from .tolerances import DEFAULT, TolerancePolicy
from .winding import double_index, winding_number

__all__ = [
    "LagrangianPath",
    "maslov_index",
    "triple_index_path",
    "triple_index_static",
    "in_maslov_cycle",
]


LagrangianPath = Path  # t -> the unitary T(t) of a Lagrangian projection


def maslov_index(L1, L2, a=None, mode: str = "winding",
                 policy: TolerancePolicy = DEFAULT, grid: int = 64) -> complex:
    """Equivariant Maslov index of a path of Lagrangian pairs.

    mode "winding": equivariant winding number of T*(t)S(t).
    mode "grid":    scan the invertibility locus of the pair per isotypic
                    block of the actor, weight each intersection event by
                    chi * dim ker(I + T*S) in its chi-block (the actor trace
                    on ker P & im Q there), and sign it by the derivative of
                    the crossing eigenphase through pi.
    Both modes agree within numerical tolerance.
    """
    if mode not in ("winding", "grid"):
        raise ValueError("mode must be 'winding' or 'grid'")
    pair = product(adjoint(L1), L2)
    if mode == "winding":
        return winding_number(pair, a, policy)
    return _maslov_grid(pair, a, policy, grid)


def _phase_near_pi(M):
    """Signed angular distance of the eigenphase of M closest to pi."""
    phases = np.angle(np.linalg.eigvals(M))
    rel = np.mod(phases - np.pi + np.pi, 2 * np.pi) - np.pi
    return float(rel[np.argmin(np.abs(rel))])


def _sigma_min(M):
    """sigma_min(I + M) for a matrix or every matrix of a stack."""
    return np.linalg.svd(np.eye(M.shape[-1]) + M, compute_uv=False)[..., -1]


def _maslov_grid(pair, a, policy, grid):
    """Scan sigma_min(I + block of T*S) per isotypic block of the actor; each
    intersection event in the chi-block counts chi * dim ker, signed by the
    direction of the block eigenphase through pi.  The scan, each step of the
    minimum search (`_bracket_min`, all candidate windows at once) and the
    events' kernel and orientation samples are one stack each, all taken
    through `isotypic_blocks`, so every sample is checked to commute with the
    actor (NotCommuting)."""
    eps_t = 10 * policy.zero_tol  # endpoint evaluation rule: step inside by eps
    ts = np.linspace(eps_t, 1.0 - eps_t, grid)
    blocks_at = isotypic_blocks(pair, a, NotCommuting, policy)
    chars, scan = blocks_at(ts)

    # candidate intersection windows: local minima below a loose threshold
    windows = []  # (block, lo, hi)
    for b, B in enumerate(scan):
        sig = _sigma_min(B)
        for k in range(grid):
            if sig[k] < 0.2 and (k == 0 or sig[k] <= sig[k - 1]) and \
                    (k == grid - 1 or sig[k] <= sig[k + 1]):
                windows.append((b, ts[max(k - 1, 0)], ts[min(k + 1, grid - 1)]))
    if not windows:
        return 0.0 + 0.0j
    events = [[] for _ in scan]
    for (b, _, _), t_star, s_star in zip(windows, *_bracket_min(blocks_at, windows)):
        if s_star < 1e-6 and eps_t < t_star < 1.0 - eps_t:
            if not any(abs(t_star - e) <= 1e-8 for e in events[b]):
                events[b].append(t_star)
    found = [(b, t) for b in range(len(scan)) for t in sorted(events[b])]
    if not found:
        return 0.0 + 0.0j
    t_ev = np.array([t for _, t in found])
    delta = np.minimum(1e-5, np.minimum(t_ev, 1.0 - t_ev))
    _, samples = blocks_at(np.concatenate([t_ev, t_ev - delta, t_ev + delta]))
    total = 0.0 + 0.0j
    for e, (b, t_star) in enumerate(found):
        at, before, after = samples[b][e::len(found)]
        kdim = int(np.sum(np.linalg.svd(np.eye(at.shape[-1]) + at, compute_uv=False) <= 1e-6))
        if kdim == 0:
            continue
        phase_before = _phase_near_pi(before)
        phase_after = _phase_near_pi(after)
        if phase_after == phase_before:
            raise TrackingAmbiguous(f"cannot orient the intersection at t={t_star:.6g}")
        direction = 1 if phase_after > phase_before else -1
        total += direction * chars[b] * kdim
    return complex(total)


def _bracket_min(blocks_at, windows):
    """Minimize sigma_min(I + block) on each window (block, lo, hi), all
    windows together: each step samples 17 evenly spaced times per window in
    one stack of `blocks_at` (the pair's `isotypic_blocks` sampler) and
    keeps the two cells around the smallest value, until every window is
    narrower than 1e-10.  Returns the times and values of the smallest
    samples of the last step."""
    which = np.array([b for b, _, _ in windows])
    lo = np.array([w[1] for w in windows])
    hi = np.array([w[2] for w in windows])
    rows = np.arange(len(windows))
    frac = np.linspace(0.0, 1.0, 17)
    while True:
        grid = lo[:, None] + (hi - lo)[:, None] * frac
        _, blocks = blocks_at(grid.ravel())
        sig = np.empty(grid.shape)
        for b, B in enumerate(blocks):
            sel = which == b
            if sel.any():
                sig[sel] = _sigma_min(B.reshape(grid.shape + B.shape[-2:])[sel])
        j = np.argmin(sig, axis=1)
        lo = grid[rows, np.maximum(j - 1, 0)]
        hi = grid[rows, np.minimum(j + 1, frac.size - 1)]
        if np.max(hi - lo) < 1e-10:
            return grid[rows, j], sig[rows, j]


def triple_index_path(T, S, R, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Maslov triple index of three unitary paths:

        w(T* S) + w(S* R) - w(T* R),

    equal to the alternating sum of the three pairwise Maslov indices.
    """
    w1 = winding_number(product(adjoint(T), S), a, policy)
    w2 = winding_number(product(adjoint(S), R), a, policy)
    w3 = winding_number(product(adjoint(T), R), a, policy)
    return complex(w1 + w2 - w3)


def triple_index_static(P, Q, N, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Maslov triple index of three Lagrangian projections via canonical
    contraction paths: tau(T*S, S*R)."""
    P = as_projection(P, policy)
    Q = as_projection(Q, policy)
    N = as_projection(N, policy)
    U = P.T.conj().T @ Q.T
    V = Q.T.conj().T @ N.T
    return double_index(U, V, a, policy)


def in_maslov_cycle(P, P_M, policy: TolerancePolicy = DEFAULT) -> bool:
    """True when the pair (P, P_M) is Fredholm but not invertible: the
    finite-dimensional reading is dim ker(I + T* K) > 0, decided by
    `pair_report` and its rank threshold."""
    return not pair_report(P, P_M, policy=policy).invertible
