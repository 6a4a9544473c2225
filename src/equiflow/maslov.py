"""Equivariant Maslov index of Lagrangian-pair paths (two independent modes),
the Maslov triple index, and the Maslov cycle predicate.

A path of Lagrangian pairs is carried by the unitaries (T(t), S(t)) of its
two projection paths, each a `Path` (`LagrangianPath` is the same class) or
any callable t -> unitary.  The index counts intersections ker P(t) & im Q(t),
equivalently crossings of spec(T*(t)S(t)) through -1, signed by the crossing
direction.  Both modes count per isotypic block of the actor: a crossing of
m branches of the chi-block weighs chi * m.  Both read their block samples
from `winding._unitary_blocks`, so every sample either mode takes is checked
to commute with the actor (NotCommuting) and to be unitary (NotUnitary).
Grid mode closes each window around a minimum of sigma_min(I + block) with
one 16-cell step and then, where the window looks like a crossing, a few
V-interpolation steps (see `_min_search`); the triple index samples each of
its three paths once per distinct time across its three winding numbers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TrackingAmbiguous
from .spectra import _sampled_once
from .specflow import Path, adjoint, product
from .symplectic import as_projection, pair_report
from .tolerances import DEFAULT, TolerancePolicy
from .winding import _unitary_blocks, double_index, winding_number

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


def _singular_values(B):
    """Singular values of I + B, descending, for every matrix of a stack: the
    last is sigma_min(I + B)."""
    return np.linalg.svd(np.eye(B.shape[-1]) + B, compute_uv=False)


def _maslov_grid(pair, a, policy, grid):
    """Scan sigma_min(I + block of T*S) per isotypic block of the actor; each
    intersection event in the chi-block counts chi * dim ker, signed by the
    direction of the block eigenphase through pi.  Each local minimum of the
    scan below 0.2 opens a window, a bracket of the scan's three samples
    around it that `_min_search` narrows to 1e-10; its smallest sample is an
    event when sigma_min < 1e-6 there, and that sample also gives dim ker.
    The scan, each round of the search (all open windows at once) and the
    events' orientation samples are one stack each, all taken through
    `winding._unitary_blocks`, as in winding mode, so every sample is
    checked to commute with the actor (NotCommuting) and to be unitary
    (NotUnitary) before any SVD reads it."""
    eps_t = 10 * policy.zero_tol  # endpoint evaluation rule: step inside by eps
    ts = np.linspace(eps_t, 1.0 - eps_t, grid)
    blocks_at = _unitary_blocks(pair, a, policy)
    chars, scan = blocks_at(ts)

    windows = []
    for b, B in enumerate(scan):
        sv = _singular_values(B)
        sig = sv[:, -1]
        for k in range(grid):
            if sig[k] < 0.2 and (k == 0 or sig[k] <= sig[k - 1]) and \
                    (k == grid - 1 or sig[k] <= sig[k + 1]):
                near = [max(k - 1, 0), k, min(k + 1, grid - 1)]
                windows.append(_Window(b, ts[near], sv[near]))
    _min_search(blocks_at, windows)
    events = [[] for _ in scan]  # per block: (time, dim ker)
    for w in windows:
        t_star, sv = w.times[1], w.sv[1]
        if sv[-1] < _KERNEL and eps_t < t_star < 1.0 - eps_t:
            if not any(abs(t_star - e) <= 1e-8 for e, _ in events[w.block]):
                events[w.block].append((t_star, int(np.sum(sv <= _KERNEL))))
    found = [(b, t, kdim) for b in range(len(scan)) for t, kdim in sorted(events[b])]
    if not found:
        return 0.0 + 0.0j
    t_ev = np.array([t for _, t, _ in found])
    delta = np.minimum(1e-5, np.minimum(t_ev, 1.0 - t_ev))
    _, samples = blocks_at(np.concatenate([t_ev - delta, t_ev + delta]))
    total = 0.0 + 0.0j
    for e, (b, t_star, kdim) in enumerate(found):
        before, after = samples[b][e::len(found)]
        phase_before = _phase_near_pi(before)
        phase_after = _phase_near_pi(after)
        if phase_after == phase_before:
            raise TrackingAmbiguous(f"cannot orient the intersection at t={t_star:.6g}")
        direction = 1 if phase_after > phase_before else -1
        total += direction * chars[b] * kdim
    return complex(total)


_CLOSED = 1e-10  # a window narrower than this is closed
_KERNEL = 1e-6  # a singular value of I + block below this is a kernel direction


@dataclass
class _Window:
    """Bracket of a minimum of sigma_min(I + block): the times (lo, mid, hi),
    the singular values of I + block there (sigma_min at mid is the least),
    and whether its next step may be a V step (not on its first round)."""

    block: int
    times: np.ndarray
    sv: np.ndarray
    v_step: bool = False


def _min_search(blocks_at, windows):
    """Narrow every window to a bracket narrower than 1e-10, all open windows
    together.  Each round is one stack of `blocks_at` (the pair's
    `_unitary_blocks` sampler).  A window samples the inner times of 16
    equal cells (`_cell_times`) on its first round, after a V step that did
    not shrink its bracket 8-fold, and when its samples do not look like a
    crossing; so its first round samples what a plain 17-point step would,
    and a crossing hidden between the scan's samples shows there.  Otherwise
    it samples a few times around where the two arms of a V through its
    samples meet (`_v_times`), exact when sigma_min is |c (t - t0)|, as near
    a crossing.  The bracket becomes the smallest sample (the earliest of
    ties) and its neighbours."""
    while True:
        open_ = [w for w in windows if w.times[2] - w.times[0] >= _CLOSED]
        if not open_:
            return
        v_steps = [_v_times(w.times, w.sv[:, -1]) if w.v_step else None for w in open_]
        steps = [_cell_times(w.times) if v is None else v for w, v in zip(open_, v_steps)]
        _, blocks = blocks_at(np.concatenate(steps))
        stops = np.cumsum([len(s) for s in steps])
        for w, s, v, stop in zip(open_, steps, v_steps, stops):
            new = _singular_values(blocks[w.block][stop - len(s):stop])
            times, first = np.unique(np.concatenate([w.times, s]), return_index=True)
            sv = np.concatenate([w.sv, new])[first]
            j = int(np.argmin(sv[:, -1]))
            near = [max(j - 1, 0), j, min(j + 1, len(times) - 1)]
            width = w.times[2] - w.times[0]
            w.times, w.sv = times[near], sv[near]
            w.v_step = v is None or w.times[2] - w.times[0] <= width / 8


def _cell_times(t):
    """The inner times of 16 equal cells of the bracket t = (lo, mid, hi)
    but one within half a cell of mid, whose sample the bracket holds: a
    near copy of mid would stand in as its neighbour and hide the rest of
    the bracket."""
    lo, mid, hi = t
    inner = np.linspace(lo, hi, 17)[1:-1]
    return inner[np.abs(inner - mid) >= (hi - lo) / 32]


def _v_times(t, s):
    """Up to three sample times around the vertex of the V through the
    samples s at the times t = (lo, mid, hi) of a bracket: its arms have the
    slopes -m and m, m the steeper outer slope, and pass through the outer
    samples.  None unless the samples look like a crossing: a bracket inside
    the scan, a V with slopes, and the V's value at its vertex within
    s_mid / 4 of 0 or s_mid already that of an event (below 1e-6, where
    rounding in the times outweighs s_mid).  The times spread by 4 w^2
    (w = hi - lo), at most w / 32 and at least a quarter of the closed
    width, so that a step on a V that narrow closes its window; they lie
    inside the bracket."""
    (lo, mid, hi), (s_lo, s_mid, s_hi) = t, s
    if not lo < mid < hi:
        return None
    left, right = (s_lo - s_mid) / (mid - lo), (s_hi - s_mid) / (hi - mid)
    m = max(left, right)
    if not m > 0:
        return None
    vertex = (lo + hi) / 2 + (s_lo - s_hi) / (2 * m)
    if not (abs(s_lo - m * (vertex - lo)) <= s_mid / 4 or s_mid < _KERNEL):
        return None
    d = max(min(4 * (hi - lo) ** 2, (hi - lo) / 32), _CLOSED / 4)
    inside = [x for x in (vertex - d, vertex, vertex + d) if lo < x < hi]
    return np.array(inside) if inside else None


def triple_index_path(T, S, R, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Maslov triple index of three unitary paths:

        w(T* S) + w(S* R) - w(T* R),

    equal to the alternating sum of the three pairwise Maslov indices.  The
    three windings share the samples of T, S and R: each path is sampled
    once per distinct time.
    """
    T, S, R = _sampled_once(T, S, R)
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
