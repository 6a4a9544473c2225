"""Equivariant winding numbers of unitary paths, the equivariant Fredholm
determinant, canonical contraction paths, and double indices.

A path commuting with a unitary actor a preserves each eigenspace of a, and
a acts on the chi-eigenspace as chi * I.  The winding number is therefore
sum_chi chi * n_chi, with n_chi the integer count of eigenphase crossings
through the wall at angle pi of the path's chi-block; an endpoint eigenphase
within zero_tol of the wall is on it and counts as past it (`_wall_copy`,
the n>=0 rule of spectral flow under U = -exp(i pi B)).  The block samples
come from `spectra.isotypic_blocks`.  The primary route reads n_chi off the
unwrapped det phase of each block; `winding_events` (branch tracking per
block, crossings located between samples, each weighing chi times the number
of the chi-block's branches crossing together; grid-mode Maslov sums them)
and `winding_from_logs` (trace-log quadrature; principal logarithms, cut at
-1) are independent cross-checks.  `double_index` samples no path: a
contraction flow's block det phase is linear, a trace.  Paths are any
callables t -> unitary (see `specflow`).
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    IncompatibleSplitting,
    NotCommuting,
    NotUnitary,
    TrackingAmbiguous,
)
from .spectra import (
    _GRID,
    _MAX_SAMPLES,
    _MIN_DT,
    _STEP_MAX,
    EigenSystem,
    _as_matrix,
    _not_unitary,
    _sampled_once,
    check_commuting,
    eig_unitary,
    group_events,
    integrate,
    isotypic_blocks,
    isotypic_split,
    opnorm,
    path_panel,
    principal_log_unitary,
    sample_stack,
    track_blocks,
)
from .specflow import Path, _from_stack, product
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "winding_number",
    "winding_events",
    "winding_from_logs",
    "fredholm_det_path",
    "canonical_path",
    "CanonicalContraction",
    "double_index",
    "relative_double_index",
]

_ROUNDING_TOL = 1e-9  # largest rounding error allowed in a block count n_chi


def _det_phases(f, a, policy):
    """One isotypic det-phase pass over a unitary path on [0, 1].

    Samples the isotypic blocks of f on a uniform _GRID-point grid, every
    sample checked to commute with a (NotCommuting, by the commutator bound
    read from the X = V* f V it cuts) and to be unitary over its blocks
    (`_require_unitary`), and takes the determinant of each block
    (`_block_det`: a 1x1 block's is its entry).  Intervals where some block's
    det phase steps by more than _STEP_MAX are bisected; TrackingAmbiguous
    is raised at _MAX_SAMPLES samples or when an interval to bisect is at
    most _MIN_DT long.  The grid and each bisection level are one stack.
    This step bound is what certifies the unwrapping.
    Returns (chars, deltas, ends): deltas are the unwrapped det-phase changes
    per block, ends[i] the (2, k, k) samples of block i at t = 0 and t = 1.
    """
    blocks_at = isotypic_blocks(f, a, NotCommuting, policy)

    def block_dets(ts):
        chars, blocks = blocks_at(ts)
        _require_unitary(blocks, ts, policy)
        return chars, blocks, np.stack([_block_det(B) for B in blocks], axis=1)

    ts = np.linspace(0.0, 1.0, _GRID)
    chars, blocks, dets = block_dets(ts)
    ends = [B[[0, -1]] for B in blocks]
    while True:
        steps = np.angle(dets[1:] * dets[:-1].conj())
        big = np.max(np.abs(steps), axis=1) > _STEP_MAX
        if not np.any(big):
            break
        lo = np.nonzero(big)[0]
        if len(ts) + lo.size > _MAX_SAMPLES or np.min(ts[lo + 1] - ts[lo]) <= _MIN_DT:
            k = lo[0]
            b = int(np.argmax(np.abs(steps[k])))
            raise TrackingAmbiguous(
                f"det phase of block {b} steps by {steps[k, b]:.3g} rad on "
                f"[{ts[k]:.6g}, {ts[k + 1]:.6g}] at the depth cap")
        mids = (ts[lo] + ts[lo + 1]) / 2.0
        _, _, mid_dets = block_dets(mids)
        ts = np.insert(ts, lo + 1, mids)
        dets = np.insert(dets, lo + 1, mid_dets, axis=0)
    return chars, steps.sum(axis=0), ends


def _block_det(B):
    """det of every matrix of a stack: a 1x1 block's is its entry, without LAPACK."""
    return B[:, 0, 0] if B.shape[-1] == 1 else np.linalg.det(B)


def _require_unitary(blocks, ts, policy):
    """NotUnitary, naming the first of the times ts whose samples, given as
    their stacks of blocks, fail the unitarity test (`spectra._not_unitary`)."""
    off = _not_unitary(blocks, policy)
    if np.any(off):
        raise NotUnitary(f"f({ts[np.argmax(off)]:.6g}) is not unitary within tolerance")


def _wall_copy(phases, policy):
    """Index m of the wall copy pi + 2 pi m at or below each phase.  A phase
    within zero_tol of a copy is on that copy: it counts as already past it,
    as spectral flow counts a kernel eigenvalue at an endpoint as nonnegative
    (U = -exp(i pi B) puts B's eigenvalue 0 on the wall)."""
    return np.floor((phases - np.pi + policy.zero_tol) / (2 * np.pi))


def winding_events(f, a=None, policy: TolerancePolicy = DEFAULT):
    """Branch-track each isotypic block of a unitary path and list its
    crossing events through the wall at pi (copies by `_wall_copy`).

    Each event is (time, direction, weight): the time is interpolated
    linearly between the samples around the crossing, and the weight is chi
    times the number of the chi-block's branches crossing together (within
    1e-7 in time), summed over blocks.
    """
    chars, sets = track_blocks(f, a, "unitary", NotCommuting, policy)
    raw = []  # (time, direction, character) per crossing branch
    for chi, bs in zip(chars, sets):
        times = bs.times
        for phi in bs.values.T:
            floors = _wall_copy(phi, policy)
            for k in range(1, len(times)):
                if floors[k] == floors[k - 1]:
                    continue
                direction = 1 if floors[k] > floors[k - 1] else -1
                target = np.pi + 2 * np.pi * (floors[k] if direction > 0 else floors[k - 1])
                t0, t1 = times[k - 1], times[k]
                p0, p1 = phi[k - 1], phi[k]
                t_star = t0 + (target - p0) / (p1 - p0) * (t1 - t0) if p1 != p0 else t0
                raw.append((float(t_star), direction, chi))
    return [(t, d, w) for t, d, _, w in group_events(raw, 1e-7)]


def winding_number(f, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Equivariant winding number sum_chi chi * n_chi of a unitary path.

    n_chi counts the eigenphase crossings of the chi-block through the wall
    at pi; an endpoint phase within zero_tol of the wall counts as past it.
    With r_j(t) = phi_j(t) - pi - 2 pi m_j(t) for the block's endpoint
    eigenphases phi_j, m_j the wall copy at or below phi_j (`_wall_copy`),
    and Delta_chi the block's unwrapped det-phase change,

        n_chi = (Delta_chi + sum_j r_j(0) - sum_j r_j(1)) / 2 pi.

    The numerator is a multiple of 2 pi by construction (Delta_chi and the
    endpoint sums come from the same block samples), so n_chi is an integer up
    to rounding; TrackingAmbiguous when the rounding exceeds 1e-9 is a sanity
    check only.  Mis-tracking is caught by the det-phase step bound in the
    sampling pass.  With trivial actor the value is an integer.
    """
    chars, deltas, ends = _det_phases(f, a, policy)
    return _count(chars, deltas, [np.angle(np.linalg.eigvals(E)) for E in ends], policy)


def _count(chars, deltas, ends, policy):
    """sum_chi chi * n_chi (`winding_number`) from each block's det-phase change
    deltas[i] and endpoint eigenphases ends[i] = (p0, p1); TrackingAmbiguous,
    naming block and character, when an n_chi is more than 1e-9 off an integer."""
    total = 0.0 + 0.0j
    for b, (chi, delta, (p0, p1)) in enumerate(zip(chars, deltas, ends)):
        r0, r1 = (np.sum(p - np.pi - 2 * np.pi * _wall_copy(p, policy)) for p in (p0, p1))
        n_chi = (delta + r0 - r1) / (2 * np.pi)
        if abs(n_chi - round(n_chi)) > _ROUNDING_TOL:
            raise TrackingAmbiguous(
                f"crossing count {n_chi:.12g} of block {b} (character {complex(chi):.6g}) "
                "is not an integer")
        total += chi * round(n_chi)
    return complex(total)


def fredholm_det_path(f, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Equivariant Fredholm determinant exp(int_0^1 Tr(a f^{-1} f') dt).

    On the chi-block Tr(f^{-1} f') = i d/dt arg det f_chi, so the value is
    exp(i sum_chi chi * Delta_chi) with Delta_chi the unwrapped det-phase
    change of the block.
    """
    chars, deltas, _ = _det_phases(f, a, policy)
    return complex(np.exp(1j * np.dot(chars, deltas)))


def winding_from_logs(f, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Derivative/trace-log form of the winding number for C^1 paths:

        w = (1/2 pi i) ( int Tr(a f^{-1} f') dt
                         - Tr(a Log f(1)) + Tr(a Log f(0)) )

    with principal matrix logarithms; valid when neither endpoint has
    spectrum at -1.  Every sample passes `sample_stack` and is checked to
    commute with a (`check_commuting`), then to be unitary (`_require_unitary`,
    NotUnitary naming t); the two endpoints are one stack, at t = 1 first.
    The integral runs on whole panels with f' from `path_panel`: exact for
    degree-14 polynomials on each panel, and covered by the bisection error
    estimate.
    """
    n = None  # the size of the first panels' samples, which every later sample has

    def weighted(X):
        return X if a is None else np.asarray(a, dtype=complex) @ X

    def integrand(ts):
        nonlocal n
        U, dU = path_panel(f, ts, n)
        n = U.shape[-1]
        check_commuting(a, U, ts, NotCommuting, policy)
        _require_unitary([U], ts, policy)
        return np.einsum("kij,kji->k", weighted(np.swapaxes(U.conj(), 1, 2)), dU)

    total = integrate(integrand, 0.0, 1.0, policy)
    ends = np.array([1.0, 0.0])
    U = sample_stack(f, ends, n)
    check_commuting(a, U, ends, NotCommuting, policy)
    _require_unitary([U], ends, policy)
    log1, log0 = (complex(np.trace(weighted(principal_log_unitary(E, policy)))) for E in U)
    return complex((total - log1 + log0) / (2j * np.pi))


@dataclass
class CanonicalContraction:
    """Canonical contraction path of a unitary U under an actor a.

    The -1 eigenspace H0 of U is frozen at -a|H0; the complement flows as
    exp(t Log a~) exp(t Log U~), ending at (-a|H0) + a~ U~.
    """

    a: np.ndarray
    comp_basis: np.ndarray
    path: Path

    def __call__(self, t):
        return self.path(t)


def _frozen_flow(B0, a0, B1, flows):
    """Sampler t -> B0 (-a0) B0* + B1 exp(t L_1) ... exp(t L_k) B1*: the span
    of B0 (ker(U + I)) frozen at -a0 while its complement B1 flows.  Each
    flow generator is skew-Hermitian, L = W diag(i mu) W*, so
    exp(t L) = W e^{i t mu} W* from one eigendecomposition per generator;
    the pointwise call is stack([t])[0]."""
    frozen = B0 @ (-a0) @ B0.conj().T
    eigs = [np.linalg.eigh(-1j * L) for L in flows]

    def stack(ts):
        flow = reduce(np.matmul, [(W * np.exp(1j * np.outer(ts, mu))[:, None, :]) @ W.conj().T
                                  for mu, W in eigs])
        return frozen + B1 @ flow @ B1.conj().T

    return _from_stack(stack)


def _split_at_minus_one(U, policy):
    es = eig_unitary(U, policy)
    on_cut = np.abs(np.exp(1j * es.values) + 1.0) <= max(policy.zero_tol, 1e-9) * 10
    return es.vectors[:, on_cut], es.vectors[:, ~on_cut]


def canonical_path(U, a=None, policy: TolerancePolicy = DEFAULT) -> CanonicalContraction:
    """Path from (-a|H0) + I to (-a|H0) + a~U~ with H0 = ker(U + I)."""
    U = _as_matrix(U)
    n = U.shape[0]
    a = check_commuting(np.eye(n) if a is None else a, U, None, NotCommuting, policy)
    B0, B1 = _split_at_minus_one(U, policy)
    if B0.shape[1]:
        leak = opnorm((np.eye(n) - B0 @ B0.conj().T) @ a @ B0)
        if leak > max(policy.commute_tol, 1e-9) * 100:
            raise NotCommuting("actor does not preserve ker(U + I)")
    a0 = B0.conj().T @ a @ B0
    a1 = B1.conj().T @ a @ B1
    U1 = B1.conj().T @ U @ B1
    La = principal_log_unitary(a1, policy) if B1.shape[1] else a1
    LU = principal_log_unitary(U1, policy) if B1.shape[1] else U1
    return CanonicalContraction(a=a, comp_basis=B1,
                                path=Path(n, _frozen_flow(B0, a0, B1, [La, LU])))


def double_index(U, V, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Equivariant double index tau(U, V) = w(f) + w(g) - w(q), sampling no path.

    f, g, q flow as frozen + B1 E(t) B1*: -a frozen on H0 = ker(U + I), B1 an
    eigenbasis of U on its complement, E(t) = exp(t Log U1), exp(t Log V1) or
    their product (U1 = B1* U B1, V1 = B1* V B1).  On the chi-block of a
    (basis Q) the det phase moves by Delta_chi = Im Tr(Q* B1 (sum Log) B1* Q),
    between the block phases of frozen + B1 {I; U1, V1, U1 V1} B1*.  V must
    restrict to -I on H0 with no further spectrum at -1 (IncompatibleSplitting).
    """
    U, V = _as_matrix(U), _as_matrix(V)
    n = U.shape[0]
    a = check_commuting(np.eye(n) if a is None else a, U, None, NotCommuting, policy)
    check_commuting(a, V, None, NotCommuting, policy)  # also V's size against a's
    B0, B1 = _split_at_minus_one(U, policy)
    tol = max(policy.zero_tol, 1e-9) * 100
    if B0.shape[1] and opnorm(B0.conj().T @ V @ B0 + np.eye(B0.shape[1])) > tol:
        raise IncompatibleSplitting("V does not restrict to -I on ker(U + I)")
    if B0.shape[1] and opnorm((np.eye(n) - B0 @ B0.conj().T) @ V @ B0) > tol:
        raise IncompatibleSplitting("V does not preserve ker(U + I)")
    U1, V1 = B1.conj().T @ U @ B1, B1.conj().T @ V @ B1
    es = eig_unitary(V1, policy) if B1.shape[1] else EigenSystem(np.zeros(0), V1, [])
    if np.any(np.pi - np.abs(es.values) <= max(policy.zero_tol, 1e-9)):
        raise IncompatibleSplitting("ker(V + I) is not contained in ker(U + I)")
    # The actor enters through the crossing weights only: twisting the flows by
    # a would shift which phase lines cross the wall, against the triple index.
    Va, idx, chars = isotypic_split(a, n, policy)
    G = Va.conj().T @ B1  # B1 holds eigenvectors of U, so Log U1 is diagonal
    dU, dV = (np.array([np.sum(np.abs(H[i]) ** 2 * phi) for i in idx])
              for H, phi in ((G, np.angle(np.diagonal(U1))), (G @ es.vectors, es.values)))
    frozen = B0 @ -(B0.conj().T @ a @ B0) @ B0.conj().T
    ends = np.stack([np.eye(B1.shape[1]), U1, V1, U1 @ V1])  # E(0); E(1) of f, g, q
    X = Va.conj().T @ (frozen + B1 @ ends @ B1.conj().T) @ Va
    ph = [np.angle(np.linalg.eigvals(X[:, i[:, None], i])) for i in idx]
    wf, wg, wq = (_count(chars, d, [(p[0], p[j]) for p in ph], policy)
                  for d, j in ((dU, 1), (dV, 2), (dU + dV, 3)))
    return complex(wf + wg - wq)


def relative_double_index(f, g, a=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Relative double index of two unitary paths: w(f) + w(g) - w(fg).  The
    three windings share the samples of f and g: each path is sampled once
    per distinct time."""
    f, g = _sampled_once(f, g)
    wf = winding_number(f, a, policy)
    wg = winding_number(g, a, policy)
    wq = winding_number(product(f, g), a, policy)
    return complex(wf + wg - wq)
