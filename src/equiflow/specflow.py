"""Matrix paths, and the equivariant spectral flow of Hermitian paths.

A path is a reentrant sampler t in [0, 1] -> square matrix.  Every routine
of the library takes any such callable; `Path(dim, sampler)` attaches the
dimension for `concatenate` and `reverse`, and `UnitaryPath` and
`maslov.LagrangianPath` are names of the same class.
`product(f, g)` (t -> f(t) g(t)) and `adjoint(f)` (t -> f(t)*) build the
pointwise products that the Maslov, triple and double indices wind.

A sampler may carry a batched form: a function attribute `stack(ts)`
returning the (K, n, n) samples at the times ts, equal to the pointwise
samples.  `spectra.sample_stack` is its one reader and falls back to one
call per time without it.  It is a function attribute rather than a method
so that `functools.wraps` wrappers, which copy `__dict__`, keep it.
`Path.stack` forwards it.  The combinators `product`, `adjoint`, `reverse`
and `concatenate`, the seeded generators and the contraction flows are each
one batched formula: their pointwise call is stack([t])[0].

Spectral flow has two independent pipelines: a grid-partition computation
(spectral-window counts over a certified partition, one checked stack per
bisection round, each node's eigenvalues computed once) and a crossing oracle
(branch tracking and a count of the branches' sign changes).  Both read the
isotypic blocks of the actor from `spectra.isotypic_blocks`: a path
commuting with h never mixes them, so every window count and every crossing
weighs chi * (number of the chi-block's eigenvalues counted), and the flow
is sum_chi chi * n_chi with integers n_chi.  The spectral window is closed
at 0; an eigenvalue within zero_tol of 0 at an endpoint of [0, 1] counts as
nonnegative.  A partition is seeded with `_INITIAL_NODES` nodes and bisected
to depth `_PARTITION_DEPTH` at most.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotEquivariant, PartitionFailure
from .spectra import (_ROUND_MAX, _block_eigvalsh, check_commuting, group_events,
                      hermitian_part, isotypic_blocks, sample_stack, track_blocks)
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "Path",
    "UnitaryPath",
    "Interval",
    "GridPartition",
    "FlowResult",
    "Crossing",
    "good_partition",
    "spectral_flow",
    "crossing_oracle",
    "bott_loop",
    "BottLoop",
    "concatenate",
    "reverse",
    "adjoint",
    "product",
]


@dataclass(frozen=True)
class Path:
    """Reentrant sampler t in [0, 1] -> square matrix of size dim.

    Every routine also accepts a bare callable t -> matrix and reads the
    dimension from the samples it takes; `dim` serves the combinators that
    build a new Path from old ones.  `stack` forwards the sampler's batched
    form (None when it has none).
    """

    dim: int
    sampler: callable

    def __call__(self, t):
        return self.sampler(t)

    @property
    def stack(self):
        return getattr(self.sampler, "stack", None)


UnitaryPath = Path


def _from_stack(stack):
    """Sampler t -> stack([t])[0] carrying its batched form as the function
    attribute `stack`: a path given by one formula for a whole stack of times."""

    def sampler(t):
        return stack(np.array([t], dtype=float))[0]

    sampler.stack = stack
    return sampler


def concatenate(p1, p2):
    """Concatenation (p1 * p2)(t): p1 on [0, 1/2], p2 on [1/2, 1]."""
    if p1.dim != p2.dim:
        raise DimensionMismatch("concatenated paths must share the dimension")

    def stack(ts):
        first = ts <= 0.5
        out = np.empty((len(ts), p1.dim, p1.dim), dtype=complex)
        if first.any():
            out[first] = sample_stack(p1, 2 * ts[first], p1.dim)
        if not first.all():
            out[~first] = sample_stack(p2, 2 * ts[~first] - 1, p2.dim)
        return out

    return Path(p1.dim, _from_stack(stack))


def reverse(p):
    return Path(p.dim, _from_stack(lambda ts: sample_stack(p, 1.0 - ts)))


def adjoint(f):
    """Sampler t -> f(t)*."""
    return _from_stack(lambda ts: np.swapaxes(sample_stack(f, ts).conj(), -1, -2))


def product(f, g):
    """Pointwise product sampler t -> f(t) g(t); DimensionMismatch (from
    `sample_stack`) unless the samples of g have the size of f's."""

    def stack(ts):
        F = sample_stack(f, ts)
        return F @ sample_stack(g, ts, F.shape[-1])

    return _from_stack(stack)


@dataclass
class Interval:
    """[t0, t1] of a certified partition with its level, margin and Lipschitz bound."""

    t0: float
    t1: float
    level: float
    margin: float
    lipschitz: float


@dataclass
class GridPartition:
    """Certified partition: per interval a level a_j avoided by the spectrum."""

    intervals: list

    @property
    def nodes(self):
        ts = [iv.t0 for iv in self.intervals]
        ts.append(self.intervals[-1].t1)
        return ts

    def refine(self):
        """Halve every interval, keeping each half's parent level (still valid)."""
        out = []
        for iv in self.intervals:
            tm = (iv.t0 + iv.t1) / 2.0
            out.append(Interval(iv.t0, tm, iv.level, iv.margin, iv.lipschitz))
            out.append(Interval(tm, iv.t1, iv.level, iv.margin, iv.lipschitz))
        return GridPartition(out)


@dataclass
class Crossing:
    time: float
    direction: int
    dim: int
    weight: complex


@dataclass
class FlowResult:
    value: complex
    contributions: list = field(default_factory=list)
    crossings: list = None
    diagnostics: dict = field(default_factory=dict)


def _pick_levels(pools, floor):
    """(level, margin, passed) per row of pooled probe spectra (m, N), all rows
    in one array pass.

    A row's candidate levels are the midpoints of the gaps between 0 and its
    distinct positive eigenvalues, then the fallback max(0, largest
    eigenvalue) + 1 above the whole sampled spectrum (the window then counts
    every nonnegative eigenvalue).  Gaps whose midpoint lies at or below the
    median distinct positive eigenvalue come first, widest first, ties by
    ascending level; the first of the first 4 candidates whose distance to
    the row's spectrum (the margin) exceeds floor passes.  The level and
    margin of a row that does not pass mean nothing.
    """
    m = len(pools)
    rows = np.arange(m)
    xs = np.sort(pools, axis=1)
    keep = xs > 0
    keep[:, 1:] &= xs[:, 1:] != xs[:, :-1]  # distinct positive values, each once
    c = keep.sum(axis=1)
    width = max(c.max(), 1)
    gap = np.arange(width) < c[:, None]
    edges = np.zeros((m, width + 1))
    edges[:, 1:] = np.where(gap, np.sort(np.where(keep, xs, np.inf), axis=1)[:, :width], 0.0)
    levels = np.empty((m, width + 1))
    levels[:, :-1] = (edges[:, :-1] + edges[:, 1:]) / 2.0
    levels[:, -1] = np.maximum(xs[:, -1], 0.0) + 1.0
    halfwidths = np.ones((m, width + 1))
    halfwidths[:, :-1] = (edges[:, 1:] - edges[:, :-1]) / 2.0
    lo, hi = edges[rows, (c + 1) // 2], edges[rows, c // 2 + 1]  # the middle value(s)
    med = np.where(c == 0, np.inf, np.where(c % 2, lo, (lo + hi) / 2.0))
    group = np.where(levels > med[:, None], 1, 0)
    group[:, :-1][~gap] = 2  # padding past a row's last gap: never tried
    order = np.lexsort((-halfwidths, group))[:, :4]  # stable: ties keep ascending level
    tried = levels[rows[:, None], order]
    margins = np.min(np.abs(pools[:, None, :] - tried[:, :, None]), axis=2)
    ok = (group[rows[:, None], order] < 2) & (margins > floor[:, None])
    first = (rows, ok.argmax(axis=1))
    return tried[first], margins[first], ok.any(axis=1)


_INITIAL_NODES = 9  # nodes of the uniform seed grid of a partition
_PARTITION_DEPTH = 22  # deepest bisection level of a partition interval


def good_partition(path, policy: TolerancePolicy = DEFAULT) -> GridPartition:
    """_INITIAL_NODES uniform seeds, then bisection until every interval certifies.

    An interval [t0, t1] certifies with level a when the spectra at its 5
    probes stay farther from a than the local Lipschitz bound allows them to
    move between probes: 1.5 times the largest spectral norm of a step
    between neighbouring probes' Hermitian parts (their largest |eigenvalue|)
    per unit time.  Levels are picked in the widest spectral gap inside
    (0, median positive eigenvalue] (`_pick_levels`).  A round tests the
    leftmost `_ROUND_MAX` pending intervals on one stack of their new probe
    times (each time is sampled once), takes the new probes' spectra and the
    steps' norms from one `eigvalsh` call, and picks all their levels in one
    array pass; PartitionFailure names the leftmost one still failing at depth
    _PARTITION_DEPTH.  Every probe passes the test of `spectra.hermitian_part`
    (NotHermitian, also for a non-finite sample).
    """
    return _certify(path, None, policy)[0]


def _certify(path, h, policy):
    """(partition, node samples, node spectra) as in `good_partition`; probes
    checked to commute with h and to be Hermitian (`hermitian_part`,
    NotHermitian).  The node spectra are the eigenvalues of the samples'
    Hermitian parts, ascending (`np.linalg.eigvalsh`, in the round's one call,
    bit for bit those of a call on the nodes alone)."""
    n_probe = 5
    seeds = np.linspace(0.0, 1.0, _INITIAL_NODES)
    pending = np.stack([seeds[:-1], seeds[1:], 0 * seeds[1:]], 1)  # (t0, t1, depth), ascending
    ts, intervals, n = np.empty(0), [], None  # ts: the times sampled so far, ascending
    while pending.size:
        a, b, d = pending[:_ROUND_MAX].T
        probes = a[:, None] + np.arange(n_probe) * ((b - a) / (n_probe - 1))[:, None]
        probes[:, -1] = b  # np.linspace(a, b, n_probe, axis=1), by its own arithmetic
        new = np.unique(probes)
        if ts.size:  # the times not sampled yet: never none, a child halves its parent's spacing
            new = new[ts[np.minimum(np.searchsorted(ts, new), ts.size - 1)] != new]
        G = sample_stack(path, new, n)
        check_commuting(h, G, new, NotEquivariant, policy)
        H = hermitian_part(G, policy)
        if n is None:
            n = G.shape[-1]
            F, herm, spec = G[:0], H[:0], np.empty((0, n))
        ts = np.concatenate([ts, new])
        order = np.argsort(ts)
        ts, F, herm = ts[order], np.concatenate([F, G])[order], np.concatenate([herm, H])[order]
        k = np.searchsorted(ts, probes)
        # one solve: the new samples' spectra and the steps between neighbouring
        # probes, whose spectral norm (Hermitian steps) is their largest |eigenvalue|
        S = np.linalg.eigvalsh(np.concatenate([H, np.diff(herm[k], axis=1).reshape(-1, n, n)]))
        spec = np.concatenate([spec, S[:len(new)]])[order]
        steps = np.max(np.abs(S[len(new):]), axis=-1).reshape(len(a), n_probe - 1)
        # 1.5: safety factor on the sampled Lipschitz estimate
        lips = 1.5 * np.max(steps / np.maximum(np.diff(probes, axis=1), 1e-300), axis=1)
        travel = lips * (b - a) / (n_probe - 1) / 2.0
        level, margin, passed = _pick_levels(spec[k].reshape(len(a), -1),
                                             travel * 1.2 + policy.zero_tol)
        stuck = ~passed & (d >= _PARTITION_DEPTH)
        if stuck.any():  # the leftmost: depth never rises along the pending
            j = np.argmax(stuck)
            raise PartitionFailure(f"no certified level found on [{a[j]:.6g}, "
                                   f"{b[j]:.6g}] at depth {d[j]:.0f}")
        intervals += [Interval(a[j], b[j], level[j], float(margin[j]), float(lips[j]))
                      for j in np.flatnonzero(passed)]
        a, b, d = a[~passed], b[~passed], d[~passed] + 1
        halves = np.stack([a, (a + b) / 2.0, d, (a + b) / 2.0, b, d], 1).reshape(-1, 3)
        pending = np.concatenate([halves, pending[_ROUND_MAX:]])
    part = GridPartition(sorted(intervals, key=lambda iv: iv.t0))
    nodes = np.searchsorted(ts, part.nodes)
    return part, F[nodes], spec[nodes]


def spectral_flow(path, h=None, partition: GridPartition = None,
                  policy: TolerancePolicy = DEFAULT) -> FlowResult:
    """Equivariant spectral flow over a certified grid partition.

    Sum over intervals of N_j(t_j) - N_j(t_{j-1}), where N_j(t) is
    sum_chi chi * #(eigenvalues of the chi-block of B(t) in [0, a_j]).  The
    value is invariant under partition refinement; with h = None (one block,
    chi = 1) it is the classical integer spectral flow.  Without a partition
    the path is certified as by `good_partition`, every probe checked to
    commute with h (NotEquivariant, naming t), and its node samples are
    counted once each (with h = None from the spectra the certification
    holds); a given partition costs one checked node stack.  The counts read
    eigenvalues alone (`spectra._block_eigvalsh`).  An eigenvalue within
    zero_tol of 0 at an interior node counts in both intervals at the node,
    so it cancels: a certified level clears the node spectra by more than
    zero_tol.
    """
    if partition is not None and not partition.intervals:
        raise ValueError("partition has no intervals")
    partition, F, spec = ((partition, None, None) if partition is not None
                          else _certify(path, h, policy))
    ends = np.array([(iv.t0, iv.t1) for iv in partition.intervals])
    ts, node = np.unique(ends, return_inverse=True)
    node = node.reshape(ends.shape)
    if h is None and spec is not None:  # the one block is the whole sample, already solved
        chars, vals = np.ones(1, dtype=complex), [spec]
    else:
        chars, blocks = isotypic_blocks(path, h, NotEquivariant, policy)(ts, F)
        vals = _block_eigvalsh(blocks, policy)
    levels = np.array([iv.level for iv in partition.intervals])[:, None]
    zero = policy.zero_tol

    def count(k):
        return sum(chi * np.count_nonzero((v[k] >= -zero) & (v[k] <= levels), axis=1)
                   for chi, v in zip(chars, vals))

    contributions = [complex(c) for c in count(node[:, 1]) - count(node[:, 0])]
    return FlowResult(value=sum(contributions, 0j), contributions=contributions,
                      diagnostics={"n_intervals": len(partition.intervals)})


def crossing_oracle(path, h=None, policy: TolerancePolicy = DEFAULT) -> FlowResult:
    """Independent spectral-flow oracle: track the branches of each isotypic
    block of h and count their sign changes through the zero band.

    A crossing weighs chi * (number of the chi-block's branches crossing
    together, within 1e-8 in time), summed over blocks and signed by its
    direction, so the value depends on the sign changes only, never on the
    crossing times.  A crossing is placed by linear interpolation between
    the samples around the sign change, or at the earlier sample when that
    sample lies in the zero band; the path is sampled only at the tracked
    times.  Every sample is checked to commute with h (NotEquivariant
    otherwise)."""
    chars, sets = track_blocks(path, h, "hermitian", NotEquivariant, policy)
    band = policy.zero_tol
    events = []  # (time, direction, character) per crossing branch
    for chi, bs in zip(chars, sets):
        times = bs.times
        for vals in bs.values.T:
            # state at t=0: zero counts as nonnegative
            prev_sign = 1 if vals[0] >= -band else -1
            prev_idx = 0
            for k in range(1, len(times)):
                v = vals[k]
                here = 0 if abs(v) <= band else (1 if v > 0 else -1)
                if here == 0:
                    if k == len(times) - 1 and prev_sign < 0:
                        events.append((times[k], +1, chi))  # reaches 0 at t=1 from below
                    continue
                if here != prev_sign:
                    t0, v0 = times[prev_idx], vals[prev_idx]
                    t_star = t0 if abs(v0) <= band else t0 - v0 / (v - v0) * (times[k] - t0)
                    events.append((t_star, here, chi))
                prev_sign = here
                prev_idx = k
    crossings = []
    total = 0.0 + 0.0j
    for t_star, direction, dim, w in group_events(events, 1e-8):
        w = complex(w)
        total += direction * w
        crossings.append(Crossing(time=float(t_star), direction=int(direction),
                                  dim=int(dim), weight=w))
    return FlowResult(value=total, crossings=crossings,
                      diagnostics={"n_samples": len(sets[0].times)})


@dataclass
class BottLoop:
    """Loop B_k(t) = P+ - P- + 2t P_k and its unitary image -exp(i pi B_k(t))."""

    h: np.ndarray
    hermitian_path: Path
    unitary_path: Path
    expected: complex


def bott_loop(rank_k_weights, ambient) -> BottLoop:
    """Generator loops of the flow group.

    rank_k_weights: character values of h on the k-dimensional perturbation
    space V_k (placed on the leading coordinates of the negative block);
    ambient = (n_plus, n_minus).  The Hermitian loop has spectral flow
    sum(rank_k_weights); the unitary loop -exp(i pi B(t)) equals exp(2 pi i t)
    on V_k and the identity elsewhere.
    """
    n_plus, n_minus = ambient
    k = len(rank_k_weights)
    if k > n_minus:
        raise DimensionMismatch(f"rank {k} exceeds the negative block {n_minus}")
    dim = n_plus + n_minus
    hdiag = np.ones(dim, dtype=complex)
    for i, w in enumerate(rank_k_weights):
        hdiag[n_plus + i] = w
    h = np.diag(hdiag)
    base = np.concatenate([np.ones(n_plus), -np.ones(n_minus)])
    bump = np.zeros(dim)
    bump[n_plus:n_plus + k] = 2.0

    def herm(ts):
        return (base + ts[:, None] * bump)[:, :, None] * np.eye(dim, dtype=complex)

    def unit(ts):
        return -np.exp(1j * np.pi * (base + ts[:, None] * bump))[:, :, None] * np.eye(dim)

    return BottLoop(h=h,
                    hermitian_path=Path(dim, _from_stack(herm)),
                    unitary_path=Path(dim, _from_stack(unit)),
                    expected=complex(np.sum(np.asarray(rank_k_weights, dtype=complex))))
