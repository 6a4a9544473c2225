"""Numerical kernel: eigendecompositions, the isotypic split of an actor,
clustering, branch tracking, the principal logarithm (cut at -1) and
deterministic adaptive quadrature.

Every route reads a path's isotypic blocks from `isotypic_blocks`, and
`_block_eigh` (eigenpairs) and `_block_eigvalsh` (eigenvalues alone, for
the counts that read no vectors) are the one source of Hermitian block
eigendata: the blocks of one size take one `hermitian_part` and one LAPACK
call together, and without an actor the samples are the one block, uncut.
`_block_eig_unitary` is the one source of unitary eigendata, `eig_unitary`
included, and `_not_unitary` the one unitarity test of the unitary routes.

All values are pure functions of the inputs, but the Schur splits a call
makes depend on earlier calls (`isotypic_split` keeps recent ones); sums
and quadrature reductions run in a fixed sequential order.  Tracking grid
and caps and quadrature depth are module constants (`_GRID` to `_QUAD_DEPTH`).

`_match` finds its optimal assignment with `_assign`, the shortest
augmenting path solve of D. F. Crouse ("On implementing 2D rectangular
assignment algorithms", IEEE Trans. AES 52(4), 2016) that
`scipy.optimize.linear_sum_assignment` implements, with the same tie rule:
of the columns of equal reduced cost, an unassigned one wins.  So the
library never imports `scipy.optimize`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import zgees

from .errors import (
    BranchCut,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    TrackingAmbiguous,
)
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "EigenSystem",
    "BranchSet",
    "eig_hermitian",
    "eig_unitary",
    "hermitian_part",
    "isotypic_split",
    "isotypic_blocks",
    "principal_log_unitary",
    "integrate",
    "path_panel",
    "sample_stack",
    "track_blocks",
    "group_events",
    "cluster_indices",
    "opnorm",
    "check_commuting",
]


def opnorm(M):
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(M), 2))


def check_commuting(h, M, ts, error, policy: TolerancePolicy = DEFAULT):
    """Raise `error` unless a sample M, or every sample of a (K, n, n) stack
    taken at times ts (None for matrices that are not path samples), commutes
    with h (a non-finite sample never does):

        ||[h, M]||_F <= 10 max(commute_tol, 1e-9) max(||M||_F / sqrt(n), 1).

    Since ||X||_2 <= ||X||_F and ||M||_F / sqrt(n) <= ||M||_2, this is never
    looser than the same test in spectral norms with scale max(||M||_2, 1).
    The commutator is bounded in the split of h (`_rotated`), from the
    X = V* M V that `isotypic_blocks` cuts, never below ||[h, M]||_F.
    M passes `_as_matrix` and h `isotypic_split` first.  Returns h as a
    complex array; without an actor (h = None) there is nothing to check.
    """
    if h is None:
        return None
    _rotated(_as_matrix(M, stack=True), h, policy, ts, error)
    return np.asarray(h, dtype=complex)


_NUMERIC = "biufc"  # the numpy dtype kinds of numbers


def _as_matrix(M, error=DimensionMismatch, what="matrix", even=False, stack=False):
    """M as a complex n x n matrix, n >= 1 (even with `even`), or with `stack`
    also a (K, n, n) stack of them: the one gate of static matrices.  `error`,
    naming the shape, otherwise or for entries that are not numbers."""
    M = np.asarray(M)
    n = M.shape[-1] if M.ndim else 0
    if (M.dtype.kind not in _NUMERIC or M.ndim not in ((2, 3) if stack else (2,))
            or M.shape[-2] != n or not M.size or even and n % 2):
        form = f"{'a 2n x 2n' if even else 'an n x n'} matrix{' or stack' if stack else ''}"
        raise error(f"{what}: expected {form} of numbers, n >= 1; got shape {M.shape} of "
                    f"{M.dtype}")
    return M.astype(complex, copy=False)


def _fix_phases(V):
    """Make the first component of modulus above 1e-8 of each column real positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.nonzero(np.abs(col) > 1e-8)[0]
        i = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        z = col[i]
        if abs(z) > 0:
            V[:, j] = col * (abs(z) / z)
    return V


def cluster_indices(values, gap, circular=False):
    """Group sorted values into clusters separated by less than `gap`.

    Returns a list of index ranges (start, stop).  With circular=True the
    first and last cluster are merged when they touch across the 2*pi cut;
    the merged cluster is reported once with its wrapped index list.
    """
    n = len(values)
    if n == 0:
        return []
    ranges = []
    start = 0
    for i in range(1, n):
        if values[i] - values[i - 1] > gap:
            ranges.append((start, i))
            start = i
    ranges.append((start, n))
    if circular and len(ranges) > 1:
        if (values[0] + 2 * np.pi) - values[-1] <= gap:
            first = ranges.pop(0)
            last = ranges.pop()
            ranges.append((last[0], first[1] + n))  # wrapped range, indices mod n
    return ranges


@dataclass
class EigenSystem:
    """Eigendecomposition with deterministic ordering and clustering.

    values   ascending real eigenvalues (Hermitian) or phases in (-pi, pi]
    vectors  orthonormal columns, vectors[:, i] belongs to values[i]
    clusters index ranges grouped by cluster_tol (possibly wrapped for phases)
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: list

    @property
    def dim(self):
        return self.values.size

    def cluster_slices(self):
        """Index arrays per cluster (handles the wrapped phase cluster)."""
        n = self.dim
        return [np.arange(a, b) % n for a, b in self.clusters]


def hermitian_part(M, policy: TolerancePolicy = DEFAULT):
    """(M + M*) / 2 of a square matrix, or of every sample of a (K, n, n) stack.

    NotHermitian unless every sample has
    ||M - M*||_F <= eig_tol * max(||M||_F / sqrt(n), 1) (a non-finite sample
    never does): never looser than the same test in spectral norms with scale
    max(||M||_2, 1), since ||X||_2 <= ||X||_F and ||M||_F / sqrt(n) <= ||M||_2.
    """
    M = _as_matrix(M, stack=True)
    Mh = np.swapaxes(M.conj(), -1, -2)
    axes = (-2, -1) if M.ndim > 2 else None  # per sample; a matrix takes the faster whole norm
    scale = np.maximum(np.linalg.norm(M, axis=axes) / np.sqrt(M.shape[-1]), 1.0)
    if not (np.linalg.norm(M - Mh, axis=axes) <= policy.eig_tol * scale).all():
        raise NotHermitian(f"matrix is not finite or deviates from Hermitian by more than "
                           f"{policy.eig_tol} * ||M||")
    return (M + Mh) / 2.0


def eig_hermitian(M, policy: TolerancePolicy = DEFAULT) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with phase-fixed vectors
    (NotHermitian by the test of `hermitian_part`)."""
    vals, vecs = np.linalg.eigh(hermitian_part(_as_matrix(M), policy))
    vecs = _fix_phases(vecs)
    clusters = cluster_indices(vals, policy.cluster_tol)
    return EigenSystem(values=vals, vectors=vecs, clusters=clusters)


def eig_unitary(U, policy: TolerancePolicy = DEFAULT) -> EigenSystem:
    """Eigendecomposition of a unitary matrix, phases ascending in (-pi, pi]:
    `_block_eig_unitary` of the one matrix, its vectors phase-fixed and its
    phases clustered (circularly, by cluster_tol)."""
    (phases, Q), = _block_eig_unitary([_as_matrix(U)[None]], policy)
    clusters = cluster_indices(phases[0], policy.cluster_tol, circular=True)
    return EigenSystem(values=phases[0], vectors=_fix_phases(Q[0]), clusters=clusters)


def _not_unitary(blocks, policy):
    """Per sample of the (K, k, k) stacks `blocks` (the isotypic blocks of K
    samples, or one stack): True unless the Frobenius norm of X* X - I over
    the blocks is at most max(eig_tol, 1e-10); a non-finite sample fails.
    The one unitarity test of the unitary routes."""
    gram = sum((abs(np.swapaxes(B.conj(), -1, -2) @ B - np.eye(B.shape[-1])) ** 2).sum((-2, -1))
               for B in blocks)
    return ~(np.sqrt(gram) <= max(policy.eig_tol, 1e-10))


def _block_eig_unitary(blocks, policy):
    """[(phases (K, k), Q (K, k, k))] of each (K, k, k) stack of unitaries
    in `blocks`: the one source of unitary eigendata.  Per sample: the
    angles of the Schur eigenvalues lam, snapped to pi within zero_tol of
    -1 and sorted (stable), and the Schur vectors (eigenvectors, a unitary
    being normal) in their order, with LAPACK's column phases.  A 1x1
    sample b is its own Schur form, vector 1, so its stack is one array
    pass; a larger sample takes one `zgees`.  Per block, NotUnitary at the
    first sample failing the unitarity test (`_not_unitary`) or the
    eigen-residual test, read against lam (0 for 1x1),

        ||X Q - Q diag(lam)||_F <= 1e3 eig_tol max(||X||_F / sqrt(k), 1) k,

    and at once where a Schur solve fails.
    """
    out = []
    for X in blocks:
        k, off = X.shape[-1], _not_unitary([X], policy)
        X = X[:np.argmax(off)] if off.any() else X  # the samples before the first not unitary
        if k == 1:
            lam, Q = X[..., 0], np.ones_like(X)
        else:
            lam, Q = np.empty(X.shape[:-1], dtype=complex), np.empty_like(X)
            for j, x in enumerate(X):
                _, _, lam[j], Q[j], _, info = zgees(lambda w: None, x, compute_v=1, sort_t=0,
                                                    overwrite_a=0)
                if info:
                    raise NotUnitary(f"Schur decomposition failed (zgees info {info})")
            resid = np.sqrt((abs(X @ Q - Q * lam[:, None, :]) ** 2).sum((-2, -1)))
            scale = np.maximum(np.sqrt((abs(X) ** 2).sum((-2, -1)) / k), 1.0)
            bad = ~(resid <= 1e3 * policy.eig_tol * scale * k)
            if bad.any():
                raise NotUnitary(f"eigen-residual {resid[np.argmax(bad)]:.2e} too large; "
                                 "matrix not normal enough")
        if len(X) < len(off):
            raise NotUnitary("matrix is not unitary within tolerance")
        phases = np.where(abs(lam + 1.0) <= policy.zero_tol, np.pi, np.angle(lam))
        rows, order = np.arange(len(X))[:, None], np.argsort(phases, axis=-1, kind="stable")
        out.append((phases[rows, order], Q[rows[:, None], np.arange(k)[:, None], order[:, None]]))
    return out


def isotypic_split(a, dim, policy: TolerancePolicy = DEFAULT):
    """Eigenspaces of a unitary actor on C^dim: (V, blocks, chars).

    The columns of V are eigenvectors of a; blocks[i] indexes the columns of
    one eigenvalue cluster and chars[i] = Tr(Q* a Q) / dim Q, Q = V[:, blocks[i]],
    is the character of a on it.  With a = None there is one block, chi = 1,
    and V = I.  An operator or path commuting with a never mixes the blocks,
    and a acts as chi * I on the chi-block, so each counting invariant is
    sum_chi chi * (integer count on the chi-block), and each spectral sum
    weighs an eigenvalue of the chi-block by chi.

    The one check of an actor: `_as_matrix` at size dim (DimensionMismatch),
    then the unitarity test of `eig_unitary` (NotUnitary).  The last 32 splits
    are kept by value (bytes of a, dim, policy), read-only with blocks a
    tuple, so routes on one actor split it once; failures are not.
    """
    return _split(a, dim, policy)[:3]


def _split(a, dim, policy):
    """`isotypic_split` of a, with the weights and ||E||_F of its commutator
    bound (`_rotated`), kept with the split."""
    if a is not None:
        a = _as_matrix(a, what="actor")
        if len(a) != dim:
            raise DimensionMismatch(f"actor of shape {a.shape} does not act on C^{dim}")
        a = a.tobytes()
    return _split_of(a, dim, policy)


@lru_cache(maxsize=32)
def _split_of(a, dim, policy):
    """`_split` of the actor with the bytes a (None: no actor): (V, blocks,
    chars, weights, e), where Lambda + E = V* a V with Lambda its diagonal,
    e = ||E||_F (at least ||E||_2, without an SVD) and weights (2 n^2, 2)
    holds |Lambda_i - Lambda_j|^2 at the real and the imaginary part of
    entry (i, j) and 1 throughout, so that the squared parts of X times
    weights are ||[Lambda, X]||_F^2 and ||X||_F^2."""
    if a is None:
        V, blocks, chars = np.eye(dim, dtype=complex), [np.arange(dim)], np.ones(1, dtype=complex)
        gaps, e = np.zeros((dim, dim)), 0.0
    else:
        a = np.frombuffer(a, dtype=complex).reshape(dim, dim)
        es = eig_unitary(a, policy)
        V, blocks = es.vectors, es.cluster_slices()
        chars = np.array([np.trace(V[:, idx].conj().T @ a @ V[:, idx]) / len(idx)
                          for idx in blocks])
        L = V.conj().T @ a @ V
        lam = np.diagonal(L)
        gaps, e = np.abs(lam[:, None] - lam) ** 2, float(np.linalg.norm(L - np.diag(lam)))
    weights = np.ones((dim * dim, 2, 2))
    weights[..., 0] = gaps.reshape(-1, 1)
    weights = weights.reshape(-1, 2)
    for arr in (V, chars, weights, *blocks):
        arr.flags.writeable = False
    return V, tuple(blocks), chars, weights, e


def _rotated(M, a, policy, ts=None, error=None):
    """(chars, blocks, X) of a matrix or (K, n, n) stack M and an actor a:
    X = V* M V in the eigenbasis V of the split of a, with its characters
    and block index sets.  With `error`, raise it, naming t (ts None: no t),
    unless every sample commutes with a by the test of `check_commuting`,
    decided on X: with Lambda + E = V* a V, Lambda diagonal,

        ||[a, M]||_F = ||[Lambda + E, X]||_F <= ||[Lambda, X]||_F + 2 ||E||_F ||X||_F,

    where ||[Lambda, X]||_F^2 = sum_ij |Lambda_i - Lambda_j|^2 |X_ij|^2 and
    ||X||_F = ||M||_F gives the scale.  E is the rounding of the Schur
    vectors, so the bound is ||[a, M]||_F to rounding; a non-finite sample
    fails."""
    V, blocks, chars, weights, e = _split(a, M.shape[-1], policy)
    X = V.conj().T @ M @ V
    if error is not None:
        parts = X.reshape(-1, X.shape[-1] ** 2).view(float)  # real and imaginary parts
        comm, fro = np.sqrt((parts * parts) @ weights).T
        excess = comm + 2 * e * fro
        scale = np.maximum(fro / np.sqrt(X.shape[-1]), 1.0)
        bad = ~((excess <= 10 * max(policy.commute_tol, 1e-9) * scale) & np.isfinite(fro))
        if np.any(bad):
            k = int(np.argmax(bad))
            where = "" if ts is None else f" at t={float(np.atleast_1d(ts)[k]):.6g}"
            raise error(f"commutator with the actor is up to {excess[k]:.2e}{where}")
    return chars, blocks, X


def isotypic_blocks(path, a, error, policy: TolerancePolicy = DEFAULT):
    """Block sampler of a path for the actor a: (ts, F=None) -> (chars, blocks).

    This is the one place where a path's samples are sliced by its actor.  A
    call samples the path at the times ts with one `sample_stack` and checks
    every sample to commute with a (the test of `check_commuting`, raising
    `error` and naming t), unless the caller passes the samples F at ts that
    it took and checked itself.  The test reads X = V* F V, which is then
    cut.  Every sample has the size of the first call's.  Every call reads
    the split of a from `isotypic_split`, which keeps it, so a route on one
    actor splits it once.  blocks[i] is the (K, k, k) stack of Q* F Q,
    Q = V[:, i-th block], and chars[i] the character of a on it; without an
    actor the one block is F itself, chi = 1.
    """
    n = None

    def blocks_at(ts, F=None):
        nonlocal n
        ts = np.asarray(ts, dtype=float)
        checked = F is None
        if checked:
            F = sample_stack(path, ts, n)
        n = F.shape[-1]
        return _isotypic_cut(F, a, policy, ts, error if checked else None)

    return blocks_at


def _isotypic_cut(F, a, policy, ts=None, error=None):
    """(chars, blocks) of matrices F, as in `isotypic_blocks`, checked to
    commute with a only with `error` (`_rotated`); without an actor F itself
    is the one block, chi = 1."""
    if a is None:
        return np.ones(1, dtype=complex), [F]
    chars, blocks, X = _rotated(F, a, policy, ts, error)
    return chars, [X[..., idx[:, None], idx] for idx in blocks]


def _block_eigh(blocks, policy, vectors=True):
    """(lam, U) = `np.linalg.eigh` of the Hermitian part of every block, the
    blocks matrices or stacks of one shape but their size (lam alone, from
    `np.linalg.eigvalsh`, without `vectors`): with `_block_eigvalsh`, the one
    source of Hermitian block eigendata.  The blocks of one size take one
    `hermitian_part` and one solve together; the gufuncs solve each matrix
    on its own, so each block gets the values of its own call, bit for bit.
    A 1x1 block takes its real entry and the vector 1 without a solve, as
    LAPACK returns them for N = 1.  NotHermitian by the test of
    `hermitian_part`, per sample."""
    out, sizes = [None] * len(blocks), [B.shape[-1] for B in blocks]
    for k in dict.fromkeys(sizes):
        group = [i for i, size in enumerate(sizes) if size == k]
        X = [blocks[i].reshape(-1, k, k) for i in group]
        H = hermitian_part(X[0] if len(X) == 1 else np.concatenate(X), policy)
        res = ((H.real[..., 0], np.ones_like(H)) if k == 1
               else np.linalg.eigh(H) if vectors else [np.linalg.eigvalsh(H)])
        res = [r.reshape((len(X),) + blocks[group[0]].shape[:-2] + r.shape[1:]) for r in res]
        for j, i in enumerate(group):
            out[i] = tuple(r[j] for r in res) if vectors else res[0][j]
    return out


def _block_eigvalsh(blocks, policy):
    """lam alone, as in `_block_eigh` but from `np.linalg.eigvalsh` (whose
    values may differ from eigh's in the last bits): for routes that read no
    eigenvectors."""
    return _block_eigh(blocks, policy, vectors=False)


def principal_log_unitary(U, policy: TolerancePolicy = DEFAULT):
    """Skew-Hermitian principal logarithm of a unitary, cut at -1.

    The eigenvalues of -i*log lie in (-pi, pi).  Raises BranchCut when the
    spectrum of U touches -1 within zero_tol.
    """
    es = eig_unitary(U, policy)
    # the phases taken into [-pi, pi] mod 2*pi; a zero is +0.0, as x - x is
    rel = np.mod(es.values + np.pi, 2 * np.pi) - np.pi
    if np.any(np.pi - np.abs(rel) <= policy.zero_tol):
        raise BranchCut("spectrum touches the branch cut at -1")
    L = es.vectors @ np.diag(1j * rel) @ es.vectors.conj().T
    return (L - L.conj().T) / 2.0


@lru_cache(maxsize=None)
def _gl_nodes():
    """The 15 Gauss-Legendre nodes x, weights w and barycentric differentiation
    matrix Dm on [-1, 1] (row i: derivative at x[i] of the interpolant at the nodes)."""
    x, w = np.polynomial.legendre.leggauss(15)
    gaps = x[:, None] - x + np.eye(x.size)
    c = 1.0 / np.prod(gaps, axis=1)  # barycentric weights
    Dm = (1.0 - np.eye(x.size)) * c / c[:, None] / gaps
    return x, w, Dm - np.diag(Dm.sum(axis=1))


def sample_stack(path, ts, n: int = None):
    """Samples (K, n, n) of a matrix path at the times ts, complex: the one
    gate of path samples.

    A path may carry a batched form, a function attribute `stack(ts)` equal to
    its pointwise samples; it is called once.  Without one the path is called
    once per time, so any callable t -> matrix works.  DimensionMismatch,
    naming t and the shape, unless each sample, checked before the stack is
    formed, is an n x n matrix of numbers, n >= 1 as given (a route passes
    the size of its first stack to its later ones) or the first sample's.
    """
    ts = np.asarray(ts, dtype=float)
    stack = getattr(path, "stack", None)
    F = [np.asarray(stack(ts))] if stack is not None else [np.asarray(path(t))[None] for t in ts]
    for k, X in enumerate(F):
        n = X.shape[-1] if n is None and X.ndim else n
        if X.dtype.kind not in _NUMERIC or X.shape[1:] != (n, n) or not n:
            expected = f"({n}, {n})" if n else "(n, n) with n >= 1"
            raise DimensionMismatch(f"path sample at t={ts[k]:.6g}: shape {X.shape[1:]} of "
                                    f"{X.dtype}, expected {expected}")
    return (np.concatenate(F) if len(F) > 1 else F[0]).astype(complex, copy=False)


def _sampled_once(*paths):
    """Samplers of the paths that take each sample once: a stack samples its
    path (`sample_stack`) only at the times not sampled before and reads the
    others back.  A route makes them for one call, to share its paths'
    samples among the invariants it combines."""

    def once(path):
        kept = {}

        def stack(ts):
            ts = np.asarray(ts, dtype=float).tolist()
            new = [t for t in dict.fromkeys(ts) if t not in kept]
            if new:
                n = len(next(iter(kept.values()))) if kept else None
                kept.update(zip(new, sample_stack(path, new, n)))
            return np.stack([kept[t] for t in ts])

        def sampler(t):
            return stack([t])[0]

        sampler.stack = stack
        return sampler

    return [once(path) for path in paths]


def path_panel(path, ts, n: int = None):
    """Samples F (15m, n, n) of a matrix path at the nodes ts of m Gauss-Legendre
    panels (panel j: ts[15j:15j + 15] = mid + half * x), and its derivative dF
    there: the path is sampled once for all panels (`sample_stack`, of size n
    when given), and each panel differentiates its own samples' degree-14
    interpolant (applied to F - F[the panel's middle node], so a constant path
    gives 0).
    """
    x, _, Dm = _gl_nodes()
    F = sample_stack(path, ts, n)
    P = F.reshape(-1, x.size, F[0].size)
    half = (ts[x.size - 1::x.size] - ts[::x.size]) / (x[-1] - x[0])
    return F, (Dm @ (P - P[:, x.size // 2, None]) / half[:, None, None]).reshape(F.shape)


def integrate(f, a: float, b: float, policy: TolerancePolicy = DEFAULT):
    """Adaptive composite Gauss-Legendre quadrature of a complex integrand.

    f takes the 15 nodes of each of m panels, shape (15m,), and returns its
    values there (a scalar is broadcast): first for the top three levels of
    the bisection tree at once (the whole interval, its halves and its
    quarters: 7 panels), then per round for both halves of the leftmost
    `_ROUND_MAX` pending panels; a round whose halves are known makes no
    call.  A panel is accepted when its bisection error estimate fits its
    share of quad_rel_tol; the sum runs in tree order.  A `path_panel`
    derivative is exact for degree 14, and halves differentiate again, so
    the estimate covers its error.  NoConvergence names the leftmost panel
    still failing at depth _QUAD_DEPTH.
    """
    x, w, _ = _gl_nodes()

    def panels(lo, hi):
        half = (hi - lo) / 2.0
        ts = (((hi + lo) / 2.0)[:, None] + half[:, None] * x).ravel()
        vals = np.broadcast_to(np.asarray(f(ts), dtype=complex), ts.shape).reshape(-1, x.size)
        return [hf * np.dot(w, v) for hf, v in zip(half, vals)], vals

    span = b - a
    if span == 0:
        return 0.0 + 0.0j
    mid = (a + b) / 2.0
    cuts = [a, (a + mid) / 2.0, mid, (mid + b) / 2.0, b]
    # panels 1-7 of the tree: the whole interval, its halves, its quarters
    top, vals = panels(*np.array([(a, b), (a, mid), (mid, b), *zip(cuts, cuts[1:])]).T)
    known = dict(enumerate(top[1:], start=2))
    scale = max(span / 2.0 * float(np.dot(w, np.abs(vals[0]))), 1e-300)
    # (k, lo, hi, integral) to halve, ascending; panel k has halves 2k, 2k + 1
    pending, sums = [(1, a, b, top[0])], {}
    while pending:
        batch, rest = pending[:_ROUND_MAX], pending[_ROUND_MAX:]
        edges = np.array([(lo, (lo + hi) / 2.0, hi) for _, lo, hi, _ in batch])
        if 2 * batch[0][0] in known:  # levels 0 and 1, never mixed with deeper panels
            parts = [known[j] for k, *_ in batch for j in (2 * k, 2 * k + 1)]
        else:
            parts, _ = panels(edges[:, :2].ravel(), edges[:, 1:].ravel())
        halved, pairs = [], zip(parts[::2], parts[1::2])
        for (k, *_, approx), (lo, mid, hi), (left, right) in zip(batch, edges, pairs):
            err = abs(approx - left - right)
            if err <= policy.quad_rel_tol * scale * (hi - lo) / span or err == 0.0:
                sums[k] = left + right
            elif k.bit_length() > _QUAD_DEPTH:  # depth k.bit_length() - 1, never rising rightwards
                raise NoConvergence(f"quadrature stalled on [{lo}, {hi}] with error {err:.2e}")
            else:
                halved += [(2 * k, lo, mid, left), (2 * k + 1, mid, hi, right)]
        pending = halved + rest

    def total(k):
        return sums[k] if k in sums else total(2 * k) + total(2 * k + 1)

    return complex(total(1))


@dataclass
class BranchSet:
    """Eigenvalue branches of a matrix path matched by eigenvector overlap.

    times    sample times (ascending, refined)
    values   (K, d) array; column j is branch j (lifted phases for unitary paths)
    """

    times: np.ndarray
    values: np.ndarray


_OVERLAP_MIN = 1.0 / np.sqrt(2.0) - 1e-9
# When every diagonal entry of a unitary overlap matrix exceeds 1/sqrt(2),
# each is the strict largest of its row and column, so the identity is the
# unique optimal assignment: what `_match` returns.  The 1e-6 margin keeps
# that true against the rounding of the eigenvectors' orthonormality (about
# 1e-15), and keeps the entries above _OVERLAP_MIN.
_IDENTITY_MIN = 1.0 / np.sqrt(2.0) + 1e-6
_GRID = 33  # points of the uniform grid a tracking pass starts from
_STEP_MAX = 0.75  # rad: largest eigenphase step of a certified link (and det-phase step)
_MAX_SAMPLES = 6000  # samples per tracking pass
_MIN_DT = 1e-11  # shortest interval a tracking pass bisects
_ROUND_MAX = 8  # most pending intervals (panels) a bisection round takes, the leftmost
_QUAD_DEPTH = 20  # deepest bisection level of a quadrature panel


def _lift(raw, ref):
    """The phases raw shifted by multiples of 2 pi to lie nearest ref."""
    return raw + 2 * np.pi * np.round((ref - raw) / (2 * np.pi))


def _assign(C):
    """The column assigned to each row by a minimum-cost assignment of the
    square float matrix C: the shortest augmenting path solve of Crouse
    (2016), step for step the one of `scipy.optimize.linear_sum_assignment`,
    so both give the same columns, ties included.

    Row by row, a Dijkstra search from the new row reaches one column per
    scan until it reaches an unassigned one, then augments along the path.
    A scan goes over the columns not yet reached in the order n - 1, ..., 0,
    each reached column's slot taken by the last one.  It reaches the column
    of least reduced path cost and, of equal ones, the last unassigned one
    in scan order if any, else the first.  Each scan is one array pass over
    all columns.
    """
    n = C.shape[0]
    u, v = np.zeros(n), np.zeros(n)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    path = np.empty(n, dtype=np.intp)
    for cur in range(n):
        cost = np.full(n, np.inf)  # shortest path cost to each column
        todo = np.ones(n, dtype=bool)  # columns not yet reached
        order = list(range(n - 1, -1, -1))  # their scan order
        rows = []  # rows scanned from
        i, low = cur, 0.0
        while True:
            rows.append(i)
            r = low + C[i] - u[i] - v
            shorter = todo & (r < cost)
            path[shorter] = i
            cost[shorter] = r[shorter]
            low = cost[todo].min()
            at = [j for j in order if cost[j] == low]
            free = [j for j in at if row4col[j] < 0]
            j = free[-1] if free else at[0]
            index = order.index(j)
            order[index] = order[-1]
            order.pop()
            todo[j] = False
            if row4col[j] < 0:
                break
            i = int(row4col[j])
        u[cur] += low
        for i in rows[1:]:
            u[i] += low - cost[col4row[i]]
        v[~todo] -= low - cost[~todo]
        while True:  # augment along the path back to row cur
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    return col4row


def _match(vals1, vecs1, vals2, vecs2, policy, kind):
    """Match the eigenpairs (vals, vecs) of two consecutive samples of a
    block by maximal overlap.

    Returns perm (the i-th eigenpair of the first sample continues as the
    perm[i]-th of the second), or None when the link does not certify: an
    eigenphase step above _STEP_MAX (unitary), or a cluster of the first
    sample whose overlap block has smallest singular value (its one entry's
    modulus for a single eigenpair, no SVD) below 1/sqrt(2).  A block with
    one eigenpair matches as perm [0], without an assignment solve or
    clustering: its one overlap entry is the whole certificate.
    """
    O = vecs1.conj().T @ vecs2
    if len(vals1) == 1:
        perm, clusters = np.zeros(1, dtype=np.intp), [(0, 1)]
    else:
        perm = _assign(-np.abs(O))
        # cluster-blocked overlap certificate (vals1 ascend)
        clusters = cluster_indices(vals1, policy.cluster_tol * 10 + 1e-12)
    if kind == "unitary" and np.max(np.abs(_lift(vals2[perm], vals1) - vals1)) > _STEP_MAX:
        return None
    for a, b in clusters:
        block = O[a:b, perm[a:b]]
        smin = abs(block[0, 0]) if b - a == 1 else np.linalg.svd(block, compute_uv=False)[-1]
        if smin < _OVERLAP_MIN:
            return None
    return perm


def _identity_links(vals1, vals2, vecs1, vecs2, policy, kind):
    """Per link of a stack of eigendata (vals (m, d) ascending, vecs
    (m, d, d)): True when `_match` certifies it with the identity
    permutation, decided in one array pass without an assignment solve.
    That holds when vals1 has no cluster (the gap of `_match`), so the
    certificate is the diagonal overlaps alone, every diagonal overlap
    exceeds _IDENTITY_MIN and, for the unitary kind, no eigenphase steps by
    more than _STEP_MAX.  False says nothing: `_match` decides."""
    gap = policy.cluster_tol * 10 + 1e-12
    diag = np.abs(np.einsum("kji,kji->ki", vecs1.conj(), vecs2))
    same = (np.diff(vals1, axis=1) > gap).all(axis=1) & (diag > _IDENTITY_MIN).all(axis=1)
    if kind == "unitary":
        same &= (np.abs(_lift(vals2, vals1) - vals1) <= _STEP_MAX).all(axis=1)
    return same


def track_blocks(path, a, kind: str, error, policy: TolerancePolicy = DEFAULT):
    """Track the eigenvalue (kind "hermitian") or eigenphase ("unitary")
    branches of every isotypic block of the actor a (None: one block) along
    a path on [0, 1].

    Returns (chars, [BranchSet per block]).  The uniform _GRID-point grid and
    each bisection level are one stack of `isotypic_blocks` (a sample not
    commuting with a raises `error`), eigendecomposed by `_block_eigh` or
    `_block_eig_unitary`.  Matching reads overlap moduli and singular values
    only, never the vectors' column phases.  Consecutive samples are matched
    per block, and every link that does not certify is bisected, all links
    of a level together.  The unchecked links of a level are screened in one
    array pass per block (`_identity_links`): a block it passes takes the
    identity, which is what `_match` returns, and every other block goes
    through `_match`, at most once per block and link, stopping at the
    link's first uncertified block.
    TrackingAmbiguous past _MAX_SAMPLES samples, or when a link to bisect is
    at most _MIN_DT long.  The branches follow the certified permutations,
    and unitary phases are lifted against the branch values at the
    previous sample.
    """
    if kind not in ("hermitian", "unitary"):
        raise ValueError("kind must be 'hermitian' or 'unitary'")
    blocks_at = isotypic_blocks(path, a, error, policy)
    eigen = _block_eigh if kind == "hermitian" else _block_eig_unitary

    def by_identity(todo):
        """(len(todo), blocks) mask of the links todo: True where the block
        matches by the identity (`_identity_links`)."""
        return np.stack([_identity_links(vals[todo], vals[todo + 1], vecs[todo], vecs[todo + 1],
                                         policy, kind) for vals, vecs in eig], axis=1)

    def certify(i, identity):
        """Per-block permutations of link i; None at its first uncertified block."""
        perms = []
        for (vals, vecs), same in zip(eig, identity):
            perm = (np.arange(vals.shape[1]) if same
                    else _match(vals[i], vecs[i], vals[i + 1], vecs[i + 1], policy, kind))
            if perm is None:
                return None
            perms.append(perm)
        return perms

    ts = np.linspace(0.0, 1.0, _GRID)
    chars, blocks = blocks_at(ts)
    eig = eigen(blocks, policy)
    links = [None] * (_GRID - 1)  # links[i] certifies (ts[i], ts[i + 1]); None: not yet checked
    while True:
        todo = np.array([i for i, perms in enumerate(links) if perms is None], dtype=int)
        for i, identity in zip(todo, by_identity(todo)):
            links[i] = certify(i, identity)
        bad = np.array([i for i in todo if links[i] is None], dtype=int)
        if not bad.size:
            break
        short = ts[bad + 1] - ts[bad] <= _MIN_DT
        if len(ts) + bad.size > _MAX_SAMPLES or short.any():
            raise TrackingAmbiguous("branch matching uncertified near "
                                    f"t={ts[bad[np.argmax(short)]]:.6g} at depth cap")
        mids = (ts[bad] + ts[bad + 1]) / 2.0
        eig = [(np.insert(vals, bad + 1, v, axis=0), np.insert(vecs, bad + 1, u, axis=0))
               for (vals, vecs), (v, u) in zip(eig, eigen(blocks_at(mids)[1], policy))]
        ts = np.insert(ts, bad + 1, mids)
        for i in bad[::-1]:
            links[i:i + 1] = [None, None]

    sets = []
    for b, (vals, _) in enumerate(eig):
        values = np.empty(vals.shape)
        values[0] = vals[0]
        where = np.arange(vals.shape[1])  # each branch's eigenpair index at the sample
        for k in range(1, len(ts)):
            where = links[k - 1][b][where]
            raw = vals[k][where]
            values[k] = raw if kind == "hermitian" else _lift(raw, values[k - 1])
        sets.append(BranchSet(times=ts, values=values))
    return chars, sets


def group_events(events, gap):
    """Group crossing events (time, direction, weight) of one direction.

    In order of (time, direction), each event not yet grouped opens a group
    that takes every later event of its direction within `gap` of its time.
    Returns (time, direction, count, summed weight) per group, by time.
    """
    events = sorted(events, key=lambda e: (e[0], e[1]))
    used = [False] * len(events)
    groups = []
    for i, (t, direction, weight) in enumerate(events):
        if used[i]:
            continue
        count = 1
        for j in range(i + 1, len(events)):
            tj, dj, wj = events[j]
            if not used[j] and abs(tj - t) <= gap and dj == direction:
                used[j] = True
                count += 1
                weight += wj
        groups.append((t, direction, count, weight))
    return groups
