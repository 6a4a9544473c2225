"""Exactly solvable 1D Dirac models on the circle and the interval.

Circle model (circumference 2 pi, m channels, constant Hermitian potential V,
internal symmetry u with [u, V] = 0, optional rotation action of order N):
spectrum {k + v_j : k in Z}, mode (k, j) carrying weight chi_j(u)^p * w^{k r}.

Interval model (length L): D = -i d/dx + V per channel with boundary space
C^{2m} ordered (value at left end, value at right end), boundary form
gamma = diag(i I_m, -i I_m), transfer matrix M(lambda) = exp(i L (lambda - V)).
A Lagrangian boundary projection P (domain condition P(psi(0), psi(L)) = 0)
yields the secular equation det(I + T* M(lambda)) = 0, whose solutions are
m exact arithmetic progressions.

The eta invariants are exact: each progression b + s k has a closed-form
zeta-regularized signed sum (`_exact_eta`), so an eta costs O(progressions).
The Abel or averaged cutoff sum over an enumerated spectrum
(`enumerated_eta`, `regularized_signed_sum`) is the cross-check.
All sign and orientation conventions are pinned in docs/conventions.md and
asserted by tests.
"""

import cmath
from dataclasses import dataclass
from math import floor, pi

import numpy as np

from .errors import (
    DimensionMismatch,
    KernelPresent,
    NotEquivariant,
)
from .spectra import (_as_matrix, check_commuting, cluster_indices, eig_hermitian, eig_unitary,
                      isotypic_split)
from .symplectic import (
    LagrangianProjection,
    _projection,
    as_projection,
    flip_orientation,
    make_projection_from_unitary,
)
from .maslov import triple_index_static
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "CircleDiracModel",
    "IntervalDiracModel",
    "SplitScenario",
    "theta_projection",
    "circle_spectrum",
    "circle_eta",
    "secular_branches",
    "interval_spectrum",
    "interval_calderon",
    "interval_eta",
    "sw_identity_check",
    "splitting_experiment",
    "regularized_signed_sum",
    "enumerated_eta",
]


def _channel_data(model):
    """Joint eigen-data of a model's commuting pair (V Hermitian, u unitary),
    V passing `_as_matrix` and u `isotypic_split` first.

    Sets V (complex), m and, per channel, ascending in value, the
    V-eigenvalue and the u-character (channel_values, channel_chars) with a
    common orthonormal basis (channel_basis).  V is diagonalized on each
    chi-block of `isotypic_split(u)` (one block with chi = 1 when u is
    None), where u acts as chi * I.
    """
    V = model.V = _as_matrix(model.V, what="potential V")
    model.m, policy = len(V), model.policy
    check_commuting(model.u, V, None, NotEquivariant, policy)
    W, blocks, chars = isotypic_split(model.u, model.m, policy)
    vals, chis, cols = [], [], []
    for chi, idx in zip(chars, blocks):
        Q = W[:, idx]
        es = eig_hermitian(Q.conj().T @ V @ Q, policy)
        vals.append(es.values)
        chis.append(np.full(len(idx), chi))
        cols.append(Q @ es.vectors)
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")
    model.channel_values = vals[order]
    model.channel_chars = np.concatenate(chis)[order]
    model.channel_basis = np.hstack(cols)[:, order]


@dataclass
class CircleDiracModel:
    """-i d/dx + V on the circle of circumference 2 pi, m channels."""

    V: np.ndarray
    u: np.ndarray = None
    rotation_order: int = None
    policy: TolerancePolicy = DEFAULT

    def __post_init__(self):
        _channel_data(self)


@dataclass
class IntervalDiracModel:
    """-i d/dx + V on [0, L], boundary data (psi(0), psi(L)) in C^{2m}; its
    channels and branches are taken on the isotypic split of u
    (`isotypic_split`), and the branch clusters of each boundary unitary are
    kept once computed."""

    L: float
    V: np.ndarray
    u: np.ndarray = None
    policy: TolerancePolicy = DEFAULT

    def __post_init__(self):
        if not 0 < self.L < np.inf:
            raise ValueError("interval length must be positive and finite")
        _channel_data(self)
        self._cluster_cache = {}

    def actor(self, power: int = 1):
        """u^power as an m x m matrix (identity when no symmetry is present)."""
        if self.u is None or power == 0:
            return np.eye(self.m, dtype=complex)
        return np.linalg.matrix_power(np.asarray(self.u, dtype=complex), power)


def theta_projection(theta, m: int = 1) -> LagrangianProjection:
    """Boundary projection with associated unitary T = -diag(e^{i theta_j}).

    The m = 1 model with this projection has spectrum {(theta + 2 pi k)/L}
    and eta invariant 1 - theta/pi for theta in (0, 2 pi).
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.size == 1 and m > 1:
        th = np.repeat(th, m)
    T = -np.diag(np.exp(1j * th))
    return make_projection_from_unitary(T)


def _interval_transfer(model: IntervalDiracModel, lam) -> np.ndarray:
    """Transfer matrix M(lambda) = exp(i L (lambda I - V)), unitary for real lambda."""
    C = model.channel_basis
    phase = np.exp(1j * model.L * (lam - model.channel_values))
    return C @ np.diag(phase) @ C.conj().T


def _branch_clusters(model: IntervalDiracModel, P):
    """(order, betas, members) of the eigenphases of G = T* M(0) for the
    boundary unitary T of P: `order` sorts the phases pooled over the
    isotypic blocks of u (`isotypic_split`), and each branch cluster has its
    beta and the positions of its phases in that order.  None of it depends
    on the power of u, so it is computed once per model and T and kept on
    the model.  P is taken by `as_projection`; DimensionMismatch, naming its
    shape, unless it acts on the model's m channels.
    """
    P = as_projection(P, model.policy)
    if P.n != model.m:
        raise DimensionMismatch(f"projection of shape {P.P.shape} does not match "
                                f"the model's {model.m} channels")
    key = P.T.tobytes()
    if key not in model._cluster_cache:
        T = P.T
        check_commuting(model.u, T, None, NotEquivariant, model.policy)
        G = T.conj().T @ _interval_transfer(model, 0.0)
        W, blocks, _ = isotypic_split(model.u, model.m, model.policy)
        phases = np.concatenate([eig_unitary(W[:, idx].conj().T @ G @ W[:, idx],
                                             model.policy).values for idx in blocks])
        order = np.argsort(phases, kind="stable")
        phases = phases[order]
        betas, members = [], []
        for a, b in cluster_indices(phases, model.policy.cluster_tol, circular=True):
            idx = np.arange(a, b) % model.m
            g_phase = float(np.angle(np.mean(np.exp(1j * phases[idx]))))
            # z = -1/g  =>  beta = pi - phase(g)  (mod 2 pi, mapped to (-pi, pi])
            betas.append(float(np.mod(pi - g_phase + pi, 2 * pi) - pi))
            members.append(idx)
        model._cluster_cache[key] = order, betas, members
    return model._cluster_cache[key]


def secular_branches(model: IntervalDiracModel, P, element_power: int = 0):
    """Exact spectral branches of D_P for constant V.

    The secular condition det(I + T* M(lambda)) = 0 with
    M(lambda) = e^{i lambda L} M(0) reduces to e^{i lambda L} in the spectrum
    of -(T* M(0))^{-1}; each unitary eigenvalue yields the progression
    lambda = (beta_j + 2 pi k)/L.

    Returns (betas in (-pi, pi], weights, dims) with one entry per branch
    cluster.  G = T* M(0) commutes with u, so its eigenphases are taken per
    isotypic block of u (`isotypic_split`), where u acts as chi * I, and
    pooled into clusters: a cluster's weight is the sum of chi^p over its
    phases, Tr(u^p | branch eigenspace), and its dim the number of them.
    The phases and clusters are computed once per model and T; only the
    weights depend on the power.
    """
    chars = isotypic_split(model.u, model.m, model.policy)[2]
    return _branches(model, P, _phase_weights(model, chars ** element_power))


def _phase_weights(model, block_values):
    """One weight per eigenphase of G, in the block order of the isotypic
    split of u (`isotypic_split`): the value of its isotypic block."""
    blocks = isotypic_split(model.u, model.m, model.policy)[1]
    return np.concatenate([np.full(len(idx), x, dtype=complex)
                           for x, idx in zip(block_values, blocks)])


def _branches(model, P, phase_weights):
    """(betas, weights, dims) of the branch clusters, each weight the sum of
    `phase_weights` (see `_phase_weights`) over the cluster's phases."""
    order, betas, members = _branch_clusters(model, P)
    phase_weights = phase_weights[order]
    weights = [complex(np.sum(phase_weights[idx])) for idx in members]
    return (np.array(betas), np.array(weights, dtype=complex),
            np.array([len(idx) for idx in members], dtype=int))


def interval_spectrum(model: IntervalDiracModel, P, window, element_power: int = 0):
    """Eigenvalues of D_P inside [window[0], window[1]] with character weights.

    The eigenvalues are the exact branch values (beta + 2 pi k)/L of
    `secular_branches`; multiplicity is the branch cluster dimension.
    """
    lo, hi = window
    betas, weights, dims = secular_branches(model, P, element_power)
    sp = 2 * pi / model.L
    out = []
    for beta, w, d in zip(betas, weights, dims):
        base = beta / model.L
        k_lo = int(np.ceil((lo - base) / sp))
        k_hi = int(np.floor((hi - base) / sp))
        for k in range(k_lo, k_hi + 1):
            out.append((float(base + sp * k), w, int(d)))
    out.sort(key=lambda r: r[0])
    return out


def interval_calderon(model: IntervalDiracModel):
    """Calderon projection: orthogonal projector onto the Cauchy-data space
    {(v, M(0) v)}, i.e. the graph of K = M(0) = exp(-i L V), unitary by
    construction from the orthonormal channel basis."""
    K = _interval_transfer(model, 0.0)
    return _projection(K), K


def _taper(x, lc):
    """1 on x <= lc, cos^2(pi (x - lc) / (2 lc)) on lc < x < 2 lc, 0 beyond."""
    out = np.ones_like(x)
    top = x >= 2 * lc
    mid = (x > lc) & ~top
    out[top] = 0.0
    out[mid] = np.cos(pi * (x[mid] - lc) / (2 * lc)) ** 2
    return out


def _check_regularizer(cutoff, accel):
    """ValueError unless cutoff > 0 and accel is "average" or "abel"."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    if accel not in ("average", "abel"):
        raise ValueError("accel must be 'average' or 'abel'")


def _partial_sums(v, w, cutoff, accel):
    """The two regularized sums of w * sgn(v) that `regularized_signed_sum`
    combines: tapered at cutoff and cutoff / 2 ("average"), or with Abel
    scales cutoff and 2 cutoff ("abel")."""
    w = w * np.sign(v)
    av = np.abs(v)
    if accel == "average":
        return tuple(complex(np.sum(w * _taper(av, lc))) for lc in (cutoff, cutoff / 2))
    return tuple(complex(np.sum(w * np.exp(-av / lc))) for lc in (cutoff, 2 * cutoff))


def _combined(s1, s2, accel):
    """(value, error estimate) from the two sums of `_partial_sums`."""
    return (s1, abs(s1 - s2)) if accel == "average" else (2 * s2 - s1, abs(s2 - s1))


def regularized_signed_sum(values, weights, cutoff, accel: str):
    """Regularized sum of weight * sgn(value) over an explicit eigenvalue list.

    "average": smooth cutoff taper (Cesaro-style averaging of symmetric
    partial sums), 1 on |value| <= cutoff and
    cos^2(pi (|value| - cutoff) / (2 cutoff)) below 2 cutoff; returns (value
    at cutoff, |change under cutoff halving|).
    "abel": Abel factors e^{-|value|/lc}, Richardson extrapolated
    2 S(2 cutoff) - S(cutoff); returns (that value, |S(2 cutoff) - S(cutoff)|).

    The list must cover |value| up to the bound `enumerated_eta` enumerates
    to, which sums the same way in fixed-size chunks.  ValueError unless
    cutoff > 0 and accel is one of the two.
    """
    _check_regularizer(cutoff, accel)
    sums = _partial_sums(np.asarray(values, dtype=float), np.asarray(weights, dtype=complex),
                         cutoff, accel)
    return _combined(*sums, accel)


_CHUNK = 1 << 16  # eigenvalues per array pass of `enumerated_eta`


def enumerated_eta(progressions, rot, tol, cutoff, accel: str = "average",
                   reduced: bool = False):
    """(value, error_estimate) of `regularized_signed_sum` over every
    eigenvalue of the progressions, the enumerated cross-check of `_exact_eta`
    (same arguments and zero band): eigenvalues b + s k weighted c w^k are
    listed up to |lambda| = 2 cutoff + 2 ("average") or 90 cutoff ("abel",
    where e^{-|lambda|/(2 cutoff)} < 1e-19).  They are summed _CHUNK at a
    time, progression by progression in ascending k, so memory stays flat
    however many there are (1.8 M per progression for "abel" at cutoff 1e4)."""
    _check_regularizer(cutoff, accel)
    bound = 2.0 * cutoff + 2.0 if accel == "average" else 90.0 * cutoff
    r, N = rot
    chars = np.exp(2j * pi * np.arange(N) / N)
    s1 = s2 = ker = 0j
    for b, s, c in progressions:
        k_end = int(np.floor((bound - b) / s)) + 1
        for start in range(int(np.ceil((-bound - b) / s)), k_end, _CHUNK):
            k = np.arange(start, min(start + _CHUNK, k_end))
            lam = b + s * k
            w = c * chars[(r * k) % N] if N else np.full(k.shape, c + 0j)
            zero = np.abs(lam) <= tol
            if zero.any():
                if not reduced:
                    raise KernelPresent("enumerated spectrum has an eigenvalue at 0")
                ker += complex(np.sum(w[zero]))
                lam, w = lam[~zero], w[~zero]
            p1, p2 = _partial_sums(lam, w, cutoff, accel)
            s1, s2 = s1 + p1, s2 + p2
    value, err = _combined(s1, s2, accel)
    return ((value + ker) / 2.0, err / 2.0) if reduced else (value, err)


def _exact_eta(progressions, rot, tol, reduced, where):
    """Zeta-regularized signed sum over the progressions (b, s, c): the
    eigenvalues b + s k (s > 0, k in Z) weighted c w^k, with the rotation
    character w = e^{2 pi i r / N} for rot = (r, N) (N = 0: w = 1).

    Per progression, kz = round(-b / s) and the eigenvalue b + s kz is in the
    zero band when |b + s kz| <= tol; then KernelPresent is raised, or with
    reduced it enters the kernel trace c w^{kz}.  The eta is
      w = 1:  c (1 - 2 frac(b/s)), and 0 with a zero-band eigenvalue (the
              rest of the progression is symmetric about it);
      w != 1: 2 c w^{k0} / (1 - w), k0 the first k with b + s k > 0, and
              c w^{kz} (1 + w) / (1 - w) with a zero-band eigenvalue.
    Returns eta, or (eta + kernel trace) / 2 with reduced.
    """
    r, N = rot
    rotates = bool(N) and r % N != 0
    w = cmath.exp(2j * pi * r / N) if rotates else 1.0
    eta = ker = 0j
    for b, s, c in progressions:
        kz = round(-b / s)
        zero = abs(b + s * kz) <= tol
        if zero and not reduced:
            raise KernelPresent(f"{where} model has spectrum at 0")
        if not rotates:
            if zero:
                ker += c
            else:
                eta += c * (1.0 - 2.0 * (b / s - floor(b / s)))
            continue
        k = kz if zero or b + s * kz > 0 else kz + 1
        ck = c * cmath.exp(2j * pi * ((r * k) % N) / N)  # c w^k
        if zero:
            ker += ck
            eta += ck * (1.0 + w) / (1.0 - w)
        else:
            eta += 2.0 * ck / (1.0 - w)
    return (eta + ker) / 2.0 if reduced else eta


def circle_spectrum(model: CircleDiracModel, window, u_power: int = 0,
                    rotation_power: int = 0):
    """All eigenvalues k + v_j inside the window with their character weights."""
    lo, hi = window
    out = []
    for v, chi in zip(model.channel_values, model.channel_chars):
        k_lo = int(np.ceil(lo - v))
        k_hi = int(np.floor(hi - v))
        for k in range(k_lo, k_hi + 1):
            w = chi ** u_power
            if rotation_power and model.rotation_order:
                w = w * np.exp(2j * pi * k * rotation_power / model.rotation_order)
            out.append((float(k + v), complex(w)))
    out.sort(key=lambda r: r[0])
    return out


def circle_eta(model: CircleDiracModel, u_power: int = 0, rotation_power: int = 0,
               reduced: bool = False) -> complex:
    """Exact equivariant eta invariant of the circle model.

    For m = 1, V = (beta), trivial action: eta = 1 - 2 beta for beta in (0, 1).
    For a rotation of order N with character w = e^{2 pi i r / N}: eta = 2/(1 - w),
    independently of beta.
    Each channel is the progression k + v_j weighted chi_j^p w^k, summed by
    `_exact_eta`.  The zero band |lambda| <= zero_tol raises KernelPresent,
    or with reduced enters as its weight trace.
    """
    rot = (rotation_power, model.rotation_order) if rotation_power and model.rotation_order \
        else (0, 0)
    progs = [(v, 1.0, chi ** u_power) for v, chi in zip(model.channel_values, model.channel_chars)]
    return _exact_eta(progs, rot, model.policy.zero_tol, reduced, "circle")


def interval_eta(model: IntervalDiracModel, P, u_power: int = 0,
                 reduced: bool = False) -> complex:
    """Exact equivariant eta invariant of D_P on the interval.

    For the m = 1 theta-model: eta = 1 - theta/pi for theta in (0, 2 pi).
    Each branch cluster of `secular_branches` is the progression
    (beta + 2 pi k)/L with its weight, summed by `_exact_eta`.  The zero band
    |lambda| <= 10 zero_tol raises KernelPresent, or with reduced enters as
    its weight trace.
    """
    betas, weights, _ = secular_branches(model, P, u_power)
    return _branch_eta(model, betas, weights, reduced)


def _branch_eta(model, betas, weights, reduced):
    progs = [(beta / model.L, 2 * pi / model.L, w) for beta, w in zip(betas, weights)]
    return _exact_eta(progs, (0, 0), model.policy.zero_tol * 10, reduced, "interval")


def sw_identity_check(model: IntervalDiracModel, P, Q, u_power: int = 0):
    """Exponentiated eta-difference against the boundary determinant on each
    eigenspace E of u^p:

        exp(2 pi i (reduced_eta(D_P | E) - reduced_eta(D_Q | E)))  vs  det(T* S | E)

    with T, S the unitaries of P, Q.  E is the sum of the isotypic blocks of
    u whose chi^p agree (u^0 = I: the whole space), and on E every weight is
    1.  (Weighted by chi^p on the whole space, the eta difference is complex
    and its exponential is not unit-modulus, so no such identity holds.)
    Returns (lhs, rhs, defect):
    lhs and rhs are the products of the two sides over the eigenspaces, i.e.
    exp(2 pi i (reduced_eta(D_P) - reduced_eta(D_Q))) and det(T* S), and
    defect is the eigenspace lhs - rhs of the largest modulus.  Raises
    KernelPresent when either operator is singular.
    """
    P = as_projection(P, model.policy)
    Q = as_projection(Q, model.policy)
    W, blocks, chars = isotypic_split(model.u, model.m, model.policy)
    powers = np.asarray(chars) ** u_power
    left = np.ones(len(blocks), dtype=bool)
    lhs, rhs, defect = 1.0 + 0j, 1.0 + 0j, 0j
    while left.any():
        on = left & (np.abs(powers - powers[np.argmax(left)]) <= model.policy.cluster_tol)
        left &= ~on
        weights = _phase_weights(model, on.astype(float))
        eta_P, eta_Q = (_branch_eta(model, *_branches(model, X, weights)[:2], False)
                        for X in (P, Q))
        B = W[:, np.concatenate([blocks[i] for i in np.flatnonzero(on)])]
        l = cmath.exp(1j * pi * (eta_P - eta_Q))
        r = complex(np.linalg.det(B.conj().T @ P.T.conj().T @ Q.T @ B))
        lhs, rhs = lhs * l, rhs * r
        if abs(l - r) >= abs(defect):
            defect = l - r
    return lhs, rhs, complex(defect)


@dataclass
class SplitScenario:
    """Circle of circumference 2 pi cut at {0, pi} into two length-pi halves.

    The shared boundary space is slot-ordered (value at cut 0, value at cut pi),
    which equals the (left, right) convention of the first half; the second
    half enters through the orientation flip (see docs/conventions.md).
    """

    V: np.ndarray
    P: LagrangianProjection
    u: np.ndarray = None
    u_power: int = 0
    policy: TolerancePolicy = DEFAULT


def splitting_experiment(sc: SplitScenario) -> dict:
    """Test the eta-splitting identity

        reduced_eta(circle) = reduced_eta(M+, P) + reduced_eta(M-, flip(P))
                              + triple_index(flip(Calderon(M-)), P, Calderon(M+)).

    The halves M+ and M- are the same model (length pi, the circle's V and
    u), built once; the circle's eta is read from its channel data, which is
    the circle model's too, so (V, u) is diagonalized once.  Returns a report
    dict with every term, the triple index and the residual.
    """
    half = IntervalDiracModel(pi, sc.V, sc.u, policy=sc.policy)
    P = as_projection(sc.P, sc.policy)
    return next(_splitting_reports(half, P, interval_calderon(half)[0], [sc.u_power]))


def _splitting_reports(half, P, P_cal, powers):
    """Yield the `splitting_experiment` report of each u-power in powers for
    the half model, the boundary projection P and the half's Calderon
    projection P_cal (`interval_calderon`, taken by the caller, which may
    also use it as P).  `circle_eta` reads only channel data, so it takes
    the half model; both flips are taken once, and per power only the
    weights, u^p and the triple index are computed."""
    policy = half.policy
    P_flip = flip_orientation(P, policy)
    first = flip_orientation(P_cal, policy)
    for p in powers:
        rep = {"eta_circle": circle_eta(half, p, 0, reduced=True),
               "eta_plus": interval_eta(half, P, p, reduced=True),
               "eta_minus": interval_eta(half, P_flip, p, reduced=True),
               "triple_index": triple_index_static(first, P, P_cal, half.actor(p), policy)}
        rep["residual"] = complex(rep["eta_circle"] - rep["eta_plus"] - rep["eta_minus"]
                                  - rep["triple_index"])
        yield rep
