"""Equivariant Maslov index of Lagrangian-pair paths (two independent modes),
the Maslov triple index, and the Maslov cycle predicate.

A path of Lagrangian pairs is carried by the unitaries (T(t), S(t)) of its
two projection paths, each a `Path` (`LagrangianPath` is the same class) or
any callable t -> unitary.  The index counts intersections ker P(t) & im Q(t),
equivalently crossings of spec(T*(t)S(t)) through -1, signed by the crossing
direction (J. Robbin and D. Salamon, "The Maslov index for paths", Topology
32, 1993).  Both modes count per isotypic block of the actor: a crossing of
m branches of the chi-block weighs chi * m.  Winding mode unwraps each
block's det phase (`winding.winding_number`); grid mode tracks each block's
eigenphase branches and sums the signed crossings of the wall
(`winding.winding_events`).  Both modes place the wall at pi and read its
copies through `winding._wall_copy`, so they share one endpoint rule (an
endpoint phase within zero_tol of pi counts as past the wall), and every
sample either mode takes is checked to commute with the actor
(NotCommuting) and to be unitary (NotUnitary).  The triple index samples
each of its three paths once per distinct time across its three winding
numbers.
"""

import warnings

from .spectra import _sampled_once
from .specflow import Path, adjoint, product
from .symplectic import as_projection, pair_report
from .tolerances import DEFAULT, TolerancePolicy
from .winding import double_index, winding_events, winding_number

__all__ = [
    "LagrangianPath",
    "maslov_index",
    "triple_index_path",
    "triple_index_static",
    "in_maslov_cycle",
]


LagrangianPath = Path  # t -> the unitary T(t) of a Lagrangian projection


def maslov_index(L1, L2, a=None, mode: str = "winding",
                 policy: TolerancePolicy = DEFAULT, grid: int = None) -> complex:
    """Equivariant Maslov index of a path of Lagrangian pairs.

    mode "winding": equivariant winding number of T*(t)S(t), from the
                    unwrapped det phase of each isotypic block.
    mode "grid":    the signed sum of the wall crossings of the tracked
                    eigenphase branches of T*(t)S(t) (`winding_events`):
                    each crossing of m branches of the chi-block weighs
                    chi * m (the actor trace on ker P & im Q there).
    Both modes agree within numerical tolerance.

    grid is ignored, with a DeprecationWarning when given: grid mode samples
    where its tracking needs to.  It stays until the benchmark's cases stop
    passing it (ROADMAP direction 7).
    """
    if grid is not None:
        warnings.warn("maslov_index: grid is ignored; grid mode tracks its crossings",
                      DeprecationWarning, stacklevel=2)
    if mode not in ("winding", "grid"):
        raise ValueError("mode must be 'winding' or 'grid'")
    pair = product(adjoint(L1), L2)
    if mode == "winding":
        return winding_number(pair, a, policy)
    events = winding_events(pair, a, policy)
    return complex(sum(direction * weight for _, direction, weight in events))


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
