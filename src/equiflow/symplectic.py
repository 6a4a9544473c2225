"""Hermitian symplectic space, equivariant Lagrangian projections, pair
diagnostics, APS-type boundary projections and the finite canonical determinant.

Conventions (see docs/conventions.md): the 2n-dimensional boundary space
splits into the first n coordinates (the +i eigenspace of gamma) and the
last n (the -i eigenspace); gamma = diag(i*I_n, -i*I_n).  A Lagrangian
projection is encoded by an n x n unitary T through

    P = 1/2 [[I, T*], [T, I]],      im(P) = {(v, Tv)}.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    KernelLagrangianInvalid,
    NotEquivariant,
    NotHermitian,
    NotLagrangian,
    NotUnitary,
)
from .spectra import _NUMERIC, _as_matrix, check_commuting, eig_hermitian, opnorm
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "SymplecticSpace",
    "LagrangianProjection",
    "PairReport",
    "make_projection_from_unitary",
    "as_projection",
    "pair_report",
    "aps_projection",
    "canonical_determinant",
    "flip_orientation",
]


def _check_unitary(U, tol=1e-10, what="matrix"):
    """U as a complex array; NotUnitary unless it passes `_as_matrix`, is
    finite and ||U* U - I||_2 <= tol."""
    U = _as_matrix(U, NotUnitary, what)
    if not np.isfinite(U).all():
        raise NotUnitary(f"{what} has non-finite entries")
    if not opnorm(U.conj().T @ U - np.eye(U.shape[0])) <= tol:
        raise NotUnitary(f"{what} is not unitary within {tol}")
    return U


@dataclass(frozen=True)
class SymplecticSpace:
    """C^{2n} with gamma = diag(i*I_n, -i*I_n); gamma^2 = -I, gamma^* = -gamma."""

    n: int

    @property
    def dim(self):
        return 2 * self.n

    @property
    def gamma(self):
        n = self.n
        return np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))


@dataclass
class LagrangianProjection:
    """Orthogonal Lagrangian projection P = 1/2 [[I, T*], [T, I]]."""

    T: np.ndarray
    P: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.T.shape[0]

    def image_basis(self):
        """Orthonormal columns spanning im(P) = {(v, Tv)}: (I; T)/sqrt(2)."""
        n = self.n
        return np.vstack([np.eye(n), self.T]) / np.sqrt(2.0)


def make_projection_from_unitary(T, policy: TolerancePolicy = DEFAULT) -> LagrangianProjection:
    """Build the Lagrangian projection associated to an n x n unitary T
    (NotUnitary by `_check_unitary` at max(100 eig_tol, 1e-10))."""
    return _projection(_check_unitary(T, max(policy.eig_tol * 100, 1e-10), "T"))


def _projection(T):
    """The Lagrangian projection of a complex T that is unitary by
    construction, unchecked: P = 1/2 [[I, T*], [T, I]]."""
    n = T.shape[0]
    P = np.zeros((2 * n, 2 * n), dtype=complex)
    P[:n, n:] = T.conj().T
    P[n:, :n] = T
    P.flat[::2 * n + 1] = 1.0
    return LagrangianProjection(T=T, P=0.5 * P)


def _projection_of_matrix(P, policy):
    """The Lagrangian projection of a 2n x 2n matrix P, with T = 2 P[n:, :n].

    NotLagrangian (also from `_as_matrix`) unless P is finite and an
    orthogonal projection with gamma P gamma^* = I - P within 1e-10, and
    NotUnitary unless T is unitary within the tighter of 1e-8 and the
    tolerance of `make_projection_from_unitary`.
    """
    P = _as_matrix(P, NotLagrangian, "P", even=True)
    m = P.shape[0]
    if not np.isfinite(P).all():
        raise NotLagrangian("P has non-finite entries")
    n = m // 2
    tol = 1e-10
    if opnorm(P @ P - P) > tol or opnorm(P - P.conj().T) > tol:
        raise NotLagrangian("P is not an orthogonal projection within 1e-10")
    gamma = SymplecticSpace(n).gamma
    if opnorm(gamma @ P @ gamma.conj().T - (np.eye(m) - P)) > tol:
        raise NotLagrangian("gamma P gamma^* != I - P within 1e-10")
    T_tol = min(1e-8, max(policy.eig_tol * 100, 1e-10))
    return _projection(_check_unitary(2.0 * P[n:, :n], T_tol, "recovered T"))


def as_projection(P, policy: TolerancePolicy = DEFAULT) -> LagrangianProjection:
    """Coerce a matrix or LagrangianProjection into a LagrangianProjection;
    a matrix is checked and its unitary T recovered by `_projection_of_matrix`."""
    if isinstance(P, LagrangianProjection):
        return P
    return _projection_of_matrix(P, policy)


def _boundary_actor(h, P, Q, policy):
    """The action a of h on the first n coordinates of C^{2n}, the space of
    the projections P and Q (I when h is None).  h is n x n, acting as
    diag(h, h), or 2n x 2n; NotEquivariant for any other shape or unless h
    commutes with both projections, and the 2n x 2n actor passes
    `isotypic_split` (in `check_commuting`)."""
    n = P.n
    if h is None:
        return np.eye(n, dtype=complex)
    h = np.asarray(h)
    if h.shape == (n, n):
        zero = np.zeros_like(h)
        h = np.block([[h, zero], [zero, h]])
    elif h.shape != (2 * n, 2 * n):
        raise NotEquivariant(f"symmetry has incompatible shape {h.shape}")
    return check_commuting(h, np.stack([P.P, Q.P]), None, NotEquivariant, policy)[:n, :n]


@dataclass
class PairReport:
    """Diagnostics of a Lagrangian projection pair (P, Q) under the action of h.

    invertible          PQ: im(Q) -> im(P) invertible (finite model: the
                        Fredholm criterion is vacuously true)
    intersection_dim    dim ker(I + T*S) = dim (ker P & im Q)
    intersection_trace  Tr(a | ker(I + T*S)) = Tr(h | ker P & im Q)
    witness_basis       orthonormal 2n-dim basis of ker P & im Q
    """

    invertible: bool
    intersection_dim: int
    intersection_trace: complex
    witness_basis: np.ndarray
    sigma_min: float = 0.0


def pair_report(P, Q, h=None, policy: TolerancePolicy = DEFAULT) -> PairReport:
    """Invertibility and intersection data for a pair of Lagrangian projections.

    A singular value of I + T*S at most max(zero_tol, 10 eig_tol n) counts
    as zero."""
    P = as_projection(P, policy)
    Q = as_projection(Q, policy)
    if P.n != Q.n:
        raise NotLagrangian("projections live on different spaces")
    n = P.n
    a = _boundary_actor(h, P, Q, policy)
    T, S = P.T, Q.T
    M = np.eye(n) + T.conj().T @ S
    _, svals, Vh = np.linalg.svd(M)
    rank_tol = max(policy.zero_tol, 10 * policy.eig_tol * n)
    smin = float(svals[-1])
    invertible = bool(smin > rank_tol)
    k = int(np.sum(svals <= rank_tol))
    kerT = Vh.conj().T[:, n - k:] if k else np.zeros((n, 0), dtype=complex)
    trace = complex(np.trace(kerT.conj().T @ a @ kerT)) if k else 0.0 + 0.0j
    # witness vectors inside the 2n-space: ker(P) & im(Q) = {(v, Sv): v in ker M}
    Bq = Q.image_basis()
    wit = Bq @ kerT if k else np.zeros((2 * n, 0), dtype=complex)
    if k:
        wit, _ = np.linalg.qr(wit)
    return PairReport(invertible=invertible, intersection_dim=k, intersection_trace=trace,
                      witness_basis=wit, sigma_min=smin)


def aps_projection(A, L=None, policy: TolerancePolicy = DEFAULT) -> LagrangianProjection:
    """Boundary projection P^+ + P_L for a gamma-anticommuting Hermitian A.

    L is an orthonormal basis of a Lagrangian inside ker(A), i.e.
    gamma(L) = L^perp & ker(A); omit it when A is invertible.  L must hold
    numbers in 2n rows (a vector is one column): DimensionMismatch otherwise.
    """
    A = _as_matrix(A, what="boundary operator A", even=True)
    if not np.isfinite(A).all():
        raise NotHermitian("boundary operator A has non-finite entries")
    gamma = SymplecticSpace(A.shape[0] // 2).gamma
    nrm = max(opnorm(A), 1.0)
    if opnorm(gamma @ A + A @ gamma) > 1e-10 * nrm:
        raise ValueError("A must anti-commute with gamma within 1e-10 * ||A||")
    es = eig_hermitian(A, policy)
    pos = es.vectors[:, es.values > policy.zero_tol * nrm]
    ker = es.vectors[:, np.abs(es.values) <= policy.zero_tol * nrm]
    kdim = ker.shape[1]
    L = np.zeros((len(A), 0)) if L is None else np.asarray(L)
    if L.ndim == 1:
        L = L[:, None]
    if L.dtype.kind not in _NUMERIC or L.ndim != 2 or len(L) != len(A):
        raise DimensionMismatch(f"kernel Lagrangian basis L: expected {len(A)} rows of numbers; "
                                f"got shape {L.shape} of {L.dtype}")
    L = L.astype(complex, copy=False)
    ldim = L.shape[1]
    if 2 * ldim != kdim:
        raise KernelLagrangianInvalid(
            f"ker(A) has dimension {kdim}; L must span half of it, got {ldim}")
    if not np.isfinite(L).all():
        raise KernelLagrangianInvalid("L basis has non-finite entries")
    if ldim:
        if opnorm(L.conj().T @ L - np.eye(ldim)) > 1e-10:
            raise KernelLagrangianInvalid("L basis is not orthonormal")
        if opnorm(L - ker @ (ker.conj().T @ L)) > 1e-8:
            raise KernelLagrangianInvalid("L does not lie inside ker(A)")
        if opnorm(L.conj().T @ gamma @ L) > 1e-8:
            raise KernelLagrangianInvalid("gamma(L) is not orthogonal to L inside ker(A)")
    Pm = pos @ pos.conj().T
    if ldim:
        Pm = Pm + L @ L.conj().T
    try:
        return _projection_of_matrix(Pm, policy)
    except NotLagrangian as exc:
        raise KernelLagrangianInvalid(f"resulting projection is not Lagrangian: {exc}")


def canonical_determinant(P, P_M, h=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Finite-dimensional canonical determinant det(a (I + T^{-1} K) / 2).

    T and K are the unitaries of the boundary projection P and of the
    reference (Calderon-type) projection P_M; a is the first-block action.
    """
    P = as_projection(P, policy)
    P_M = as_projection(P_M, policy)
    n = P.n
    a = _boundary_actor(h, P, P_M, policy)
    T, K = P.T, P_M.T
    return complex(np.linalg.det(a @ (np.eye(n) + T.conj().T @ K) / 2.0))


def flip_orientation(P, policy: TolerancePolicy = DEFAULT) -> LagrangianProjection:
    """Reinterpret a Lagrangian projection in the opposite orientation.

    The associated unitary maps T -> -T^*; applying the flip twice restores
    a projection with unitary T.  This realizes the complementary boundary
    condition of the orientation-reversed piece in splitting experiments.
    """
    P = as_projection(P, policy)
    return _projection(-P.T.conj().T)  # unitary: T was checked when P was built
