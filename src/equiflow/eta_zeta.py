"""Equivariant eta and zeta invariants of finite Hermitian operators.

Spectral sums run over the eigenvalues of the isotypic blocks of the
symmetry h, cut by the kernel of `spectra.isotypic_blocks` and
eigendecomposed by `spectra._block_eigh`; h acts as chi * I on its
chi-block, so each eigenvalue of that block carries the weight chi.  The
s-dependent quantities are finite sums with principal powers;
Mellin-transform quadratures are provided as verification-only
cross-checks.

`scipy.special` is imported by the routines that use it (`truncated_eta`,
the `mellin_*` cross-checks and `eta_log_defect`), on first call, so a
process that calls none of them never loads it.
"""

from dataclasses import dataclass, field
from math import pi, sqrt

import numpy as np

from .errors import DimensionMismatch, KernelPresent, NotEquivariant, NotHermitian
from .spectra import (
    _as_matrix,
    _block_eigh,
    _isotypic_cut,
    integrate,
    isotypic_split,
    path_panel,
    principal_log_unitary,
    sample_stack,
)
from .tolerances import DEFAULT, TolerancePolicy

__all__ = [
    "SpectralOperator",
    "eta",
    "reduced_eta",
    "truncated_eta",
    "eta_form",
    "getzler_spectral_flow",
    "zeta",
    "zeta_determinant",
    "zeta_determinant_product_route",
    "mellin_eta",
    "mellin_zeta",
    "eta_log_defect",
    "fit_character_lattice",
]


@dataclass
class SpectralOperator:
    """Hermitian D with a commuting unitary symmetry h (None: trivial).

    values holds every eigenvalue of the blocks V_chi* D V_chi of the
    isotypic split of h, ascending; weights[i] is the character chi of the
    block of values[i], on which h acts as chi * I.  D passes `_as_matrix`
    and h `isotypic_split` (DimensionMismatch, NotUnitary); NotEquivariant
    when D does not commute with h, NotHermitian for a non-Hermitian D.
    """

    D: np.ndarray
    h: np.ndarray = None
    policy: TolerancePolicy = DEFAULT
    values: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.D = _as_matrix(self.D)
        chars, blocks = _isotypic_cut(self.D, self.h, self.policy, None, NotEquivariant)
        self.h = None if self.h is None else np.asarray(self.h, dtype=complex)
        self._eigh = _block_eigh(blocks, self.policy)  # (lam, U) per block
        values = np.concatenate([lam for lam, _ in self._eigh])
        weights = np.concatenate([np.full(lam.size, chi) for chi, (lam, _) in
                                  zip(chars, self._eigh)])
        order = np.argsort(values, kind="stable")
        self.values, self.weights = values[order], weights[order]

    @property
    def zero_scale(self):
        return max(float(np.max(np.abs(self.values), initial=0.0)), 1.0)

    def kernel_mask(self):
        return np.abs(self.values) <= self.policy.zero_tol * self.zero_scale

    def nonzero(self):
        """(values, weights) of the eigenvalues off the kernel."""
        m = ~self.kernel_mask()
        return self.values[m], self.weights[m]

    def kernel_trace(self):
        return complex(np.sum(self.weights[self.kernel_mask()]))


def _spec(D, h, policy) -> SpectralOperator:
    """D as a SpectralOperator under the route's policy (an operator built
    under another policy is rebuilt); an operator already carries its h, so
    none may be passed with it (ValueError)."""
    if isinstance(D, SpectralOperator):
        if h is not None:
            raise ValueError("h is given with a SpectralOperator, which carries its own h")
        return D if D.policy == policy else SpectralOperator(D.D, D.h, policy)
    return SpectralOperator(D, h, policy)


def eta(D, h=None, s: complex = 0.0, policy: TolerancePolicy = DEFAULT) -> complex:
    """Equivariant eta function: sum over nonzero spectrum of
    Tr(h|lambda) * sgn(lambda) * |lambda|^{-s}."""
    op = _spec(D, h, policy)
    lam, w = op.nonzero()
    return complex(np.sum(w * np.sign(lam) * np.abs(lam) ** (-s)))


def reduced_eta(D, h=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """(eta + Tr(h|ker D)) / 2."""
    op = _spec(D, h, policy)
    return complex((eta(op, policy=policy) + op.kernel_trace()) / 2.0)


def truncated_eta(D, h=None, eps: float = 1.0, policy: TolerancePolicy = DEFAULT) -> complex:
    """Tail of the eta Mellin integral from eps, in closed form:
    sum of Tr(h|lambda) * sgn(lambda) * erfc(sqrt(eps) |lambda|)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    from scipy.special import erfc

    op = _spec(D, h, policy)
    lam, w = op.nonzero()
    return complex(np.sum(w * np.sign(lam) * erfc(np.sqrt(eps) * np.abs(lam))))


def eta_form(D, X, h=None, eps: float = 1.0, policy: TolerancePolicy = DEFAULT):
    """One-form sqrt(eps/pi) * Tr(h X e^{-eps D^2}) of a Hermitian D commuting
    with the actor h: a complex for matrices D, X, a (K,) array for (K, n, n)
    stacks.  h acts as chi * I on its chi-block (`spectra.isotypic_split`), so
    this is sum_chi chi Tr(X_chi e^{-eps D_chi^2}), and the blocks of D take
    one eigh per block size (`spectra._block_eigh`).
    D and X pass `_as_matrix` with one shape (DimensionMismatch).  Every
    sample of D is checked to commute with h (NotEquivariant) in the
    rotation that cuts it, and each of its blocks by the Frobenius test of
    `hermitian_part` (NotHermitian).  X is cut unchecked: it need not
    commute with h nor be Hermitian, but a non-finite X raises NotHermitian
    naming X.
    """
    F, X = _as_matrix(D, stack=True), _as_matrix(X, what="X", stack=True)
    if X.shape != F.shape:
        raise DimensionMismatch(f"X of shape {X.shape} does not match D of shape {F.shape}")
    if not np.isfinite(X).all():
        raise NotHermitian("X has non-finite entries")
    D = F.reshape((-1,) + F.shape[-2:])
    chars, blocks = _isotypic_cut(D, h, policy, None, NotEquivariant)
    # X need not commute with h: only its diagonal blocks enter the trace
    _, X_blocks = _isotypic_cut(X.reshape(D.shape), h, policy)
    total = 0.0
    for chi, (lam, U), Xc in zip(chars, _block_eigh(blocks, policy), X_blocks):
        Xd = np.sum(U.conj() * (Xc @ U), axis=1)  # diagonal of U* X_chi U
        total += chi * np.sum(Xd * np.exp(-eps * lam ** 2), axis=1)
    out = sqrt(eps / pi) * total
    return complex(out[0]) if F.ndim == 2 else out


def zeta(D, h=None, s: complex = 0.0, policy: TolerancePolicy = DEFAULT) -> complex:
    """Equivariant zeta function over the positive spectrum with principal powers.

    Raises KernelPresent when D has spectrum at 0.
    """
    op = _spec(D, h, policy)
    if np.any(op.kernel_mask()):
        raise KernelPresent("zeta requires 0 not in spec(D)")
    m = op.values > 0
    lam = op.values[m]
    w = op.weights[m]
    return complex(np.sum(w * lam ** (-s)))


def zeta_determinant(D, h=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Regularised determinant of an invertible Hermitian operator:

        exp( (i pi / 2) (zeta(D^2, 0) - eta(D)) - zeta'(D^2, 0) / 2 )

    with zeta(D^2, 0) = Tr(h) and zeta'(D^2, 0) = -sum Tr(h|l) log(l^2).
    With trivial symmetry this equals det(D).
    """
    op = _spec(D, h, policy)
    if np.any(op.kernel_mask()):
        raise KernelPresent("zeta determinant requires an invertible operator")
    z0 = complex(np.sum(op.weights))
    eta0 = eta(op, policy=policy)
    zdot = complex(-np.sum(op.weights * np.log(op.values ** 2)))
    return complex(np.exp((1j * pi / 2.0) * (z0 - eta0) - zdot / 2.0))


def zeta_determinant_product_route(D, h=None, policy: TolerancePolicy = DEFAULT) -> complex:
    """Independent eigenvalue-product route: each eigenvalue contributes
    exp(Tr(h|l) * (log|l| + i pi (1 - sgn l)/2))."""
    op = _spec(D, h, policy)
    if np.any(op.kernel_mask()):
        raise KernelPresent("zeta determinant requires an invertible operator")
    total = 0.0 + 0.0j
    for lam, w in zip(op.values, op.weights):
        total += w * (np.log(abs(lam)) + 1j * pi * (1 - np.sign(lam)) / 2.0)
    return complex(np.exp(total))


def mellin_zeta(D, h=None, s: complex = 1.0, policy: TolerancePolicy = DEFAULT) -> complex:
    """Quadrature cross-check of zeta via (1/Gamma(s)) int t^{s-1} Tr(h e^{-tD}) dt
    over the positive spectrum; requires Re(s) > 0."""
    from scipy.special import gamma as gamma_fn

    op = _spec(D, h, policy)
    m = op.values > policy.zero_tol * op.zero_scale
    lam = op.values[m]
    w = op.weights[m]
    if lam.size == 0:
        return 0.0 + 0.0j
    lam_min = float(np.min(lam))

    def f(ts):
        return np.sum(w * np.exp(-lam * ts[:, None]), axis=1) * ts ** (s - 1)

    t_max = 42.0 / lam_min
    return complex(integrate(f, 1e-12, t_max, policy) / gamma_fn(s))


def mellin_eta(D, h=None, s: complex = 1.0, policy: TolerancePolicy = DEFAULT) -> complex:
    """Quadrature cross-check of eta via the Mellin transform of
    Tr(h D e^{-t D^2}), after the substitution t = u^2."""
    from scipy.special import gamma as gamma_fn

    op = _spec(D, h, policy)
    lam, w = op.nonzero()
    if lam.size == 0:
        return 0.0 + 0.0j
    lam_min = float(np.min(np.abs(lam)))

    def f(us):
        return 2.0 * us ** s * np.sum(w * lam * np.exp(-(us[:, None] * lam) ** 2), axis=1)

    u_max = 6.5 / lam_min
    return complex(integrate(f, 0.0, u_max, policy) / gamma_fn((s + 1) / 2.0))


def getzler_spectral_flow(path, h=None, eps: float = 1.0,
                          policy: TolerancePolicy = DEFAULT) -> complex:
    """Spectral flow from truncated reduced-eta data:

        1/2 [ eta_eps(D(1)) - eta_eps(D(0)) - int_0^1 (d/dt) eta_eps dt ]

    with the smooth closed-form derivative
    (d/dt) eta_eps = -2 sqrt(eps/pi) Tr(h dD/dt e^{-eps D^2}) (`eta_form`),
    integrated on whole panels with dD/dt from `path_panel`: exact for
    degree-14 polynomials on each panel, and covered by the bisection error
    estimate.  D is sampled only at 0, 1 and the panel nodes, every sample
    through `sample_stack` with the size of D(1), and each reader
    of h takes its split from `isotypic_split`, which keeps it, so h is split
    once for all of them.  KernelPresent when D(0) or D(1) has spectrum at 0,
    where the reduced eta jumps.  Equals the grid-partition spectral flow
    within quadrature tolerance.
    """
    D1 = sample_stack(path, [1.0])[0]
    n = len(D1)
    ops = [SpectralOperator(D, h, policy) for D in (D1, sample_stack(path, [0.0], n)[0])]
    if any(np.any(op.kernel_mask()) for op in ops):
        raise KernelPresent("D(0) or D(1) has spectrum at 0")
    e1, e0 = (truncated_eta(op, eps=eps, policy=policy) for op in ops)

    def integrand(ts):
        return -2.0 * eta_form(*path_panel(path, ts, n), h, eps, policy)

    var = integrate(integrand, 0.0, 1.0, policy)
    return complex(0.5 * (e1 - e0 - var))


def eta_log_defect(D0, D1, h=None, policy: TolerancePolicy = DEFAULT):
    """Compare the reduced-eta difference with the principal trace-log form.

    Returns (lhs, rhs, defect):
        lhs    = reduced_eta(D1) - reduced_eta(D0)
        rhs    = (1/2 pi i) Tr(h Log(T* K)),  T = exp(i pi erf(D1)),
                                              K = exp(i pi erf(D0))
        defect = lhs - rhs.

    For saturated spectra (|lambda| >> 1) the defect is an integer combination
    of character values of h (the crossing count of the connecting path).
    Both operators take the split of h from `isotypic_split`, which keeps it,
    so h is split once, and T and K are built per isotypic block from the
    block eigendata of the two operators, so the trace is
    sum_chi chi Tr(Log(T_chi* K_chi)).
    Raises KernelPresent for singular input, BranchCut when spec(T*K) touches
    -1, DimensionMismatch for operators of different sizes.
    """
    from scipy.special import erf

    op0, op1 = (SpectralOperator(D, h, policy) for D in (D0, D1))
    if op0.D.shape != op1.D.shape:
        raise DimensionMismatch(f"D0 of shape {op0.D.shape} and D1 of shape {op1.D.shape} "
                                "act on different spaces")
    if np.any(op0.kernel_mask()) or np.any(op1.kernel_mask()):
        raise KernelPresent("eta_log_defect requires invertible operators")
    lhs = reduced_eta(op1, policy=policy) - reduced_eta(op0, policy=policy)
    rhs = 0.0
    chars = isotypic_split(op0.h, op0.D.shape[-1], policy)[2]
    for chi, (lam0, U0), (lam1, U1) in zip(chars, op0._eigh, op1._eigh):
        T = (U1 * np.exp(1j * pi * erf(lam1))) @ U1.conj().T
        K = (U0 * np.exp(1j * pi * erf(lam0))) @ U0.conj().T
        rhs += chi * np.trace(principal_log_unitary(T.conj().T @ K, policy))
    rhs = complex(rhs / (2j * pi))
    return lhs, rhs, complex(lhs - rhs)


def fit_character_lattice(value, char_values):
    """Best integer combination of character values approximating `value`.

    Solves min |value - sum n_j chi_j| over integer vectors n by rounding the
    least-squares solution and searching the offsets up to 2 per coefficient
    around it.  Returns (coefficients, residual).
    """
    chars = np.asarray(char_values, dtype=complex)
    d = chars.size
    if d == 0:
        return np.zeros(0, dtype=int), abs(value)
    A = np.vstack([chars.real, chars.imag])  # 2 x d
    b = np.array([np.real(value), np.imag(value)])
    n0, *_ = np.linalg.lstsq(A, b, rcond=None)
    base = np.round(n0).astype(int)
    best = None
    offsets = np.arange(-2, 3)
    grids = np.meshgrid(*([offsets] * d), indexing="ij")
    cand = np.stack([g.ravel() for g in grids], axis=1)
    for off in cand:
        n = base + off
        r = abs(value - np.sum(n * chars))
        if best is None or r < best[1]:
            best = (n.copy(), float(r))
    return best
