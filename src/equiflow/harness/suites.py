"""Verification suites: every module property and acceptance criterion as a
named, seeded, deterministic check.

A suite is a registered function `fn(res, seed)` that calls
`res.check(label, err, tol)` where it computes each error.  `run_suite` owns
the result: it builds the one SuiteResult, runs the suite into it and returns
it.  It is the single entry point used by both the CLI (`equiflow verify`)
and the pytest acceptance module, so the tolerances below are pinned in
exactly one place.
"""

from dataclasses import dataclass, field
from math import pi

import numpy as np
import scipy.linalg as sl

from .. import dirac_models as dm
from ..errors import BranchCut, KernelPresent, UnknownSuite
from ..eta_zeta import (
    eta,
    eta_form,
    eta_log_defect,
    fit_character_lattice,
    getzler_spectral_flow,
    mellin_eta,
    mellin_zeta,
    truncated_eta,
    zeta,
    zeta_determinant,
    zeta_determinant_product_route,
)
from ..maslov import maslov_index, triple_index_path, triple_index_static
from ..spectra import isotypic_split, opnorm, path_panel
from ..specflow import (
    Path,
    bott_loop,
    concatenate,
    crossing_oracle,
    good_partition,
    product,
    reverse,
    spectral_flow,
)
from ..symplectic import (
    SymplecticSpace,
    aps_projection,
    flip_orientation,
    make_projection_from_unitary,
)
from ..tolerances import DEFAULT
from ..winding import (
    double_index,
    fredholm_det_path,
    winding_from_logs,
    winding_number,
)
from . import generators as gen

__all__ = ["SuiteResult", "run_suite", "suite_names", "ACCEPTANCE_SEED"]

ACCEPTANCE_SEED = 70917


@dataclass
class SuiteResult:
    name: str
    total: int
    failures: list = field(default_factory=list)
    max_err: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return not self.failures

    def check(self, label, err, tol):
        err = float(err)
        self.total += 1
        self.max_err = max(self.max_err, err)
        if not (err <= tol) or not np.isfinite(err):
            self.failures.append({"case": label, "err": err, "tol": tol})

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.total - len(self.failures)}/{self.total} "
                f"checks, max_err={self.max_err:.3e}")


def _sf_case(seed, i):
    rng = gen.rng_for(seed * 100003 + i)
    dim = 2 + i % 7
    order = 2 + i % 5
    return gen.commuting_hermitian_path(dim, order, rng)


def _equivariant_hermitian(dim, order, rng, scale):
    """(h, D): a random Z_order action h (`gen.zn_action`) and a Hermitian D
    commuting with it, drawn block by block in the action's basis."""
    h, _, blocks, R = gen.zn_action(dim, order, rng)
    D = np.zeros((dim, dim), dtype=complex)
    for idx in blocks:
        D[np.ix_(idx, idx)] = gen.rand_hermitian(len(idx), rng, scale)
    return h, R @ D @ R.conj().T


def _end_correction(X, Y, a):
    """tau(U, U*) of the end correction U = X(1)* Y(1) of two Lagrangian loops."""
    U = np.asarray(X(1.0)).conj().T @ np.asarray(Y(1.0))
    return double_index(U, U.conj().T, a)


_SUITES = {}


def _register(name):
    def deco(fn):
        _SUITES[name] = fn
        return fn
    return deco


def suite_names():
    return sorted(_SUITES)


def run_suite(name, seed=ACCEPTANCE_SEED) -> SuiteResult:
    """Run the suite `name` at `seed` into one fresh SuiteResult and return it."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite '{name}'; available: {', '.join(suite_names())}")
    res = SuiteResult(name, 0)
    _SUITES[name](res, seed)
    return res


# --- criterion 1 + 2: grid-partition flow vs crossing oracle, refinement ----

@_register("sf_oracle")
def sf_oracle(res, seed, count=200):
    for i in range(count):
        path, h = _sf_case(seed, i)
        v1 = spectral_flow(path, h).value
        v2 = crossing_oracle(path, h).value
        res.check(f"path{i}", abs(v1 - v2), 1e-8)


@_register("sf_refinement")
def sf_refinement(res, seed, count=200):
    for i in range(count):
        path, h = _sf_case(seed, i)
        part = good_partition(path)
        v1 = spectral_flow(path, h, part).value
        v2 = spectral_flow(path, h, part.refine()).value
        res.check(f"path{i}", abs(v1 - v2), 1e-9)


# --- criterion 3: Bott-loop correspondence --------------------------------

@_register("bott_loops")
def bott_loops(res, seed):
    for order in (3, 5):
        w = np.exp(2j * pi / order)
        for k in (1, 2, 3):
            weights = [w ** (1 + j) for j in range(k)]
            bl = bott_loop(weights, (2, k + 1))
            sf = spectral_flow(bl.hermitian_path, bl.h).value
            wv = winding_number(bl.unitary_path, bl.h)
            res.check(f"Z{order}_k{k}_sf_vs_w", abs(sf - wv), 1e-8)
            res.check(f"Z{order}_k{k}_sf_vs_expected", abs(sf - bl.expected), 1e-8)
        bl1 = bott_loop([w], (2, 2))
        sf1 = spectral_flow(bl1.hermitian_path, bl1.h).value
        res.check(f"Z{order}_rank1_generator", abs(sf1 - w), 1e-12)
    for label, weights, ambient in _seeded_bott_loops(seed):
        bl = bott_loop(weights, ambient)
        res.check(f"{label}_sf", abs(spectral_flow(bl.hermitian_path, bl.h).value - bl.expected),
                  1e-8)
        res.check(f"{label}_w", abs(winding_number(bl.unitary_path, bl.h) - bl.expected), 1e-8)
        res.check(f"{label}_oracle",
                  abs(crossing_oracle(bl.hermitian_path, bl.h).value - bl.expected), 1e-8)


def _seeded_bott_loops(seed):
    """(label, rank_k_weights, ambient) of four Bott loops drawn from the
    seed: Z_N characters, N in 2..6, on a rank k = 1..3 perturbation space
    whose first two characters agree, with two positive directions, so each
    loop has a block with a doubled eigenvalue (the trivial one at +1, and
    the repeated character's at -1 for k >= 2)."""
    rng = gen.rng_for(seed * 1723)
    out = []
    for j in range(4):
        N, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        powers = rng.integers(0, N, size=k)
        powers[1:2] = powers[0]
        weights = [complex(np.exp(2j * pi * int(p) / N)) for p in powers]
        out.append((f"seeded{j}_Z{N}_" + "".join(map(str, powers)), weights,
                    (2, k + int(rng.integers(0, 2)))))
    return out


# --- criterion 4: winding properties ---------------------------------------

@_register("winding_props")
def winding_props(res, seed, count=100):
    for i in range(count):
        rng = gen.rng_for(seed * 9176 + i)
        dim = 2 + i % 3
        order = 2 + i % 5
        f, a = gen.commuting_unitary_path(dim, order, rng, windings=1)
        wf = winding_number(f, a)
        res.check(f"path{i}_reversal", abs(winding_number(reverse(f), a) + wf), 1e-6)
        res.check(f"path{i}_constant",
                  abs(winding_number(lambda t, M=np.asarray(f(0.37)): M, a)), 1e-6)
        g0, _ = gen.commuting_unitary_path(dim, order, gen.rng_for(seed * 9176 + i + 501),
                                           windings=1)
        # reuse f's actor: rebuild g in the same commutant by conjugating into it
        glue = np.asarray(g0(0.0), dtype=complex).conj().T @ np.asarray(f(1.0), dtype=complex)
        g = Path(dim, lambda t: np.asarray(g0(t), dtype=complex) @ glue)
        ok_comm = opnorm(a @ g(0.5) - g(0.5) @ a) < 1e-9
        if ok_comm:
            res.check(f"path{i}_additivity", abs(winding_number(concatenate(f, g), a)
                                                  - wf - winding_number(g, a)), 1e-6)
        try:
            err = abs(winding_from_logs(f, a) - wf)
        except BranchCut:
            err = 0.0  # endpoint on the cut: excluded by convention
        res.check(f"path{i}_tracelog", err, 1e-6)


# --- criterion 5: Fredholm determinant multiplicativity --------------------

@_register("det_multiplicativity")
def det_multiplicativity(res, seed, count=50):
    for i in range(count):
        rng = gen.rng_for(seed * 5113 + i)
        dim = 2 + i % 3
        order = 2 + i % 5
        f, a = gen.commuting_unitary_path(dim, order, rng, windings=0, amp=0.8)
        # draw g blockwise against the same actor a: exp(i (t H1 + sin(pi t) H2))
        V, blocks, _ = isotypic_split(a, dim)
        factors = []
        for idx in blocks:
            b = len(idx)
            H1 = gen.rand_hermitian(b, rng, 0.8)
            H2 = gen.rand_hermitian(b, rng, 0.5)
            factors.append((np.eye(b), np.zeros(b), H2, H1))
        g = gen.blockwise_unitary_path(V, blocks, factors)

        d1 = fredholm_det_path(product(f, g), a)
        d2 = fredholm_det_path(f, a) * fredholm_det_path(g, a)
        res.check(f"pair{i}", abs(d1 - d2) / max(abs(d2), 1e-12), 1e-6)


# --- criterion 6: Maslov grid mode vs winding mode --------------------------

@_register("maslov_winding")
def maslov_winding(res, seed, count=100):
    for i in range(count):
        rng = gen.rng_for(seed * 7717 + i)
        n = 1 + i % 3
        order = 2 + i % 5
        T, S, a = gen.lagrangian_loop_pair(n, order, rng, windings=1)
        mw = maslov_index(T, S, a, mode="winding")
        mg = maslov_index(T, S, a, mode="grid")
        res.check(f"pair{i}_modes", abs(mw - mg), 1e-8)
        # on loops, the a-weighted winding of the twisted path a T*(t)S(t)
        # reproduces w_h(T* S)
        tw = winding_number(lambda t: a @ np.asarray(T(t)).conj().T @ np.asarray(S(t)), a)
        res.check(f"pair{i}_twisted", abs(tw - mw), 1e-8)


# --- criterion 7: triple-index algebra --------------------------------------

@_register("triple_symmetry")
def triple_symmetry(res, seed, count=50):
    for i in range(count):
        rng = gen.rng_for(seed * 3391 + i)
        n = 1 + i % 3
        order = 2 + i % 5
        T, S, a = gen.lagrangian_loop_pair(n, order, rng, windings=1)
        # R in a's commutant; drawn H0, K, H2 per block, an order that differs
        # from gen.commutant_loop's (H0, H2, K), so this suite's cases stay as pinned
        V, blocks, _ = isotypic_split(a, n)
        factors = []
        for idx in blocks:
            b = len(idx)
            H0 = gen.rand_hermitian(b, rng, 0.9)
            k = rng.integers(-1, 2, size=b).astype(float)
            H2 = gen.rand_hermitian(b, rng, 0.5)
            factors.append((sl.expm(1j * H0), k, H2, None))
        Rp = gen.blockwise_unitary_path(V, blocks, factors)

        t_pqn = triple_index_path(T, S, Rp, a)
        # decomposition into three Maslov indices (grid mode on a subset)
        mode = "grid" if i % 5 == 0 else "winding"
        m12 = maslov_index(T, S, a, mode=mode)
        m23 = maslov_index(S, Rp, a, mode=mode)
        m13 = maslov_index(T, Rp, a, mode=mode)
        res.check(f"triple{i}_decomposition", abs(t_pqn - (m12 + m23 - m13)), 1e-8)

        t_qpn = triple_index_path(S, T, Rp, a)
        t_pnq = triple_index_path(T, Rp, S, a)
        t_nqp = triple_index_path(Rp, S, T, a)
        c_ts, c_sr = _end_correction(T, S, a), _end_correction(S, Rp, a)
        res.check(f"triple{i}_relation1", abs(t_qpn - (-t_pqn + c_ts)), 1e-8)
        res.check(f"triple{i}_relation2", abs(t_pnq - (-t_pqn + c_sr)), 1e-8)
        res.check(f"triple{i}_relation3",
                  abs(t_nqp - (-t_pqn + c_ts + c_sr - _end_correction(T, Rp, a))), 1e-8)
        # corollary special cases vanish identically
        res.check(f"triple{i}_corollary_pq", abs(triple_index_path(T, T, Rp, a)), 1e-8)
        res.check(f"triple{i}_corollary_qn", abs(triple_index_path(T, S, S, a)), 1e-8)
        P1 = make_projection_from_unitary(np.asarray(T(0.3)))
        res.check(f"triple{i}_corollary_static", abs(triple_index_static(P1, P1, P1, a)), 1e-8)


# --- criterion 8: zeta determinant ------------------------------------------

@_register("zeta_det")
def zeta_det(res, seed, count=50):
    for i in range(count):
        rng = gen.rng_for(seed * 4731 + i)
        dim = 2 + i % 5
        order = 2 + i % 5
        D = gen.rand_hermitian(dim, rng, 2.0)
        vals = np.linalg.eigvalsh(D)
        if np.min(np.abs(vals)) < 1e-2:
            D = D + np.sign(np.trace(D).real or 1.0) * 0.2 * np.eye(dim)
        zd = zeta_determinant(D)
        det = np.linalg.det(D)
        res.check(f"det{i}", abs(zd - det) / max(abs(det), 1e-12), 1e-10)
        h, Dh = _equivariant_hermitian(dim, order, rng, 2.0)
        if np.min(np.abs(np.linalg.eigvalsh(Dh))) < 1e-2:
            Dh = Dh + 0.2 * np.eye(dim)
        r1 = zeta_determinant(Dh, h)
        r2 = zeta_determinant_product_route(Dh, h)
        res.check(f"routes{i}", abs(r1 - r2) / max(abs(r1), 1e-12), 1e-10)


# --- criterion 9: Getzler formula -------------------------------------------

@_register("getzler")
def getzler(res, seed, count=50):
    for i in range(count):
        j = i
        while True:
            path, h = _sf_case(seed + 31, j)
            e0 = np.min(np.abs(np.linalg.eigvalsh(np.asarray(path(0.0)))))
            e1 = np.min(np.abs(np.linalg.eigvalsh(np.asarray(path(1.0)))))
            if min(e0, e1) > 1e-3:
                break
            j += 1000
        g = getzler_spectral_flow(path, h, eps=1.0)
        s = spectral_flow(path, h).value
        res.check(f"path{i}", abs(g - s), 1e-6)

    # gradient check: d/dt truncated_eta = -2 * eta_form(dD/dt), dD/dt at a panel's middle node t
    nodes = np.polynomial.legendre.leggauss(15)[0]
    done = 0
    j = 0
    while done < 20 and j < 20 * 50:
        rng = gen.rng_for(seed * 881 + j)
        j += 1
        path, h = _sf_case(seed + 57, j)
        t = float(rng.uniform(0.15, 0.85))
        eps = float(rng.uniform(0.5, 2.0))
        D, dD = path_panel(path, t + 0.05 * nodes)
        target = -2.0 * eta_form(D[7], dD[7], h, eps)
        if abs(target) < 1e-3:
            continue
        step = 1e-5
        fd = (truncated_eta(np.asarray(path(t + step)), h, eps)
              - truncated_eta(np.asarray(path(t - step)), h, eps)) / (2 * step)
        res.check(f"grad{done}", abs(fd - target) / abs(target), 1e-5)
        done += 1
    res.details["gradient_points"] = done


# --- criterion 10: circle / interval closed forms ---------------------------

@_register("dirac_closed_forms")
def dirac_closed_forms(res, seed):
    """Exact circle and interval eta against their closed forms, and the
    regularized (Abel or averaged) sum over the enumerated spectrum
    (`dm.enumerated_eta`) at the cutoffs below against the same targets."""
    target = 2.0 / (1.0 - np.exp(2j * pi / 3))
    circle = [  # (label, beta, rotation power, accel, target)
        ("circle_beta_quarter", 0.25, 0, "average", 0.5),
        ("circle_rotation_abel", 0.37, 1, "abel", target),
        ("circle_rotation_average", 0.37, 1, "average", target),
        ("circle_rotation_beta_independent", 0.61, 1, "abel", target),
    ]
    for label, beta, r, accel, want in circle:
        m = dm.CircleDiracModel(np.array([[beta]]), rotation_order=3)
        res.check(label, abs(dm.circle_eta(m, rotation_power=r) - want), 1e-3)
        v, _ = dm.enumerated_eta([(beta, 1.0, 1.0)], (r, 3), m.policy.zero_tol, 1e4, accel)
        res.check(f"{label}_enumerated", abs(v - want), 1e-3)
    mod = dm.IntervalDiracModel(1.0, np.array([[0.0]]))
    for th in (pi / 2, pi, 3 * pi / 2):
        P = dm.theta_projection(th)
        res.check(f"interval_theta_{th:.3f}", abs(dm.interval_eta(mod, P) - (1 - th / pi)), 1e-3)
        betas, weights, _ = dm.secular_branches(mod, P)
        progs = [(b / mod.L, 2 * pi / mod.L, w) for b, w in zip(betas, weights)]
        v, _ = dm.enumerated_eta(progs, (0, 0), 10 * mod.policy.zero_tol, 4e3)
        res.check(f"interval_theta_{th:.3f}_enumerated", abs(v - (1 - th / pi)), 1e-3)


# --- criterion 11: exponentiated eta identity -------------------------------

@_register("sw_identity")
def sw_identity(res, seed, count=10):
    mod = dm.IntervalDiracModel(1.0, np.array([[0.3]]))
    _, _, defect = dm.sw_identity_check(mod, dm.theta_projection(pi / 2),
                                        dm.theta_projection(pi))
    res.check("m1_closed_form", abs(defect), 1e-3)
    done = 0
    j = 0
    while done < count and j < count * 20:
        rng = gen.rng_for(seed * 661 + j)
        j += 1
        V = gen.rand_hermitian(2, rng, 0.4)
        mod2 = dm.IntervalDiracModel(1.0, V, policy=DEFAULT)
        P = make_projection_from_unitary(gen.rand_unitary(2, rng))
        Q = make_projection_from_unitary(gen.rand_unitary(2, rng))
        try:
            _, _, defect = dm.sw_identity_check(mod2, P, Q)
        except KernelPresent:
            continue
        res.check(f"m2_pair{done}", abs(defect), 1e-3)
        done += 1
    res.details["pairs"] = done


# --- criterion 12: splitting formula ----------------------------------------

@_register("split")
def split(res, seed):
    half = dm.IntervalDiracModel(pi, np.array([[0.25]]))
    P_cal, _ = dm.interval_calderon(half)
    rep = dm.splitting_experiment(dm.SplitScenario(V=np.array([[0.25]]), P=P_cal))
    res.check("baseline", abs(rep["residual"]), 5e-3)

    w3 = np.exp(2j * pi / 3)
    scenarios = []
    rng = gen.rng_for(seed * 211)
    # two nontrivial internal characters (decoupled channels)
    for k in range(2):
        u = np.diag([w3, 1.0])
        V = np.diag(rng.uniform(0.1, 0.9, size=2)).astype(complex)
        th = rng.uniform(0.3, 2 * pi - 0.3, size=2)
        scenarios.append(dm.SplitScenario(V=V, P=dm.theta_projection(th), u=u, u_power=1))
    # two coupled m = 2 scenarios with trivial action
    for k in range(2):
        V = gen.rand_hermitian(2, rng, 0.35)
        P = make_projection_from_unitary(gen.rand_unitary(2, rng))
        scenarios.append(dm.SplitScenario(V=V, P=P))
    # one random m = 1 scenario
    beta = float(rng.uniform(0.1, 0.9))
    th = float(rng.uniform(0.3, 2 * pi - 0.3))
    scenarios.append(dm.SplitScenario(V=np.array([[beta]]), P=dm.theta_projection(th)))

    for i, sc in enumerate(scenarios):
        try:
            rep = dm.splitting_experiment(sc)
            res.check(f"scenario{i}", abs(rep["residual"]), 5e-3)
        except KernelPresent:
            res.check(f"scenario{i}_kernel", 1.0, 5e-3)


# --- criterion 13: sf = Mas = w chain at Dirac scale -------------------------

@_register("dirac_chain")
def dirac_chain(res, seed):
    cases = [(0.25, np.exp(2j * pi / 3)), (0.4, np.exp(4j * pi / 5))]
    for beta, chi in cases:
        L = 1.0
        mod = dm.IntervalDiracModel(L, np.array([[beta]]), u=np.array([[chi]]))
        Kwin = 6

        def herm(t, beta=beta, L=L, Kwin=Kwin):
            lam = np.array([(beta * L + 2 * pi * t + 2 * pi * k) / L
                            for k in range(-Kwin, Kwin + 1)])
            return np.diag(lam).astype(complex)

        hmat = chi * np.eye(2 * Kwin + 1, dtype=complex)
        sf = spectral_flow(herm, hmat).value
        _, K = dm.interval_calderon(mod)
        a = np.array([[chi]])
        mas = maslov_index(lambda t, K=K: K, lambda t: -np.exp(2j * pi * t) * np.eye(1), a,
                           mode="grid")
        wv = winding_number(lambda t, K=K: K.conj().T @ (-np.exp(2j * pi * t) * np.eye(1)), a)
        label = f"beta{beta}"
        res.check(f"{label}_sf_vs_mas", abs(sf - mas), 1e-6)
        res.check(f"{label}_sf_vs_w", abs(sf - wv), 1e-6)
        res.check(f"{label}_value", abs(sf - chi), 1e-6)
        # pinned orientation: the opposite operand order flips the sign
        wopp = winding_number(lambda t, K=K: (-np.exp(2j * pi * t) * np.eye(1)).conj().T @ K, a)
        res.check(f"{label}_orientation_flip", abs(wopp + sf), 1e-6)


# --- criterion 14: structural invariants -------------------------------------

@_register("structural")
def structural(res, seed):
    rng = gen.rng_for(seed * 10009)

    def lagr_err(P):
        n = P.n
        g = SymplecticSpace(n).gamma
        e1 = opnorm(g @ P.P @ g.conj().T - (np.eye(2 * n) - P.P))
        e2 = opnorm(P.P @ P.P - P.P)
        e3 = opnorm(P.P - P.P.conj().T)
        return max(e1, e2, e3)

    for i in range(20):
        n = 1 + i % 4
        P = make_projection_from_unitary(gen.rand_unitary(n, rng))
        res.check(f"lagrangian_unitary{i}", lagr_err(P), 1e-12)
        res.check(f"lagrangian_flip{i}", lagr_err(flip_orientation(P)), 1e-12)
    for i in range(5):
        n = 1 + i % 3
        H = gen.rand_hermitian(n, rng, 1.0)
        A = np.zeros((2 * n, 2 * n), dtype=complex)
        A[:n, n:] = H.conj().T
        A[n:, :n] = H
        res.check(f"lagrangian_aps{i}", lagr_err(aps_projection(A)), 1e-12)
        mod = dm.IntervalDiracModel(1.0, gen.rand_hermitian(n, rng, 0.5))
        P_cal, _ = dm.interval_calderon(mod)
        res.check(f"lagrangian_calderon{i}", lagr_err(P_cal), 1e-12)

    # Mellin cross-checks at s in {1, 2}
    for i in range(5):
        dim = 2 + i % 3
        order = 2 + i % 4
        h, D = _equivariant_hermitian(dim, order, rng, 1.5)
        if np.min(np.abs(np.linalg.eigvalsh(D))) < 5e-2:
            D = D + 0.3 * np.eye(dim)
        Dpos = D @ D.conj().T + 0.2 * np.eye(dim)
        for s in (1.0, 2.0):
            ez = abs(mellin_zeta(Dpos, h, s) - zeta(Dpos, h, s)) / max(abs(zeta(Dpos, h, s)), 1e-9)
            res.check(f"mellin_zeta{i}_s{int(s)}", ez, 1e-6)
            target = eta(D, h, s)
            ee = abs(mellin_eta(D, h, s) - target) / max(abs(target), 1e-3)
            res.check(f"mellin_eta{i}_s{int(s)}", ee, 1e-6)

    # eta_log_defect lattice membership on 50 saturated seeded pairs
    done = 0
    j = 0
    while done < 50 and j < 1000:
        rng2 = gen.rng_for(seed * 20011 + j)
        j += 1
        dim = 2 + j % 5
        order = 2 + j % 5
        h, ks, blocks, R = gen.zn_action(dim, order, rng2)
        d0 = rng2.uniform(4.5, 9.0, size=dim) * rng2.choice([-1.0, 1.0], size=dim)
        d1 = rng2.uniform(4.5, 9.0, size=dim) * rng2.choice([-1.0, 1.0], size=dim)
        D0 = R @ np.diag(d0) @ R.conj().T
        if j % 2 == 0:
            D1 = R @ np.diag(d1) @ R.conj().T  # commuting pair
        else:
            Q = np.zeros((dim, dim), dtype=complex)
            for idx in blocks:
                Q[np.ix_(idx, idx)] = gen.rand_unitary(len(idx), rng2)
            Rq = R @ Q
            D1 = Rq @ np.diag(d1) @ Rq.conj().T  # same action, non-commuting pair
        try:
            lhs, rhs, defect = eta_log_defect(D0, D1, h)
        except BranchCut:
            continue
        chars = np.unique(np.round(np.exp(2j * pi * np.arange(order) / order), 12))
        _, resid = fit_character_lattice(defect, chars)
        res.check(f"lattice{done}", resid, 1e-6)
        if j % 2 == 0:
            # commuting pair with trivial action: exponentiated equality
            l2, r2, _ = eta_log_defect(D0, R @ np.diag(d1) @ R.conj().T, None)
            ee = abs(np.exp(2j * pi * l2) - np.exp(2j * pi * r2))
            res.check(f"exp_contract{done}", ee, 1e-8)
        done += 1
    res.details["lattice_pairs"] = done


# --- umbrella ----------------------------------------------------------------

@_register("all")
def run_all(res, seed):
    for name in suite_names():
        if name == "all":
            continue
        sub = run_suite(name, seed)
        res.total += sub.total
        res.max_err = max(res.max_err, sub.max_err)
        res.failures.extend({"suite": name, **f} for f in sub.failures)
        res.details[name] = sub.summary()
