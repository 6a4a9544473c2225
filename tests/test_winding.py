from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from equiflow import winding
from equiflow.dirac_models import SplitScenario, splitting_experiment, theta_projection
from equiflow.errors import (
    EquiflowError,
    IncompatibleSplitting,
    NotCommuting,
    TrackingAmbiguous,
)
from equiflow.harness import generators as gen
from equiflow.maslov import maslov_index, triple_index_static
from equiflow.specflow import (
    Path,
    UnitaryPath,
    concatenate,
    crossing_oracle,
    reverse,
    spectral_flow,
)
from equiflow.symplectic import make_projection_from_unitary
from equiflow.tolerances import TolerancePolicy
from equiflow.winding import (
    canonical_path,
    double_index,
    fredholm_det_path,
    relative_double_index,
    winding_events,
    winding_from_logs,
    winding_number,
)

W3 = np.exp(2j * np.pi / 3)
CHI = np.array([[W3]])


def scalar_path(f):
    return UnitaryPath(1, lambda t: np.array([[f(t)]], dtype=complex))


class TestWindingNumber:
    def test_scalar_loop(self):
        f = scalar_path(lambda t: np.exp(2j * np.pi * t))
        assert abs(winding_number(f, CHI) - W3) < 1e-12

    def test_constant_path(self):
        f = scalar_path(lambda t: np.exp(0.4j))
        assert winding_number(f, CHI) == 0

    def test_reversal(self):
        f = scalar_path(lambda t: np.exp(2j * np.pi * t))
        assert abs(winding_number(reverse(f), CHI) + W3) < 1e-12

    def test_additivity(self):
        f = scalar_path(lambda t: np.exp(2j * np.pi * t))
        g = scalar_path(lambda t: np.exp(2j * np.pi * t))
        v = winding_number(concatenate(f, g), CHI)
        assert abs(v - 2 * W3) < 1e-12

    def test_integer_for_trivial_actor(self):
        rng = gen.rng_for(21)
        f, _ = gen.commuting_unitary_path(3, 2, rng, windings=2)
        v = winding_number(f)
        assert abs(v.imag) < 1e-9 and abs(v.real - round(v.real)) < 1e-9

    def test_endpoint_at_minus_one(self):
        # phase reaches pi exactly at t=1: on the wall, it counts as past it
        f = scalar_path(lambda t: np.exp(1j * np.pi * t))
        assert abs(winding_number(f, CHI) - W3) < 1e-12

    @pytest.mark.parametrize("policy", [TolerancePolicy(), TolerancePolicy(zero_tol=1e-2)],
                             ids=["default", "wide_zero_tol"])
    def test_loop_leaving_the_wall(self, policy):
        # the loop starts on the wall at phase pi, already past it, and ends
        # at 2 pi, below the next copy: no crossing
        f = Path(1, lambda t: np.array([[np.exp(1j * np.pi * (1 + t))]]))
        assert winding_number(f, policy=policy) == 0

    def test_homotopy_invariance(self):
        rng = gen.rng_for(22)
        f, a = gen.commuting_unitary_path(3, 3, rng, windings=1)
        from equiflow.spectra import eig_unitary
        es = eig_unitary(a)
        B = gen.rand_hermitian(3, gen.rng_for(23), 0.7)
        Bc = np.zeros_like(B)
        for idx in es.cluster_slices():
            Bc[np.ix_(idx, idx)] = (es.vectors.conj().T @ B @ es.vectors)[np.ix_(idx, idx)]
        B = es.vectors @ Bc @ es.vectors.conj().T

        def deformed(t):
            return np.asarray(f(t)) @ scipy.linalg.expm(1j * np.sin(np.pi * t) ** 2 * B)

        assert abs(winding_number(f, a) - winding_number(UnitaryPath(3, deformed), a)) <= 1e-8


class TestCrossRoutes:
    """The det-phase route against the branch-tracking route."""

    @staticmethod
    def seeded_paths():
        for i in range(24):
            dim = 1 + i % 4
            order = 2 + i % 5
            yield gen.commuting_unitary_path(dim, order, gen.rng_for(4000 + i),
                                             windings=1 + i % 2, loop=i % 2 == 1)

    def test_matches_tracked_events(self):
        for f, a in self.seeded_paths():
            events = winding_events(f, a)
            tracked = sum(d * w for _, d, w in events)
            assert abs(winding_number(f, a) - tracked) <= 1e-9

    def test_opposite_crossings_in_two_blocks(self):
        # the omega- and 1-blocks cross the wall in opposite directions at t = 0.5
        R = gen.rand_unitary(2, gen.rng_for(3))
        a = R @ np.diag([W3, 1.0]) @ R.conj().T
        f = UnitaryPath(2, lambda t: R @ np.diag([np.exp(2j * np.pi * t),
                                                  np.exp(-2j * np.pi * t)]) @ R.conj().T)
        events = winding_events(f, a)
        for value in (winding_number(f, a), sum(d * w for _, d, w in events)):
            assert abs(value - (W3 - 1)) <= 1e-12

    def test_fredholm_on_loops(self):
        for f, a in list(self.seeded_paths())[1::2]:
            expect = np.exp(2j * np.pi * winding_number(f, a))
            assert abs(fredholm_det_path(f, a) - expect) <= 1e-12 * max(abs(expect), 1.0)

    def test_det_phase_jump_is_ambiguous(self):
        f = scalar_path(lambda t: np.exp(1j * (0.3 * t + (3.0 if t >= 0.5 else 0.0))))
        with pytest.raises(TrackingAmbiguous):
            winding_number(f)
        with pytest.raises(TrackingAmbiguous):
            fredholm_det_path(f)

    def test_no_tracking_or_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the det-phase route must not call this")

        monkeypatch.setattr(winding, "track_blocks", forbidden)
        monkeypatch.setattr(winding, "integrate", forbidden)
        monkeypatch.setattr(winding, "path_panel", forbidden)
        f, a = gen.commuting_unitary_path(3, 3, gen.rng_for(4100), windings=1)
        winding_number(f, a)
        fredholm_det_path(f, a)


def diagonal_routes(R, chi, b):
    """Every counting route on B(t) = R diag(b(t)) R* (Hermitian routes) and
    on U = -exp(i pi B) (unitary routes, Maslov with T = I, S = U), actor
    R diag(chi) R*."""
    n = len(chi)
    h = (R * chi) @ R.conj().T
    B = Path(n, lambda t: (R * b(t)) @ R.conj().T)
    U = Path(n, lambda t: (R * -np.exp(1j * np.pi * b(t))) @ R.conj().T)
    T = Path(n, lambda t: np.eye(n, dtype=complex))
    return {
        "spectral_flow": lambda: spectral_flow(B, h).value,
        "crossing_oracle": lambda: crossing_oracle(B, h).value,
        "winding_number": lambda: winding_number(U, h),
        "winding_events": lambda: sum(d * w for _, d, w in winding_events(U, h)),
        "maslov_winding": lambda: maslov_index(T, U, h, mode="winding"),
        "maslov_grid": lambda: maslov_index(T, U, h, mode="grid"),
    }


def n_nonnegative_change(chi, b0, b1):
    """sum_chi chi (n>=0(B(1)) - n>=0(B(0))): the exact count of every route."""
    return complex(np.sum(chi * (np.asarray(b1) >= 0)) - np.sum(chi * (np.asarray(b0) >= 0)))


class TestEndpointRule:
    """One endpoint rule for every counting route: a kernel eigenvalue of B
    at t = 0 or 1 counts as nonnegative, and an eigenphase of U within
    zero_tol of pi counts as past the wall."""

    @pytest.mark.parametrize("chi, b", [
        ([W3, 1.0], lambda t: np.array([t, -1.0])),  # was w = omega
        ([1.0, 1.0], lambda t: np.array([t - 1.0, 1.0])),  # was w = 0
        ([1.0], lambda t: np.array([t])),  # was Maslov = 1 in both modes
    ], ids=["kernel_at_start_with_actor", "kernel_at_end", "maslov_pair_leaving_the_wall"])
    def test_repros_agree(self, chi, b):
        chi = np.array(chi, dtype=complex)
        exact = n_nonnegative_change(chi, b(0.0), b(1.0))
        for name, route in diagonal_routes(np.eye(len(chi)), chi, b).items():
            assert abs(route() - exact) < 1e-12, name

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        *[st.lists(st.one_of(st.just(0.0), st.floats(0.05, 0.6), st.floats(-0.6, -0.05)),
                   min_size=n, max_size=n)] * 2,
        st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))))
    @example((7, [1, 1, 0], [0.0, 0.0, 0.0], [0.4, -0.3, 0.0], [0.0, 0.2, -0.1]))
    @example((8, [2, 1, 1, 0], [0.3, 0.0, -0.2, 0.0], [0.0, 0.0, 0.0, 0.5], [0.0] * 4))
    def test_corpus(self, case):
        # B(t) diagonal in a random basis, b_j(t) = (1 - t) x_j + t y_j
        # + c_j sin(pi t) with |b_j| < 1, so U crosses only the wall at pi;
        # endpoints x_j, y_j often exactly 0, characters powers of i
        seed, powers, x, y, c = case
        chi = 1j ** np.array(powers)
        R = gen.rand_unitary(len(chi), gen.rng_for(seed))
        x, y, c = np.array(x), np.array(y), np.array(c)
        exact = n_nonnegative_change(chi, x, y)
        routes = diagonal_routes(R, chi, lambda t: (1 - t) * x + t * y + c * np.sin(np.pi * t))
        for name, route in routes.items():
            try:
                value = route()
            except EquiflowError:
                continue
            assert abs(value - exact) < 1e-9, name


class TestFredholmDet:
    def test_scalar_loop(self):
        f = scalar_path(lambda t: np.exp(2j * np.pi * t))
        assert abs(fredholm_det_path(f, CHI) - np.exp(2j * np.pi * W3)) < 1e-8

    def test_constant(self):
        f = scalar_path(lambda t: np.exp(0.9j))
        assert abs(fredholm_det_path(f, CHI) - 1.0) < 1e-10

    def test_multiplicative(self):
        rng = gen.rng_for(24)
        f, a = gen.commuting_unitary_path(2, 3, rng, windings=0, amp=0.7)
        g, _ = gen.commuting_unitary_path(2, 3, gen.rng_for(25), windings=0, amp=0.7)
        # build g in the same commutant as a
        from equiflow.spectra import eig_unitary
        es = eig_unitary(a)
        H1 = gen.rand_hermitian(2, rng, 0.6)
        Hc = np.zeros_like(H1)
        for idx in es.cluster_slices():
            Hc[np.ix_(idx, idx)] = (es.vectors.conj().T @ H1 @ es.vectors)[np.ix_(idx, idx)]
        H1 = es.vectors @ Hc @ es.vectors.conj().T
        g = UnitaryPath(2, lambda t: scipy.linalg.expm(1j * t * H1))
        fg = UnitaryPath(2, lambda t: np.asarray(f(t)) @ np.asarray(g(t)))
        d = fredholm_det_path(fg, a)
        dd = fredholm_det_path(f, a) * fredholm_det_path(g, a)
        assert abs(d - dd) <= 1e-6 * max(abs(dd), 1.0)


class TestTraceLogFormula:
    def test_scalar(self):
        f = scalar_path(lambda t: np.exp(1j * t * (np.pi + 0.5)))
        assert abs(winding_from_logs(f, CHI) - winding_number(f, CHI)) < 1e-8

    def test_matrix(self):
        rng = gen.rng_for(26)
        f, a = gen.commuting_unitary_path(3, 4, rng, windings=1)
        assert abs(winding_from_logs(f, a) - winding_number(f, a)) < 1e-6


class TestCanonicalPath:
    def test_identity_source(self):
        a = np.diag([W3, 1.0])
        cc = canonical_path(np.eye(2), a)
        assert np.allclose(cc(0.0), np.eye(2))
        assert np.allclose(cc(1.0), a)

    def test_minus_one_scalar(self):
        cc = canonical_path(np.array([[-1.0 + 0j]]), CHI)
        for t in (0.0, 0.5, 1.0):
            assert np.isclose(cc(t)[0, 0], -W3)

    def test_blockwise(self):
        U = np.diag([-1.0 + 0j, np.exp(1j * np.pi / 2)])
        a = np.diag([W3, 1.0])
        cc = canonical_path(U, a)
        for t in (0.0, 0.3, 1.0):
            expect = np.diag([-W3, np.exp(1j * t * np.pi / 2)])
            assert np.allclose(cc(t), expect)

    def test_invariants(self):
        rng = gen.rng_for(27)
        U, a = gen.commuting_static_unitary(4, 3, rng)
        cc = canonical_path(U, a)
        # endpoints: f(0) = (-a|H0) + I, f(1) = (-a|H0) + a~ U~
        f0, f1 = cc(0.0), cc(1.0)
        B1 = cc.comp_basis
        assert np.allclose(B1.conj().T @ f0 @ B1, np.eye(B1.shape[1]), atol=1e-12)
        a1 = B1.conj().T @ a @ B1
        U1 = B1.conj().T @ U @ B1
        assert np.allclose(B1.conj().T @ f1 @ B1, a1 @ U1, atol=1e-10)

    def test_not_commuting(self):
        U = np.diag([1j, -1j])
        a = np.array([[0, 1], [1, 0]], dtype=complex)  # swaps the eigenvectors of U
        with pytest.raises(NotCommuting):
            canonical_path(U, a)


def double_index_pair(i):
    """Seeded (U, V, a) for the double index, cycling i % 6 over the families
    generic (0, 1), ker(U + I) != 0 with V = -I there (2, 3), V = U* (4) and
    an eigenphase of UV within 1e-9 of pi (5); dims 1-5, trivial and Z_2..Z_5
    actors.  U and V are built blockwise in the actor's eigenbasis R."""
    rng = gen.rng_for(6100 + i)
    n, order, family = 1 + (i // 6) % 5, 1 + (i // 30) % 5, i % 6
    a, _, blocks, R = gen.zn_action(n, order, rng)

    def commutant(minus_one, near_pi=None):
        M = np.zeros((n, n), dtype=complex)
        M[minus_one, minus_one] = -1.0
        for b, idx in enumerate(blocks):
            rest = [j for j in idx if j not in minus_one]
            lam, W = np.linalg.eigh(gen.rand_hermitian(len(rest), rng, 2.0))
            if b == near_pi and rest:
                lam[0] = np.pi - (1 + i % 9) * 1e-10 * (-1) ** (i // 6)
            M[np.ix_(rest, rest)] = (W * np.exp(1j * lam)) @ W.conj().T
        return R @ M @ R.conj().T

    kernel = list(rng.choice(n, size=1 + rng.integers(n), replace=False)) if family in (2, 3) else []
    U, V = commutant(kernel), commutant(kernel)
    if family == 4:
        V = U.conj().T
    elif family == 5:
        V = U.conj().T @ commutant([], near_pi=int(rng.integers(len(blocks))))
    return U, V, (None if order == 1 else a)


def double_index_oracle(U, V, a=None):
    """w(f) + w(g) - w(q) of scipy-expm frozen flows, each by `winding_number`."""
    n = U.shape[0]
    a = np.eye(n) if a is None else a
    T, Q = scipy.linalg.schur(U, output="complex")
    on = np.abs(np.diag(T) + 1.0) < 1e-6
    B0, B1 = Q[:, on], Q[:, ~on]
    frozen = -B0 @ B0.conj().T @ a @ B0 @ B0.conj().T
    m = B1.shape[1]
    LU, LV = (scipy.linalg.logm(B1.conj().T @ X @ B1) if m else np.zeros((0, 0)) for X in (U, V))

    def flow(*Ls):
        return UnitaryPath(n, lambda t: frozen + B1 @ reduce(
            np.matmul, [scipy.linalg.expm(t * L) if m else L for L in Ls], np.eye(m)) @ B1.conj().T)

    return (winding_number(flow(LU), a) + winding_number(flow(LV), a)
            - winding_number(flow(LU, LV), a))

class TestDoubleIndex:
    def test_identity_left(self):
        rng = gen.rng_for(28)
        V, a = gen.commuting_static_unitary(3, 3, rng)
        assert abs(double_index(np.eye(3), V, a)) == 0

    def test_scalar_inverse_pair(self):
        th = 2.0
        U = np.array([[np.exp(1j * th)]])
        assert abs(double_index(U, U.conj().T)) == 0

    def test_worked_example(self):
        U = np.diag([-1.0 + 0j, np.exp(1j * np.pi / 2)])
        V = np.diag([-1.0 + 0j, np.exp(2j)])
        assert abs(double_index(U, V) + 1.0) < 1e-12

    def test_inverse_property_random(self):
        rng = gen.rng_for(29)
        for i in range(10):
            U, a = gen.commuting_static_unitary(3, 2 + i % 4, gen.rng_for(290 + i))
            tau = double_index(U, U.conj().T, a)
            # equals w(f) + w(g) with f, g the canonical paths of U and U^{-1};
            # both windings vanish, so tau must too
            assert abs(tau) <= 1e-8

    def test_incompatible_splitting(self):
        U = np.diag([-1.0 + 0j, 1j])
        V = np.diag([1.0 + 0j, 1j])  # does not restrict to -1 on ker(U + 1)
        with pytest.raises(IncompatibleSplitting):
            double_index(U, V)
        V2 = np.diag([-1.0 + 0j, -1.0 + 0j])  # extra -1 outside ker(U + 1)
        with pytest.raises(IncompatibleSplitting):
            double_index(U, V2)

    def test_not_commuting(self):
        U = np.diag([-1.0 + 0j, 1j, np.exp(0.4j)])
        swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        with pytest.raises(NotCommuting):
            double_index(U, np.eye(3), swap)
        with pytest.raises(NotCommuting):
            double_index(np.eye(3), U, swap)

    def test_equals_tracked_flows(self):
        nonzero = 0
        for i in range(330):
            U, V, a = double_index_pair(i)
            tau = double_index(U, V, a)
            assert tau == double_index_oracle(U, V, a), i
            nonzero += tau != 0
        assert nonzero >= 50

    def test_samples_no_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the static double index must not sample a path")

        monkeypatch.setattr(winding, "_det_phases", forbidden)
        monkeypatch.setattr(winding, "isotypic_blocks", forbidden)
        for i in range(12):
            double_index(*double_index_pair(i))
        P = make_projection_from_unitary(np.diag([np.exp(0.3j), 1j]))
        Q = make_projection_from_unitary(np.diag([np.exp(2.9j), -1j]))
        N = make_projection_from_unitary(np.diag([np.exp(-2.5j), 1j]))
        assert triple_index_static(P, Q, N) == -1
        rep = splitting_experiment(
            SplitScenario(V=np.array([[0.25]]), P=theta_projection(3 * np.pi / 2)))
        assert abs(rep["triple_index"] - 1.0) < 1e-8


class TestRelativeDoubleIndex:
    def test_constant_pair(self):
        f = scalar_path(lambda t: np.exp(0.3j))
        g = scalar_path(lambda t: np.exp(-0.8j))
        assert relative_double_index(f, g) == 0

    def test_half_turn_pair(self):
        # w(f) = 1 (f ends on the wall), w(f f) = 1 (one crossing at t = 1/2)
        f = scalar_path(lambda t: np.exp(1j * np.pi * t))
        assert abs(relative_double_index(f, f) - 1.0) < 1e-12

    def test_matches_double_index_on_canonical_paths(self):
        rng = gen.rng_for(30)
        U, _ = gen.commuting_static_unitary(3, 2, rng)
        V, _ = gen.commuting_static_unitary(3, 2, gen.rng_for(31))
        f = canonical_path(U).path
        g = canonical_path(V).path
        assert abs(relative_double_index(f, g) - double_index(U, V)) <= 1e-8

    def test_reversal_negates(self):
        rng = gen.rng_for(32)
        f, a = gen.commuting_unitary_path(2, 3, rng, windings=1)
        g, _ = gen.commuting_unitary_path(2, 3, gen.rng_for(33), windings=1)
        from equiflow.spectra import eig_unitary
        es = eig_unitary(a)
        H = gen.rand_hermitian(2, rng, 0.8)
        Hc = np.zeros_like(H)
        for idx in es.cluster_slices():
            Hc[np.ix_(idx, idx)] = (es.vectors.conj().T @ H @ es.vectors)[np.ix_(idx, idx)]
        H = es.vectors @ Hc @ es.vectors.conj().T
        g = UnitaryPath(2, lambda t: scipy.linalg.expm(2j * np.pi * t * H))
        v = relative_double_index(f, g, a)
        vr = relative_double_index(reverse(f), reverse(g), a)
        assert abs(v + vr) <= 1e-8


class TestBareCallables:
    """A bare sampler costs the same sampler calls as the same sampler in a Path."""

    @pytest.mark.parametrize("route", [
        lambda f, a: winding_events(f, a),
        lambda f, a: winding_from_logs(f, a),
        lambda f, a: relative_double_index(f, f, a),
    ], ids=["winding_events", "winding_from_logs", "relative_double_index"])
    def test_same_sampler_calls(self, route):
        path, a = gen.commuting_unitary_path(3, 3, gen.rng_for(4))
        counts = []
        for wrap in (lambda s: s, lambda s: UnitaryPath(3, s)):
            calls = []

            def sampler(t):
                calls.append(t)
                return path(t)

            route(wrap(sampler), a)
            counts.append(len(calls))
        assert counts[0] == counts[1]
