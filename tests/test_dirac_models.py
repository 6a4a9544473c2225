from math import pi

import numpy as np
import pytest
import scipy.linalg

from equiflow import dirac_models as dm
from equiflow.dirac_models import (
    CircleDiracModel,
    IntervalDiracModel,
    SplitScenario,
    _interval_transfer,
    circle_eta,
    circle_spectrum,
    enumerated_eta,
    interval_calderon,
    interval_eta,
    interval_spectrum,
    regularized_signed_sum,
    secular_branches,
    splitting_experiment,
    sw_identity_check,
    theta_projection,
)
from equiflow.errors import KernelPresent
from equiflow.harness import cli, serialize
from equiflow.harness import generators as gen
from equiflow.maslov import LagrangianPath, maslov_index
from equiflow.spectra import opnorm
from equiflow.specflow import Path, spectral_flow
from equiflow.symplectic import SymplecticSpace, make_projection_from_unitary
from equiflow.winding import winding_number

W3 = np.exp(2j * pi / 3)
TOL = 1e-9  # the default zero_tol: the circle's zero band, a tenth of the interval's


def equivariant_model(rng, m, N, scale=0.5, unitaries=1):
    """(u, V, T_1, ..., T_k): a Z_N actor on C^m, and a Hermitian V and k
    unitaries commuting with it, drawn block by block."""
    u, _, blocks, R = gen.zn_action(m, N, rng)
    Vd = np.zeros((m, m), dtype=complex)
    Td = np.zeros((unitaries, m, m), dtype=complex)
    for idx in blocks:
        Vd[np.ix_(idx, idx)] = gen.rand_hermitian(len(idx), rng, scale)
        for T in Td:
            T[np.ix_(idx, idx)] = gen.rand_unitary(len(idx), rng)
    return (u, R @ Vd @ R.conj().T, *(R @ T @ R.conj().T for T in Td))


class TestCircleModel:
    def test_arithmetic_progression(self):
        m = CircleDiracModel(np.array([[0.25]]))
        spec = circle_spectrum(m, (-3, 3))
        assert np.allclose([s[0] for s in spec], [-2.75, -1.75, -0.75, 0.25, 1.25, 2.25])

    def test_rotation_weights(self):
        m = CircleDiracModel(np.array([[0.25]]), rotation_order=3)
        spec = circle_spectrum(m, (0, 2.5), rotation_power=1)
        lam, w = spec[1]
        assert np.isclose(lam, 1.25) and np.isclose(w, np.exp(2j * pi / 3))

    def test_interleaved_channels(self):
        u = np.diag([W3, 1.0])
        m = CircleDiracModel(np.diag([0.2, 0.7]).astype(complex), u)
        spec = circle_spectrum(m, (0, 1), u_power=1)
        assert np.isclose(spec[0][0], 0.2) and np.isclose(spec[0][1], W3)
        assert np.isclose(spec[1][0], 0.7) and np.isclose(spec[1][1], 1.0)

    def test_eta_closed_form(self):
        assert abs(circle_eta(CircleDiracModel(np.array([[0.25]]))) - 0.5) < 1e-12

    def test_eta_symmetric(self):
        assert abs(circle_eta(CircleDiracModel(np.array([[0.5]])))) < 1e-12

    def test_eta_rotation_character(self):
        target = 2.0 / (1.0 - W3)  # = 1 + i/sqrt(3)
        assert np.isclose(target, 1 + 1j / np.sqrt(3))
        for beta in (0.25, 0.61):
            m = CircleDiracModel(np.array([[beta]]), rotation_order=3)
            assert abs(circle_eta(m, rotation_power=1) - target) < 1e-12

    def test_closed_forms_seeded(self):
        # sum over channels of chi^p (1 - 2 beta), or chi^p 2/(1 - w) under a rotation
        for i in range(240):
            rng = gen.rng_for(7500 + i)
            m, N = 1 + i % 2, 2 + i % 3
            beta = rng.uniform(0.01, 0.99, size=m)
            chars = np.exp(2j * pi * rng.integers(0, N, size=m) / N)
            p, r = (i // 2) % 2, int(rng.integers(0, N))
            mod = CircleDiracModel(np.diag(beta).astype(complex), np.diag(chars), rotation_order=N)
            w = np.exp(2j * pi * r / N)
            base = 1.0 - 2.0 * beta if r == 0 else 2.0 / (1.0 - w)
            assert abs(circle_eta(mod, p, r) - np.sum(chars ** p * base)) <= 1e-12

    def test_error_decreases_under_doubling(self):
        # the error estimate of the regularized cross-check
        _, e1 = enumerated_eta([(0.3, 1.0, 1.0)], (1, 3), TOL, 2e3)
        _, e2 = enumerated_eta([(0.3, 1.0, 1.0)], (1, 3), TOL, 4e3)
        assert e2 <= 0.6 * e1

    def test_kernel_detected(self):
        with pytest.raises(KernelPresent):
            circle_eta(CircleDiracModel(np.array([[0.0]])))


class TestIntervalModel:
    def test_transfer_identity(self):
        mod = IntervalDiracModel(2.0, np.array([[0.0]]))
        assert opnorm(_interval_transfer(mod, pi) - np.eye(1)) < 1e-12

    def test_transfer_unitary(self):
        rng = gen.rng_for(51)
        mod = IntervalDiracModel(1.3, gen.rand_hermitian(2, rng, 0.7))
        for lam in (-2.0, 0.3, 5.1):
            M = _interval_transfer(mod, lam)
            assert opnorm(M.conj().T @ M - np.eye(2)) < 1e-12

    def test_theta_model_roots(self):
        mod = IntervalDiracModel(1.0, np.array([[0.0]]))
        th = pi / 2
        roots = [r[0] for r in interval_spectrum(mod, theta_projection(th), (-7, 7))]
        assert np.allclose(roots, [th - 2 * pi, th], atol=1e-10)

    def test_weyl_count(self):
        rng = gen.rng_for(53)
        for m, L in ((1, 1.0), (2, 1.7)):
            mod = IntervalDiracModel(L, gen.rand_hermitian(m, rng, 0.4))
            P = make_projection_from_unitary(gen.rand_unitary(m, rng))
            lam = 40.0
            count = len(interval_spectrum(mod, P, (-lam, lam)))
            expect = m * 2 * lam * L / (2 * pi)
            assert abs(count - expect) <= 2 * m

    def test_listed_eigenvalues_solve_the_secular_equation(self):
        # each listed eigenvalue lam makes B* J(lam) singular, B an orthonormal
        # basis of ran(P) = {(v, Tv)} and J(lam) v = (v, exp(i L (lam - V)) v)
        rng = gen.rng_for(59)
        u, V3, T3 = equivariant_model(rng, 3, 3)
        cases = [(IntervalDiracModel(1.0, gen.rand_hermitian(1, rng, 0.4)),
                  gen.rand_unitary(1, rng)),
                 (IntervalDiracModel(1.7, gen.rand_hermitian(2, rng, 0.4)),
                  gen.rand_unitary(2, rng)),
                 (IntervalDiracModel(0.8, V3, u), T3),
                 (IntervalDiracModel(1.2, 0.3 * np.eye(2)), np.eye(2))]  # doubled branches
        for mod, T in cases:
            m = len(T)
            B = np.vstack([np.eye(m), T]) / np.sqrt(2.0)
            vals, W = np.linalg.eigh(mod.V)
            listing = interval_spectrum(mod, make_projection_from_unitary(T), (-40, 40))
            assert len(listing) > 10
            for lam, _, _ in listing:
                M = (W * np.exp(1j * mod.L * (lam - vals))) @ W.conj().T
                J = np.vstack([np.eye(m), M])
                assert np.linalg.svd(B.conj().T @ J, compute_uv=False)[-1] <= 1e-12

    def test_calderon(self):
        mod = IntervalDiracModel(1.3, np.array([[0.4]]))
        PM, K = interval_calderon(mod)
        assert np.isclose(K[0, 0], np.exp(-1j * 0.4 * 1.3))
        g = SymplecticSpace(1).gamma
        assert opnorm(g @ PM.P @ g.conj().T - (np.eye(2) - PM.P)) < 1e-12

    def test_calderon_lagrangian_random(self):
        rng = gen.rng_for(54)
        mod = IntervalDiracModel(0.9, gen.rand_hermitian(3, rng, 0.8))
        PM, _ = interval_calderon(mod)
        g = SymplecticSpace(3).gamma
        assert opnorm(g @ PM.P @ g.conj().T - (np.eye(6) - PM.P)) < 1e-12

    @pytest.mark.parametrize("L", [0.0, -1.0, np.inf, np.nan])
    def test_length_positive_and_finite(self, L):
        # the Calderon unitary exp(-i L V) is built unchecked: L must be finite
        with pytest.raises(ValueError):
            IntervalDiracModel(L, np.array([[0.4]]))

    def test_eta_closed_forms(self):
        mod = IntervalDiracModel(1.0, np.array([[0.0]]))
        for th in (pi / 2, pi, 3 * pi / 2):
            assert abs(interval_eta(mod, theta_projection(th)) - (1 - th / pi)) < 1e-12

    def test_eta_channel_additivity(self):
        u = np.diag([W3, 1.0])
        mod = IntervalDiracModel(1.0, np.diag([0.0, 0.0]).astype(complex), u)
        th1, th2 = 0.9, 2.4
        P = theta_projection([th1, th2])
        expect = W3 * (1 - th1 / pi) + 1.0 * (1 - th2 / pi)
        assert abs(interval_eta(mod, P, u_power=1) - expect) < 1e-12

    def test_eta_error_decreases(self):
        # the error estimate of the regularized cross-check
        mod = IntervalDiracModel(1.0, np.array([[0.3]]))
        betas, weights, _ = secular_branches(mod, theta_projection(1.1))
        progs = [(b, 2 * pi, w) for b, w in zip(betas, weights)]
        _, e1 = enumerated_eta(progs, (0, 0), 10 * TOL, 1e3)
        _, e2 = enumerated_eta(progs, (0, 0), 10 * TOL, 2e3)
        assert e2 <= 0.6 * e1

    def test_branch_weights(self):
        u = np.diag([W3, 1.0])
        mod = IntervalDiracModel(1.0, np.diag([0.1, 0.6]).astype(complex), u)
        betas, weights, dims = secular_branches(mod, theta_projection([1.0, 2.0]), 1)
        assert sorted(np.round(np.abs(weights), 6)) == [1.0, 1.0]
        assert set(dims.tolist()) == {1}


    def test_channels_diagonalize_the_pair(self):
        for i in range(12):
            rng = gen.rng_for(620 + i)
            m = 1 + i % 4
            u, _, blocks, R = gen.zn_action(m, 2 + i % 3, rng)
            Vd = np.zeros((m, m), dtype=complex)
            for idx in blocks:
                Vd[np.ix_(idx, idx)] = gen.rand_hermitian(len(idx), rng, 0.5)
            V = R @ Vd @ R.conj().T
            for mod in (IntervalDiracModel(1.0, V, u), CircleDiracModel(V, u)):
                C = mod.channel_basis
                assert np.linalg.norm(C.conj().T @ C - np.eye(m)) <= 1e-12
                assert np.linalg.norm(V @ C - C * mod.channel_values) <= 1e-12
                assert np.linalg.norm(u @ C - C * mod.channel_chars) <= 1e-12
                assert np.all(np.diff(mod.channel_values) >= 0)

    def test_branch_weights_oracle(self):
        # weights against Tr(u^p | eigenspace of G), G = T* M(0), on the whole
        # space; even cases make G scalar, one eigenspace across all blocks of u
        for i in range(24):
            rng = gen.rng_for(640 + i)
            m = 1 + i % 4
            u, _, blocks, R = gen.zn_action(m, 3, rng)
            Vd = np.zeros((m, m), dtype=complex)
            Td = np.zeros((m, m), dtype=complex)
            for idx in blocks:
                k, block = len(idx), np.ix_(idx, idx)
                if i % 2 == 0:
                    Vd[block], Td[block] = 0.3 * np.eye(k), np.exp(0.7j) * np.eye(k)
                else:
                    Vd[block] = gen.rand_hermitian(k, rng, 0.5)
                    Td[block] = gen.rand_unitary(k, rng)
            mod = IntervalDiracModel(1.0, R @ Vd @ R.conj().T, u)
            T = R @ Td @ R.conj().T
            G = T.conj().T @ _interval_transfer(mod, 0.0)
            Ts, Z = scipy.linalg.schur(G, output="complex")
            g = np.diag(Ts)
            for p in range(4):
                up = np.linalg.matrix_power(u, p)
                betas, weights, dims = secular_branches(mod, make_projection_from_unitary(T), p)
                for beta, w, d in zip(betas, weights, dims):
                    space = np.abs(g + np.exp(-1j * beta)) < 1e-8  # g = -e^{-i beta}
                    assert space.sum() == d
                    B = Z[:, space]
                    assert abs(w - np.trace(B.conj().T @ up @ B)) <= 1e-12
                assert dims.sum() == m


def check_against_enumeration(eta_fn, progressions, rot, tol, cutoff, accel):
    """The exact eta (eta_fn(reduced)) against the regularized sum over the
    enumerated spectrum; a zero band must raise KernelPresent on both routes."""
    try:
        value, _ = enumerated_eta(progressions, rot, tol, cutoff, accel)
        has_kernel = False
    except KernelPresent:
        with pytest.raises(KernelPresent):
            eta_fn(False)
        value, _ = enumerated_eta(progressions, rot, tol, cutoff, accel, reduced=True)
        has_kernel = True
    gap = abs(eta_fn(has_kernel) - value)
    assert gap <= 1e-3
    return has_kernel, gap


class TestClosedFormSums:
    """circle_eta and interval_eta are exact; the regularized sum over the
    enumerated spectrum (enumerated_eta, regularized_signed_sum) converges to
    them and is checked against them at cutoffs 1e3-1e4."""

    def test_circle_matches_enumeration(self):
        kernels, gaps = set(), []
        for i in range(60):
            rng = gen.rng_for(7100 + i)
            m, N = 1 + i % 2, 2 + i % 5
            accel = ("average", "abel")[(i // 2) % 2]
            cutoff = float(10 ** rng.uniform(3, 4))
            v = rng.uniform(-2.5, 2.5, size=m)
            if i % 5 == 0:
                v[0] = float(rng.integers(-2, 3))  # a zero mode at k = -v
            chars = np.exp(2j * pi * rng.integers(0, N, size=m) / N)
            mod = CircleDiracModel(np.diag(v).astype(complex), np.diag(chars), rotation_order=N)
            p, r = int(rng.integers(0, 2)), int(rng.integers(0, N))
            progs = [(float(b), 1.0, chi ** p)
                     for b, chi in zip(mod.channel_values, mod.channel_chars)]
            kernel, gap = check_against_enumeration(
                lambda reduced: circle_eta(mod, p, r, reduced), progs, (r, N), TOL, cutoff, accel)
            kernels.add(kernel)
            gaps.append(gap)
        assert kernels == {False, True}
        assert max(gaps) <= 1e-4

    def test_interval_matches_enumeration(self):
        kernels, gaps = set(), []
        for i in range(120):
            rng = gen.rng_for(7300 + i)
            m, N = 1 + i % 2, 2 + i % 5
            accel = ("average", "abel")[(i // 2) % 2]
            cutoff = float(10 ** rng.uniform(3, 4))
            L = float(rng.uniform(0.5, 2.0))
            u, V, T = equivariant_model(rng, m, N, 1.5)
            mod = IntervalDiracModel(L, V, u)
            if i % 5 == 0:
                T = -_interval_transfer(mod, 0.0)  # every branch at beta = 0: a zero mode
            P = make_projection_from_unitary(T)
            p = int(rng.integers(0, 3))
            betas, weights, _ = secular_branches(mod, P, p)
            progs = [(beta / L, 2 * pi / L, w) for beta, w in zip(betas, weights)]
            kernel, gap = check_against_enumeration(
                lambda reduced: interval_eta(mod, P, p, reduced), progs, (0, 0), 10 * TOL,
                cutoff, accel)
            kernels.add(kernel)
            gaps.append(gap)
        assert kernels == {False, True}
        assert max(gaps) <= 1e-4

    def test_cutoff_must_be_positive(self):
        for accel in ("average", "abel"):
            for cutoff in (0.0, -10.0):
                with pytest.raises(ValueError):
                    regularized_signed_sum([0.25, -0.75], [1.0, 1.0], cutoff, accel)
                with pytest.raises(ValueError):
                    enumerated_eta([(0.25, 1.0, 1.0)], (0, 0), TOL, cutoff, accel)

    def test_chunks_cover_the_spectrum(self, monkeypatch):
        # summed 7 eigenvalues at a time, the enumerated eta is the regularized
        # sum over the explicit list of the progressions' eigenvalues, with the
        # zero band's weights as the kernel trace: a dropped or repeated
        # eigenvalue, or a kernel term counted twice, would move it by about
        # its weight
        monkeypatch.setattr(dm, "_CHUNK", 7)
        progs = [(0.3, 1.0, 1.0), (-0.45, 2.0, 0.5 - 1j), (0.0, 1.5, 2.0)]
        cutoff = 20.0
        for r, N in ((0, 0), (1, 3)):
            for accel, bound in (("average", 2 * cutoff + 2), ("abel", 90 * cutoff)):
                vals, wts, ker = [], [], 0j
                for b, s, c in progs:
                    for k in range(int(np.ceil((-bound - b) / s)), int(np.floor((bound - b) / s)) + 1):
                        w = c * np.exp(2j * pi * r * k / N) if N else c
                        if abs(b + s * k) <= TOL:
                            ker += w
                        else:
                            vals.append(b + s * k)
                            wts.append(w)
                value, err = regularized_signed_sum(vals, wts, cutoff, accel)
                got = enumerated_eta(progs, (r, N), TOL, cutoff, accel, reduced=True)
                assert abs(got[0] - (value + ker) / 2) < 1e-12 and abs(got[1] - err / 2) < 1e-12

    def test_large_cutoff(self):
        # the closed forms, and the enumerated route at cutoff 1e4 on both accelerations
        for beta in (0.25, 0.61):
            for N, r in ((2, 1), (3, 1), (4, 3), (6, 1)):
                w = np.exp(2j * pi * r / N)
                mod = CircleDiracModel(np.array([[beta]]), rotation_order=N)
                v = circle_eta(mod, rotation_power=r)
                assert abs(v - 2.0 / (1.0 - w)) < 1e-12
                for accel in ("average", "abel"):
                    ref, _ = enumerated_eta([(beta, 1.0, 1.0)], (r, N), TOL, 1e4, accel)
                    assert abs(v - ref) < 1e-3
            v = circle_eta(CircleDiracModel(np.array([[beta]])))
            assert abs(v - (1.0 - 2.0 * beta)) < 1e-12
            ref, _ = enumerated_eta([(beta, 1.0, 1.0)], (0, 0), TOL, 1e4)
            assert abs(v - ref) < 1e-3
        mod = IntervalDiracModel(1.0, np.array([[0.0]]))
        v = interval_eta(mod, theta_projection(1.1))
        assert abs(v - (1.0 - 1.1 / pi)) < 1e-12
        ref, _ = enumerated_eta([(1.1, 2 * pi, 1.0)], (0, 0), 10 * TOL, 1e4)
        assert abs(v - ref) < 1e-3


class TestSWIdentity:
    def test_equal_projections(self):
        mod = IntervalDiracModel(1.0, np.array([[0.3]]))
        P = theta_projection(1.2)
        lhs, rhs, defect = sw_identity_check(mod, P, P)
        assert abs(defect) < 1e-12

    def test_m1_closed_form(self):
        mod = IntervalDiracModel(1.0, np.array([[0.3]]))
        lhs, rhs, defect = sw_identity_check(mod, theta_projection(pi / 2), theta_projection(pi))
        assert abs(lhs) == pytest.approx(1.0, abs=1e-12)
        assert abs(rhs) == pytest.approx(1.0, abs=1e-12)
        assert abs(defect) < 1e-12
        # closed form: both sides equal e^{i(theta_Q - theta_P)}
        assert abs(rhs - np.exp(1j * (pi - pi / 2))) < 1e-12

    def test_m2_random_pair(self):
        rng = gen.rng_for(55)
        V = gen.rand_hermitian(2, rng, 0.4)
        mod = IntervalDiracModel(1.0, V)
        P = make_projection_from_unitary(gen.rand_unitary(2, rng))
        Q = make_projection_from_unitary(gen.rand_unitary(2, rng))
        _, _, defect = sw_identity_check(mod, P, Q)
        assert abs(defect) < 1e-12

    def test_character_blocks(self):
        # with u^1 the identity holds on each isotypic block of u; on the whole
        # space exp(2 pi i eta difference) with complex weights is not unit-modulus
        u = serialize.matrix_to_wire(np.diag([W3, 1.0]))
        cfg = {"kind": "sw_check", "group": {"u_powers": [0, 1]},
               "generator": {"name": "model", "params": {
                   "v": [0.3, 0.6], "u": u, "p": {"theta": [1.0, 2.0]},
                   "q": {"theta": [2.5, 0.7]}}}}
        body, _ = cli.run_config(cfg)
        for rep in body["results"].values():
            assert rep["abs_defect"] <= 1e-12 and rep["passed"]
        rep = body["results"]["u^0"]
        assert abs(rep["rhs"] - np.exp(1j * (2.5 - 1.0 + 0.7 - 2.0))) <= 1e-12

    def test_seeded_pairs(self):
        # exp(2 pi i (eta~_P - eta~_Q)) = det(T* S) exactly (u^0), and per block of u (u^1)
        done = 0
        for i in range(300):
            rng = gen.rng_for(7700 + i)
            m, N = 1 + i % 2, 2 + i % 3
            u, V, T, S = equivariant_model(rng, m, N, 0.8, unitaries=2)
            mod = IntervalDiracModel(float(rng.uniform(0.5, 2.0)), V, u)
            P, Q = make_projection_from_unitary(T), make_projection_from_unitary(S)
            try:
                lhs, rhs, defect = sw_identity_check(mod, P, Q)
                _, _, defect1 = sw_identity_check(mod, P, Q, 1)
            except KernelPresent:
                continue
            assert abs(rhs - np.linalg.det(T.conj().T @ S)) <= 1e-12
            assert abs(defect) <= 1e-12 and abs(lhs - rhs) <= 1e-12
            assert abs(defect1) <= 1e-12
            done += 1
        assert done >= 200


class TestSplitting:
    def test_baseline(self):
        half = IntervalDiracModel(pi, np.array([[0.25]]))
        P_cal, _ = interval_calderon(half)
        rep = splitting_experiment(SplitScenario(V=np.array([[0.25]]), P=P_cal))
        assert abs(rep["residual"]) < 1e-12
        assert abs(rep["triple_index"]) < 1e-9  # Calderon boundary: corollary case

    def test_theta_family_stability(self):
        # individual terms jump along the family; the residual stays at rounding level
        for th in np.linspace(0.4, 2 * pi - 0.4, 8):
            rep = splitting_experiment(
                SplitScenario(V=np.array([[0.25]]), P=theta_projection(float(th))))
            assert abs(rep["residual"]) < 1e-12

    def test_nonzero_triple_index(self):
        rep = splitting_experiment(
            SplitScenario(V=np.array([[0.25]]), P=theta_projection(3 * pi / 2)))
        assert abs(rep["triple_index"] - 1.0) < 1e-8
        assert abs(rep["residual"]) < 1e-12

    def test_symmetric_baseline(self):
        rep = splitting_experiment(
            SplitScenario(V=np.array([[0.5]]), P=theta_projection(pi - 0.3)))
        assert abs(rep["residual"]) < 1e-12

    def test_characters(self):
        u = np.diag([W3, 1.0])
        V = np.diag([0.2, 0.7]).astype(complex)
        rep = splitting_experiment(
            SplitScenario(V=V, P=theta_projection([4.7, 5.1]), u=u, u_power=1))
        assert abs(rep["residual"]) < 1e-12
        assert abs(rep["triple_index"] - (W3 - 1.0)) < 1e-8

    def test_seeded_residuals(self):
        done = 0
        for i in range(300):
            rng = gen.rng_for(7900 + i)
            m, N = 1 + i % 2, 2 + i % 3
            u, V, T = equivariant_model(rng, m, N, 0.8)
            sc = SplitScenario(V=V, P=make_projection_from_unitary(T), u=u, u_power=(i // 3) % 2)
            assert abs(splitting_experiment(sc)["residual"]) <= 1e-12
            done += 1
        assert done >= 200

    def test_one_interval_model_per_experiment(self, monkeypatch):
        # one model and one Calderon projection per config, whatever the
        # number of u-powers: the circle eta reads the half model's channel data
        from equiflow import dirac_models
        from equiflow.harness import cli, serialize

        calls = {"_channel_data": 0, "interval_calderon": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(dirac_models, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(dirac_models, name, counted)
        cfg = {"kind": "split", "group": {"u_powers": [0, 1]},
               "generator": {"name": "model", "params": {
                   "v": [0.3, 0.6], "u": serialize.matrix_to_wire(np.diag([W3, 1.0])),
                   "boundary": {"theta": [1.0, 2.0]}}}}
        body, _ = cli.run_config(cfg)
        assert calls == {"_channel_data": 1, "interval_calderon": 1}
        assert all(rep["passed"] for rep in body["results"].values())

    def test_calderon_boundary_taken_once(self, monkeypatch):
        # a Calderon boundary is the projection the splitting identity also
        # needs: the config takes it once, and its report is that of a config
        # with the same projection given as a unitary boundary
        from equiflow import dirac_models

        calls = []
        real = dirac_models.interval_calderon
        monkeypatch.setattr(dirac_models, "interval_calderon",
                            lambda model: calls.append(1) or real(model))
        params = {"v": [0.3, 0.6], "u": serialize.matrix_to_wire(np.diag([W3, 1.0])),
                  "boundary": {"calderon": True}}
        cfg = {"kind": "split", "group": {"u_powers": [0, 1]},
               "generator": {"name": "model", "params": params}}
        body, _ = cli.run_config(cfg)
        assert len(calls) == 1
        assert all(rep["passed"] for rep in body["results"].values())
        half = IntervalDiracModel(np.pi, np.diag([0.3, 0.6]), np.diag([W3, 1.0]))
        params["boundary"] = {"unitary": serialize.matrix_to_wire(real(half)[0].T)}
        assert serialize.dump_report(cli.run_config(cfg)[0]) == serialize.dump_report(body)

    @pytest.mark.parametrize("boundary, checks", [({"calderon": True}, 0),
                                                  ({"theta": [1.0, 2.0]}, 1)])
    def test_unitarity_checked_once_per_outside_unitary(self, monkeypatch, boundary, checks):
        # only a boundary unitary from the config is checked; the Calderon
        # projection and both orientation flips are unitary by construction
        from equiflow import symplectic

        calls = []
        real = symplectic._check_unitary
        monkeypatch.setattr(symplectic, "_check_unitary",
                            lambda *args: calls.append(1) or real(*args))
        cfg = {"kind": "split", "group": {"u_powers": [0, 1]},
               "generator": {"name": "model", "params": {
                   "v": [0.3, 0.6], "u": serialize.matrix_to_wire(np.diag([W3, 1.0])),
                   "boundary": boundary}}}
        body, _ = cli.run_config(cfg)
        assert len(calls) == checks
        assert all(rep["passed"] for rep in body["results"].values())


class TestDiracChain:
    def test_sf_mas_w_agree(self):
        beta, chi, L = 0.25, W3, 1.0
        mod = IntervalDiracModel(L, np.array([[beta]]), u=np.array([[chi]]))
        Kwin = 6

        def herm(t):
            lam = np.array([(beta * L + 2 * pi * t + 2 * pi * k) / L
                            for k in range(-Kwin, Kwin + 1)])
            return np.diag(lam).astype(complex)

        sf = spectral_flow(Path(2 * Kwin + 1, herm),
                           chi * np.eye(2 * Kwin + 1, dtype=complex)).value
        _, K = interval_calderon(mod)
        a = np.array([[chi]])
        mas = maslov_index(LagrangianPath(1, lambda t: K),
                           LagrangianPath(1, lambda t: -np.exp(2j * pi * t) * np.eye(1)),
                           a, mode="grid")
        wv = winding_number(lambda t: K.conj().T @ (-np.exp(2j * pi * t) * np.eye(1)), a)
        assert abs(sf - chi) < 1e-6
        assert abs(mas - sf) < 1e-6
        assert abs(wv - sf) < 1e-6
