import numpy as np
import pytest
from scipy.special import erf, erfc

from equiflow.errors import (
    DimensionMismatch,
    KernelPresent,
    NotEquivariant,
    NotHermitian,
    NotUnitary,
)
from equiflow import eta_zeta, spectra
from equiflow.eta_zeta import (
    SpectralOperator,
    eta,
    eta_form,
    eta_log_defect,
    fit_character_lattice,
    getzler_spectral_flow,
    mellin_eta,
    mellin_zeta,
    reduced_eta,
    truncated_eta,
    zeta,
    zeta_determinant,
    zeta_determinant_product_route,
)
from equiflow.harness import generators as gen
from equiflow.specflow import Path, spectral_flow
from equiflow.spectra import path_panel
from equiflow.tolerances import TolerancePolicy

W3 = np.exp(2j * np.pi / 3)


class TestEta:
    def test_direct_sum(self):
        D = np.diag([1.0, -2.0, 3.0]).astype(complex)
        h = np.diag([W3, W3 ** 2, 1.0])
        assert abs(eta(D, h) - (W3 - W3 ** 2 + 1)) < 1e-12

    def test_operator_carries_its_actor(self):
        # an operator keeps the h it was built with; another h passed with it
        # is an error, not silently dropped
        D = np.diag([1.0, -2.0, 3.0]).astype(complex)
        h1, h2 = np.diag([W3, 1.0, 1.0]), np.diag([1.0, W3, 1.0])
        op = SpectralOperator(D, h1)
        assert abs(eta(op) - W3) < 1e-12
        assert abs(eta(D, h2) - (2 - W3)) < 1e-12
        for route in (eta, reduced_eta, truncated_eta, zeta_determinant):
            with pytest.raises(ValueError, match="SpectralOperator"):
                route(op, h2)

    def test_operator_takes_the_route_policy(self):
        # 1e-3 is in the kernel under zero_tol = 1e-2 (relative to the largest
        # |eigenvalue|, 3), whether D is passed as a matrix or as an operator
        D = np.diag([1e-3, -2.0, 3.0]).astype(complex)
        p = TolerancePolicy(zero_tol=1e-2)
        assert eta(SpectralOperator(D), policy=p) == eta(D, policy=p) == 0
        assert reduced_eta(SpectralOperator(D), policy=p) == reduced_eta(D, policy=p) == 0.5
        assert eta(SpectralOperator(D, policy=p)) == eta(D) == 1

    def test_symmetric_cancellation(self):
        assert eta(np.diag([2.0, -2.0, 1.0, -1.0]).astype(complex)) == 0

    def test_s_half(self):
        assert abs(eta(np.diag([4.0]).astype(complex), np.array([[W3]]), 0.5) - W3 / 2) < 1e-12

    def test_rigidity_off_crossings(self):
        # branches never cross zero; eigenvectors rotate inside the isotypes
        h = np.diag([W3, W3, 1.0, 1.0])

        def rot(t, k):
            c, s = np.cos(k * t), np.sin(k * t)
            return np.array([[c, -s], [s, c]], dtype=complex)

        def path(t):
            d1 = np.diag([0.5 + 0.3 * np.sin(2 * np.pi * t), -2.0 - t])
            d2 = np.diag([3.0 + np.cos(2 * np.pi * t), -1.0 - 0.5 * t])
            B = np.zeros((4, 4), dtype=complex)
            B[:2, :2] = rot(t, 2.0) @ d1 @ rot(t, 2.0).conj().T
            B[2:, 2:] = rot(t, 3.0) @ d2 @ rot(t, 3.0).conj().T
            return B

        vals = [eta(path(t), h) for t in np.linspace(0, 1, 20)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-9

    def test_not_equivariant(self):
        with pytest.raises(NotEquivariant):
            eta(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))


class TestReducedEta:
    def test_with_kernel(self):
        D = np.diag([0.0, 5.0]).astype(complex)
        h = np.diag([W3, 1.0])
        assert abs(reduced_eta(D, h) - (1 + W3) / 2) < 1e-12

    def test_invertible_half_eta(self):
        D = np.diag([1.0, -3.0, 2.0]).astype(complex)
        assert abs(reduced_eta(D) - eta(D) / 2) < 1e-12

    def test_crossing_difference(self):
        delta = 0.2
        h = np.diag([W3, 1.0])
        d1 = reduced_eta(np.diag([delta, 5.0]).astype(complex), h)
        d0 = reduced_eta(np.diag([-delta, 5.0]).astype(complex), h)
        assert abs((d1 - d0) - W3) < 1e-12


class TestTruncatedEta:
    def test_large_eps_vanishes(self):
        D = np.diag([1.0, -2.0]).astype(complex)
        assert abs(truncated_eta(D, eps=1e4)) < 1e-12

    def test_small_eps_approaches_eta(self):
        D = np.diag([1.0, -2.0, 0.5]).astype(complex)
        assert abs(truncated_eta(D, eps=1e-12) - eta(D)) < 1e-5

    def test_erfc_value(self):
        assert abs(truncated_eta(np.array([[1.0]]), eps=1.0) - 0.1572992071) < 1e-9
        assert np.isclose(erfc(1.0), 0.1572992071, atol=1e-9)



def commuting_pair(seed):
    """A Hermitian D commuting with a random Z_3 actor h.  Odd seeds give D
    the eigenvalues -2, 1, 3 in every block, so eigenspaces of D span
    several blocks of h."""
    rng = gen.rng_for(seed)
    dim = 2 + seed % 5
    h, _, blocks, R = gen.zn_action(dim, 3, rng)
    Dd = np.zeros((dim, dim), dtype=complex)
    for idx in blocks:
        if seed % 2:
            U = gen.rand_unitary(len(idx), rng)
            Dd[np.ix_(idx, idx)] = U @ np.diag(rng.choice([-2.0, 1.0, 3.0], len(idx))) @ U.conj().T
        else:
            Dd[np.ix_(idx, idx)] = gen.rand_hermitian(len(idx), rng, 2.0)
    return R @ Dd @ R.conj().T, h


def eigenspace_oracle(D, h):
    """(lambda, Tr(h P_lambda)) per eigenspace of the whole matrix D."""
    lam, U = np.linalg.eigh(D)
    out, start = [], 0
    for i in range(1, lam.size + 1):
        if i == lam.size or lam[i] - lam[start] > 1e-8:
            B = U[:, start:i]
            out.append((float(np.mean(lam[start:i])), complex(np.trace(B.conj().T @ h @ B))))
            start = i
    return out


PAIRS = [commuting_pair(seed) for seed in range(40)]


class TestBlockWeights:
    """Sums over the isotypic blocks of h against the whole-matrix oracle."""

    def test_pairs_are_invertible(self):
        assert min(np.min(np.abs(np.linalg.eigvalsh(D))) for D, _ in PAIRS) > 1e-2

    def test_eta_and_truncated_eta(self):
        for D, h in PAIRS:
            spec = eigenspace_oracle(D, h)
            assert abs(eta(D, h) - sum(w * np.sign(lam) for lam, w in spec)) <= 1e-12
            expect = sum(w * np.sign(lam) * erfc(np.sqrt(0.6) * abs(lam)) for lam, w in spec)
            assert abs(truncated_eta(D, h, 0.6) - expect) <= 1e-12

    def test_zeta(self):
        for D, h in PAIRS:
            expect = sum(w * lam ** -0.5 for lam, w in eigenspace_oracle(D, h) if lam > 0)
            assert abs(zeta(D, h, 0.5) - expect) <= 1e-12

    def test_zeta_determinants(self):
        for D, h in PAIRS:
            expect = np.exp(sum(w * (np.log(abs(lam)) + 1j * np.pi * (lam < 0))
                                for lam, w in eigenspace_oracle(D, h)))
            for route in (zeta_determinant, zeta_determinant_product_route):
                assert abs(route(D, h) - expect) <= 1e-12 * abs(expect)

    def test_weights_are_characters(self):
        D, h = PAIRS[1]
        op = SpectralOperator(D, h)
        assert op.values.size == D.shape[0] and np.all(np.diff(op.values) >= 0)
        assert np.allclose(op.weights ** 3, 1.0, atol=1e-12)

    def test_non_unitary_actor(self):
        D = np.diag([1.0, -2.0]).astype(complex)
        with pytest.raises(NotUnitary):
            SpectralOperator(D, 2.0 * np.eye(2))
        with pytest.raises(NotUnitary):
            eta(D, np.diag([1.0, 0.5]))


class TestEtaForm:
    def test_zero_operator(self):
        assert eta_form(np.eye(2), np.zeros((2, 2))) == 0

    def test_dimension_count(self):
        v = eta_form(np.zeros((3, 3)), np.eye(3), eps=np.pi)
        assert abs(v - 3.0) < 1e-12

    def test_gradient_of_truncated_eta(self):
        rng = gen.rng_for(43)
        path, h = gen.commuting_hermitian_path(3, 3, rng)
        t, eps, step = 0.4, 0.8, 1e-5
        fd = (truncated_eta(np.asarray(path(t + step)), h, eps)
              - truncated_eta(np.asarray(path(t - step)), h, eps)) / (2 * step)
        # dD/dt from a panel centred at t: its middle node sits at x = 0
        D, dD = path_panel(path, t + 0.05 * np.polynomial.legendre.leggauss(15)[0])
        target = -2.0 * eta_form(D[7], dD[7], h, eps)
        assert abs(fd - target) <= 1e-5 * max(abs(target), 1e-3)

    def test_stack_matches_matrices(self):
        path, h = gen.commuting_hermitian_path(5, 3, gen.rng_for(48))
        D, dD = path_panel(path, np.linspace(0.1, 0.9, 15))
        stacked = eta_form(D, dD, h, 0.7)
        assert stacked.shape == (15,)
        for k in range(15):
            assert abs(stacked[k] - eta_form(D[k], dD[k], h, 0.7)) <= 1e-13

    def test_checks_every_sample(self):
        h = np.diag([1.0, -1.0])
        D = np.stack([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]).astype(complex)
        bent, skew = D.copy(), D.copy()
        bent[1, 0, 1] = bent[1, 1, 0] = 0.5  # mixes the blocks of h
        skew[1, 0, 0] = 3.0 + 1e-3j
        with pytest.raises(NotEquivariant):
            eta_form(bent, D, h)
        with pytest.raises(NotHermitian):
            eta_form(skew, D, h)


class TestZeta:
    def test_s_half(self):
        v = zeta(np.diag([4.0]).astype(complex), np.array([[W3]]), 0.5)
        assert abs(v - W3 / 2) < 1e-12

    def test_kernel_rejected(self):
        with pytest.raises(KernelPresent):
            zeta(np.diag([0.0, 1.0]).astype(complex), s=1.0)

    def test_mellin_cross_check(self):
        rng = gen.rng_for(44)
        D = gen.rand_hermitian(3, rng, 1.0)
        D = D @ D.conj().T + 0.3 * np.eye(3)
        for s in (1.0, 2.0):
            direct = zeta(D, s=s)
            assert abs(mellin_zeta(D, s=s) - direct) <= 1e-6 * abs(direct)

    def test_mellin_eta_cross_check(self):
        D = np.diag([0.8, -1.7, 2.4]).astype(complex)
        for s in (1.0, 2.0):
            direct = eta(D, s=s)
            assert abs(mellin_eta(D, s=s) - direct) <= 1e-6 * max(abs(direct), 1e-3)


class TestZetaDeterminant:
    def test_positive_definite(self):
        assert abs(zeta_determinant(np.diag([2.0, 3.0]).astype(complex)) - 6.0) < 1e-10

    def test_indefinite_phase(self):
        assert abs(zeta_determinant(np.diag([2.0, -3.0]).astype(complex)) + 6.0) < 1e-10

    def test_scalar_character(self):
        lam, chi = -2.5, W3
        v = zeta_determinant(np.array([[lam]]), np.array([[chi]]))
        expect = np.exp((1j * np.pi / 2) * (chi - chi * np.sign(lam))) * abs(lam) ** chi
        assert abs(v - expect) < 1e-12

    def test_equals_matrix_determinant(self):
        rng = gen.rng_for(45)
        for i in range(10):
            D = gen.rand_hermitian(4, rng, 2.0)
            if np.min(np.abs(np.linalg.eigvalsh(D))) < 1e-2:
                continue
            det = np.linalg.det(D)
            assert abs(zeta_determinant(D) - det) <= 1e-10 * abs(det)

    def test_two_routes_agree(self):
        rng = gen.rng_for(46)
        h, _, blocks, R = gen.zn_action(4, 3, rng)
        Dd = np.zeros((4, 4), dtype=complex)
        for idx in blocks:
            Dd[np.ix_(idx, idx)] = gen.rand_hermitian(len(idx), rng, 2.0)
        D = R @ Dd @ R.conj().T + 0.25 * np.eye(4)
        r1 = zeta_determinant(D, h)
        r2 = zeta_determinant_product_route(D, h)
        assert abs(r1 - r2) <= 1e-10 * abs(r1)

    def test_kernel_rejected(self):
        with pytest.raises(KernelPresent):
            zeta_determinant(np.diag([0.0, 1.0]).astype(complex))


class TestGetzler:
    def test_constant_path(self):
        path = Path(2, lambda t: np.diag([1.0, -2.0]).astype(complex))
        assert abs(getzler_spectral_flow(path)) < 1e-10

    def test_single_crossing(self):
        path = Path(2, lambda t: np.diag([2 * t - 1, 1.0]).astype(complex))
        h = np.diag([W3, 1.0])
        assert abs(getzler_spectral_flow(path, h) - W3) < 1e-8

    def test_kernel_at_endpoint(self):
        # diag(t, -1): the reduced eta jumps at the kernel at t = 0
        path = Path(2, lambda t: np.diag([t, -1.0]).astype(complex))
        with pytest.raises(KernelPresent):
            getzler_spectral_flow(path, np.diag([W3, 1.0]))

    def test_fast_oscillation(self):
        path = Path(2, lambda t: np.diag(
            [np.sin(80 * np.pi * t) + 0.3 * t - 0.01, 1.0]).astype(complex))
        assert abs(getzler_spectral_flow(path) - 1.0) <= 1e-6

    @pytest.mark.parametrize("g", [1e-3, 1e-6, 1e-9])
    def test_avoided_crossing(self, g):
        path = Path(2, lambda t: np.array([[t - 0.5, g], [g, 0.5 - t]], dtype=complex))
        assert abs(getzler_spectral_flow(path)) <= 1e-10

    def test_samples_only_endpoints_and_panel_nodes(self, monkeypatch):
        path, h = gen.commuting_hermitian_path(3, 3, gen.rng_for(471))
        sampled, nodes = set(), set()
        integrate = eta_zeta.integrate

        def recording(t):
            sampled.add(float(t))
            return path(t)

        def recording_integrate(f, a, b, policy):
            def g(ts):
                nodes.update(float(t) for t in ts)
                return f(ts)
            return integrate(g, a, b, policy)

        monkeypatch.setattr(eta_zeta, "integrate", recording_integrate)
        getzler_spectral_flow(recording, h)
        assert nodes and sampled == nodes | {0.0, 1.0}

    def test_splits_actor_once(self, monkeypatch):
        # Schur splits are the misses of the split memo
        panel = eta_zeta.path_panel
        panels = []

        def counting_panel(*args):
            panels.append(1)
            return panel(*args)

        monkeypatch.setattr(eta_zeta, "path_panel", counting_panel)
        h = np.diag([W3, 1.0])
        counts = []
        for path in (Path(2, lambda t: np.diag([2 * t - 1, 1.0]).astype(complex)),
                     Path(2, lambda t: np.diag(
                         [np.sin(20 * np.pi * t) + 0.3 * t - 0.01, 1.0]).astype(complex))):
            spectra._split_of.cache_clear()
            panels.clear()
            getzler_spectral_flow(path, h)
            counts.append((len(panels), spectra._split_of.cache_info().misses))
        assert counts[0][0] < counts[1][0]
        assert [n for _, n in counts] == [1, 1]

    def test_matches_spectral_flow_random(self):
        for i in range(8):
            path, h = gen.commuting_hermitian_path(3 + i % 3, 2 + i % 3, gen.rng_for(470 + i))
            e0 = np.min(np.abs(np.linalg.eigvalsh(np.asarray(path(0.0)))))
            e1 = np.min(np.abs(np.linalg.eigvalsh(np.asarray(path(1.0)))))
            if min(e0, e1) < 1e-3:
                continue
            g = getzler_spectral_flow(path, h)
            s = spectral_flow(path, h).value
            assert abs(g - s) <= 1e-6


class TestEtaLogDefect:
    def test_equal_operators(self):
        D = np.diag([1.0, -2.0]).astype(complex)
        lhs, rhs, defect = eta_log_defect(D, D)
        assert abs(defect) < 1e-12

    def test_operators_of_different_sizes(self):
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\).*\(3, 3\)"):
            eta_log_defect(np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0]))

    def test_saturated_no_swap(self):
        # commuting, no eigenvalue changes sign: defect vanishes
        D0 = np.diag([5.0, -6.0]).astype(complex)
        D1 = np.diag([7.5, -4.8]).astype(complex)
        _, _, defect = eta_log_defect(D0, D1)
        assert abs(defect) < 1e-8

    def test_single_crossing_nonsaturated_value(self):
        # scalar-erf oracle: lhs = chi, rhs = -chi erf(delta),
        # so the defect is chi (1 + erf(delta)) for this shallow crossing
        delta = 0.1
        h = np.diag([W3, 1.0])
        D0 = np.diag([-delta, 5.0]).astype(complex)
        D1 = np.diag([delta, 5.0]).astype(complex)
        lhs, rhs, defect = eta_log_defect(D0, D1, h)
        assert abs(lhs - W3) < 1e-12
        assert abs(defect - W3 * (1 + erf(delta))) < 1e-10

    def test_unitaries_from_block_eigendata(self, monkeypatch):
        # exp(i pi erf D) comes from the operators' own block eigendata: no
        # whole-matrix eigendecomposition, under any name the module may use
        eig = spectra.eig_hermitian
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return eig(*args, **kwargs)

        monkeypatch.setattr(spectra, "eig_hermitian", counting)
        monkeypatch.setattr(eta_zeta, "eig_hermitian", counting, raising=False)
        delta, h = 0.1, np.diag([W3, 1.0])
        _, _, defect = eta_log_defect(np.diag([-delta, 5.0]).astype(complex),
                                      np.diag([delta, 5.0]).astype(complex), h)
        assert abs(defect - W3 * (1 + erf(delta))) < 1e-10
        assert calls == []

    def test_saturated_crossing_in_lattice(self):
        h = np.diag([W3, 1.0])
        D0 = np.diag([-5.0, 7.0]).astype(complex)
        D1 = np.diag([5.0, 7.0]).astype(complex)
        _, _, defect = eta_log_defect(D0, D1, h)
        coeffs, resid = fit_character_lattice(defect, [W3, 1.0])
        assert resid < 1e-6
        assert list(coeffs) == [1, 0]

    def test_exp_contract_trivial_action(self):
        D0 = np.diag([-5.0, 7.0]).astype(complex)
        D1 = np.diag([5.0, 7.0]).astype(complex)
        lhs, rhs, _ = eta_log_defect(D0, D1)
        assert abs(np.exp(2j * np.pi * lhs) - np.exp(2j * np.pi * rhs)) < 1e-8

    def test_kernel_rejected(self):
        with pytest.raises(KernelPresent):
            eta_log_defect(np.diag([0.0, 1.0]).astype(complex),
                           np.diag([1.0, 1.0]).astype(complex))

    def test_splits_actor_once(self):
        # Schur splits are the misses of the split memo
        h = np.diag([W3, 1.0])
        D0 = np.diag([-5.0, 7.0]).astype(complex)
        D1 = np.diag([5.0, 7.0]).astype(complex)
        for actor in (h, None):
            spectra._split_of.cache_clear()
            eta_log_defect(D0, D1, actor)
            assert spectra._split_of.cache_info().misses == 1
