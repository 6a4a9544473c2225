import numpy as np
import pytest
import scipy.linalg

from equiflow.errors import NotCommuting, NotUnitary
from equiflow.harness import generators as gen
from equiflow.maslov import (
    LagrangianPath,
    in_maslov_cycle,
    maslov_index,
    triple_index_path,
    triple_index_static,
)
from equiflow.symplectic import make_projection_from_unitary, pair_report
from equiflow.winding import double_index

ALPHA = np.exp(0.4j)


def scalar(fn):
    return lambda t: np.array([[fn(t)]], dtype=complex)


class TestMaslovIndex:
    def test_scalar_downward_crossing(self):
        L1 = LagrangianPath(1, scalar(lambda t: np.exp(2j * np.pi * t)))
        L2 = LagrangianPath(1, scalar(lambda t: 1j))
        a = np.array([[ALPHA]])
        for mode in ("winding", "grid"):
            v = maslov_index(L1, L2, a, mode=mode)
            assert abs(v + ALPHA) < 1e-9, mode

    def test_constant_invertible_pair(self):
        L1 = LagrangianPath(1, scalar(lambda t: 1.0))
        L2 = LagrangianPath(1, scalar(lambda t: 1j))
        for mode in ("winding", "grid"):
            assert abs(maslov_index(L1, L2, mode=mode)) < 1e-12

    def test_reversal_negates(self):
        rng = gen.rng_for(61)
        T, S, a = gen.lagrangian_loop_pair(2, 3, rng)
        L1, L2 = LagrangianPath(2, T), LagrangianPath(2, S)
        L1r = LagrangianPath(2, lambda t: T(1 - t))
        L2r = LagrangianPath(2, lambda t: S(1 - t))
        v = maslov_index(L1, L2, a)
        vr = maslov_index(L1r, L2r, a)
        assert abs(v + vr) < 1e-9

    def test_modes_agree_random(self):
        for i in range(10):
            rng = gen.rng_for(610 + i)
            n = 1 + i % 2
            T, S, a = gen.lagrangian_loop_pair(n, 2 + i % 4, rng)
            mw = maslov_index(LagrangianPath(n, T), LagrangianPath(n, S), a, mode="winding")
            mg = maslov_index(LagrangianPath(n, T), LagrangianPath(n, S), a, mode="grid")
            assert abs(mw - mg) < 1e-8

    def test_grid_resolves_crossings_in_one_cell(self):
        # two eigenphases of T*S cross -1 close together, in different
        # isotypic blocks: each block's tracking must find its own crossing
        T, S, a = gen.lagrangian_loop_pair(2, 4, gen.rng_for(5_000_044), windings=1)
        L1, L2 = LagrangianPath(2, T), LagrangianPath(2, S)
        mw = maslov_index(L1, L2, a, mode="winding")
        mg = maslov_index(L1, L2, a, mode="grid")
        assert abs(mw - (2 + 2j)) < 1e-9
        assert abs(mg - mw) < 1e-8

    def test_grid_mode_checks_every_sample(self):
        # the X term of S vanishes (to rounding) at every node t = k/32 of
        # the first tracking grid; the first eigenphase steps by pi/2 there,
        # so each mode bisects, and only its bisection samples see that S
        # leaves a's blocks
        a = np.diag([1.0, -1.0]).astype(complex)
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

        def S(t, x=1.0):
            return scipy.linalg.expm(1j * (np.diag([16 * np.pi * t, 0.3])
                                           + 0.2 * x * np.sin(32 * np.pi * t) * X))

        T = lambda t: np.eye(2, dtype=complex)
        for mode in ("winding", "grid"):
            assert abs(maslov_index(T, lambda t: S(t, 0.0), a, mode=mode) - 8) < 1e-9
        for mode in ("winding", "grid"):
            with pytest.raises(NotCommuting):
                maslov_index(T, S, a, mode=mode)

    def test_grid_mode_checks_unitarity(self):
        # T*S = 2I, 0.5 I or NaN: grid mode refuses every sample before its
        # first eigensolve reads it, as winding mode does
        S = lambda t: np.diag(np.exp([2j * np.pi * t, 0.3j]))
        for c in (2.0, 0.5, np.nan):
            T = lambda t, c=c: c * np.eye(2, dtype=complex)
            for mode in ("winding", "grid"):
                with pytest.raises(NotUnitary):
                    maslov_index(T, S, mode=mode)

    @pytest.mark.parametrize("near_pi, crossing", [
        (lambda t: -0.003, lambda t: 3 * (t - 0.5)),
        (lambda t: -0.003 - 0.05 * (t - 0.5) ** 2, lambda t: 10 * (t - 0.501)),
        (lambda t: -0.003 - 0.01 * abs(t - 0.5), lambda t: 10 * (t - 0.501)),
    ], ids=["flat", "curved", "sloped"])
    def test_grid_finds_a_dip_below_a_branch(self, near_pi, crossing):
        # one eigenphase stays about 0.003 from pi while the other crosses it
        # near t = 1/2, fast, passing within 0.01 of the first: the tracked
        # branches count the fast one's crossing alone, whether the near
        # branch is flat, curved or sloped there
        T = lambda t: np.eye(2, dtype=complex)
        S = lambda t: np.diag(np.exp(1j * (np.pi + np.array([near_pi(t), crossing(t)]))))
        assert abs(maslov_index(T, S, mode="winding") - 1) < 1e-12
        assert abs(maslov_index(T, S, mode="grid") - 1) < 1e-12

    def test_endpoint_on_the_wall(self):
        # T*S = -exp(i pi t) = -exp(i pi B), B = t, starts on -1: in both
        # modes the phase on the wall at t = 0 is already past it, as the
        # spectral flow of B counts its kernel at t = 0 as nonnegative
        T = lambda t: np.eye(1, dtype=complex)
        S = lambda t: -np.exp(1j * np.pi * t) * np.eye(1)
        assert maslov_index(T, S, mode="grid") == maslov_index(T, S, mode="winding") == 0

    def test_grid_option_is_ignored(self):
        T, S, a = gen.lagrangian_loop_pair(2, 3, gen.rng_for(64), windings=1)
        with pytest.warns(DeprecationWarning, match="grid is ignored"):
            old = maslov_index(T, S, a, mode="grid", grid=256)
        assert old == maslov_index(T, S, a, mode="grid") != 0

    def test_trivial_action_integer(self):
        rng = gen.rng_for(62)
        T, S, _ = gen.lagrangian_loop_pair(2, 2, rng)
        v = maslov_index(LagrangianPath(2, T), LagrangianPath(2, S))
        assert abs(v.imag) < 1e-9 and abs(v.real - round(v.real)) < 1e-9

    def test_path_additivity(self):
        L1a = LagrangianPath(1, scalar(lambda t: np.exp(2j * np.pi * t)))
        L1b = LagrangianPath(1, scalar(lambda t: np.exp(2j * np.pi * t)))
        L2 = LagrangianPath(1, scalar(lambda t: 1j))
        a = np.array([[ALPHA]])

        def cat(t):
            return L1a(2 * t) if t <= 0.5 else L1b(2 * t - 1)

        v = maslov_index(LagrangianPath(1, cat), L2, a)
        v1 = maslov_index(L1a, L2, a)
        v2 = maslov_index(L1b, L2, a)
        assert abs(v - v1 - v2) < 1e-9


class TestTripleIndex:
    def test_degenerate_triples_vanish(self):
        rng = gen.rng_for(63)
        T, S, a = gen.lagrangian_loop_pair(2, 3, rng)
        assert abs(triple_index_path(T, T, S, a)) < 1e-12
        assert abs(triple_index_path(T, S, S, a)) < 1e-12

    def test_static_all_equal(self):
        rng = gen.rng_for(64)
        P = make_projection_from_unitary(gen.rand_unitary(2, rng))
        assert abs(triple_index_static(P, P, P)) < 1e-12

    def test_static_pnp_equals_inverse_pair(self):
        rng = gen.rng_for(65)
        P = make_projection_from_unitary(gen.rand_unitary(2, rng))
        Q = make_projection_from_unitary(gen.rand_unitary(2, rng))
        U = P.T.conj().T @ Q.T
        lhs = triple_index_static(P, Q, P)
        rhs = double_index(U, U.conj().T)
        assert abs(lhs - rhs) < 1e-9

    def test_decomposition_against_maslov(self):
        rng = gen.rng_for(66)
        T, S, a = gen.lagrangian_loop_pair(2, 3, rng)
        R, _, _ = gen.lagrangian_loop_pair(2, 3, gen.rng_for(67))
        # R must commute with a: rebuild blockwise
        from equiflow.spectra import eig_unitary
        import scipy.linalg as sl
        es = eig_unitary(a)
        pieces = []
        for idx in es.cluster_slices():
            b = len(idx)
            pieces.append((sl.expm(1j * gen.rand_hermitian(b, rng, 0.8)),
                           np.diag(rng.integers(-1, 2, size=b).astype(float))))

        def Rc(t):
            inner = np.zeros((2, 2), dtype=complex)
            for idx, (E0, K) in zip(es.cluster_slices(), pieces):
                inner[np.ix_(idx, idx)] = E0 @ sl.expm(2j * np.pi * t * K)
            return es.vectors @ inner @ es.vectors.conj().T

        v = triple_index_path(T, S, Rc, a)
        m = (maslov_index(LagrangianPath(2, T), LagrangianPath(2, S), a)
             + maslov_index(LagrangianPath(2, S), LagrangianPath(2, Rc), a)
             - maslov_index(LagrangianPath(2, T), LagrangianPath(2, Rc), a))
        assert abs(v - m) < 1e-9


class TestMaslovCycle:
    def test_full_intersection(self):
        P = make_projection_from_unitary(np.eye(2))
        K = make_projection_from_unitary(-np.eye(2))
        assert in_maslov_cycle(P, K)

    def test_transversal(self):
        rng = gen.rng_for(68)
        T = gen.rand_unitary(2, rng)
        P = make_projection_from_unitary(T)
        assert not in_maslov_cycle(P, P)

    def test_partial_intersection(self):
        P = make_projection_from_unitary(np.eye(2))
        K = make_projection_from_unitary(np.diag([-1.0 + 0j, 1j]))
        assert in_maslov_cycle(P, K)

    def test_one_threshold_with_pair_report(self):
        # sigma_min(I + T* S) = 5e-9 lies between pair_report's rank threshold
        # (zero_tol = 1e-9) and the 1e-8 the predicate once used on its own
        P = make_projection_from_unitary(np.eye(1))
        S = make_projection_from_unitary(-np.exp(5e-9j) * np.eye(1))
        rep = pair_report(P, S)
        assert rep.invertible and rep.intersection_dim == 0
        assert not in_maslov_cycle(P, S)
