import numpy as np
import pytest

from equiflow.errors import KernelLagrangianInvalid, NotEquivariant, NotLagrangian, NotUnitary
from equiflow.spectra import opnorm
from equiflow.symplectic import (
    SymplecticSpace,
    aps_projection,
    as_projection,
    canonical_determinant,
    flip_orientation,
    make_projection_from_unitary,
    pair_report,
)


def rand_unitary(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def lagrangian_residual(P):
    n = P.n
    g = SymplecticSpace(n).gamma
    return opnorm(g @ P.P @ g.conj().T - (np.eye(2 * n) - P.P))


class TestProjectionUnitary:
    def test_identity(self):
        P = make_projection_from_unitary(np.eye(2))
        assert np.allclose(P.P, 0.5 * np.block([[np.eye(2), np.eye(2)],
                                                [np.eye(2), np.eye(2)]]))

    def test_minus_identity(self):
        P = make_projection_from_unitary(-np.eye(2))
        assert np.allclose(P.P, 0.5 * np.block([[np.eye(2), -np.eye(2)],
                                                [-np.eye(2), np.eye(2)]]))

    def test_random_is_lagrangian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            P = make_projection_from_unitary(rand_unitary(3, rng))
            assert lagrangian_residual(P) < 1e-12
            assert opnorm(P.P @ P.P - P.P) < 1e-12
            assert opnorm(P.P - P.P.conj().T) < 1e-12

    def test_bijection_roundtrip_100(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            T = rand_unitary(n, rng)
            assert opnorm(as_projection(make_projection_from_unitary(T).P).T - T) < 1e-12

    def test_half_block_inverse(self):
        P = make_projection_from_unitary(np.eye(2))
        assert np.allclose(as_projection(P.P).T, np.eye(2))

    def test_non_lagrangian_rejected(self):
        # orthogonal projection violating gamma P gamma^* = I - P (n = 2)
        P = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(NotLagrangian):
            as_projection(P)

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            make_projection_from_unitary(np.array([[2.0]]))


class TestPairReport:
    def test_invertible_identity_pair(self):
        P = make_projection_from_unitary(np.eye(2))
        rep = pair_report(P, P)
        assert rep.invertible and rep.intersection_dim == 0

    def test_full_intersection(self):
        n = 3
        P = make_projection_from_unitary(np.eye(n))
        Q = make_projection_from_unitary(-np.eye(n))
        rep = pair_report(P, Q)
        assert not rep.invertible
        assert rep.intersection_dim == n
        assert np.isclose(rep.intersection_trace, n)

    def test_explicit_kernel(self):
        chi = np.exp(2j * np.pi / 5)
        P = make_projection_from_unitary(np.eye(2))
        Q = make_projection_from_unitary(np.diag([-1.0 + 0j, np.exp(1j * np.pi / 3)]))
        a = np.diag([chi, 1.0])
        rep = pair_report(P, Q, a)
        assert rep.intersection_dim == 1
        assert np.isclose(rep.intersection_trace, chi)

    def test_invertibility_matches_compressed_map(self):
        rng = np.random.default_rng(5)
        agree = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            P = make_projection_from_unitary(rand_unitary(n, rng))
            Q = make_projection_from_unitary(rand_unitary(n, rng))
            rep = pair_report(P, Q)
            # direct route: PQ restricted to im(Q) -> im(P)
            C = P.image_basis().conj().T @ Q.image_basis()
            smin = np.linalg.svd(C, compute_uv=False)[-1]
            assert rep.invertible == bool(smin > 1e-9)
            agree += 1
        assert agree == 100

    def test_trace_matches_2n_geometry(self):
        rng = np.random.default_rng(6)
        chi = np.exp(2j * np.pi / 3)
        for theta in (np.pi / 3, 2.0):
            T = np.diag([-1.0 + 0j, np.exp(1j * theta)])
            P = make_projection_from_unitary(np.eye(2))
            Q = make_projection_from_unitary(T)
            a = np.diag([chi, 1.0])
            h = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])  # diag(a, W a W*), W = I
            rep = pair_report(P, Q, h)
            if rep.intersection_dim:
                B = rep.witness_basis
                hB = h @ B
                assert opnorm(hB - B @ (B.conj().T @ hB)) < 1e-9  # span(B) is h-invariant
                assert abs(np.trace(B.conj().T @ hB) - rep.intersection_trace) < 1e-9


class TestAPS:
    def test_invertible_boundary_operator(self):
        # A = offdiag(1, 1): spectrum +-1, positive eigenvector (1, 1)/sqrt(2)
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        P = aps_projection(A)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert opnorm(P.P - np.outer(v, v.conj())) < 1e-12
        assert lagrangian_residual(P) < 1e-10

    def test_spectral_symmetry_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            A = np.zeros((2 * n, 2 * n), dtype=complex)
            A[:n, n:] = H.conj().T
            A[n:, :n] = H
            if np.min(np.abs(np.linalg.eigvalsh(A))) < 1e-8:
                continue
            P = aps_projection(A)
            assert lagrangian_residual(P) < 1e-10

    def test_zero_operator_with_kernel_lagrangian(self):
        A = np.zeros((2, 2), dtype=complex)
        L = np.array([[1.0], [1.0]]) / np.sqrt(2)
        P = aps_projection(A, L)
        assert opnorm(P.P - L @ L.conj().T) < 1e-12
        assert lagrangian_residual(P) < 1e-10

    def test_invalid_kernel_lagrangian(self):
        A = np.zeros((2, 2), dtype=complex)
        with pytest.raises(KernelLagrangianInvalid):
            aps_projection(A, np.array([[1.0], [0.0]]))  # gamma(L) not perp to L
        with pytest.raises(KernelLagrangianInvalid):
            aps_projection(A)  # missing L for a singular A


class TestCanonicalDeterminant:
    def test_equal_projections(self):
        rng = np.random.default_rng(8)
        T = rand_unitary(3, rng)
        P = make_projection_from_unitary(T)
        assert np.isclose(canonical_determinant(P, P), 1.0)

    def test_scalar(self):
        th = 0.8
        P = make_projection_from_unitary(np.eye(1))
        PM = make_projection_from_unitary(np.array([[np.exp(1j * th)]]))
        assert np.isclose(canonical_determinant(P, PM), (1 + np.exp(1j * th)) / 2)

    def test_eigenvalue_product(self):
        rng = np.random.default_rng(9)
        R = rand_unitary(2, rng)
        chars = np.exp(2j * np.pi * np.array([1, 2]) / 5)
        a = R @ np.diag(chars) @ R.conj().T
        T = R @ np.diag(np.exp(1j * np.array([0.4, -0.9]))) @ R.conj().T
        K = R @ np.diag(np.exp(1j * np.array([1.2, 0.3]))) @ R.conj().T
        h = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), a]])  # diag(a, W a W*), W = I
        v = canonical_determinant(make_projection_from_unitary(T),
                                  make_projection_from_unitary(K), h)
        M = a @ (np.eye(2) + T.conj().T @ K) / 2
        oracle = np.prod(np.linalg.eigvals(M))
        assert abs(v - oracle) < 1e-12


class TestBoundaryActor:
    """h acts on C^{2n} as an n x n matrix a (as diag(a, a)) or as a 2n x 2n one."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        R = rand_unitary(3, rng)
        self.a = R @ np.diag(np.exp(2j * np.pi * np.array([1, 2, 0]) / 3)) @ R.conj().T
        self.P = make_projection_from_unitary(
            R @ np.diag(np.exp(1j * np.array([0.4, -0.9, 2.0]))) @ R.conj().T)
        # T* S = diag(-1, ...) in the R basis: a one-dimensional intersection
        self.Q = make_projection_from_unitary(
            R @ np.diag(np.exp(1j * np.array([0.4 + np.pi, 0.3, 1.1]))) @ R.conj().T)

    def test_square_and_embedded_actor_agree(self):
        zero = np.zeros((3, 3))
        h = np.block([[self.a, zero], [zero, self.a]])
        small, big = pair_report(self.P, self.Q, self.a), pair_report(self.P, self.Q, h)
        assert small.intersection_dim == big.intersection_dim == 1
        assert small.invertible == big.invertible
        assert small.intersection_trace == big.intersection_trace
        assert small.sigma_min == big.sigma_min
        assert np.array_equal(small.witness_basis, big.witness_basis)
        assert abs(small.intersection_trace - np.exp(2j * np.pi / 3)) < 1e-9
        assert (canonical_determinant(self.P, self.Q, self.a)
                == canonical_determinant(self.P, self.Q, h))

    def test_wrong_shape_rejected(self):
        for route in (pair_report, canonical_determinant):
            for h in (np.eye(2), np.eye(4), np.eye(6)[:, :3]):
                with pytest.raises(NotEquivariant, match="incompatible shape"):
                    route(self.P, self.Q, h)

    def test_non_commuting_rejected(self):
        P = make_projection_from_unitary(np.eye(2))
        Q = make_projection_from_unitary(np.diag([1j, -1j]))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        for h in (swap, np.kron(np.eye(2), swap)):
            for route in (pair_report, canonical_determinant):
                with pytest.raises(NotEquivariant, match="commutator"):
                    route(P, Q, h)


class TestFlip:
    def test_scalar_values(self):
        P = make_projection_from_unitary(np.eye(1))
        assert np.isclose(flip_orientation(P).T[0, 0], -1.0)
        th = 0.7
        P = make_projection_from_unitary(np.array([[np.exp(1j * th)]]))
        assert np.isclose(flip_orientation(P).T[0, 0], -np.exp(-1j * th))

    def test_double_flip_50(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            T = rand_unitary(n, rng)
            P = make_projection_from_unitary(T)
            assert opnorm(flip_orientation(flip_orientation(P)).T - T) < 1e-12
