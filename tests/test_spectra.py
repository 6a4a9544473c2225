import importlib.util
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from equiflow import spectra
from equiflow.errors import (
    BranchCut,
    DimensionMismatch,
    NoConvergence,
    NotEquivariant,
    NotHermitian,
    NotUnitary,
)
from equiflow.harness.generators import commuting_hermitian_path, rng_for, zn_action
from equiflow.specflow import bott_loop, crossing_oracle
from equiflow.tolerances import DEFAULT, TolerancePolicy
from equiflow.spectra import (
    _match as match,
    eig_hermitian,
    eig_unitary,
    hermitian_part,
    integrate,
    isotypic_split,
    opnorm,
    path_panel,
    principal_log_unitary,
    track_blocks,
)


def rand_hermitian(n, rng, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (A + A.conj().T) / 2


class TestEigHermitian:
    def test_diagonal(self):
        es = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(es.values, [1.0, 3.0])

    def test_symmetry_forced(self):
        es = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(es.values, [-1.0, 1.0])
        # phase fixing: first nonzero component real positive
        assert np.allclose(es.vectors[:, 0], np.array([1.0, -1.0]) / np.sqrt(2))
        assert np.allclose(es.vectors[:, 1], np.array([1.0, 1.0]) / np.sqrt(2))

    def test_residual_oracle(self):
        rng = np.random.default_rng(0)
        M = rand_hermitian(6, rng, 2.0)
        es = eig_hermitian(M)
        for i in range(6):
            r = opnorm((M @ es.vectors[:, i] - es.values[i] * es.vectors[:, i])[:, None])
            assert r <= 1e-12 * max(opnorm(M), 1.0) * 10

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rand_hermitian(5, rng, 3.0)
            es = eig_hermitian(M)
            R = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
            assert opnorm(R - M) <= 10 * 1e-12 * opnorm(M)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigUnitary:
    def test_identity(self):
        es = eig_unitary(np.eye(3))
        assert np.allclose(es.values, 0.0)

    def test_pm_i(self):
        es = eig_unitary(np.diag([1j, -1j]))
        assert np.allclose(es.values, [-np.pi / 2, np.pi / 2])

    def test_exp_of_hermitian(self):
        rng = np.random.default_rng(1)
        S = rand_hermitian(5, rng)
        S = S / opnorm(S) * 2.5  # keep the spectrum inside (-pi, pi)
        U = scipy.linalg.expm(1j * S)
        assert np.allclose(np.sort(eig_unitary(U).values),
                           np.sort(eig_hermitian(S).values), atol=1e-10)

    def test_phase_pi_only_for_minus_one(self):
        es = eig_unitary(np.diag([-1.0 + 0j, np.exp(1j * (np.pi - 1e-4))]))
        at_pi = np.isclose(es.values, np.pi)
        assert at_pi.sum() == 1

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            eig_unitary(np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_not_unitary(self, bad):
        # a NaN unitarity defect must fail the test, not reach LAPACK
        for M in (np.array([[bad]]), np.diag([1.0, bad]), np.full((3, 3), bad)):
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(NotUnitary):
                    eig_unitary(M)
                with pytest.raises(NotUnitary):
                    isotypic_split(M, M.shape[0])


class TestIsotypicSplit:
    def test_actor_is_scalar_on_each_block(self):
        for order in range(2, 7):
            for dim in range(1, 9):
                a, _, _, _ = zn_action(dim, order, rng_for(100 * order + dim))
                V, blocks, chars = isotypic_split(a, dim)
                assert sorted(np.concatenate(blocks)) == list(range(dim))
                for idx, chi in zip(blocks, chars):
                    Q = V[:, idx]
                    assert np.linalg.norm(a @ Q - chi * Q) <= 1e-12

    def test_trivial_actor_is_one_block(self):
        V, blocks, chars = isotypic_split(None, 4)
        assert np.array_equal(V, np.eye(4))
        assert len(blocks) == 1 and list(blocks[0]) == [0, 1, 2, 3]
        assert list(chars) == [1.0]

    @staticmethod
    def _counted_splits(monkeypatch):
        """The Schur splits of actors made from now on, one entry per `eig_unitary`."""
        spectra._split_of.cache_clear()
        calls = []

        def counted(U, *rest):
            calls.append(np.asarray(U).tobytes())
            return eig_unitary(U, *rest)

        monkeypatch.setattr(spectra, "eig_unitary", counted)
        return calls

    def test_one_split_per_actor_value(self, monkeypatch):
        calls = self._counted_splits(monkeypatch)
        a, _, _, _ = zn_action(4, 3, rng_for(11))
        first = isotypic_split(a, 4)
        again = isotypic_split(a.copy(), 4)
        assert len(calls) == 1
        assert again[0] is first[0] and again[2] is first[2]
        V, blocks, chars = first
        assert isinstance(blocks, tuple)
        for arr in (V, chars, *blocks):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        # another actor value, or the same one under another policy, splits again
        b, _, _, _ = zn_action(4, 3, rng_for(12))
        isotypic_split(b, 4)
        isotypic_split(a, 4, TolerancePolicy(cluster_tol=1e-8))
        assert len(calls) == 3
        isotypic_split(a, 4)
        assert len(calls) == 3

    def test_kept_split_is_the_fresh_split(self):
        # a split read back is bitwise the split of a fresh process state
        a, _, _, _ = zn_action(5, 4, rng_for(13))
        spectra._split_of.cache_clear()
        V, blocks, chars = isotypic_split(a, 5)
        spectra._split_of.cache_clear()
        V2, blocks2, chars2 = isotypic_split(np.asfortranarray(a), 5)
        assert np.array_equal(V, V2) and np.array_equal(chars, chars2)
        assert all(np.array_equal(i, j) for i, j in zip(blocks, blocks2))

    def test_failures_are_not_kept(self, monkeypatch):
        calls = self._counted_splits(monkeypatch)
        for _ in range(3):
            with pytest.raises(NotUnitary):
                isotypic_split(np.diag([2.0, 1.0]), 2)
        assert len(calls) == 3
        with pytest.raises(DimensionMismatch):  # the shape, not the bytes, must fit
            isotypic_split(np.eye(2).ravel(), 2)

    def test_routes_on_one_actor_split_it_once(self, monkeypatch):
        from equiflow.eta_zeta import getzler_spectral_flow
        from equiflow.specflow import crossing_oracle, spectral_flow

        calls = self._counted_splits(monkeypatch)
        path, h = commuting_hermitian_path(4, 3, rng_for(470))
        s = spectral_flow(path, h).value
        c = crossing_oracle(path, h).value
        g = getzler_spectral_flow(path, h)
        assert len(calls) == 1 and calls[0] == np.asarray(h, dtype=complex).tobytes()
        assert abs(s - c) <= 1e-8 and abs(g - s) <= 1e-6


    def test_memo_is_only_a_cache(self, monkeypatch):
        # every route gives bitwise the same value with the kept splits, and
        # with a fresh Schur split at every read of the split
        from equiflow.dirac_models import IntervalDiracModel, interval_eta, sw_identity_check
        from equiflow.eta_zeta import eta_log_defect, getzler_spectral_flow
        from equiflow.harness.generators import (commuting_unitary_path, lagrangian_loop_pair,
                                                 rand_unitary)
        from equiflow.maslov import LagrangianPath, maslov_index
        from equiflow.specflow import crossing_oracle, spectral_flow
        from equiflow.symplectic import make_projection_from_unitary
        from equiflow.winding import fredholm_det_path, winding_number

        path, h = commuting_hermitian_path(4, 3, rng_for(470))
        f, a = commuting_unitary_path(3, 3, rng_for(4))
        T, S, b = lagrangian_loop_pair(2, 3, rng_for(7))
        rng = rng_for(7701)
        u, _, blocks, R = zn_action(3, 3, rng)

        def commuting(draw):
            M = np.zeros((3, 3), dtype=complex)
            for idx in blocks:
                M[np.ix_(idx, idx)] = draw(len(idx))
            return R @ M @ R.conj().T

        model = IntervalDiracModel(1.3, commuting(lambda k: rand_hermitian(k, rng, 0.8)), u)
        P, Q = (make_projection_from_unitary(commuting(lambda k: rand_unitary(k, rng)))
                for _ in range(2))

        def values():
            return [spectral_flow(path, h).value, crossing_oracle(path, h).value,
                    getzler_spectral_flow(path, h), winding_number(f, a),
                    fredholm_det_path(f, a),
                    maslov_index(LagrangianPath(2, T), LagrangianPath(2, S), b, mode="grid"),
                    interval_eta(model, P, 1), *sw_identity_check(model, P, Q, 1),
                    *eta_log_defect(path(0.0), path(1.0), h)]

        spectra._split_of.cache_clear()
        kept = [values(), values()]
        assert spectra._split_of.cache_info().hits
        monkeypatch.setattr(spectra, "_split_of", spectra._split_of.__wrapped__)
        assert kept[0] == kept[1] == values()


class TestHermitianPart:
    def test_part_of_a_matrix(self):
        M = np.array([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
        assert np.allclose(hermitian_part(M), (M + M.conj().T) / 2, atol=0)

    def test_checks_every_sample(self):
        M = np.stack([np.eye(2), np.diag([1.0, 2.0])]).astype(complex)
        assert hermitian_part(M).shape == (2, 2, 2)
        M[1, 0, 1] = 1e-3
        with pytest.raises(NotHermitian):
            hermitian_part(M)

    def test_bound_scales_with_the_sample(self):
        # eig_tol * max(||M||_F / sqrt(n), 1): the same skew part passes on a
        # large sample and fails on a small one
        skew = np.array([[0.0, 5e-11], [-5e-11, 0.0]])
        hermitian_part(1e3 * np.eye(2) + skew)
        with pytest.raises(NotHermitian):
            hermitian_part(np.eye(2) + skew)

    def test_not_square(self):
        with pytest.raises(ValueError):
            hermitian_part(np.zeros((2, 3)))


def _blocks(sizes, K, seed):
    """Hermitian blocks of the given sizes, matrices (K = None) or (K, k, k)
    stacks, each with a skew part well inside the tolerance of
    `hermitian_part`, so that taking the Hermitian part changes bits."""
    rng = np.random.default_rng(seed)
    lead = () if K is None else (K,)
    out = []
    for k in sizes:
        A = rng.normal(size=lead + (k, k)) + 1j * rng.normal(size=lead + (k, k))
        out.append(A + np.swapaxes(A.conj(), -1, -2) + 1e-14 * A)
    return out


_SIZES = [2, 1, 3, 2, 1, 4, 3, 2]


class TestBlockEigendata:
    """The blocks of one size are solved together, each bit for bit as by
    its own call."""

    @pytest.mark.parametrize("K", [None, 1, 7])
    def test_grouped_solves_equal_per_block_solves(self, K):
        blocks = _blocks(_SIZES, K, 11)
        pairs = spectra._block_eigh(blocks, DEFAULT)
        values = spectra._block_eigvalsh(blocks, DEFAULT)
        assert len(pairs) == len(values) == len(blocks)
        for B, (lam, U), lam_only in zip(blocks, pairs, values):
            ref_lam, ref_U = np.linalg.eigh(hermitian_part(B))
            assert lam.shape == ref_lam.shape and U.shape == ref_U.shape
            assert lam.tobytes() == ref_lam.tobytes() and U.tobytes() == ref_U.tobytes()
            ref_only = np.linalg.eigvalsh(hermitian_part(B))
            assert lam_only.shape == ref_only.shape
            assert lam_only.tobytes() == ref_only.tobytes()

    @pytest.mark.parametrize("K", [None, 5])
    def test_non_hermitian_block_inside_a_group(self, K):
        for solve in (spectra._block_eigh, spectra._block_eigvalsh):
            blocks = _blocks(_SIZES, K, 12)
            bad = blocks[3] if K is None else blocks[3][2]  # the second 2x2 block
            bad[0, 1] += 1e-3
            with pytest.raises(NotHermitian):
                solve(blocks, DEFAULT)

    def test_one_solve_per_block_size(self, monkeypatch):
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(spectra, "hermitian_part",
                            counted("hermitian_part", spectra.hermitian_part))
        blocks = _blocks(_SIZES, 6, 13)
        spectra._block_eigh(blocks, DEFAULT)
        # sizes 1, 2, 3, 4: a Hermitian part each, a solve each but the 1x1
        assert sorted(calls) == ["eigh"] * 3 + ["hermitian_part"] * 4
        calls.clear()
        spectra._block_eigvalsh(blocks, DEFAULT)
        assert sorted(calls) == ["eigvalsh"] * 3 + ["hermitian_part"] * 4

    def test_cut_without_actor_is_the_samples(self):
        F = _blocks([3], 4, 14)[0]
        chars, blocks = spectra._isotypic_cut(F, None, DEFAULT)
        assert np.array_equal(chars, [1.0]) and len(blocks) == 1
        assert blocks[0].tobytes() == F.tobytes()


class TestPrincipalLog:
    def test_identity(self):
        assert opnorm(principal_log_unitary(np.eye(3))) < 1e-14

    def test_scalar(self):
        L = principal_log_unitary(np.array([[np.exp(1j * np.pi / 2)]]))
        assert np.isclose(L[0, 0], 1j * np.pi / 2)

    def test_reconstruction_100(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = rng.integers(1, 5)
            S = rand_hermitian(n, rng)
            nrm = opnorm(S)
            if nrm > 0:
                S = S / nrm * 2.9  # spectral gap at -1
            U = scipy.linalg.expm(1j * S)
            L = principal_log_unitary(U)
            assert opnorm(scipy.linalg.expm(L) - U) < 1e-10

    def test_log_exp_identity_on_skew(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            S = rand_hermitian(4, rng)
            S = S / max(opnorm(S), 1e-9) * (np.pi - 0.1)
            L = principal_log_unitary(scipy.linalg.expm(1j * S))
            assert opnorm(L - 1j * S) < 1e-10

    def test_branch_cut(self):
        with pytest.raises(BranchCut):
            principal_log_unitary(np.diag([-1.0 + 0j, 1.0 + 0j]))


class TestIntegrate:
    def test_constant(self):
        assert np.isclose(integrate(lambda t: 1.0, 0.0, 1.0), 1.0)

    def test_closed_loop(self):
        v = integrate(lambda t: np.exp(2j * np.pi * t) * 2j * np.pi, 0.0, 1.0)
        assert abs(v) < 1e-12

    def test_antiderivative(self):
        assert abs(integrate(lambda t: t ** 2, 0.0, 1.0) - 1.0 / 3.0) < 1e-10

    def test_no_convergence(self, monkeypatch):
        # the error names the leftmost panel still failing at the depth cap
        monkeypatch.setattr(spectra, "_QUAD_DEPTH", 3)
        with pytest.raises(NoConvergence, match=r"on \[0\.0, 0\.125\]"):
            integrate(lambda t: np.sign(np.sin(1.0 / (t + 1e-9))), 0.0, 1.0)
        with pytest.raises(NoConvergence, match=r"on \[0\.625, 0\.75\]"):
            integrate(lambda t: np.sign(np.sin(1.0 / (1 + 1e-9 - t))), 0.0, 1.0)

    def test_no_convergence_cost_is_bounded(self):
        # failing on every panel at depth _QUAD_DEPTH: each call holds both
        # halves of at most _ROUND_MAX panels, one call per depth
        calls = []

        def f(ts):
            calls.append(ts.size)
            return np.sign(np.sin(1e6 * ts))

        with pytest.raises(NoConvergence, match=r"on \[2\.86102294921875e-06, 3\.81469"):
            integrate(f, 0.0, 1.0)
        assert max(calls) == 15 * 2 * spectra._ROUND_MAX
        assert sum(calls) <= 15 * (1 + 2 * spectra._ROUND_MAX * 20)

    def test_one_call_per_panel(self):
        calls = []

        def f(ts):
            calls.append(ts.shape)
            return np.cos(ts)

        assert abs(integrate(f, 0.0, 1.0) - np.sin(1.0)) < 1e-14
        # the whole interval, its halves and its quarters in one call; the
        # whole interval passes its test against its halves, so no round calls
        assert calls == [(105,)]

    def test_one_call_per_level(self):
        # a narrow peak bisects several levels; the first call holds the top
        # three levels (widths 1, 1/2, 1/4), and call k >= 1 holds both halves
        # of every panel pending at level k + 1, each of width 2^-(k + 2)
        calls = []

        def f(ts):
            calls.append(ts.copy())
            return 1.0 / (1e-4 + (ts - 0.3) ** 2)

        v = integrate(f, 0.0, 1.0)
        exact = 100.0 * (np.arctan(0.7 / 1e-2) + np.arctan(0.3 / 1e-2))
        assert abs(v - exact) <= 1e-9 * exact
        assert len(calls) > 2 and calls[0].shape == (105,)
        x = np.polynomial.legendre.leggauss(15)[0]
        for k, ts in enumerate(calls):
            panels = ts.reshape(-1, 15)
            widths = (panels[:, -1] - panels[:, 0]) / (x[-1] - x[0]) * 2
            if k == 0:
                assert np.allclose(widths, [1.0] + [0.5] * 2 + [0.25] * 4)
                levels = (panels[:1], panels[1:3], panels[3:])
            else:
                assert np.allclose(widths, 2.0 ** -(k + 2)) and len(panels) % 2 == 0
                levels = (panels,)
            for level in levels:
                assert np.all(np.diff(level[:, 0]) > 0)  # panels in ascending order

    @staticmethod
    def _reference_integrate(f, a, b, policy=DEFAULT, max_depth=20):
        """The level-by-level quadrature: the whole interval in the first call,
        then per round both halves of the leftmost `_ROUND_MAX` pending panels."""
        x, w, _ = spectra._gl_nodes()

        def panels(lo, hi):
            half = (hi - lo) / 2.0
            ts = (((hi + lo) / 2.0)[:, None] + half[:, None] * x).ravel()
            vals = np.broadcast_to(np.asarray(f(ts), dtype=complex), ts.shape).reshape(-1, x.size)
            return [hf * np.dot(w, v) for hf, v in zip(half, vals)], vals

        span = b - a
        if span == 0:
            return 0.0 + 0.0j
        (whole,), vals = panels(np.array([a]), np.array([b]))
        scale = max(span / 2.0 * float(np.dot(w, np.abs(vals[0]))), 1e-300)
        pending, sums = [(1, a, b, whole)], {}
        while pending:
            batch, rest = pending[:spectra._ROUND_MAX], pending[spectra._ROUND_MAX:]
            edges = np.array([(lo, (lo + hi) / 2.0, hi) for _, lo, hi, _ in batch])
            parts, _ = panels(edges[:, :2].ravel(), edges[:, 1:].ravel())
            halved, pairs = [], zip(parts[::2], parts[1::2])
            for (k, *_, approx), (lo, mid, hi), (left, right) in zip(batch, edges, pairs):
                err = abs(approx - left - right)
                if err <= policy.quad_rel_tol * scale * (hi - lo) / span or err == 0.0:
                    sums[k] = left + right
                elif k.bit_length() > max_depth:
                    raise NoConvergence(f"quadrature stalled on [{lo}, {hi}] with error {err:.2e}")
                else:
                    halved += [(2 * k, lo, mid, left), (2 * k + 1, mid, hi, right)]
            pending = halved + rest

        def total(k):
            return sums[k] if k in sums else total(2 * k) + total(2 * k + 1)

        return complex(total(1))

    @pytest.mark.parametrize("f, a, b", [
        (lambda t: 1.0, 0.0, 1.0),
        (lambda t: np.exp(2j * np.pi * t) * 2j * np.pi, 0.0, 1.0),
        (lambda t: t ** 2, 0.0, 1.0),
        (np.cos, 0.0, 1.0),
        (lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2), 0.0, 1.0),
        (lambda t: 1.0 / (1e-8 + (t - 0.71) ** 2), -0.5, 2.0),
        (lambda t: np.exp(-t) * np.sin(40.0 * t), 1e-12, 7.3),
        (lambda t: 1.0 / (1e-6 + (t - 0.2) ** 2), 0.1, 0.35),
    ], ids=["constant", "closed_loop", "square", "cos", "peak", "narrow_peak", "oscillation",
            "off_grid_peak"])
    def test_equals_level_by_level_quadrature(self, f, a, b):
        # equal values from the same nodes: the first call holds the nodes of
        # the reference's first three calls (or two, when it stops at halves),
        # and every later call is one of the reference's
        new, ref = [], []
        assert integrate(lambda ts: new.append(ts) or f(ts), a, b) == \
            self._reference_integrate(lambda ts: ref.append(ts) or f(ts), a, b)
        top = np.concatenate(ref[:3])
        assert np.array_equal(new[0][:top.size], top)
        assert len(new) == max(len(ref) - 2, 1)
        assert all(np.array_equal(n, r) for n, r in zip(new[1:], ref[3:]))

    def test_equals_level_by_level_on_trace_forms(self, monkeypatch):
        # the Getzler and trace-log winding integrands of seeded paths, each
        # integrated both ways on the same integrand
        from equiflow import eta_zeta, winding
        from equiflow.harness.generators import commuting_unitary_path

        pairs = []

        def both(f, a, b, policy=DEFAULT):
            pairs.append((integrate(f, a, b, policy), self._reference_integrate(f, a, b, policy)))
            return pairs[-1][0]

        for module in (eta_zeta, winding):
            monkeypatch.setattr(module, "integrate", both)
        for i in range(4):
            path, h = commuting_hermitian_path(3 + i % 3, 2 + i % 3, rng_for(470 + i))
            eta_zeta.getzler_spectral_flow(path, h)
            f, a = commuting_unitary_path(2 + i % 3, 3, rng_for(480 + i))
            winding.winding_from_logs(f, a)
        assert len(pairs) == 8
        assert all(new == old for new, old in pairs)


class TestPathPanel:
    ts = 0.3 + 0.2 * np.polynomial.legendre.leggauss(15)[0]

    def test_constant_path_exact_zero(self):
        M = rand_hermitian(3, np.random.default_rng(9), 2.0)
        F, dF = path_panel(lambda t: M, self.ts)
        assert F.shape == dF.shape == (15, 3, 3)
        assert np.all(dF == 0.0)

    def test_exact_for_degree_14(self):
        A = rand_hermitian(2, np.random.default_rng(10), 1.0)
        F, dF = path_panel(lambda t: (t - 0.2) ** 14 * A + t * np.eye(2), self.ts)
        expect = 14 * (self.ts - 0.2)[:, None, None] ** 13 * A + np.eye(2)
        assert np.max(np.abs(dF - expect)) <= 1e-12

    def test_panels_of_one_stack(self):
        path = lambda t: np.array([[np.sin(3 * t), t ** 2], [t ** 2, np.exp(t)]], dtype=complex)
        x = np.polynomial.legendre.leggauss(15)[0]
        a, b = 0.3 + 0.2 * x, 0.6 + 0.05 * x
        F, dF = path_panel(path, np.concatenate([a, b]))
        (Fa, dFa), (Fb, dFb) = path_panel(path, a), path_panel(path, b)
        assert np.array_equal(F, np.concatenate([Fa, Fb]))
        assert np.array_equal(dF, np.concatenate([dFa, dFb]))


class TestTrackBranches:
    def test_diag_crossing(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GRID", 9)
        path = lambda t: np.diag([2 * t - 1, 1.0]).astype(complex)
        _, (bs,) = track_blocks(path, None, "hermitian", None)
        assert np.allclose(bs.values[:, 1], 1.0)
        assert np.allclose(bs.values[:, 0], 2 * bs.times - 1)

    def test_isospectral_rotation(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GRID", 9)

        def path(t):
            c, s = np.cos(t), np.sin(t)
            R = np.array([[c, -s], [s, c]])
            return R @ np.diag([1.0, -1.0]) @ R.T
        _, (bs,) = track_blocks(path, None, "hermitian", None)
        assert np.allclose(np.sort(bs.values, axis=1), [[-1.0, 1.0]] * len(bs.times))

    def test_avoided_crossing_gap(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GRID", 17)
        delta = 1e-3
        path = lambda t: np.array([[t - 0.5, delta], [delta, 0.5 - t]], dtype=complex)
        _, (bs,) = track_blocks(path, None, "hermitian", None)
        lo, hi = bs.values[:, 0], bs.values[:, 1]
        expect_hi = np.sqrt((bs.times - 0.5) ** 2 + delta ** 2)
        assert np.allclose(hi, expect_hi, atol=1e-10)
        assert np.min(hi - lo) >= 2 * delta - 1e-12

    def test_bisection_times_fixture(self, monkeypatch):
        # three levels avoiding each other at t = 0.5: the links next to it
        # bisect down to 1/2048; the times were recorded with the one-link-
        # at-a-time tracker, and bisecting a level's links together keeps them
        g = 3e-4
        path = lambda t: np.array([[t - 0.5, g, g], [g, 0.0, g], [g, g, 0.5 - t]], dtype=complex)
        monkeypatch.setattr(spectra, "_GRID", 17)
        _, (bs,) = track_blocks(path, None, "hermitian", None)
        recorded = [0, 128, 256, 384, 512, 640, 768, 896, 960, 992, 1008, 1016, 1020, 1024,
                    1028, 1032, 1040, 1056, 1088, 1152, 1280, 1408, 1536, 1664, 1792, 1920, 2048]
        assert bs.times.tolist() == [k / 2048 for k in recorded]

    @staticmethod
    def _matched_links(monkeypatch, diagonal, actor):
        """(calls of `_match` as (vals1, vals2) bytes, BranchSets) of a diagonal path."""
        calls = []

        def counted(vals1, vecs1, vals2, *rest):
            calls.append((vals1.tobytes(), vals2.tobytes()))
            return match(vals1, vecs1, vals2, *rest)

        monkeypatch.setattr(spectra, "_match", counted)
        monkeypatch.setattr(spectra, "_GRID", 9)
        path = lambda t: np.diag([f(t) for f in diagonal]).astype(complex)
        chars, sets = track_blocks(path, np.diag(actor), "hermitian", NotEquivariant)
        # diagonal paths certify every link of the grid without bisection
        assert len(chars) == 2 and all(len(bs.times) == 9 for bs in sets)
        return calls

    def test_one_match_per_block_and_link(self, monkeypatch):
        # at most one `_match` per block and link; unclustered diagonal
        # branches match by the identity without one
        calls = self._matched_links(monkeypatch, [lambda t: 2 * t - 1, lambda t: 2.0,
                                                  lambda t: -t], [1j, 1j, -1.0])
        assert len(calls) == len(set(calls)) == 0

    def test_clustered_links_reach_match(self, monkeypatch):
        # the doubled eigenvalue 2 is a cluster: each link of its block goes
        # through `_match` once, the unclustered block never
        calls = self._matched_links(monkeypatch, [lambda t: 2 * t - 1, lambda t: 2.0,
                                                  lambda t: 2.0, lambda t: -t],
                                    [1j, 1j, 1j, -1.0])
        assert len(calls) == len(set(calls)) == 8

    def test_simple_spectrum_reproduction(self, monkeypatch):
        monkeypatch.setattr(spectra, "_GRID", 11)
        rng = np.random.default_rng(9)
        A, B = rand_hermitian(4, rng), rand_hermitian(4, rng, 0.5)
        path = lambda t: A + t * B
        _, (bs,) = track_blocks(path, None, "hermitian", None)
        for k, t in enumerate(bs.times):
            assert np.allclose(np.sort(bs.values[k]), np.linalg.eigvalsh(path(t)),
                               atol=1e-9)


def _link_corpus(seed):
    """Hermitian paths A + t B + t^2 C (dims 1-6) whose spectra have near-degenerate
    pairs (gap 1e-3 down to 0, inside the cluster gap of `_match`), and diagonal
    paths whose branches cross, lightly coupled."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    gap = (1e-3, 1e-7, 1e-9, 0.0)[seed % 4]
    if seed % 3 == 2:
        slopes = rng.normal(size=n)
        A = np.diag(rng.normal(size=n)).astype(complex)
        B, C = np.diag(slopes).astype(complex), rand_hermitian(n, rng, 1e-6)
    else:
        lam = np.sort(rng.normal(size=n))
        lam[n // 2:] += gap if n > 1 else 0.0
        lam[n // 2] = lam[n // 2 - 1] + gap if n > 1 else lam[0]
        Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        A = Q @ np.diag(lam) @ Q.conj().T
        B, C = rand_hermitian(n, rng, 0.3), rand_hermitian(n, rng, 0.3)
    return lambda t: A + t * B + t * t * C


@pytest.mark.parametrize("seed", range(36))
def test_identity_links_agree_with_match(seed):
    # a link the array pass certifies takes the permutation `_match` gives
    path = _link_corpus(seed)
    ts = np.concatenate([np.linspace(0, 1, 17), np.linspace(0.5, 0.5 + 1e-4, 9)])
    # links between neighbouring times, and of lengths 0.1 and 1e-6
    t1, t2 = np.tile(ts[:-1], 3), np.concatenate([ts[1:], ts[:-1] + 0.1, ts[:-1] + 1e-6])
    (vals1, vecs1), = spectra._block_eigh([np.stack([path(t) for t in t1])], DEFAULT)
    (vals2, vecs2), = spectra._block_eigh([np.stack([path(t) for t in t2])], DEFAULT)
    plain = spectra._identity_links(vals1, vecs1, vecs2, DEFAULT)
    for k in np.flatnonzero(plain):
        perm = match(vals1[k], vecs1[k], vals2[k], vecs2[k], DEFAULT, "hermitian")
        assert perm is not None and perm.tolist() == list(range(vals1.shape[1]))


@pytest.mark.parametrize("seed", range(0, 36, 5))
def test_screened_track_equals_matched_track(monkeypatch, seed):
    # the same branches and times when every link goes through `_match`
    path = _link_corpus(seed)
    monkeypatch.setattr(spectra, "_GRID", 17)
    _, (screened,) = track_blocks(path, None, "hermitian", None)
    monkeypatch.setattr(spectra, "_IDENTITY_MIN", np.inf)
    _, (matched,) = track_blocks(path, None, "hermitian", None)
    assert np.array_equal(screened.times, matched.times)
    assert np.array_equal(screened.values, matched.values)


def _scipy_assign(C):
    """The columns `scipy.optimize.linear_sum_assignment` assigns to the rows of C."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(C)[1]


def _assignment_corpus(seed):
    """Square cost matrices, k = 1..13: -|U| of random and of near-identity
    unitaries (columns permuted), the same rounded to one digit and plain
    rounded entries (many ties), small integers, negated permutation
    matrices with a zero row, and constant matrices."""
    rng = np.random.default_rng(seed)
    for k in range(1, 14):
        U = scipy.linalg.expm(1j * rand_hermitian(k, rng))
        near = scipy.linalg.expm(0.1j * rand_hermitian(k, rng))[:, rng.permutation(k)]
        P = -np.eye(k)[rng.permutation(k)]
        P[rng.integers(k)] = 0.0
        yield from (-np.abs(U), -np.abs(near), -np.abs(np.round(U, 1)),
                    np.round(rng.normal(size=(k, k)), 1),
                    rng.integers(0, 3, size=(k, k)).astype(float), P,
                    np.full((k, k), float(rng.choice([0.0, -1.0, 2.5]))))


@pytest.mark.parametrize("seed", range(20))
def test_assign_equals_scipy(seed):
    # the in-library solve assigns the columns scipy's does, ties included
    for C in _assignment_corpus(seed):
        assert spectra._assign(C).tolist() == _scipy_assign(C).tolist(), C


def _crossing_lists(monkeypatch, assign, cases):
    """The `crossing_oracle` crossings of each (path, h) with `_assign` replaced
    by assign, and the number of solves; each crossing's floats as hex."""
    solves = []

    def counted(C):
        solves.append(C.shape[0])
        return assign(C)

    monkeypatch.setattr(spectra, "_assign", counted)
    lists = [[(c.time.hex(), c.direction, c.dim, c.weight.real.hex(), c.weight.imag.hex())
              for c in crossing_oracle(path, h).crossings] for path, h in cases]
    return lists, len(solves)


def _oracle_cases():
    """(path, h) of the crossing-oracle cases of the seed 1-3 `hermitian` pools
    of perfbench/cases.py, and of the doubled-character Bott loop."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "cases.py")
    spec = importlib.util.spec_from_file_location("perfbench_cases", bench)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    pool = [(c.inputs["path"], c.inputs["h"]) for seed in (1, 2, 3)
            for c in cases.generate("hermitian", seed) if c.kind == "sf_oracle"]
    bl = bott_loop([complex(-0.5, 3 ** 0.5 / 2)] * 2, (2, 2))
    return pool + [(bl.hermitian_path, bl.h)]


def test_crossings_equal_scipy_solve(monkeypatch):
    # the crossing lists are bitwise those of the same tracking on scipy's
    # solve, and the pools reach the solve
    cases = _oracle_cases()
    ours, n = _crossing_lists(monkeypatch, spectra._assign, cases)
    theirs, m = _crossing_lists(monkeypatch, _scipy_assign, cases)
    assert ours == theirs and n == m > 0


class TestMatchOneEigenpair:
    # a block with one eigenpair: perm [0] without an assignment solve
    one = np.ones((1, 1), dtype=complex)

    def test_hermitian(self):
        perm = match(np.array([0.3]), self.one, np.array([-2.0]), 1j * self.one, DEFAULT,
                     "hermitian")
        assert perm.tolist() == [0] and perm.dtype == np.intp

    def test_unitary_step_above_step_max(self):
        step = spectra._STEP_MAX + 1e-3
        assert match(np.array([0.1]), self.one, np.array([0.1 + step]), self.one, DEFAULT,
                     "unitary") is None

    def test_unitary_step_across_the_cut(self):
        # pi - 0.1 -> -pi + 0.1 is a step of 0.2 once lifted
        perm = match(np.array([np.pi - 0.1]), self.one, np.array([-np.pi + 0.1]), self.one,
                     DEFAULT, "unitary")
        assert perm.tolist() == [0]

    @pytest.mark.parametrize("kind", ["hermitian", "unitary"])
    def test_overlap_below_minimum(self, kind):
        low, high = spectra._OVERLAP_MIN * (1 - 1e-6), spectra._OVERLAP_MIN * (1 + 1e-6)
        vals = np.array([0.5])
        assert match(vals, self.one, vals, low * self.one, DEFAULT, kind) is None
        assert match(vals, self.one, vals, high * self.one, DEFAULT, kind).tolist() == [0]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10 ** 6))
def test_hermitian_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    M = rand_hermitian(n, rng, 2.0)
    es = eig_hermitian(M)
    assert opnorm(es.vectors @ np.diag(es.values) @ es.vectors.conj().T - M) \
        <= 10 * 1e-12 * max(opnorm(M), 1e-6)
    assert opnorm(es.vectors.conj().T @ es.vectors - np.eye(n)) <= 1e-12 * 10
