"""The closed forms of the unitary kernel against the LAPACK and matmul forms
they replace: 1x1 singular values and determinants, the one-product loop
stack of `blockwise_unitary_path`, the array pass that opens grid-mode
Maslov windows, and the commutation test read from the isotypic cut.  With
every reference put back, the seed 1-3 `unitary` pools of perfbench/cases.py
give bitwise the same values."""

import importlib.util
import os
from math import pi

import numpy as np
import pytest
import scipy.linalg as sl
from hypothesis import example, given, settings, strategies as st

from equiflow import maslov, spectra, winding
from equiflow.errors import NotCommuting
from equiflow.harness import generators as gen
from equiflow.specflow import _from_stack
from equiflow.spectra import EigenSystem, opnorm
from equiflow.tolerances import DEFAULT

EPS = np.finfo(float).eps
TS = np.concatenate([[0.0, 1.0], np.random.default_rng(31).uniform(0.0, 1.0, 60)])
# the library's own forms, held before a test monkeypatches the references in
blockwise_unitary_path = gen.blockwise_unitary_path


def two_matmul_path(Q, blocks, factors):
    """`blockwise_unitary_path`, but a loop's stack is the two matmuls
    A @ (D1 W D2) @ B instead of one product with the rank-one terms."""
    if any(h1 is not None for *_, h1 in factors):
        return blockwise_unitary_path(Q, blocks, factors)
    dim = Q.shape[1]
    E0, k, H2, _ = zip(*factors)
    order = np.argsort(np.concatenate(blocks))
    A = Q @ gen._block_embed(blocks, dim, E0)
    k = np.concatenate(k)[order]
    lam, W = zip(*map(np.linalg.eigh, H2))
    lam, W = np.concatenate(lam)[order], gen._block_embed(blocks, dim, W)
    B = (Q @ W).conj().T

    def stack(ts):
        DW = np.exp(2j * pi * np.outer(ts, k))[:, :, None] * W
        return A @ (DW * np.exp(1j * np.outer(np.sin(pi * ts), lam))[:, None, :]) @ B

    return _from_stack(stack)


def svd_singular_values(B):
    return np.linalg.svd(np.eye(B.shape[-1]) + B, compute_uv=False)


def scan_loop_brackets(sig):
    """The windows' scan indices as the scan loop opened them."""
    grid = len(sig)
    return np.array([[max(k - 1, 0), k, min(k + 1, grid - 1)] for k in range(grid)
                     if sig[k] < 0.2 and (k == 0 or sig[k] <= sig[k - 1])
                     and (k == grid - 1 or sig[k] <= sig[k + 1])], dtype=np.intp).reshape(-1, 3)


def matmul_commutator(h, M, policy):
    """Per sample: ||h M - M h||_F over the threshold of `check_commuting`."""
    h, M = np.asarray(h, dtype=complex), M.reshape((-1,) + M.shape[-2:])
    excess = np.linalg.norm(h @ M - M @ h, axis=(1, 2))
    scale = np.maximum(np.linalg.norm(M, axis=(1, 2)) / np.sqrt(M.shape[-1]), 1.0)
    return excess / (10 * max(policy.commute_tol, 1e-9) * scale)


rotated = spectra._rotated  # see blockwise_unitary_path above


def matmul_rotated(M, a, policy, ts=None, error=None):
    """`spectra._rotated` with the commutation test in the matmul form."""
    if error is not None and not (matmul_commutator(a, M, policy) <= 1).all():
        raise error("commutator with the actor")
    return rotated(M, a, policy)


def unitary_blocks(n):
    """1x1 unitary blocks as the winding and Maslov passes read them: phases
    over the circle, near -1 on both sides, and off the circle by rounding."""
    rng = np.random.default_rng(n)
    near = np.pi - 10.0 ** -rng.uniform(1, 12, n) * rng.choice([-1, 1], n)
    phases = np.concatenate([rng.uniform(-pi, pi, n), near])
    z = np.exp(1j * phases) * (1 + 1e-15 * rng.normal(size=2 * n))
    return z[:, None, None]


class TestOneByOne:
    def test_singular_value_is_lapacks(self):
        B = unitary_blocks(5000)
        ours, ref = maslov._singular_values(B), svd_singular_values(B)
        assert ours.shape == ref.shape
        assert np.all(np.abs(ours - ref) <= 2 * EPS * ref)

    def test_det_is_lapacks(self):
        B = unitary_blocks(5000)
        ours, ref = winding._block_det(B), np.linalg.det(B)
        assert ours.shape == ref.shape
        assert np.all(np.abs(ours - ref) <= 2 * EPS * np.abs(ref))

    def test_larger_blocks_take_lapack(self):
        B = np.stack([gen.rand_unitary(3, gen.rng_for(k)) for k in range(4)])
        assert np.array_equal(maslov._singular_values(B), svd_singular_values(B))
        assert np.array_equal(winding._block_det(B), np.linalg.det(B))


def loop_factors(n, seed):
    rng = gen.rng_for(seed)
    _, _, blocks, R = gen.zn_action(n, 3, rng)
    factors = [(sl.expm(1j * gen.rand_hermitian(len(idx), rng, 0.9)),
                rng.integers(-2, 3, size=len(idx)).astype(float),
                gen.rand_hermitian(len(idx), rng, 0.6), None) for idx in blocks]
    return R, blocks, factors


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_loop_stack_equals_two_matmuls(n):
    for seed in range(4):
        args = loop_factors(n, 700 + 10 * n + seed)
        S, ref = gen.blockwise_unitary_path(*args).stack(TS), two_matmul_path(*args).stack(TS)
        assert S.shape == ref.shape == (len(TS), n, n)
        assert np.max(np.abs(S - ref)) <= 1e-13


levels = st.one_of(st.integers(0, 5).map(lambda k: 0.05 * k), st.floats(0.0, 0.3))


@settings(max_examples=300, deadline=None)
@given(st.lists(levels, min_size=1, max_size=40))
@example([0.1])
@example([0.3])
@example([0.1, 0.15, 0.1])  # minima at both ends
@example([0.1, 0.1, 0.1, 0.1])  # a plateau below 0.2
@example([0.25, 0.1, 0.1, 0.3, 0.05, 0.05])  # ties inside
def test_brackets_equal_the_scan_loop(sig):
    sig = np.array(sig)
    assert maslov._brackets(sig).tolist() == scan_loop_brackets(sig).tolist()


def _perfbench_cases():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "cases.py")
    spec = importlib.util.spec_from_file_location("perfbench_cases", bench)
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def _pool_values(cases):
    """Each case's exact values and failures, over the seed 1-3 `unitary` pools."""
    return [repr(sorted(out.values.items())) + repr(out.failures)
            for seed in (1, 2, 3) for out in map(cases.execute, cases.generate("unitary", seed))]


def test_unitary_pool_values_equal_the_references(monkeypatch):
    # the Maslov (both modes), triple, winding, trace-log and Fredholm values
    # are bitwise those of the LAPACK and matmul forms, and the pools reach
    # every closed form
    cases = _perfbench_cases()
    ours = _pool_values(cases)
    reached = []

    def counted(name, ref, test):
        def call(*args, **kwargs):
            reached.append(name if test(*args, **kwargs) else None)
            return ref(*args, **kwargs)

        return call

    def one_by_one(B):
        return B.shape[-1] == 1

    monkeypatch.setattr(gen, "blockwise_unitary_path", counted(
        "loop", two_matmul_path, lambda Q, blocks, factors: factors[0][3] is None))
    monkeypatch.setattr(spectra, "_rotated", counted(
        "commutation", matmul_rotated, lambda M, a, policy, ts=None, error=None: error))
    monkeypatch.setattr(maslov, "_singular_values", counted("sigma", svd_singular_values,
                                                            one_by_one))
    monkeypatch.setattr(maslov, "_brackets", counted("brackets", scan_loop_brackets,
                                                     lambda sig: True))
    monkeypatch.setattr(winding, "_block_det", counted("det", np.linalg.det, one_by_one))
    theirs = _pool_values(cases)
    assert ours == theirs
    assert {"loop", "commutation", "sigma", "brackets", "det"} <= set(reached)


def commutant_draws(seed, n):
    """An actor a with more than one block, a sample C commuting with it and
    a direction P whose commutator with a is 1 in Frobenius norm."""
    rng = gen.rng_for(seed)
    while True:
        a, _, blocks, R = gen.zn_action(n, 3, rng)
        C = np.zeros((n, n), dtype=complex)
        for idx in blocks:
            C[np.ix_(idx, idx)] = rng.normal(size=(len(idx),) * 2) * 2
        P = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        size = np.linalg.norm(a @ P - P @ a)
        if len(blocks) > 1:
            return a, R @ C @ R.conj().T, P / size


def at_ratio(a, C, P, ratio):
    """C + s P with ||[a, M]||_F at `ratio` times the threshold (to 1e-3)."""
    s = 0.0
    for _ in range(4):
        M = C + s * P
        limit = 10 * max(DEFAULT.commute_tol, 1e-9) * max(np.linalg.norm(M) / np.sqrt(len(M)), 1)
        s = ratio * limit
    return C + s * P


RATIOS = (0.5, 0.9, 1.1, 2.0)


def raises(M, a, ts=None):
    try:
        spectra.check_commuting(a, M, ts, NotCommuting)
    except NotCommuting as exc:
        return str(exc)
    return None


class TestCommutationTest:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_decisions_equal_the_matmul_form(self, n):
        for seed in range(10):
            a, C, P = commutant_draws(100 * n + seed, n)
            stack = np.stack([at_ratio(a, C, P, r) for r in RATIOS])
            ratio = matmul_commutator(a, stack, DEFAULT)
            assert np.allclose(ratio, RATIOS, rtol=1e-3)
            for M, r in zip(stack, ratio):
                assert (raises(M, a) is not None) == (r > 1)
            order = np.random.default_rng(seed).permutation(len(RATIOS))
            ts = np.linspace(0.1, 0.4, len(RATIOS))
            first = int(np.argmax(ratio[order] > 1))
            assert f"t={ts[first]:.6g}" in raises(stack[order], a, ts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan),
                                     complex(0, np.inf)])
    def test_non_finite_samples_fail_and_name_t(self, bad):
        a, C, _ = commutant_draws(5, 3)
        ts = np.linspace(0.0, 1.0, 6)
        for k in range(len(ts)):
            for entry in [(0, 0), (0, 2), (2, 1)]:
                stack = np.stack([C] * len(ts))
                stack[(k,) + entry] = bad
                assert f"t={ts[k]:.6g}" in raises(stack, a, ts)

    def test_samples_whose_norm_overflows_fail(self):
        # the matmul form passed any such sample, since its scale overflowed too
        a, C, P = commutant_draws(5, 3)
        for M in (C, C + P):
            assert raises(1e160 * M / np.linalg.norm(M), a) is not None

    @pytest.fixture
    def perturbed_split(self, monkeypatch):
        """Splits whose eigenbasis is off by exp(i delta G), G Hermitian of norm
        1: V* a V = Lambda + E with ||E||_F of order delta."""
        plain = spectra.eig_unitary

        def perturbed(delta):
            def eig(U, policy):
                es = plain(U, policy)
                G = gen.rand_hermitian(len(U), gen.rng_for(9))
                return EigenSystem(es.values, es.vectors @ sl.expm(1j * delta * G / opnorm(G)),
                                   es.clusters)

            spectra._split_of.cache_clear()
            monkeypatch.setattr(spectra, "eig_unitary", eig)

        yield perturbed
        spectra._split_of.cache_clear()

    @pytest.mark.parametrize("delta", [1e-13, 1e-10, 1e-8, 1e-5])
    def test_perturbed_split_raises_wherever_the_matmul_form_does(self, perturbed_split, delta):
        perturbed_split(delta)
        for seed in range(10):
            a, C, P = commutant_draws(900 + seed, 3)
            e = spectra._split(a, 3, DEFAULT)[4]
            assert delta / 10 < e < delta * 10
            for r in (0.0,) + RATIOS + (10.0,):
                M = at_ratio(a, C, P, r)
                if matmul_commutator(a, M, DEFAULT)[0] > 1:
                    assert raises(M, a) is not None
                if delta <= 1e-13:  # E too small to move a decision
                    assert (raises(M, a) is not None) == (r > 1)
