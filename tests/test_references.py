"""The closed forms of the unitary kernel against the LAPACK and matmul forms
they replace: 1x1 determinants and eigendata, the identity screen of
unitary tracking links, the one-product loop stack of
`blockwise_unitary_path`, and the commutation test read from the isotypic
cut.  With every reference put back, the seed 1-3 `unitary` pools of
perfbench/cases.py give bitwise the same values."""

import importlib.util
import os
from math import pi

import numpy as np
import pytest
import scipy.linalg as sl

from equiflow import spectra, winding
from equiflow.errors import NotCommuting, NotUnitary
from equiflow.harness import generators as gen
from equiflow.specflow import _from_stack
from equiflow.spectra import EigenSystem, opnorm
from equiflow.tolerances import DEFAULT, TolerancePolicy

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


def per_sample_eig_unitary(B, policy):
    """Eigendata of a stack of unitary blocks from `eig_unitary`, sample by sample."""
    systems = [spectra.eig_unitary(X, policy) for X in B]
    return np.array([es.values for es in systems]), np.array([es.vectors for es in systems])


def no_identity_links(vals1, vals2, vecs1, vecs2, policy, kind):
    """No link screened: `_match` decides each."""
    return np.zeros(len(vals1), dtype=bool)


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


def near_thresholds(policy):
    """1x1 blocks for `eig_unitary`'s tests: those of `unitary_blocks`; at each
    ratio of RATIOS, blocks with |b|^2 - 1 at that ratio of the unitarity
    bound and blocks -exp(i d) whose residual |b + 1|, once the phase snaps
    to pi (d within zero_tol), is at that ratio of the residual bound; and
    non-finite blocks."""
    rng = np.random.default_rng(3)
    z = unitary_blocks(100)[:, 0, 0]
    out = [z]
    for r in RATIOS:
        sign = rng.choice([-1, 1], len(z))
        out.append(z * np.sqrt(1 + r * sign * max(policy.eig_tol, 1e-10)))
        out.append(-np.exp(1j * r * sign * 1e3 * policy.eig_tol * rng.uniform(0.99, 1.01, len(z))))
    out.append([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0, np.inf)])
    return np.concatenate(out)[:, None, None]


def eigendata(eig, B, policy):
    """The bytes of the phases and vectors `eig` gives for the stack B, or
    the message of its NotUnitary."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            phases, vectors = eig(B, policy)
    except NotUnitary as exc:
        return str(exc)
    return phases.tobytes() + vectors.tobytes()


class TestOneByOne:
    @pytest.mark.parametrize("policy", [DEFAULT, TolerancePolicy(zero_tol=1e-8)],
                             ids=["default", "wide_snap"])
    def test_eigendata_is_eig_unitarys(self, policy):
        # bitwise the eigendata of `eig_unitary`, and its NotUnitary where it
        # raises one, sample by sample and for whole stacks (the first
        # failing sample's)
        B = near_thresholds(policy)
        ours = [eigendata(spectra._eig_unitary_1x1, X[None], policy) for X in B]
        assert ours == [eigendata(per_sample_eig_unitary, X[None], policy) for X in B]
        failed = {o.split()[0] for o in ours if isinstance(o, str)}
        # residual failures need a phase snapped from beyond the residual bound
        assert failed == ({"matrix", "eigen-residual"} if policy.zero_tol > 2e-9 else {"matrix"})
        assert sum(isinstance(o, str) for o in ours) < len(B) / 2
        passing = B[[not isinstance(o, str) for o in ours]]
        shuffled = [B[np.random.default_rng(seed).permutation(len(B))[:40 + 10 * seed]]
                    for seed in range(20)]
        for X in [passing] + shuffled:
            assert (eigendata(spectra._eig_unitary_1x1, X, policy)
                    == eigendata(per_sample_eig_unitary, X, policy))

    def test_det_is_lapacks(self):
        B = unitary_blocks(5000)
        ours, ref = winding._block_det(B), np.linalg.det(B)
        assert ours.shape == ref.shape
        assert np.all(np.abs(ours - ref) <= 2 * EPS * np.abs(ref))

    def test_larger_blocks_take_lapack(self):
        B = np.stack([gen.rand_unitary(3, gen.rng_for(k)) for k in range(4)])
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


# the benchmark's cases still pass maslov_index the ignored grid=256
@pytest.mark.filterwarnings("ignore:maslov_index. grid is ignored:DeprecationWarning")
def test_unitary_pool_values_equal_the_references(monkeypatch):
    # the Maslov (both modes), triple, winding, trace-log and Fredholm values
    # are bitwise those of the LAPACK, matmul and per-link `_match` forms,
    # and the pools reach every closed form
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
    monkeypatch.setattr(spectra, "_eig_unitary_1x1", counted("eig", per_sample_eig_unitary,
                                                             lambda B, policy: True))
    monkeypatch.setattr(spectra, "_identity_links", counted(
        "links", no_identity_links, lambda *args: args[5] == "unitary"))
    monkeypatch.setattr(winding, "_block_det", counted("det", np.linalg.det, one_by_one))
    theirs = _pool_values(cases)
    assert ours == theirs
    assert {"loop", "commutation", "eig", "links", "det"} <= set(reached)


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
