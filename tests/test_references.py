"""The closed forms of the unitary kernel against the LAPACK and matmul forms
they replace: the stacked unitary eigendata of `_block_eig_unitary` against
the per-sample `eig_unitary` it replaced, 1x1 determinants, the identity
screen of unitary tracking links, the one-product loop stack of
`blockwise_unitary_path`, and the commutation test read from the isotypic
cut.  With every reference put back, the seed 1-3 `unitary` pools of
perfbench/cases.py give bitwise the same values."""

import importlib.util
import os
from math import pi

import numpy as np
import pytest
import scipy.linalg as sl
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import zgees

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
fix_phases = spectra._fix_phases


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


def reference_eig_unitary(U, policy):
    """(phases, vectors) of one unitary by `eig_unitary` as it stood before
    it read `_block_eig_unitary`: one `zgees`, phases snapped and sorted,
    vectors phase-fixed, and the residual read against the snapped phases."""
    n = U.shape[0]
    if not np.linalg.norm(U.conj().T @ U - np.eye(n)) <= max(policy.eig_tol, 1e-10):
        raise NotUnitary("matrix is not unitary within tolerance")
    T, _, _, Q, _, info = zgees(lambda x: None, U, compute_v=1, sort_t=0, overwrite_a=0)
    if info != 0:
        raise NotUnitary(f"Schur decomposition failed (zgees info {info})")
    lam = np.diag(T)
    phases = np.where(np.abs(lam + 1.0) <= policy.zero_tol, np.pi, np.angle(lam))
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vecs = fix_phases(Q[:, order])
    resid = np.linalg.norm(U @ vecs - vecs * np.exp(1j * phases))
    if resid > 1e3 * policy.eig_tol * max(np.linalg.norm(U) / np.sqrt(n), 1.0) * n:
        raise NotUnitary(f"eigen-residual {resid:.2e} too large; matrix not normal enough")
    return phases, vecs


def reference_block_eig_unitary(blocks, policy):
    """`_block_eig_unitary` by `reference_eig_unitary`, block by block and
    sample by sample: the eigendata unitary tracking took before."""
    out = []
    for B in blocks:
        systems = [reference_eig_unitary(X, policy) for X in B]
        out.append((np.array([p for p, _ in systems]), np.array([v for _, v in systems])))
    return out


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


RATIOS = (0.5, 0.9, 1.1, 2.0)
POLICIES = {"default": DEFAULT, "wide_snap": TolerancePolicy(zero_tol=1e-8),
            "tight": TolerancePolicy(eig_tol=1e-15)}


def near_thresholds(k, policy):
    """(group, ratio, sample) of k x k samples V T V* for the eigendata
    tests, V a random unitary, T upper triangular: "plain" unitaries with
    phases over the circle, near and at -1 and repeated; at each ratio of
    RATIOS, "unitarity" samples U S with ||S^2 - I||_F at that ratio of the
    unitarity bound, "snap" samples with an eigenvalue -exp(i d), |d| at
    that ratio of the residual bound (so the phase snaps to pi when d is
    within zero_tol), and (k >= 2) "normality" samples whose T has the
    entry e above its diagonal, at that ratio of the residual bound; and
    "non-finite" samples."""
    rng = np.random.default_rng(10 * k + 3)
    V = gen.rand_unitary(k, rng) if k > 1 else np.eye(1)
    unitarity, residual = max(policy.eig_tol, 1e-10), 1e3 * policy.eig_tol * k

    def of(phases, upper=0.0):
        T = np.diag(np.exp(1j * np.asarray(phases, dtype=float)))
        T[0, -1] += upper
        return V @ T @ V.conj().T

    def phases():
        return rng.uniform(-pi, pi, k)

    out = [("plain", 0.0, of(phases())) for _ in range(12)]
    for d in (0.0, 1e-12, -1e-12, 1e-6, -1e-6):
        out += [("plain", 0.0, of(np.r_[pi - d, pi - d, phases()][:k])),
                ("plain", 0.0, of(np.r_[phases()[:max(k - 2, 1)], pi - d, pi + d][-k:]))]
    for r in RATIOS:
        for sign in (1, -1) * 4:
            weights = np.sqrt(rng.dirichlet(np.ones(k)))  # a unit vector
            out.append(("unitarity", r, of(phases()) * np.sqrt(1 + r * sign * unitarity * weights)))
            d = r * sign * residual * rng.uniform(0.99, 1.01)
            out.append(("snap", r, of(np.r_[pi - d, phases()][:k])))
            if k > 1:
                out.append(("normality", r, of(phases(), r * residual * rng.uniform(0.99, 1.01))))
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0, np.inf)):
        X = of(phases())
        X[rng.integers(k), rng.integers(k)] = bad
        out.append(("non-finite", 0.0, X))
    return out


def outcome(eig, B, policy):
    """(phases, vectors) that `eig` gives for the stack B, the vectors
    phase-fixed (`_fix_phases`; `reference_eig_unitary`'s already are), or
    the message of its NotUnitary."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            (phases, vectors), = eig([B], policy)
    except NotUnitary as exc:
        return str(exc)
    if eig is not reference_block_eig_unitary:
        vectors = np.array([fix_phases(Q) for Q in vectors])
    return phases, vectors


def same(a, b):
    """The outcomes a and b are one message, or bitwise one eigendata."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestUnitaryEigendata:
    @pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_eigendata_is_the_references(self, k, policy):
        # sample by sample: the phases of the reference bitwise, its vectors
        # up to column phase, and its NotUnitary.  The one exception: the
        # reference read its residual against the phases, which also sees a
        # phase snapped to pi, or an eigenvalue off the circle within the
        # unitarity bound, so a sample failing it may pass; the residual
        # against the Schur eigenvalues sees non-normality alone
        samples = near_thresholds(k, policy)
        ours, lost = [], {}
        for group, r, X in samples:
            o = outcome(spectra._block_eig_unitary, X[None], policy)
            ref = outcome(reference_block_eig_unitary, X[None], policy)
            if isinstance(o, str) and o.startswith("eigen-residual"):
                assert isinstance(ref, str) and ref.startswith("eigen-residual"), (group, r)
            elif isinstance(ref, str) and ref.startswith("eigen-residual"):
                assert not isinstance(o, str), (group, r)
                lost[group] = lost.get(group, 0) + 1
            else:
                assert same(o, ref), (group, r)
                if not isinstance(ref, str):
                    es = spectra.eig_unitary(X, policy)
                    assert same((es.values, es.vectors), (ref[0][0], ref[1][0]))
            # the decisions at each ratio of the two bounds
            if group == "unitarity":
                assert (isinstance(o, str) and o.startswith("matrix")) == (r > 1), (group, r)
            if group == "normality" and policy is POLICIES["tight"]:
                assert isinstance(o, str) == (r > 1), (group, r)
            ours.append(o)
        failed = {o.split()[0] for o in ours if isinstance(o, str)}
        assert failed == ({"matrix", "eigen-residual"} if policy is POLICIES["tight"] and k > 1
                          else {"matrix"})
        assert not lost if policy is DEFAULT else "snap" in lost and "normality" not in lost
        # whole stacks: each sample's eigendata, or the first failing sample's error
        B = np.stack([X for *_, X in samples])
        passing = B[[not isinstance(o, str) for o in ours]]
        orders = [np.arange(len(passing))] + [
            np.random.default_rng(seed).permutation(len(B))[:20 + 5 * seed] for seed in range(12)]
        for j, order in enumerate(orders):
            stack, each = (passing, None) if j == 0 else (B[order], [ours[i] for i in order])
            if each is None:
                each = [outcome(spectra._block_eig_unitary, X[None], policy) for X in stack]
            first = next((o for o in each if isinstance(o, str)), None)
            expected = first if first is not None else tuple(
                np.concatenate(part) for part in zip(*each))
            assert same(outcome(spectra._block_eig_unitary, stack, policy), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(
        st.integers(0, 2**32 - 1),
        st.lists(st.lists(st.sampled_from([pi, -pi + 1e-12, pi - 1e-12, pi - 1e-3, 0.0, 1.0,
                                           -2.0, 2.5]), min_size=k, max_size=k),
                 min_size=1, max_size=5))))
    def test_stacks_with_repeated_phases_and_minus_one(self, case):
        seed, rows = case
        V = gen.rand_unitary(len(rows[0]), gen.rng_for(seed))
        B = np.stack([V @ np.diag(np.exp(1j * np.array(p))) @ V.conj().T for p in rows])
        ref = [outcome(reference_block_eig_unitary, X[None], DEFAULT) for X in B]
        assert not any(isinstance(o, str) for o in ref)
        assert same(outcome(spectra._block_eig_unitary, B, DEFAULT),
                    tuple(np.concatenate(part) for part in zip(*ref)))


class TestOneByOne:
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
    # are bitwise those of the LAPACK, matmul, per-sample eigensolve and
    # per-link `_match` forms, and the pools reach every closed form
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
    monkeypatch.setattr(spectra, "_block_eig_unitary", counted(
        "eig", reference_block_eig_unitary, lambda blocks, policy: True))
    # the reference's vectors are phase-fixed already: `eig_unitary` returns them
    monkeypatch.setattr(spectra, "_fix_phases", counted(
        "fix", lambda V: V, lambda V: True))
    monkeypatch.setattr(spectra, "_identity_links", counted(
        "links", no_identity_links, lambda *args: args[5] == "unitary"))
    monkeypatch.setattr(winding, "_block_det", counted("det", np.linalg.det, one_by_one))
    theirs = _pool_values(cases)
    assert ours == theirs
    assert {"loop", "commutation", "eig", "fix", "links", "det"} <= set(reached)


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
