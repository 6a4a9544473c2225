"""Samplers and their batched form `stack(ts)`: the generators, the canonical
contraction flows and the combinators give stacks equal to their pointwise
samples, every consumer reads a stack through `spectra.sample_stack`, and a
sampler without one (or wrapped by functools.wraps) gives the same values."""

import functools
from math import pi

import numpy as np
import pytest
import scipy.linalg as sl

from equiflow import maslov, spectra, winding
from equiflow.harness import generators as gen
from equiflow.spectra import sample_stack
from equiflow.specflow import Path, _from_stack, adjoint, bott_loop, concatenate, product, reverse
from equiflow.winding import canonical_path

TS = np.random.default_rng(20).uniform(0.0, 1.0, 50)


def pointwise(f, ts):
    return np.stack([np.asarray(f(t), dtype=complex) for t in ts])


def assert_stack_matches(f, ts=TS):
    S = f.stack(ts)
    assert S.shape == (len(ts),) + np.asarray(f(0.5)).shape
    assert np.max(np.abs(S - pointwise(f, ts))) <= 1e-13


def generator_forms():
    loop, a = gen.commuting_unitary_path(3, 3, gen.rng_for(11), loop=True)
    open_path, _ = gen.commuting_unitary_path(4, 2, gen.rng_for(12), windings=2)
    herm, _ = gen.commuting_hermitian_path(4, 3, gen.rng_for(13))
    comm = Path(3, gen.commutant_loop(a, gen.rng_for(14)))
    return {"unitary_loop": loop, "unitary_open": open_path, "hermitian": herm,
            "commutant_loop": comm}


def skew_log(U):
    L = sl.logm(U)
    return (L - L.conj().T) / 2


def frozen_flow():
    """A canonical-contraction-type flow: ker(U + I) frozen at -I, the
    complement flowing by exp(t L1) exp(t L2)."""
    rng = gen.rng_for(15)
    R = gen.rand_unitary(3, rng)
    U = R @ np.diag([-1.0, np.exp(0.7j), np.exp(-2.1j)]) @ R.conj().T
    B0, B1 = winding._split_at_minus_one(U, winding.DEFAULT)
    L1, L2 = skew_log(B1.conj().T @ U @ B1), skew_log(gen.rand_unitary(2, rng))
    return winding._frozen_flow(B0, np.eye(1), B1, [L1, L2]), (B0, B1, L1, L2)


class TestStackMatchesPointwise:
    @pytest.mark.parametrize("name", ["unitary_loop", "unitary_open", "hermitian",
                                      "commutant_loop"])
    def test_generators(self, name):
        f = generator_forms()[name]
        assert f.stack is f.sampler.stack
        assert_stack_matches(f)

    def test_frozen_flow(self):
        f, _ = frozen_flow()
        assert_stack_matches(f)
        cc = canonical_path(np.diag([-1.0, np.exp(0.7j), np.exp(-2.1j)]))
        assert_stack_matches(cc.path)

    def test_bott_loop(self):
        bl = bott_loop([np.exp(2j * pi / 3), 1.0], (2, 3))
        assert_stack_matches(bl.hermitian_path)
        assert_stack_matches(bl.unitary_path)
        assert np.array_equal(bl.hermitian_path(0.25), np.diag([1, 1, -0.5, -0.5, -1]))

    @pytest.mark.parametrize("names", [("unitary_loop", "commutant_loop"),
                                       ("unitary_open", "hermitian")])
    def test_combinators(self, names):
        forms = generator_forms()
        f, g = forms[names[0]], forms[names[1]]
        assert_combinators_match_parts(f, g)

    def test_frozen_flow_combinators(self):
        f, _ = frozen_flow()
        g = Path(3, f)
        assert_stack_matches(product(adjoint(f), reverse(g)))
        assert_combinators_match_parts(g, reverse(g))


def assert_combinators_match_parts(f, g):
    """Each combinator of f and g, stacked and pointwise, against the formula
    applied to the pointwise samples of its parts; the concatenation at times
    on both sides of 1/2, at 1/2 itself and on the first half only."""
    both = np.concatenate([TS[:25] / 2, 0.5 + TS[25:] / 2, [0.5]])
    cases = [
        (product(f, g), TS, lambda t: f(t) @ g(t)),
        (adjoint(f), TS, lambda t: np.asarray(f(t)).conj().T),
        (reverse(f).sampler, TS, lambda t: f(1.0 - t)),
        (concatenate(f, g).sampler, both, lambda t: f(2 * t) if t <= 0.5 else g(2 * t - 1)),
        (concatenate(f, g).sampler, TS / 2, lambda t: f(2 * t)),
    ]
    for c, ts, formula in cases:
        assert_stack_matches(c, ts)
        assert np.max(np.abs(c.stack(ts) - pointwise(formula, ts))) <= 1e-13


class TestClosedForms:
    """The batched generators keep the draw order and formula of the matrix
    exponentials they replace."""

    def test_unitary_paths_match_expm(self):
        for loop in (False, True):
            f, a = gen.commuting_unitary_path(3, 2, gen.rng_for(21), loop=loop)
            rng = gen.rng_for(21)
            a2, _, blocks, R = gen.zn_action(3, 2, rng)
            pieces = []
            for idx in blocks:
                b = len(idx)
                H0 = gen.rand_hermitian(b, rng, 1.0)
                H2 = gen.rand_hermitian(b, rng, 0.6)
                K = np.diag(rng.integers(-1, 2, size=b).astype(float))
                H1 = np.zeros((b, b)) if loop else gen.rand_hermitian(b, rng, 1.0)
                pieces.append((idx, H0, H1, H2, K))
            assert np.array_equal(a, a2)
            for t in TS[:10]:
                ref = np.zeros((3, 3), dtype=complex)
                for idx, H0, H1, H2, K in pieces:
                    ref[np.ix_(idx, idx)] = sl.expm(1j * H0) @ sl.expm(2j * pi * t * K) @ \
                        sl.expm(1j * (t * H1 + np.sin(pi * t) * H2))
                assert np.max(np.abs(f(t) - R @ ref @ R.conj().T)) <= 1e-13

    def test_frozen_flow_matches_expm(self):
        f, (B0, B1, L1, L2) = frozen_flow()
        for t in TS[:10]:
            ref = -B0 @ B0.conj().T + B1 @ sl.expm(t * L1) @ sl.expm(t * L2) @ B1.conj().T
            assert np.max(np.abs(f(t) - ref)) <= 1e-13


def counted(f, log, times=None):
    """Sampler counting its pointwise and stack calls in `log`, and listing
    the times it is sampled at in `times` if given."""

    def sampler(t):
        log.append(1)
        if times is not None:
            times.append(float(t))
        return f(t)

    def stack(ts):
        log.append(len(ts))
        if times is not None:
            times.extend(np.asarray(ts, dtype=float).tolist())
        return f.stack(ts)

    sampler.stack = stack
    return sampler


def invariants(T, S, f, a):
    return (winding.winding_number(f, a), maslov.maslov_index(T, S, a, mode="winding"),
            maslov.maslov_index(T, S, a, mode="grid"),
            winding.fredholm_det_path(f, a))


class TestConsumers:
    def setup_method(self):
        self.T, self.S, self.a = gen.lagrangian_loop_pair(2, 4, gen.rng_for(5_000_044))
        self.f = product(self.T, self.S)

    def test_wrapped_sampler_keeps_stack(self):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return fn(*args, **kwargs)

            return traced

        T, S, f = wrap(self.T), wrap(self.S), wrap(self.f)
        assert T.stack is self.T.stack and f.stack is self.f.stack
        assert invariants(T, S, f, self.a) == invariants(self.T, self.S, self.f, self.a)

    def test_bare_callables(self):
        T, S, f = self.T, self.S, self.f
        bare = [lambda t, g=g: g(t) for g in (T, S, f)]
        assert not any(hasattr(g, "stack") for g in bare)
        direct, pointwise_values = invariants(T, S, f, self.a), invariants(*bare, self.a)
        assert direct[:3] == pointwise_values[:3]
        assert abs(direct[3] - pointwise_values[3]) <= 1e-13
        assert np.max(np.abs(sample_stack(bare[2], TS) - f.stack(TS))) <= 1e-13

    def test_grid_maslov_samples_whole_stacks(self):
        log = []
        T, S = counted(self.T, log), counted(self.S, log)
        grid = maslov.maslov_index(T, S, self.a, mode="grid")
        assert len(log) < 150
        assert all(n > 1 for n in log)  # every sample is part of a stack
        assert abs(grid - maslov.maslov_index(self.T, self.S, self.a, mode="winding")) < 1e-12
        assert abs(grid) > 1

    def test_grid_tracks_a_slow_crossing_on_its_first_grid(self):
        # one simple crossing of -1 at t = (pi - 0.3) / (2 pi): the phase
        # steps by 2 pi / 32 between the nodes of the tracking grid, so every
        # link certifies and grid mode takes that one stack of 33 samples
        T = Path(1, _from_stack(lambda ts: np.ones((len(ts), 1, 1), dtype=complex)))
        S = Path(1, _from_stack(lambda ts: np.exp(1j * (2 * pi * ts + 0.3))[:, None, None]))
        log = []
        grid = maslov.maslov_index(T, counted(S, log), mode="grid")
        assert grid == 1
        assert log == [spectra._GRID] == [33]


class TestSharedSamples:
    """The triple and relative double indices sample each of their paths once
    per distinct time across the three windings they combine."""

    def setup_method(self):
        rng = gen.rng_for(5_000_045)
        self.T, self.S, self.a = gen.lagrangian_loop_pair(2, 3, rng)
        self.R = gen.commutant_loop(self.a, rng)

    def test_triple_index_samples_each_path_once_per_time(self):
        paths, logs, times = (self.T, self.S, self.R), ([], [], []), ([], [], [])
        # R pointwise only, as a sampler without a batched form
        wrapped = [counted(p, log, ts) for p, ts, log in zip(paths, times, logs)]
        bare_R = wrapped[2]
        tau = maslov.triple_index_path(wrapped[0], wrapped[1], lambda t: bare_R(t), self.a)
        for ts, log in zip(times, logs):
            assert sum(log) == len(ts) == len(set(ts))
        separate = (winding.winding_number(product(adjoint(self.T), self.S), self.a)
                    + winding.winding_number(product(adjoint(self.S), self.R), self.a)
                    - winding.winding_number(product(adjoint(self.T), self.R), self.a))
        assert tau == separate == maslov.triple_index_path(*paths, self.a)

    def test_relative_double_index_samples_each_path_once_per_time(self):
        f, g = self.T, self.R
        logs, times = ([], []), ([], [])
        wrapped = [counted(p, log, ts) for p, ts, log in zip((f, g), times, logs)]
        rel = winding.relative_double_index(*wrapped, self.a)
        for ts, log in zip(times, logs):
            assert sum(log) == len(ts) == len(set(ts))
        separate = (winding.winding_number(f, self.a) + winding.winding_number(g, self.a)
                    - winding.winding_number(product(f, g), self.a))
        assert rel == separate
