import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from equiflow import specflow
from equiflow.errors import DimensionMismatch, NotEquivariant, PartitionFailure
from equiflow.harness import generators as gen
from equiflow.specflow import (
    GridPartition,
    Interval,
    Path,
    bott_loop,
    concatenate,
    crossing_oracle,
    good_partition,
    reverse,
    spectral_flow,
)
from equiflow.spectra import (_ROUND_MAX, check_commuting, hermitian_part, sample_stack,
                              track_blocks)
from equiflow.tolerances import DEFAULT
from equiflow.winding import winding_number

W3 = np.exp(2j * np.pi / 3)


def diag_path(*fns):
    d = len(fns)
    return Path(d, lambda t: np.diag([f(t) for f in fns]).astype(complex))


class TestGoodPartition:
    def test_constant_invertible_single_level(self):
        path = diag_path(lambda t: 1.0, lambda t: -2.0)
        part = good_partition(path)
        for iv in part.intervals:
            assert 0.0 < iv.level < 1.0 or iv.level > 1.0
            assert iv.margin > 0

    def test_levels_avoid_spectrum(self):
        path = diag_path(lambda t: 2 * t - 1, lambda t: 1.0)
        part = good_partition(path)
        for iv in part.intervals:
            for t in np.linspace(iv.t0, iv.t1, 7):
                vals = np.linalg.eigvalsh(path(t))
                assert np.min(np.abs(vals - iv.level)) > 1e-9

    def test_samples_each_probe_time_once(self):
        path, _ = gen.commuting_hermitian_path(5, 3, gen.rng_for(114))
        seen = []

        def recording(t):
            seen.append(float(t))
            return path(t)

        part = good_partition(recording)
        assert len(seen) == len(set(seen))
        assert set(part.nodes) <= set(seen)
        assert len(part.intervals) > 8  # bisected below the seed level

    def test_avoided_crossing_margin(self):
        delta = 1e-3
        path = Path(2, lambda t: np.array([[t - 0.5, delta],
                                                    [delta, 0.5 - t]], dtype=complex))
        part = good_partition(path)
        assert all(iv.margin > 0 for iv in part.intervals)


# --- reference: the level picker as a per-interval loop --------------------
# `specflow._pick_levels` takes every interval of a bisection round in one
# array pass; these are the candidate order and the loop it replaced, kept
# verbatim, and its levels and margins must equal theirs bit for bit.


def _level_candidates(pool):
    """Candidate levels (midpoints of positive spectral gaps), best first.

    Gaps at or below the median positive eigenvalue are preferred (widest
    first); a level above the whole sampled spectrum is kept as a sound
    fallback (the window then counts every nonnegative eigenvalue).
    """
    pts = np.unique(pool)
    edges = np.concatenate([[0.0], pts[pts > 0]])
    levels = np.append((edges[:-1] + edges[1:]) / 2.0, pts.max(initial=0.0) + 1.0)
    halfwidths = np.append((edges[1:] - edges[:-1]) / 2.0, 1.0)
    med = np.median(edges[1:]) if edges.size > 1 else np.inf
    return levels[np.lexsort((-halfwidths, levels > med))]


def _reference_certify(path, h, policy=DEFAULT, initial_nodes=9, max_depth=22):
    """`specflow._certify` with the per-interval level loop."""
    n_probe = 5
    seeds = np.linspace(0.0, 1.0, initial_nodes)
    pending = np.stack([seeds[:-1], seeds[1:], 0 * seeds[1:]], 1)  # (t0, t1, depth), ascending
    ts, intervals = np.empty(0), []  # ts: the times sampled so far, ascending
    while pending.size:
        a, b, d = pending[:_ROUND_MAX].T
        probes = np.linspace(a, b, n_probe, axis=1)
        new = np.setdiff1d(probes, ts)  # never empty: a child halves its parent's probe spacing
        G = sample_stack(path, new)
        check_commuting(h, G, new, NotEquivariant, policy)
        H = (G + np.swapaxes(G.conj(), 1, 2)) / 2
        S = np.linalg.eigvalsh(H)
        if ts.size:
            G, H, S = np.concatenate([F, G]), np.concatenate([herm, H]), np.concatenate([spec, S])
        ts = np.concatenate([ts, new])
        order = np.argsort(ts)
        ts, F, herm, spec = ts[order], G[order], H[order], S[order]
        k = np.searchsorted(ts, probes)
        steps = np.max(np.abs(np.linalg.eigvalsh(np.diff(herm[k], axis=1))), axis=-1)
        # 1.5: safety factor on the sampled Lipschitz estimate
        lips = 1.5 * np.max(steps / np.maximum(np.diff(probes, axis=1), 1e-300), axis=1)
        travel = lips * (b - a) / (n_probe - 1) / 2.0
        failed = []
        for j, spectra in enumerate(spec[k]):
            for level in _level_candidates(spectra.ravel())[:4]:
                dmin = float(np.min(np.abs(spectra - level)))
                if dmin > travel[j] * 1.2 + policy.zero_tol:
                    intervals.append(Interval(a[j], b[j], level, dmin, float(lips[j])))
                    break
            else:
                if d[j] >= max_depth:  # the leftmost: depth never rises along the pending
                    raise PartitionFailure(f"no certified level found on [{a[j]:.6g}, "
                                           f"{b[j]:.6g}] at depth {d[j]:.0f}")
                failed.append(j)
        a, b, d = a[failed], b[failed], d[failed] + 1
        halves = np.stack([a, (a + b) / 2.0, d, (a + b) / 2.0, b, d], 1).reshape(-1, 3)
        pending = np.concatenate([halves, pending[_ROUND_MAX:]])
    part = GridPartition(sorted(intervals, key=lambda iv: iv.t0))
    nodes = np.searchsorted(ts, part.nodes)
    return part, F[nodes], spec[nodes]


def _reference_pick(pools, floor):
    """(level, margin, passed) per row by the loop above: pools (m, 5, n)."""
    out = []
    for spectra, thr in zip(pools, floor):
        for level in _level_candidates(spectra.ravel())[:4]:
            dmin = float(np.min(np.abs(spectra - level)))
            if dmin > thr:
                out.append((level, dmin, True))
                break
        else:
            out.append((None, None, False))
    return out


def _bits(x):
    return np.float64(x).tobytes()


def assert_picks_equal(pools, floor):
    level, margin, passed = specflow._pick_levels(pools.reshape(len(pools), -1), floor)
    for j, (ref_level, ref_margin, ref_passed) in enumerate(_reference_pick(pools, floor)):
        assert passed[j] == ref_passed
        if ref_passed:
            assert _bits(level[j]) == _bits(ref_level) and _bits(margin[j]) == _bits(ref_margin)


def assert_partitions_equal(part, ref):
    assert len(part.intervals) == len(ref.intervals)
    for iv, rv in zip(part.intervals, ref.intervals):
        for name in ("t0", "t1", "level", "margin", "lipschitz"):
            x, y = getattr(iv, name), getattr(rv, name)
            assert type(x) is type(y) and _bits(x) == _bits(y), name


_ZERO_TOL = DEFAULT.zero_tol
# exact duplicates, exact and signed zeros, values within zero_tol of 0, ties
_SPECIAL = [0.0, -0.0, 0.5 * _ZERO_TOL, -0.5 * _ZERO_TOL, _ZERO_TOL, 0.25, 0.5, 1.0, 1.5, 2.0,
            -0.5, -1.0, -2.0]
_value = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0, allow_subnormal=False))


@st.composite
def _pool_rows(draw):
    """Pooled probe spectra (m, 5, n) of one round: rows drawn as mixed,
    all-negative, or with exactly one distinct positive value."""
    m, n = draw(st.integers(1, _ROUND_MAX)), draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        row = np.array(draw(st.lists(_value, min_size=5 * n, max_size=5 * n)))
        kind = draw(st.sampled_from(["mixed", "negative", "one_positive"]))
        if kind != "mixed":
            row = -np.abs(row)
        if kind == "one_positive":
            row[draw(st.lists(st.integers(0, 5 * n - 1), min_size=1, unique=True))] = \
                draw(st.sampled_from([_ZERO_TOL, 0.5, 3.0]))
        rows.append(row.reshape(5, n))
    floor = draw(st.lists(st.sampled_from([_ZERO_TOL, 0.01, 0.2, 0.6, 2.0]), min_size=m,
                          max_size=m))
    return np.array(rows), np.array(floor)


@settings(max_examples=300, deadline=None)
@given(_pool_rows())
@example((np.array([[[0.0, -0.0, 0.5 * _ZERO_TOL, -1.0]] * 5]), np.array([_ZERO_TOL])))
@example((np.array([[[1.0, 1.0, 2.0, 3.0]] * 5, [[-1.0, -1.0, -2.0, -0.0]] * 5]),
          np.array([0.2, 0.2])))  # odd count of distinct positives; all negative
@example((np.array([[[1.0, 2.0, 3.0, 4.0]] * 5, [[0.5, 0.5, -1.0, -3.0]] * 5]),
          np.array([0.2, 0.2])))  # even count; one distinct positive
def test_pick_levels_matches_reference_loop(case):
    assert_picks_equal(*case)


_BOTT_LOOPS = [([1.0], (2, 2)), ([W3], (1, 1)), ([W3, W3 ** 2, 1.0], (3, 4)), ([], (2, 3))]


class TestPartitionMatchesReference:
    @pytest.mark.parametrize("i", range(20))
    def test_commuting_paths(self, i):
        dim, order = 2 + i % 7, (1, 2, 3, 4, 6)[i % 5]
        path, h = gen.commuting_hermitian_path(dim, order, gen.rng_for(400 + i))
        assert_partitions_equal(good_partition(path), _reference_certify(path, None)[0])
        part, F, spec = specflow._certify(path, h, DEFAULT)
        ref, F_ref, spec_ref = _reference_certify(path, h)
        assert_partitions_equal(part, ref)
        assert np.array_equal(F, F_ref) and np.array_equal(spec, spec_ref)

    @pytest.mark.parametrize("initial_nodes", [4, 7, 12])
    def test_seeds_off_the_dyadic_grid(self, initial_nodes, monkeypatch):
        # intervals with non-dyadic ends probe the times np.linspace gives
        monkeypatch.setattr(specflow, "_INITIAL_NODES", initial_nodes)
        path, h = gen.commuting_hermitian_path(5, 3, gen.rng_for(430 + initial_nodes))
        part, F, spec = specflow._certify(path, h, DEFAULT)
        ref, F_ref, spec_ref = _reference_certify(path, h, initial_nodes=initial_nodes)
        assert_partitions_equal(part, ref)
        assert np.array_equal(F, F_ref) and np.array_equal(spec, spec_ref)

    @pytest.mark.parametrize("weights, ambient", _BOTT_LOOPS)
    def test_bott_loops(self, weights, ambient):
        # eigenvalues exactly +-1 with many duplicates, crossing 0 together
        bl = bott_loop(weights, ambient)
        path = bl.hermitian_path
        assert_partitions_equal(good_partition(path), _reference_certify(path, None)[0])


# (seed, dim, order, nodes, levels) of good_partition on
# commuting_hermitian_path(dim, order, rng_for(seed)), recorded at a commit
# that solved every certification round in two calls: the one-call round
# must certify the same intervals at the same levels, bit for bit
_RECORDED_PARTITIONS = [
    (604, 4, 2,
     [0.0, 0.03125, 0.046875, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
     [0.3327998193661128, 0.2520632463910779, 0.18385775682035713, 1.3125775473414125,
      1.3436083795749845, 1.9042672665080937, 2.4592739509243824, 2.728294532762791,
      2.436453549996668, 2.0958413071617428, 1.928306058737828]),
    (609, 2, 6,
     [0.0, 0.0625, 0.09375, 0.109375, 0.1171875, 0.125, 0.1328125, 0.140625, 0.15625, 0.1875,
      0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
     [0.22596499961336952, 0.14451089606272305, 0.1100157532338773, 0.0983224595153378,
      0.024072766548020257, 0.02361531069330919, 0.07369586737769905, 0.06350455171690678,
      0.09104449944469292, 0.14801264998147728, 0.2619916727828762, 0.41476301252507597,
      0.17204793517066608, 1.3440958703413322, 1.0510868835258487, 1.6169467966683677]),
    (622, 8, 3,
     [0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
     [0.29390054712472896, 0.39721874696345655, 0.5154517273397013, 0.4365451965408589,
      1.8290070761339376, 1.9921285877965662, 1.9648764634114073, 0.614778067125094,
      0.5176928929698935]),
]


@pytest.mark.parametrize("seed, dim, order, nodes, levels", _RECORDED_PARTITIONS,
                         ids=[str(case[0]) for case in _RECORDED_PARTITIONS])
def test_partition_matches_recording(seed, dim, order, nodes, levels):
    path, h = gen.commuting_hermitian_path(dim, order, gen.rng_for(seed))
    for part in (good_partition(path), specflow._certify(path, h, DEFAULT)[0]):
        assert part.nodes == nodes
        assert [iv.level for iv in part.intervals] == levels


@pytest.mark.parametrize("seed, dim, order", [(604, 4, 2), (609, 2, 6), (17, 5, 1)])
def test_certify_node_spectra(seed, dim, order):
    # the round's one eigvalsh gives each node the spectrum of its own call
    path, h = gen.commuting_hermitian_path(dim, order, gen.rng_for(seed))
    _, F, spec = specflow._certify(path, h, DEFAULT)
    assert spec.tobytes() == np.linalg.eigvalsh(hermitian_part(F)).tobytes()


def _svd_lipschitz(path, iv):
    """1.5 times the largest SVD spectral norm of the steps between an
    interval's neighbouring probes' Hermitian parts, per unit time."""
    probes = np.linspace(iv.t0, iv.t1, 5)
    F = sample_stack(path, probes)
    H = (F + np.swapaxes(F.conj(), 1, 2)) / 2
    steps = np.linalg.norm(np.diff(H, axis=0), 2, axis=(1, 2))
    return 1.5 * np.max(steps / np.diff(probes))


@pytest.mark.parametrize("path", [gen.commuting_hermitian_path(2 + i % 7, (1, 2, 3, 4, 6)[i % 5],
                                                               gen.rng_for(400 + i))[0]
                                  for i in range(20)]
                         + [bott_loop(*loop).hermitian_path for loop in _BOTT_LOOPS])
def test_lipschitz_is_the_spectral_norm_rate(path):
    # the step norm read from eigenvalues is the spectral norm up to rounding
    for iv in good_partition(path).intervals:
        ref = _svd_lipschitz(path, iv)
        assert abs(iv.lipschitz - ref) <= 1e-12 * ref


class TestSpectralFlow:
    def test_single_crossing_with_character(self):
        path = diag_path(lambda t: 2 * t - 1, lambda t: 1.0)
        h = np.diag([W3, 1.0])
        assert abs(spectral_flow(path, h).value - W3) < 1e-12

    def test_constant_invertible_zero(self):
        path = diag_path(lambda t: 1.0, lambda t: -2.0)
        assert spectral_flow(path, np.diag([W3, 1.0])).value == 0

    def test_concatenation_additivity(self):
        up = diag_path(lambda t: 2 * t - 1, lambda t: 1.0)
        down = diag_path(lambda t: 1 - 2 * t, lambda t: 1.0)
        h = np.diag([W3, 1.0])
        v = spectral_flow(concatenate(up, down), h).value
        assert abs(v - (spectral_flow(up, h).value + spectral_flow(down, h).value)) < 1e-12

    def test_trivial_action_is_integer(self):
        rng = gen.rng_for(11)
        path, _ = gen.commuting_hermitian_path(4, 2, rng)
        v = spectral_flow(path).value
        assert abs(v.imag) < 1e-9
        assert abs(v.real - round(v.real)) < 1e-9

    def test_samples_each_node_once(self):
        path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(113))
        part = good_partition(path)
        seen = []

        def recording(t):
            seen.append(float(t))
            return path(t)

        res = spectral_flow(recording, h, part)
        assert sorted(seen) == part.nodes and len(part.nodes) == len(part.intervals) + 1
        assert res.contributions == spectral_flow(path, h, part).contributions

    def test_counts_from_certification_samples(self):
        path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(113))
        seen = {"partition": [], "flow": []}

        def recorder(key):
            def sampler(t):
                seen[key].append(float(t))
                return path(t)
            return sampler

        part = good_partition(recorder("partition"))
        res = spectral_flow(recorder("flow"), h)
        assert sorted(seen["flow"]) == sorted(seen["partition"])
        assert res.contributions == spectral_flow(path, h, part).contributions

    def test_trivial_actor_counts_from_certification_spectra(self, monkeypatch):
        # without an actor the nodes' spectra come from the certification: no
        # node is solved again, and the counts equal those of a given partition
        path, _ = gen.commuting_hermitian_path(5, 1, gen.rng_for(17))
        part = good_partition(path)
        expected = spectral_flow(path, None, part).contributions
        solves = []
        monkeypatch.setattr(specflow, "_block_eigvalsh",
                            lambda blocks, policy: solves.append(1) or [])
        assert spectral_flow(path).contributions == expected and not solves

    def test_empty_partition(self):
        with pytest.raises(ValueError, match="partition has no intervals"):
            spectral_flow(diag_path(lambda t: 1.0), partition=GridPartition([]))

    def test_refinement_invariance(self):
        rng = gen.rng_for(12)
        path, h = gen.commuting_hermitian_path(4, 3, rng)
        part = good_partition(path)
        v1 = spectral_flow(path, h, part).value
        v2 = spectral_flow(path, h, part.refine()).value
        assert abs(v1 - v2) <= 1e-9

    def test_homotopy_invariance_fixed_endpoints(self):
        rng = gen.rng_for(13)
        path, h = gen.commuting_hermitian_path(4, 3, rng)
        bump = gen.rand_hermitian(4, gen.rng_for(14), 0.8)
        # keep equivariance: project the bump onto the commutant of h
        from equiflow.spectra import eig_unitary
        es = eig_unitary(h)
        bump_c = np.zeros_like(bump)
        for idx in es.cluster_slices():
            bump_c[np.ix_(idx, idx)] = (es.vectors.conj().T @ bump @ es.vectors)[np.ix_(idx, idx)]
        bump = es.vectors @ bump_c @ es.vectors.conj().T

        def deformed(t):
            return path(t) + np.sin(np.pi * t) ** 2 * bump

        v0 = spectral_flow(path, h).value
        v1 = spectral_flow(Path(4, deformed), h).value
        assert abs(v0 - v1) <= 1e-8

    def test_reversal_negates(self):
        path = diag_path(lambda t: 2 * t - 1, lambda t: 1.0)
        h = np.diag([W3, 1.0])
        assert abs(spectral_flow(reverse(path), h).value + W3) < 1e-12


class TestCrossingOracle:
    def test_single_up_crossing(self):
        path = diag_path(lambda t: 2 * t - 1, lambda t: 1.0)
        res = crossing_oracle(path, np.diag([W3, 1.0]))
        assert abs(res.value - W3) < 1e-12
        assert len(res.crossings) == 1
        c = res.crossings[0]
        assert abs(c.time - 0.5) < 1e-9 and c.direction == 1

    def test_loop_cancellation(self):
        path = diag_path(lambda t: np.sin(2 * np.pi * t), lambda t: 1.0)
        res = crossing_oracle(path, np.diag([W3, 1.0]))
        assert abs(res.value) < 1e-12

    def test_degenerate_cluster_crossing(self):
        chi1, chi2 = np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)
        path = Path(2, lambda t: (2 * t - 1) * np.eye(2, dtype=complex))
        res = crossing_oracle(path, np.diag([chi1, chi2]))
        assert abs(res.value - (chi1 + chi2)) < 1e-12

    def test_opposite_crossings_in_two_blocks(self):
        # the omega- and 1-blocks cross 0 in opposite directions at t = 0.5, a grid point
        R = gen.rand_unitary(2, gen.rng_for(3))
        h = R @ np.diag([W3, 1.0]) @ R.conj().T
        path = Path(2, lambda t: R @ np.diag([2 * t - 1, 1 - 2 * t]) @ R.conj().T)
        for value in (spectral_flow(path, h).value, crossing_oracle(path, h).value):
            assert abs(value - (W3 - 1)) <= 1e-12

    def test_off_grid_crossing_interpolated(self):
        # 0.15 lies between the samples 4/32 and 5/32; the branch is linear there
        path = diag_path(lambda t: 2 * t - 0.3, lambda t: 1.0)
        (c,) = crossing_oracle(path, np.diag([W3, 1.0])).crossings
        assert abs(c.time - 0.15) <= 1e-12 and c.direction == 1

    def test_samples_only_tracked_times(self):
        path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(113))
        _, (bs, *_) = track_blocks(path, h, "hermitian", NotEquivariant)
        seen = []

        def recording(t):
            seen.append(t)
            return path(t)

        res = crossing_oracle(recording, h)
        assert res.crossings and res.diagnostics["n_samples"] == len(bs.times)
        assert sorted(seen) == sorted(bs.times)

    def test_agrees_with_partition_flow(self):
        for i in range(25):
            path, h = gen.commuting_hermitian_path(2 + i % 5, 2 + i % 4, gen.rng_for(100 + i))
            assert abs(spectral_flow(path, h).value - crossing_oracle(path, h).value) <= 1e-8


class TestBottLoop:
    def test_trivial_character(self):
        bl = bott_loop([1.0], (2, 2))
        assert abs(spectral_flow(bl.hermitian_path, bl.h).value - 1.0) < 1e-12
        assert abs(winding_number(bl.unitary_path, bl.h) - 1.0) < 1e-12

    def test_character_generator(self):
        bl = bott_loop([W3], (2, 2))
        sf = spectral_flow(bl.hermitian_path, bl.h).value
        wn = winding_number(bl.unitary_path, bl.h)
        assert abs(sf - W3) < 1e-12 and abs(wn - W3) < 1e-12

    def test_rank_zero(self):
        bl = bott_loop([], (2, 2))
        assert spectral_flow(bl.hermitian_path, bl.h).value == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bott_loop([1.0, 1.0, 1.0], (2, 2))

    def test_unitary_loop_values(self):
        bl = bott_loop([W3], (1, 1))
        W = bl.unitary_path(0.25)
        assert np.isclose(W[1, 1], np.exp(2j * np.pi * 0.25))
        assert np.isclose(W[0, 0], 1.0)
