import numpy as np
import pytest

from equiflow.errors import DimensionMismatch, NotEquivariant
from equiflow.harness import generators as gen
from equiflow.specflow import (
    HermitianPath,
    bott_loop,
    concatenate,
    crossing_oracle,
    good_partition,
    reverse,
    spectral_flow,
)
from equiflow.spectra import track_blocks
from equiflow.winding import winding_number

W3 = np.exp(2j * np.pi / 3)


def diag_path(*fns):
    d = len(fns)
    return HermitianPath(d, lambda t: np.diag([f(t) for f in fns]).astype(complex))


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
        path = HermitianPath(2, lambda t: np.array([[t - 0.5, delta],
                                                    [delta, 0.5 - t]], dtype=complex))
        part = good_partition(path)
        assert all(iv.margin > 0 for iv in part.intervals)


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
        v1 = spectral_flow(HermitianPath(4, deformed), h).value
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
        path = HermitianPath(2, lambda t: (2 * t - 1) * np.eye(2, dtype=complex))
        res = crossing_oracle(path, np.diag([chi1, chi2]))
        assert abs(res.value - (chi1 + chi2)) < 1e-12

    def test_opposite_crossings_in_two_blocks(self):
        # the omega- and 1-blocks cross 0 in opposite directions at t = 0.5, a grid point
        R = gen.rand_unitary(2, gen.rng_for(3))
        h = R @ np.diag([W3, 1.0]) @ R.conj().T
        path = HermitianPath(2, lambda t: R @ np.diag([2 * t - 1, 1 - 2 * t]) @ R.conj().T)
        for value in (spectral_flow(path, h).value, crossing_oracle(path, h).value):
            assert abs(value - (W3 - 1)) <= 1e-12

    def test_off_grid_crossing_interpolated(self):
        # 0.15 lies between the samples 4/32 and 5/32; the branch is linear there
        path = diag_path(lambda t: 2 * t - 0.3, lambda t: 1.0)
        (c,) = crossing_oracle(path, np.diag([W3, 1.0])).crossings
        assert abs(c.time - 0.15) <= 1e-12 and c.direction == 1

    def test_samples_only_tracked_times(self):
        path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(113))
        _, (bs, *_) = track_blocks(path, h, "hermitian", NotEquivariant, 33)
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
