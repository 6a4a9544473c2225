"""Failure-mode contracts: each declared error class fires on its trigger."""

import re

import numpy as np
import pytest
import scipy.linalg
from scipy.special import erfinv

from equiflow import dirac_models, eta_zeta, specflow, spectra, symplectic
from equiflow.dirac_models import (
    IntervalDiracModel,
    interval_eta,
    interval_spectrum,
    theta_projection,
)
from equiflow.errors import (
    BranchCut,
    DimensionMismatch,
    EquiflowError,
    IncompatibleSplitting,
    KernelPresent,
    NotCommuting,
    NotEquivariant,
    NotLagrangian,
    PartitionFailure,
    TrackingAmbiguous,
)
from equiflow.eta_zeta import eta, eta_log_defect
from equiflow.harness import generators as gen
from equiflow.maslov import (
    LagrangianPath,
    in_maslov_cycle,
    maslov_index,
    triple_index_path,
    triple_index_static,
)
from equiflow.specflow import (
    Path,
    UnitaryPath,
    crossing_oracle,
    good_partition,
    spectral_flow,
)
from equiflow.spectra import track_blocks
from equiflow.symplectic import (
    _check_unitary,
    aps_projection,
    as_projection,
    canonical_determinant,
    make_projection_from_unitary,
    pair_report,
)
from equiflow.winding import (
    canonical_path,
    double_index,
    fredholm_det_path,
    relative_double_index,
    winding_events,
    winding_from_logs,
    winding_number,
)


def test_tracking_ambiguous_on_discontinuity(monkeypatch):
    monkeypatch.setattr(spectra, "_GRID", 9)
    monkeypatch.setattr(spectra, "_MAX_SAMPLES", 60)
    rng = gen.rng_for(71)
    A = gen.rand_hermitian(3, rng, 1.0)
    B = gen.rand_unitary(3, rng) @ A @ gen.rand_unitary(3, rng).conj().T
    B = (B + B.conj().T) / 2 + np.diag([0.0, 1.0, 2.0])

    def path(t):
        return A if t < 0.5 else B

    with pytest.raises(TrackingAmbiguous):
        track_blocks(path, None, "hermitian", None)


def test_partition_failure_on_noise(monkeypatch):
    monkeypatch.setattr(specflow, "_PARTITION_DEPTH", 6)
    # pseudo-random jumps at every sampled scale: no level can be certified
    def noise(t, k):
        x = np.sin(12345.678 * (t + k)) * 1e6
        return 3.0 * (x - np.floor(x))

    def path(t):
        return np.diag([noise(t, 0), noise(t, 1) - 3.0]).astype(complex)

    with pytest.raises(PartitionFailure):
        good_partition(Path(2, path))


def _noisy_diag(t):
    # pseudo-random jumps at every sampled scale
    x = np.sin(12345.678 * (t + np.arange(2))) * 1e6
    return np.diag(3.0 * (x - np.floor(x)) - [0.0, 3.0]).astype(complex)


def test_partition_failure_cost_is_bounded():
    # failing everywhere at depth _PARTITION_DEPTH: one round per depth on the
    # leftmost intervals, and the error names the leftmost interval at that depth
    seen = []

    def path(t):
        seen.append(t)
        return _noisy_diag(t)

    with pytest.raises(PartitionFailure, match=r"on \[0, 2\.98023e-08\] at depth 22"):
        good_partition(path)
    assert len(seen) < 500


def test_partition_failure_names_leftmost_stall(monkeypatch):
    # smooth (and bisected) left of 0.55, noise right of it: the error names
    # the leftmost interval failing at the depth cap, as a depth-first search does
    monkeypatch.setattr(specflow, "_PARTITION_DEPTH", 6)
    def path(t):
        if t < 0.55:
            return np.diag([np.sin(40 * t), np.cos(37 * t) - 0.2]).astype(complex)
        return _noisy_diag(t)

    with pytest.raises(PartitionFailure, match=r"on \[0\.548828, 0\.550781\] at depth 6"):
        good_partition(path)


def test_spectral_flow_not_equivariant():
    path = Path(2, lambda t: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    h = np.diag([1.0, -1.0])
    with pytest.raises(NotEquivariant):
        spectral_flow(path, h)


def test_equivariant_only_at_probe_points():
    # B(t) commutes with h at t in {0, 1/2, 1} only: every route must refuse it
    h = np.diag([np.exp(2j * np.pi / 3), 1.0, 1.0])
    X = np.zeros((3, 3), dtype=complex)
    X[0, 1] = X[1, 0] = 1.0  # mixes the omega- and 1-eigenspaces of h

    def B(t):
        return np.diag([2 * t - 1, 0.5, -0.3]).astype(complex) + 0.4 * np.sin(4 * np.pi * t) * X

    herm = Path(3, B)
    unit = UnitaryPath(3, lambda t: scipy.linalg.expm(1j * np.pi * B(t)))
    routes = [lambda: spectral_flow(herm, h), lambda: crossing_oracle(herm, h),
              lambda: winding_number(unit, h), lambda: winding_events(unit, h),
              lambda: winding_from_logs(unit, h), lambda: fredholm_det_path(unit, h)]
    for route in routes:
        with pytest.raises((NotEquivariant, NotCommuting)):
            route()


def test_spectral_flow_checks_every_probe():
    # the off-diagonal term vanishes at every seed node k/8, where B commutes
    # with h; the first probe between nodes, t = 1/32, does not
    h = np.diag([1.0, -1.0])

    def B(t):
        s = 0.3 * np.sin(8 * np.pi * t)
        return np.array([[0.4 - t, s], [s, t - 0.4]], dtype=complex)

    for route in (spectral_flow, crossing_oracle):
        with pytest.raises(NotEquivariant, match=r"at t=0\.03125"):
            route(B, h)


def test_pair_report_not_equivariant():
    rng = gen.rng_for(72)
    P = make_projection_from_unitary(np.eye(2))
    Q = make_projection_from_unitary(np.diag([1j, -1j]))
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    h = np.block([[swap, np.zeros((2, 2))], [np.zeros((2, 2)), swap]])  # diag(a, W a W*), W = I
    with pytest.raises(NotEquivariant):
        pair_report(P, Q, h)


def test_triple_index_static_incompatible():
    P = make_projection_from_unitary(np.eye(1))
    Q = make_projection_from_unitary(-np.eye(1))   # T* S = -1: H0 is everything
    N = make_projection_from_unitary(np.array([[np.exp(0.7j)]]))
    with pytest.raises(IncompatibleSplitting):
        triple_index_static(P, Q, N)


def test_eta_log_defect_branch_cut():
    x = float(erfinv(0.5))
    D0 = np.diag([-x, 5.0]).astype(complex)
    D1 = np.diag([x, 5.0]).astype(complex)  # erf difference exactly 1: T*K hits -1
    with pytest.raises(BranchCut):
        eta_log_defect(D0, D1)


def test_interval_kernel_present():
    mod = IntervalDiracModel(1.0, np.array([[0.0]]))
    P = theta_projection(0.0)  # root at lambda = 0
    with pytest.raises(KernelPresent):
        interval_eta(mod, P)
    v = interval_eta(mod, P, reduced=True)
    assert abs(v - 0.5) < 1e-12  # symmetric nonzero spectrum + half kernel weight


def test_interval_not_equivariant_projection():
    u = np.diag([np.exp(2j * np.pi / 3), 1.0])
    mod = IntervalDiracModel(1.0, np.diag([0.1, 0.6]).astype(complex), u)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(NotEquivariant):
        interval_eta(mod, make_projection_from_unitary(swap), u_power=1)


def test_dimension_mismatch_is_typed():
    # a 2x2 actor against 3x3 paths, and paths of unequal sizes in one product
    a2 = np.diag([np.exp(2j * np.pi / 3), 1.0])
    herm, _ = gen.commuting_hermitian_path(3, 3, gen.rng_for(5))
    unit, _ = gen.commuting_unitary_path(3, 3, gen.rng_for(6))
    T2, S2, _ = gen.lagrangian_loop_pair(2, 3, gen.rng_for(7))
    T3, S3, _ = gen.lagrangian_loop_pair(3, 3, gen.rng_for(8))
    L2, L3, M3 = LagrangianPath(2, T2), LagrangianPath(3, T3), LagrangianPath(3, S3)
    routes = [lambda: spectral_flow(herm, a2), lambda: crossing_oracle(herm, a2),
              lambda: maslov_index(L2, M3), lambda: maslov_index(L2, M3, mode="grid"),
              lambda: maslov_index(L3, M3, a2), lambda: maslov_index(L3, M3, a2, mode="grid"),
              lambda: triple_index_path(T2, S2, T3),
              lambda: winding_number(unit, a2), lambda: winding_events(unit, a2),
              lambda: winding_from_logs(unit, a2), lambda: fredholm_det_path(unit, a2),
              lambda: relative_double_index(unit, T2)]
    for route in routes:
        with pytest.raises(DimensionMismatch):
            route()


@pytest.mark.parametrize("bad", [1.0, np.zeros(4), np.zeros((2, 3)), np.zeros((3, 3))],
                         ids=["scalar", "vector", "non_square", "odd"])
@pytest.mark.parametrize("route, error", [(as_projection, NotLagrangian),
                                          (aps_projection, ValueError)],
                         ids=["as_projection", "aps_projection"])
def test_malformed_shape_is_named(route, error, bad):
    # the number of dimensions is tested before any size is read
    with pytest.raises(error, match=re.escape(f"got shape {np.shape(bad)}")):
        route(bad)


def _spoiled(kind, bad_t, value):
    """A 2x2 Hermitian or unitary path commuting with diag(1, -1) whose sample
    at bad_t has `value` on its diagonal."""

    def path(t):
        phases = np.array([t - 0.3, 0.7 - t]) if kind == "hermitian" else np.array([t, -2 * t])
        d = phases if kind == "hermitian" else np.exp(1j * phases)
        if t == bad_t:
            d = np.array([value, d[1]])
        return np.diag(d).astype(complex)

    return path


def _lagrangian_matrix(T):
    """P = 1/2 [[I, T*], [T, I]] of a 2x2 T, without any check."""
    return np.block([[np.eye(2), T.conj().T], [T, np.eye(2)]]) / 2


def _boundary_operator(B):
    """A = [[0, B*], [B, 0]], anticommuting with gamma, of a 2x2 B."""
    zero = np.zeros((2, 2), dtype=complex)
    return np.block([[zero, B.conj().T], [B, zero]])


_H = np.diag([1.0, -1.0]).astype(complex)
_D2 = np.diag([1.0, 2.0]).astype(complex)
_U2 = np.diag([1j, -1j])
_P0 = make_projection_from_unitary(np.eye(2))
_MODEL = IntervalDiracModel(1.0, np.diag([0.25, 0.5]).astype(complex))


def _eye_path(t):
    return np.eye(2, dtype=complex)


def _minus_eye_path(t):
    return -np.eye(2, dtype=complex)


_NONFINITE_ROUTES = {
    "fredholm_det_path": ("unitary", lambda f, t: fredholm_det_path(f)),
    "winding_number": ("unitary", lambda f, t: winding_number(f)),
    "eta": ("hermitian", lambda f, t: eta(f(t))),
    "crossing_oracle": ("hermitian", lambda f, t: crossing_oracle(f)),
    "spectral_flow": ("hermitian", lambda f, t: spectral_flow(f)),
    "spectral_flow_h": ("hermitian", lambda f, t: spectral_flow(f, _H)),
    "check_unitary": ("unitary", lambda f, t: _check_unitary(f(t))),
    "make_projection_from_unitary": ("unitary", lambda f, t: make_projection_from_unitary(f(t))),
    "as_projection": ("unitary", lambda f, t: as_projection(_lagrangian_matrix(f(t)))),
    "pair_report": ("unitary", lambda f, t: pair_report(_P0, _lagrangian_matrix(f(t)))),
    "canonical_determinant": ("unitary",
                              lambda f, t: canonical_determinant(_lagrangian_matrix(f(t)), _P0)),
    "aps_projection": ("hermitian", lambda f, t: aps_projection(_boundary_operator(f(t)))),
    "aps_projection_L": ("hermitian", lambda f, t: aps_projection(np.zeros((2, 2)), f(t)[:, :1])),
    # the other path routes
    "good_partition": ("hermitian", lambda f, t: good_partition(f)),
    "getzler_spectral_flow": ("hermitian", lambda f, t: eta_zeta.getzler_spectral_flow(f)),
    "winding_events": ("unitary", lambda f, t: winding_events(f)),
    "winding_from_logs": ("unitary", lambda f, t: winding_from_logs(f)),
    "relative_double_index": ("unitary", lambda f, t: relative_double_index(f, _eye_path)),
    "relative_double_index_V": ("unitary", lambda f, t: relative_double_index(_eye_path, f)),
    "maslov_index": ("unitary", lambda f, t: maslov_index(f, _eye_path)),
    "maslov_index_grid": ("unitary", lambda f, t: maslov_index(f, _eye_path, mode="grid")),
    "triple_index_path": ("unitary",
                          lambda f, t: triple_index_path(f, _eye_path, _minus_eye_path)),
    # the static routes, given the spoiled sample as their matrix
    "eig_hermitian": ("hermitian", lambda f, t: spectra.eig_hermitian(f(t))),
    "hermitian_part": ("hermitian", lambda f, t: spectra.hermitian_part(f(t))),
    "eig_unitary": ("unitary", lambda f, t: spectra.eig_unitary(f(t))),
    "principal_log_unitary": ("unitary", lambda f, t: spectra.principal_log_unitary(f(t))),
    "isotypic_split": ("unitary", lambda f, t: spectra.isotypic_split(f(t), 2)),
    "check_commuting": ("hermitian",
                        lambda f, t: spectra.check_commuting(_H, f(t), None, NotCommuting)),
    "SpectralOperator": ("hermitian", lambda f, t: eta_zeta.SpectralOperator(f(t))),
    "reduced_eta": ("hermitian", lambda f, t: eta_zeta.reduced_eta(f(t))),
    "truncated_eta": ("hermitian", lambda f, t: eta_zeta.truncated_eta(f(t))),
    "zeta": ("hermitian", lambda f, t: eta_zeta.zeta(f(t))),
    "zeta_determinant": ("hermitian", lambda f, t: eta_zeta.zeta_determinant(f(t))),
    "zeta_determinant_product_route": (
        "hermitian", lambda f, t: eta_zeta.zeta_determinant_product_route(f(t))),
    "mellin_eta": ("hermitian", lambda f, t: eta_zeta.mellin_eta(f(t))),
    "mellin_zeta": ("hermitian", lambda f, t: eta_zeta.mellin_zeta(f(t))),
    "eta_form": ("hermitian", lambda f, t: eta_zeta.eta_form(f(t), _D2)),
    "eta_form_X": ("hermitian", lambda f, t: eta_zeta.eta_form(_D2, f(t))),
    "eta_log_defect": ("hermitian", lambda f, t: eta_log_defect(f(t), _D2)),
    "eta_log_defect_D1": ("hermitian", lambda f, t: eta_log_defect(_D2, f(t))),
    "canonical_path": ("unitary", lambda f, t: canonical_path(f(t))),
    "double_index": ("unitary", lambda f, t: double_index(f(t), _U2)),
    "double_index_V": ("unitary", lambda f, t: double_index(_U2, f(t))),
    "flip_orientation": ("unitary",
                         lambda f, t: symplectic.flip_orientation(_lagrangian_matrix(f(t)))),
    "in_maslov_cycle": ("unitary", lambda f, t: in_maslov_cycle(_lagrangian_matrix(f(t)), _P0)),
    "triple_index_static": ("unitary",
                            lambda f, t: triple_index_static(_lagrangian_matrix(f(t)), _P0, _P0)),
    "CircleDiracModel": ("hermitian", lambda f, t: dirac_models.CircleDiracModel(f(t))),
    "IntervalDiracModel": ("hermitian", lambda f, t: IntervalDiracModel(1.0, f(t))),
    "splitting_experiment": ("hermitian", lambda f, t: dirac_models.splitting_experiment(
        dirac_models.SplitScenario(f(t), _P0))),
    "secular_branches": ("unitary", lambda f, t: dirac_models.secular_branches(
        _MODEL, _lagrangian_matrix(f(t)))),
    "interval_spectrum": ("unitary", lambda f, t: interval_spectrum(
        _MODEL, _lagrangian_matrix(f(t)), (-3.0, 3.0))),
    "interval_eta": ("unitary", lambda f, t: interval_eta(_MODEL, _lagrangian_matrix(f(t)))),
    "sw_identity_check": ("unitary", lambda f, t: dirac_models.sw_identity_check(
        _MODEL, _lagrangian_matrix(f(t)), _P0)),
}


@pytest.mark.parametrize("bad_t, value", [(0.5, np.nan), (1.0, np.inf)], ids=["nan_mid", "inf_end"])
@pytest.mark.parametrize("route", sorted(_NONFINITE_ROUTES))
def test_nonfinite_sample_is_typed(route, bad_t, value):
    # a NaN passes every `err > tol` test; each route must refuse it with a typed error
    kind, call = _NONFINITE_ROUTES[route]
    with np.errstate(invalid="ignore"), pytest.raises(EquiflowError):
        call(_spoiled(kind, bad_t, value), bad_t)
