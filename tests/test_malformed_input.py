"""Malformed input: every public route of the library that takes a path, a
matrix or an actor refuses each malformed one with a typed `EquiflowError`
and returns no value.

The inputs stand in for a 2x2 path, matrix or actor: a non-square matrix, a
vector, a scalar, a NaN matrix, a string, a 0x0 matrix and a (1, 2, 2)
stack; as a path, each of them at every time, and a path whose size changes
at t = 0.5; as an actor, one of the wrong size, a vector, a NaN matrix, 2I
and a scalar.  Each public name of a library module is either a route in
`ROUTES` or named in `NOT_ROUTES` with the reason it takes none of them, so
a new route without an entry fails `test_every_route_is_listed`.
"""

import re

import numpy as np
import pytest

from equiflow import dirac_models, eta_zeta, maslov, specflow, spectra, symplectic, winding
from equiflow.errors import DimensionMismatch, EquiflowError, NotCommuting, NotEquivariant
from equiflow.specflow import Path

MODULES = (spectra, symplectic, specflow, winding, maslov, eta_zeta, dirac_models)

MATRICES = {
    "non_square": np.zeros((2, 3)),
    "vector": np.zeros(3),
    "scalar": 1.0,
    "nan": np.full((2, 2), np.nan),
    "string": "abc",
    "empty": np.zeros((0, 0)),
    "stack": np.zeros((1, 2, 2)),
}
PATHS = {name: (lambda t, X=X: X) for name, X in MATRICES.items()}
PATHS["size_change"] = lambda t: np.eye(2 if t < 0.5 else 3, dtype=complex)
ACTORS = {
    "wrong_size": np.eye(3),
    "vector": np.ones(2),
    "nan": np.full((2, 2), np.nan),
    "double": 2 * np.eye(2),
    "scalar": 1.0,
}


def _herm(t):
    return np.diag([t - 0.3, 0.7 - t]).astype(complex)


def _unit(t):
    return np.diag(np.exp([1j * t, -2j * t]))


_TS = np.linspace(0.0, 1.0, 5)
_NODES = (np.polynomial.legendre.leggauss(15)[0] + 1) / 2  # one quadrature panel
_D = np.diag([1.0, 2.0]).astype(complex)
_U = np.diag([1j, -1j])
_P = symplectic.make_projection_from_unitary(np.eye(2))
_V = np.diag([0.25, 0.5]).astype(complex)
_ZERO = np.zeros((2, 2))  # a boundary operator with a kernel: aps_projection reads its L
_MODEL = dirac_models.IntervalDiracModel(1.0, _V)

# name -> {role: call}; a role is "path", "samples" (a path the route only
# samples: NaN samples are valid, finiteness being left to the routes that
# compute with them), "matrix" (a static matrix), "stack" (a matrix or a
# stack of them: the (1, 2, 2) input is valid), "direction" (the X of
# `eta_form`, a matrix or a stack whose trace against D the form takes: it
# need not be Hermitian, but it must be finite), "L" (the kernel Lagrangian
# basis of `aps_projection`, a matrix or a vector of 2n rows) or "actor".
# Names with a bracketed suffix are further calls of one route.
ROUTES = {
    "spectra.sample_stack": {"samples": lambda f: spectra.sample_stack(f, _TS)},
    "spectra.path_panel": {"samples": lambda f: spectra.path_panel(f, _NODES)},
    "spectra.isotypic_blocks": {
        "samples": lambda f: spectra.isotypic_blocks(f, None, NotCommuting)(_TS),
        "actor": lambda a: spectra.isotypic_blocks(_unit, a, NotCommuting)(_TS)},
    "spectra.track_blocks": {
        "path": lambda f: spectra.track_blocks(f, None, "hermitian", NotEquivariant),
        "actor": lambda a: spectra.track_blocks(_herm, a, "hermitian", NotEquivariant)},
    "spectra.eig_hermitian": {"matrix": spectra.eig_hermitian},
    "spectra.eig_unitary": {"matrix": spectra.eig_unitary},
    "spectra.principal_log_unitary": {"matrix": spectra.principal_log_unitary},
    "spectra.hermitian_part": {"stack": spectra.hermitian_part},
    "spectra.isotypic_split": {"actor": lambda a: spectra.isotypic_split(a, 2)},
    "spectra.check_commuting": {
        "stack": lambda M: spectra.check_commuting(np.diag([1.0, -1.0]), M, None, NotCommuting),
        "actor": lambda a: spectra.check_commuting(a, _D, None, NotCommuting)},
    "symplectic.make_projection_from_unitary": {
        "matrix": symplectic.make_projection_from_unitary},
    "symplectic.flip_orientation": {"matrix": symplectic.flip_orientation},
    "symplectic.as_projection": {"matrix": symplectic.as_projection},
    "symplectic.aps_projection": {"matrix": symplectic.aps_projection},
    "symplectic.aps_projection[L]": {"L": lambda L: symplectic.aps_projection(_ZERO, L)},
    "symplectic.pair_report": {
        "matrix": lambda P: symplectic.pair_report(P, _P),
        "actor": lambda a: symplectic.pair_report(_P, _P, a)},
    "symplectic.canonical_determinant": {
        "matrix": lambda P: symplectic.canonical_determinant(P, _P),
        "actor": lambda a: symplectic.canonical_determinant(_P, _P, a)},
    "specflow.good_partition": {"path": specflow.good_partition},
    "specflow.spectral_flow": {
        "path": specflow.spectral_flow,
        "actor": lambda a: specflow.spectral_flow(_herm, a)},
    "specflow.crossing_oracle": {
        "path": specflow.crossing_oracle,
        "actor": lambda a: specflow.crossing_oracle(_herm, a)},
    "specflow.concatenate": {
        "samples": lambda f: spectra.sample_stack(
            specflow.concatenate(Path(2, f), Path(2, _herm)), _TS)},
    "specflow.reverse": {
        "samples": lambda f: spectra.sample_stack(specflow.reverse(Path(2, f)), _TS)},
    "specflow.adjoint": {"samples": lambda f: spectra.sample_stack(specflow.adjoint(f), _TS)},
    "specflow.product": {
        "samples": lambda f: spectra.sample_stack(specflow.product(f, _unit), _TS)},
    "winding.winding_number": {
        "path": winding.winding_number,
        "actor": lambda a: winding.winding_number(_unit, a)},
    "winding.winding_events": {
        "path": winding.winding_events,
        "actor": lambda a: winding.winding_events(_unit, a)},
    "winding.winding_from_logs": {
        "path": winding.winding_from_logs,
        "actor": lambda a: winding.winding_from_logs(_unit, a)},
    "winding.fredholm_det_path": {
        "path": winding.fredholm_det_path,
        "actor": lambda a: winding.fredholm_det_path(_unit, a)},
    "winding.relative_double_index": {
        "path": lambda f: winding.relative_double_index(f, _unit),
        "actor": lambda a: winding.relative_double_index(_unit, _unit, a)},
    "winding.canonical_path": {
        "matrix": winding.canonical_path,
        "actor": lambda a: winding.canonical_path(_U, a)},
    "winding.double_index": {
        "matrix": lambda U: winding.double_index(U, _U),
        "actor": lambda a: winding.double_index(_U, _U, a)},
    "winding.double_index[V]": {"matrix": lambda V: winding.double_index(_U, V)},
    "maslov.maslov_index": {
        "path": lambda f: maslov.maslov_index(f, _unit),
        "actor": lambda a: maslov.maslov_index(_unit, _unit, a)},
    "maslov.maslov_index[grid]": {
        "path": lambda f: maslov.maslov_index(f, _unit, mode="grid"),
        "actor": lambda a: maslov.maslov_index(_unit, _unit, a, mode="grid")},
    "maslov.triple_index_path": {
        "path": lambda f: maslov.triple_index_path(f, _unit, _unit),
        "actor": lambda a: maslov.triple_index_path(_unit, _unit, _unit, a)},
    "maslov.triple_index_static": {
        "matrix": lambda P: maslov.triple_index_static(P, _P, _P),
        "actor": lambda a: maslov.triple_index_static(_P, _P, _P, a)},
    "maslov.in_maslov_cycle": {"matrix": lambda P: maslov.in_maslov_cycle(P, _P)},
    "eta_zeta.eta_form": {
        "stack": lambda D: eta_zeta.eta_form(D, _D),
        "actor": lambda a: eta_zeta.eta_form(_D, _D, a)},
    "eta_zeta.eta_form[X]": {"direction": lambda X: eta_zeta.eta_form(_D, X)},
    "eta_zeta.getzler_spectral_flow": {
        "path": eta_zeta.getzler_spectral_flow,
        "actor": lambda a: eta_zeta.getzler_spectral_flow(_herm, a)},
    "eta_zeta.eta_log_defect": {
        "matrix": lambda D: eta_zeta.eta_log_defect(D, _D),
        "actor": lambda a: eta_zeta.eta_log_defect(_D, _D, a)},
    "eta_zeta.eta_log_defect[D1]": {"matrix": lambda D: eta_zeta.eta_log_defect(_D, D)},
    "dirac_models.CircleDiracModel": {
        "matrix": dirac_models.CircleDiracModel,
        "actor": lambda u: dirac_models.CircleDiracModel(_V, u)},
    "dirac_models.IntervalDiracModel": {
        "matrix": lambda V: dirac_models.IntervalDiracModel(1.0, V),
        "actor": lambda u: dirac_models.IntervalDiracModel(1.0, _V, u)},
    "dirac_models.secular_branches": {
        "matrix": lambda P: dirac_models.secular_branches(_MODEL, P)},
    "dirac_models.interval_spectrum": {
        "matrix": lambda P: dirac_models.interval_spectrum(_MODEL, P, (-3.0, 3.0))},
    "dirac_models.interval_eta": {"matrix": lambda P: dirac_models.interval_eta(_MODEL, P)},
    "dirac_models.sw_identity_check": {
        "matrix": lambda P: dirac_models.sw_identity_check(_MODEL, P, _P)},
    "dirac_models.splitting_experiment": {
        "matrix": lambda V: dirac_models.splitting_experiment(
            dirac_models.SplitScenario(V, _P)),
        "actor": lambda u: dirac_models.splitting_experiment(
            dirac_models.SplitScenario(_V, _P, u))},
}
# the operator routes of eta_zeta: D as a matrix, h as the actor
for _name in ("SpectralOperator", "eta", "reduced_eta", "truncated_eta", "zeta",
              "zeta_determinant", "zeta_determinant_product_route", "mellin_eta",
              "mellin_zeta"):
    _route = getattr(eta_zeta, _name)
    ROUTES[f"eta_zeta.{_name}"] = {"matrix": _route, "actor": lambda h, r=_route: r(_D, h)}

NOT_ROUTES = {
    "spectra.EigenSystem": "a record of eigendata",
    "spectra.BranchSet": "a record of tracked branches",
    "spectra.integrate": "takes an integrand of the times, not a path",
    "spectra.group_events": "takes crossing events",
    "spectra.cluster_indices": "takes sorted values",
    "spectra.opnorm": "the norm of any array, rectangular ones included; a helper on "
                      "matrices the routes built",
    "symplectic.SymplecticSpace": "takes the half dimension n",
    "symplectic.LagrangianProjection": "a record; the routes build it checked",
    "symplectic.PairReport": "a record of pair diagnostics",
    "specflow.Path": "a record of a dimension and a sampler; routes check its samples",
    "specflow.UnitaryPath": "the name Path",
    "specflow.Interval": "a record of a certified interval",
    "specflow.GridPartition": "a record of certified intervals",
    "specflow.FlowResult": "a record of a result",
    "specflow.Crossing": "a record of a crossing",
    "specflow.BottLoop": "a record of a generator loop",
    "specflow.bott_loop": "takes character values and block sizes",
    "winding.CanonicalContraction": "a record; canonical_path builds it checked",
    "maslov.LagrangianPath": "the name Path",
    "eta_zeta.fit_character_lattice": "takes a value and character values",
    "dirac_models.SplitScenario": "a record; splitting_experiment checks its fields",
    "dirac_models.theta_projection": "takes boundary phases",
    "dirac_models.circle_spectrum": "takes a model its constructor checked",
    "dirac_models.circle_eta": "takes a model its constructor checked",
    "dirac_models.interval_calderon": "takes a model its constructor checked",
    "dirac_models.regularized_signed_sum": "takes eigenvalue lists",
    "dirac_models.enumerated_eta": "takes arithmetic progressions",
}

_INPUTS = {"path": PATHS, "matrix": MATRICES, "actor": ACTORS,
           "samples": {k: v for k, v in PATHS.items() if k != "nan"},
           "L": MATRICES,
           "stack": {k: v for k, v in MATRICES.items() if k != "stack"},
           "direction": {k: v for k, v in MATRICES.items() if k != "stack"}}
CASES = [(route, role, bad) for route, roles in ROUTES.items()
         for role in roles for bad in _INPUTS[role]]


def test_every_route_is_listed():
    listed = {name.split("[")[0] for name in ROUTES} | set(NOT_ROUTES)
    public = {f"{m.__name__.split('.')[-1]}.{name}" for m in MODULES for name in m.__all__}
    assert public == listed


@pytest.mark.parametrize("route, role, bad", CASES, ids=[f"{r}-{k}-{b}" for r, k, b in CASES])
def test_malformed_input_is_refused(route, role, bad):
    with np.errstate(invalid="ignore"), pytest.raises(EquiflowError):
        ROUTES[route][role](_INPUTS[role][bad])


def test_path_of_another_size_between_stacks():
    # the nodes of a given partition are 2x2, but the nudge samples taken
    # off the kernel at t = 0.5 are 3x3: a later stack of one route call
    # must have the size of its first
    def path(t):
        if t in (0.0, 0.5, 1.0):
            return np.diag([t - 0.5, 1.0]).astype(complex)
        return np.eye(3, dtype=complex)

    partition = specflow.GridPartition([specflow.Interval(0.0, 0.5, 0.5, 0.1, 1.0),
                                        specflow.Interval(0.5, 1.0, 0.5, 0.1, 1.0)])
    with pytest.raises(DimensionMismatch, match=r"t=0\.5.*\(3, 3\)"):
        specflow.spectral_flow(path, partition=partition)


@pytest.mark.parametrize("call, shape", [
    # a projection on 3 channels for a model of 2
    (lambda: dirac_models.secular_branches(
        _MODEL, symplectic.make_projection_from_unitary(np.eye(3))), "(6, 6)"),
    # L of 3 rows, or of no numbers, for a 4x4 boundary operator
    (lambda: symplectic.aps_projection(np.zeros((4, 4)), np.eye(3)[:, :2]), "(3, 2)"),
    (lambda: symplectic.aps_projection(np.zeros((4, 4)), "abc"), "()"),
], ids=["secular_branches-projection", "aps_projection-L_rows", "aps_projection-L_string"])
def test_size_shared_with_another_input(call, shape):
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
        call()
