"""Which library functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every public function (defined in the module, name without a leading
underscore) of the library's layers is wrapped, plus the harness entry point `run_config` and `scipy.linalg.expm`,
the matrix exponential the path samplers call.  Span names are
"<layer>.<function>"; the samplers the benchmark builds are wrapped as
"sampler" by run.py.
"""

import inspect

import numpy as np
import scipy.linalg

from equiflow import dirac_models, eta_zeta, maslov, spectra, specflow, symplectic, winding
from equiflow.harness import cli, generators, serialize

LAYERS = {
    "spectra": spectra,
    "specflow": specflow,
    "winding": winding,
    "symplectic": symplectic,
    "maslov": maslov,
    "eta_zeta": eta_zeta,
    "dirac_models": dirac_models,
    "harness.generators": generators,
    "harness.serialize": serialize,
}


def _samples(tracer, args, kwargs, out):
    tracer.add("spectra.track_branches.samples", len(out.times))


def _intervals(tracer, args, kwargs, out):
    tracer.add("specflow.good_partition.intervals", len(out.intervals))


def _terms(tracer, args, kwargs, out):
    n = np.asarray(args[0] if args else kwargs["values"]).size
    tracer.add("dirac_models.regularized_signed_sum.terms", n)
    # computed, not measured: the float64 values and complex128 weights read
    tracer.add("dirac_models.regularized_signed_sum.bytes_computed", n * (8 + 16))


def _maslov_mode(args, kwargs):
    return kwargs.get("mode", args[3] if len(args) > 3 else "winding")


_AFTER = {
    "spectra.track_branches": _samples,
    "specflow.good_partition": _intervals,
    "dirac_models.regularized_signed_sum": _terms,
}
_NAME_OF = {"maslov.maslov_index": _maslov_mode}


def targets(tracer):
    out = []
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                out.append((module, attr, name, _AFTER.get(name), _NAME_OF.get(name)))
    out.append((cli, "run_config", "harness.run_config", None, None))
    out.append((scipy.linalg, "expm", "scipy.linalg.expm", None, None))
    return out


def count_delta(before, after):
    """Per-case change of every call count and counter (zero entries dropped)."""
    return sorted((k, v - before.get(k, 0)) for k, v in after.items() if v != before.get(k, 0))


def per_layer_metrics(table, counts, setup_table):
    """The named per-layer metrics, from one traced pass over the pool."""

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    def us_per_call(name):
        c, incl, _ = table.get(name, (0, 0.0, 0.0))
        return incl / c * 1e6 if c else 0.0

    return {
        "spectra.eig_unitary.calls": (calls("spectra.eig_unitary"), "count"),
        "spectra.eig_unitary.us_per_call": (us_per_call("spectra.eig_unitary"), "us"),
        "spectra.opnorm.calls": (calls("spectra.opnorm"), "count"),
        "spectra.track_branches.samples": (counts.get("spectra.track_branches.samples", 0),
                                           "count"),
        "spectra.branch_value_at.calls": (calls("spectra.branch_value_at"), "count"),
        "spectra.eig_hermitian.calls": (calls("spectra.eig_hermitian"), "count"),
        "spectra.eig_hermitian.us_per_call": (us_per_call("spectra.eig_hermitian"), "us"),
        "spectra.integrate.calls": (calls("spectra.integrate"), "count"),
        "spectra.integrate.self_s": (self_s("spectra.integrate"), "s"),
        "spectra.weighted_trace.calls": (calls("spectra.weighted_trace"), "count"),
        "specflow.good_partition.calls": (calls("specflow.good_partition"), "count"),
        "specflow.good_partition.intervals": (
            counts.get("specflow.good_partition.intervals", 0), "count"),
        "specflow.good_partition.self_s": (self_s("specflow.good_partition"), "s"),
        "specflow.spectral_flow.self_s": (self_s("specflow.spectral_flow"), "s"),
        "specflow.crossing_oracle.self_s": (self_s("specflow.crossing_oracle"), "s"),
        "winding.winding_number.calls": (calls("winding.winding_number"), "count"),
        "winding.winding_number.self_s": (self_s("winding.winding_number"), "s"),
        "winding.path_derivative.calls": (calls("winding.path_derivative"), "count"),
        "winding.path_derivative.self_s": (self_s("winding.path_derivative"), "s"),
        "winding.fredholm_det_path.self_s": (self_s("winding.fredholm_det_path"), "s"),
        "maslov.maslov_index.grid.self_s": (self_s("maslov.maslov_index.grid"), "s"),
        "maslov.triple_index_path.calls": (calls("maslov.triple_index_path"), "count"),
        "eta_zeta.eta_form.calls": (calls("eta_zeta.eta_form"), "count"),
        "eta_zeta.getzler_spectral_flow.self_s": (self_s("eta_zeta.getzler_spectral_flow"),
                                                  "s"),
        "dirac_models.regularized_signed_sum.calls": (
            calls("dirac_models.regularized_signed_sum"), "count"),
        "dirac_models.regularized_signed_sum.terms": (
            counts.get("dirac_models.regularized_signed_sum.terms", 0), "count"),
        "dirac_models.regularized_signed_sum.bytes_computed": (
            counts.get("dirac_models.regularized_signed_sum.bytes_computed", 0), "B"),
        "dirac_models.regularized_signed_sum.self_s": (
            self_s("dirac_models.regularized_signed_sum"), "s"),
        "dirac_models.circle_eta.self_s": (self_s("dirac_models.circle_eta"), "s"),
        "dirac_models.interval_eta.self_s": (self_s("dirac_models.interval_eta"), "s"),
        "dirac_models.splitting_experiment.self_s": (
            self_s("dirac_models.splitting_experiment"), "s"),
        "harness.generators.self_s": (
            sum(v[2] for k, v in setup_table.items() if k.startswith("harness.generators.")),
            "s"),
        "harness.run_config.self_s": (self_s("harness.run_config"), "s"),
        "harness.dump_report.self_s": (self_s("harness.serialize.dump_report"), "s"),
        "sampler.calls": (calls("sampler"), "count"),
        "sampler.expm.calls": (calls("scipy.linalg.expm"), "count"),
        "sampler.self_s": (self_s("sampler"), "s"),
    }
