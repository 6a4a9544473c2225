"""Command line interface.

    equiflow run <config.json> [--out DIR]
    equiflow verify <suite> [--seed S] [--out DIR]
    equiflow list

Configs are UTF-8 JSON documents (schema below); reports are JSON on stdout.
Exit codes: 0 success, 1 computational failure / failed verification,
2 invalid configuration.

Config schema (top-level keys):
    kind        one of the scenario kinds listed by `equiflow list`
    seed        integer, mandatory for randomized generators
    generator   {"name": ..., "params": {...}}           (scenario input)
    group       {"order": N, "weights": [k_i], "powers": [r, ...]}  (optional)
    tolerances  overrides for the TolerancePolicy fields  (optional)
    output      {"csv": "file.csv"}                       (optional)

Matrices are written as row-major lists of [re, im] pairs; complex results
as [re, im].
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from math import pi

import numpy as np
import scipy.linalg

from ..errors import ConfigInvalid, EquiflowError
from ..tolerances import DEFAULT, TolerancePolicy
from . import generators as gen
from .serialize import dump_report, matrix_from_wire, write_spectrum_csv
from .suites import ACCEPTANCE_SEED, run_suite, suite_names

_TOP_KEYS = {"kind", "seed", "generator", "group", "tolerances", "output"}


def _fail_config(msg):
    raise ConfigInvalid(msg)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        cfg = json.loads(text)
    except OSError as exc:
        _fail_config(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _fail_config(f"config line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(cfg, dict):
        _fail_config("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        _fail_config(f"unknown top-level keys: {sorted(unknown)}")
    if "kind" not in cfg:
        _fail_config("missing required key 'kind'")
    if cfg["kind"] not in KINDS:
        _fail_config(f"kind '{cfg['kind']}' not in {KINDS}")
    return cfg


def _policy_from(cfg):
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        _fail_config("'tolerances' must be an object")
    fields = set(TolerancePolicy.__dataclass_fields__)
    unknown = set(tol) - fields
    if unknown:
        _fail_config(f"unknown tolerance keys: {sorted(unknown)}")
    try:
        return replace(DEFAULT, **tol) if tol else DEFAULT
    except ValueError as exc:
        _fail_config(str(exc))


def _generator_of(cfg, allowed, default=None):
    g = cfg.get("generator", default if default is None else {"name": default})
    if g is None:
        _fail_config("missing 'generator'")
    if not isinstance(g, dict) or "name" not in g:
        _fail_config("'generator' must be an object with a 'name'")
    name = g["name"]
    if name not in allowed:
        _fail_config(f"generator '{name}' not valid here; allowed: {sorted(allowed)}")
    params = g.get("params", {})
    extra = set(g) - {"name", "params"}
    if extra:
        _fail_config(f"unknown generator keys: {sorted(extra)}")
    if not isinstance(params, dict):
        _fail_config("'params' must be an object")
    return name, params


def _need_seed(cfg):
    if "seed" not in cfg or not isinstance(cfg["seed"], int):
        _fail_config("randomized generators require an integer 'seed'")
    return cfg["seed"]


def _group_elements(cfg, dim):
    """Diagonal Z_N elements from the config; returns list of (label, matrix)."""
    grp = cfg.get("group")
    if grp is None:
        return [("id", np.eye(dim, dtype=complex))]
    unknown = set(grp) - {"order", "weights", "powers"}
    if unknown:
        _fail_config(f"unknown group keys: {sorted(unknown)}")
    try:
        order = int(grp["order"])
        weights = [int(k) for k in grp.get("weights", [0] * dim)]
        powers = [int(r) for r in grp.get("powers", [1])]
    except (KeyError, TypeError, ValueError) as exc:
        _fail_config(f"invalid group spec: {exc}")
    if len(weights) != dim:
        _fail_config(f"group weights must have length {dim}")
    w = np.exp(2j * pi / order)
    out = []
    for r in powers:
        out.append((f"g^{r}", np.diag(w ** (np.array(weights) * r))))
    return out


def _param_matrix(params, key, default):
    if key not in params:
        return np.asarray(default, dtype=complex)
    val = params[key]
    if isinstance(val, list) and val and not isinstance(val[0], list):
        return np.diag(np.asarray(val, dtype=float)).astype(complex)
    return matrix_from_wire(val, key)


# --- scenario runners --------------------------------------------------------


def _run_sf(cfg, policy):
    from ..specflow import Path, bott_loop, crossing_oracle, spectral_flow

    name, params = _generator_of(cfg, {"diag_crossing", "random", "bott",
                                       "avoided_crossing", "constant"})
    results, diag = {}, {}
    if name == "diag_crossing":
        order = int(params.get("order", 3))
        power = int(params.get("power", 1))
        w = np.exp(2j * pi * power / order)
        path = Path(2, lambda t: np.diag([2 * t - 1, 1.0]).astype(complex))
        h = np.diag([w, 1.0])
        r1 = spectral_flow(path, h, policy=policy)
        r2 = crossing_oracle(path, h, policy=policy)
        results["sf"] = r1.value
        results["oracle"] = r2.value
        diag["crossings"] = [(c.time, c.direction, c.weight) for c in r2.crossings]
    elif name == "random":
        seed = _need_seed(cfg)
        dim = int(params.get("dim", 4))
        order = int(params.get("order", 3))
        path, h = gen.commuting_hermitian_path(dim, order, gen.rng_for(seed))
        r1 = spectral_flow(path, h, policy=policy)
        r2 = crossing_oracle(path, h, policy=policy)
        results["sf"], results["oracle"] = r1.value, r2.value
        diag["n_intervals"] = r1.diagnostics.get("n_intervals")
    elif name == "bott":
        order = int(params.get("order", 3))
        powers = [int(p) for p in params.get("powers", [1])]
        w = np.exp(2j * pi / order)
        weights = [w ** p for p in powers]
        bl = bott_loop(weights, (int(params.get("n_plus", 2)),
                                 int(params.get("n_minus", len(weights) + 1))))
        from ..winding import winding_number
        results["sf"] = spectral_flow(bl.hermitian_path, bl.h, policy=policy).value
        results["winding"] = winding_number(bl.unitary_path, bl.h, policy)
        results["expected"] = bl.expected
    elif name == "avoided_crossing":
        delta = float(params.get("delta", 1e-3))
        path = Path(2, lambda t: np.array([[t - 0.5, delta],
                                           [delta, 0.5 - t]], dtype=complex))
        results["sf"] = spectral_flow(path, policy=policy).value
    else:  # constant
        entries = params.get("entries", [1.0, -2.0])
        path = Path(len(entries), lambda t: np.diag(entries).astype(complex))
        results["sf"] = spectral_flow(path, policy=policy).value
    return results, diag


def _run_winding(cfg, policy):
    from ..specflow import Path
    from ..winding import fredholm_det_path, winding_number

    name, params = _generator_of(cfg, {"scalar_loop", "random", "constant"})
    results, diag = {}, {}
    if name == "scalar_loop":
        order = int(params.get("order", 3))
        power = int(params.get("power", 1))
        w = np.exp(2j * pi * power / order)
        a = np.array([[w]])
        f = Path(1, lambda t: np.array([[np.exp(2j * pi * t)]]))
        results["winding"] = winding_number(f, a, policy)
        results["fredholm_det"] = fredholm_det_path(f, a, policy)
    elif name == "random":
        seed = _need_seed(cfg)
        dim = int(params.get("dim", 3))
        order = int(params.get("order", 3))
        f, a = gen.commuting_unitary_path(dim, order, gen.rng_for(seed),
                                          windings=int(params.get("windings", 1)))
        results["winding"] = winding_number(f, a, policy)
    else:
        entries = params.get("entries", [1.0])
        f = Path(len(entries), lambda t: np.diag(np.exp(1j * np.asarray(entries))))
        results["winding"] = winding_number(f, policy=policy)
    return results, diag


def _run_maslov(cfg, policy):
    from ..maslov import maslov_index

    name, params = _generator_of(cfg, {"random_pair"})
    seed = _need_seed(cfg)
    n = int(params.get("n", 2))
    order = int(params.get("order", 3))
    T, S, a = gen.lagrangian_loop_pair(n, order, gen.rng_for(seed),
                                       windings=int(params.get("windings", 1)))
    res = {}
    for mode in ("winding", "grid"):
        res[f"maslov_{mode}"] = maslov_index(T, S, a, mode=mode, policy=policy)
    return res, {}


def _run_double_index(cfg, policy):
    from ..spectra import isotypic_split
    from ..winding import double_index

    name, params = _generator_of(cfg, {"random", "example"})
    if name == "example":
        U = np.diag([-1.0 + 0j, np.exp(1j * pi / 2)])
        V = np.diag([-1.0 + 0j, np.exp(2j)])
        return {"tau": double_index(U, V, policy=policy)}, {}
    seed = _need_seed(cfg)
    n = int(params.get("n", 3))
    order = int(params.get("order", 3))
    rng = gen.rng_for(seed)
    U, a = gen.commuting_static_unitary(n, order, rng)
    # V in a's commutant: one random unitary per isotypic block of a
    Q, blocks, _ = isotypic_split(a, n, policy)
    inner = np.zeros((n, n), dtype=complex)
    for idx in blocks:
        inner[np.ix_(idx, idx)] = scipy.linalg.expm(1j * gen.rand_hermitian(len(idx), rng, 1.0))
    V = Q @ inner @ Q.conj().T
    return {"tau": double_index(U, V, a, policy)}, {}


def _run_triple_index(cfg, policy):
    from ..maslov import triple_index_path

    _name, params = _generator_of(cfg, {"random"})
    seed = _need_seed(cfg)
    n = int(params.get("n", 2))
    order = int(params.get("order", 3))
    rng = gen.rng_for(seed)
    # T is an open path: on three loops the block windings are additive and
    # the triple index vanishes identically
    T, a = gen.commuting_unitary_path(n, order, rng)
    S = gen.commutant_loop(a, rng)
    R = gen.commutant_loop(a, rng)
    return {"triple_index": triple_index_path(T, S, R, a, policy)}, {}


def _run_eta(cfg, policy):
    from ..eta_zeta import eta, reduced_eta, truncated_eta

    _name, params = _generator_of(cfg, {"diag"}, default="diag")
    entries = params.get("entries", [1.0, -2.0, 3.0])
    D = np.diag(np.asarray(entries, dtype=float)).astype(complex)
    s = complex(*params.get("s", [0.0, 0.0])) if isinstance(params.get("s"), list) \
        else complex(params.get("s", 0.0))
    out = {}
    for label, h in _group_elements(cfg, len(entries)):
        out[label] = {
            "eta": eta(D, h, s, policy),
            "reduced_eta": reduced_eta(D, h, policy),
            "truncated_eta_1": truncated_eta(D, h, 1.0, policy),
        }
    return out, {}


def _run_zeta_det(cfg, policy):
    from ..eta_zeta import zeta_determinant, zeta_determinant_product_route

    name, params = _generator_of(cfg, {"diag", "random"}, default="diag")
    if name == "diag":
        entries = params.get("entries", [2.0, -3.0])
        D = np.diag(np.asarray(entries, dtype=float)).astype(complex)
    else:
        seed = _need_seed(cfg)
        dim = int(params.get("dim", 4))
        D = gen.rand_hermitian(dim, gen.rng_for(seed), 2.0) + 0.3 * np.eye(dim)
    out = {}
    for label, h in _group_elements(cfg, D.shape[0]):
        out[label] = {
            "zeta_det": zeta_determinant(D, h, policy),
            "product_route": zeta_determinant_product_route(D, h, policy),
        }
    return out, {"det": complex(np.linalg.det(D))}


def _run_getzler(cfg, policy):
    from ..eta_zeta import getzler_spectral_flow
    from ..specflow import spectral_flow

    _name, params = _generator_of(cfg, {"random"}, default="random")
    seed = _need_seed(cfg)
    dim = int(params.get("dim", 4))
    order = int(params.get("order", 3))
    path, h = gen.commuting_hermitian_path(dim, order, gen.rng_for(seed))
    return {
        "getzler": getzler_spectral_flow(path, h, float(params.get("eps", 1.0)), policy),
        "spectral_flow": spectral_flow(path, h, policy=policy).value,
    }, {}


def _dirac_elements(cfg):
    grp = cfg.get("group", {})
    unknown = set(grp) - {"u_powers", "rotation_powers", "order"}
    if unknown:
        _fail_config(f"unknown group keys for dirac models: {sorted(unknown)}")
    ups = [int(p) for p in grp.get("u_powers", [0])]
    rots = [int(r) for r in grp.get("rotation_powers", [0])]
    return ups, rots


def _run_circle_eta(cfg, policy):
    from .. import dirac_models as dm

    _name, params = _generator_of(cfg, {"model"}, default="model")
    V = _param_matrix(params, "v", default=[[0.25]])
    u = matrix_from_wire(params["u"], "u") if "u" in params else None
    model = dm.CircleDiracModel(V, u, rotation_order=params.get("rotation_order"),
                                policy=policy)
    ups, rots = _dirac_elements(cfg)
    out, records = {}, ({} if _csv_target(cfg) else None)
    for p in ups:
        for r in rots:
            label = f"u^{p}.rot^{r}"
            out[label] = {"eta": dm.circle_eta(model, p, r,
                                               reduced=bool(params.get("reduced", False)))}
            if records is not None:
                records[label] = dm.circle_spectrum(model, params.get("window", (-6, 6)), p, r)
    diag = {"spectrum_window": list(params.get("window", (-6, 6)))}
    return out, {"spectra": records, **diag}


def _interval_projection(params, model):
    from .. import dirac_models as dm
    from ..symplectic import make_projection_from_unitary

    spec = params.get("boundary", {"theta": [pi / 2]})
    if not isinstance(spec, dict) or len(spec) != 1:
        _fail_config("'boundary' must be an object with one of: theta, calderon, unitary, aps")
    key, val = next(iter(spec.items()))
    if key == "theta":
        th = np.atleast_1d(np.asarray(val, dtype=float))
        return dm.theta_projection(th, model.m)
    if key == "calderon":
        P, _ = dm.interval_calderon(model)
        return P
    if key == "unitary":
        return make_projection_from_unitary(matrix_from_wire(val, "boundary unitary"))
    if key == "aps":
        from ..symplectic import aps_projection
        A = matrix_from_wire(val, "boundary operator") if val != "default" else None
        if A is None:
            m = model.m
            A = np.zeros((2 * m, 2 * m), dtype=complex)
            A[:m, m:] = np.eye(m)
            A[m:, :m] = np.eye(m)
        return aps_projection(A, policy=model.policy)
    _fail_config(f"unknown boundary kind '{key}'")


def _run_interval_eta(cfg, policy):
    from .. import dirac_models as dm

    _name, params = _generator_of(cfg, {"model"}, default="model")
    V = _param_matrix(params, "v", default=[[0.0]])
    u = matrix_from_wire(params["u"], "u") if "u" in params else None
    model = dm.IntervalDiracModel(float(params.get("L", 1.0)), V, u, policy=policy)
    P = _interval_projection(params, model)
    ups, _ = _dirac_elements(cfg)
    out, spectra = {}, ({} if _csv_target(cfg) else None)
    for p in ups:
        out[f"u^{p}"] = {"eta": dm.interval_eta(model, P, p,
                                                reduced=bool(params.get("reduced", False)))}
        if spectra is not None:
            win = params.get("window", (-6, 6))
            spectra[f"u^{p}"] = [(lam, w) for lam, w, _d in
                                 dm.interval_spectrum(model, P, win, p)]
    return out, {"spectra": spectra}


def _run_sw_check(cfg, policy):
    from .. import dirac_models as dm

    _name, params = _generator_of(cfg, {"model"}, default="model")
    V = _param_matrix(params, "v", default=[[0.3]])
    u = matrix_from_wire(params["u"], "u") if "u" in params else None
    model = dm.IntervalDiracModel(float(params.get("L", 1.0)), V, u, policy=policy)
    P = _interval_projection({"boundary": params.get("p", {"theta": [pi / 2]})}, model)
    Q = _interval_projection({"boundary": params.get("q", {"theta": [pi]})}, model)
    ups, _ = _dirac_elements(cfg)
    out = {}
    for p in ups:
        lhs, rhs, defect = dm.sw_identity_check(model, P, Q, p)
        out[f"u^{p}"] = {"lhs": lhs, "rhs": rhs, "defect": defect,
                         "abs_defect": abs(defect), "passed": bool(abs(defect) <= 1e-3)}
    return out, {}


def _run_split(cfg, policy):
    from .. import dirac_models as dm

    _name, params = _generator_of(cfg, {"model"}, default="model")
    V = _param_matrix(params, "v", default=[[0.25]])
    u = matrix_from_wire(params["u"], "u") if "u" in params else None
    half = dm.IntervalDiracModel(pi, V, u, policy=policy)
    spec = params.get("boundary", {"calderon": True})
    P = _interval_projection({"boundary": spec}, half)
    P_cal = P if "calderon" in spec else dm.interval_calderon(half)[0]
    ups, _ = _dirac_elements(cfg)
    out = {}
    for p, rep in zip(ups, dm._splitting_reports(half, P, P_cal, ups)):
        rep["abs_residual"] = abs(rep["residual"])
        rep["passed"] = bool(abs(rep["residual"]) <= 5e-3)
        out[f"u^{p}"] = rep
    return out, {}


def _run_verify_kind(cfg, policy):
    _name, params = _generator_of(cfg, {"suite"}, default="suite")
    suite = params.get("name")
    if suite is None:
        _fail_config("verify scenarios need generator.params.name = <suite>")
    seed = cfg.get("seed", ACCEPTANCE_SEED)
    res = run_suite(suite, seed)
    body = {"suite": res.name, "passed": res.passed, "total": res.total,
            "failures": res.failures, "max_err": res.max_err, "details": res.details}
    return body, {}


_RUNNERS = {
    "sf": _run_sf,
    "winding": _run_winding,
    "maslov": _run_maslov,
    "double_index": _run_double_index,
    "triple_index": _run_triple_index,
    "eta": _run_eta,
    "zeta_det": _run_zeta_det,
    "getzler": _run_getzler,
    "circle_eta": _run_circle_eta,
    "interval_eta": _run_interval_eta,
    "sw_check": _run_sw_check,
    "split": _run_split,
    "verify": _run_verify_kind,
}
KINDS = tuple(_RUNNERS)


def run_config(cfg):
    """Execute a validated config; returns the deterministic report body and
    the spectra for the CSV export (None unless `output.csv` is set)."""
    _csv_target(cfg)  # a bad 'output' fails before any computation
    policy = _policy_from(cfg)
    results, diagnostics = _RUNNERS[cfg["kind"]](cfg, policy)
    body = {
        "config": {k: v for k, v in cfg.items() if k != "output"},
        "results": results,
        "diagnostics": {k: v for k, v in diagnostics.items() if k != "spectra"},
    }
    return body, diagnostics.get("spectra")


def _csv_target(cfg):
    """The CSV file name of the config's `output` (falsy when none is asked)."""
    out = cfg.get("output", {})
    if not isinstance(out, dict):
        _fail_config("'output' must be an object")
    unknown = set(out) - {"csv"}
    if unknown:
        _fail_config(f"unknown output keys: {sorted(unknown)}")
    return out.get("csv")


def _write_csv_if_asked(cfg, spectra, out_dir):
    target = _csv_target(cfg)
    if not target or spectra is None:
        return
    if out_dir:
        target = os.path.join(out_dir, target)
    labels = sorted(spectra)
    merged = {}
    for label in labels:
        for lam, wt in spectra[label]:
            merged.setdefault(round(lam, 10), {})[label] = wt
    records = [(lam, [cols.get(l, 0.0 + 0.0j) for l in labels])
               for lam, cols in sorted(merged.items())]
    write_spectrum_csv(target, records, labels)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="equiflow",
        description="Equivariant spectral invariants: scenarios and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (JSON)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="directory for report/CSV artifacts")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite")
    p_ver.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    p_ver.add_argument("--out", default=None)

    sub.add_parser("list", help="list scenario kinds and verification suites")

    args = parser.parse_args(argv)

    if args.command == "list":
        print("scenario kinds:")
        for k in KINDS:
            print(f"  {k}")
        print("verification suites:")
        for s in suite_names():
            print(f"  {s}")
        return 0

    if args.command == "verify":
        t0 = time.time()
        try:
            res = run_suite(args.suite, args.seed)
        except EquiflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ConfigInvalid) else 1
        print(res.summary())
        for f in res.failures[:20]:
            print(f"  FAIL {f}")
        body = {"suite": res.name, "seed": args.seed, "passed": res.passed,
                "total": res.total, "failures": res.failures, "max_err": res.max_err,
                "details": res.details}
        doc = dump_report(body, wall_time=time.time() - t0)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"verify_{args.suite}.json"), "w") as fh:
                fh.write(doc)
        return 0 if res.passed else 1

    # run
    t0 = time.time()
    try:
        cfg = _load_config(args.config)
        body, spectra = run_config(cfg)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        _write_csv_if_asked(cfg, spectra, args.out)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EquiflowError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    doc = dump_report(body, wall_time=time.time() - t0)
    print(doc)
    if args.out:
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
