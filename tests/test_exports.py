import ast
import importlib
import itertools
import json
import os
import pkgutil
import subprocess
import sys

import equiflow

_SRC = os.path.dirname(equiflow.__file__)


def _modules():
    """(path relative to the package, parsed module) of every source file."""
    out = []
    for root, _, files in os.walk(_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    out.append((os.path.relpath(path, _SRC), ast.parse(fh.read())))
    return out


def _exported(tree):
    """The strings of a module's `__all__`."""
    return {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for elt in stmt.value.elts}


def test_no_unused_imports():
    # a name imported into a module is read there or exported (the harness
    # package imports its modules to expose them)
    unused = []
    for rel, tree in _modules():
        if rel == os.path.join("harness", "__init__.py"):
            continue
        nodes = list(ast.walk(tree))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= _exported(tree)
        unused += [f"{rel}: {name}" for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                   for name in ((a.asname or a.name).split(".")[0] for a in n.names)
                   if name not in read]
    assert not unused, f"imported and never used: {unused}"


def test_no_unreferenced_private_definitions():
    # a private module-level function or class is read or imported somewhere
    # in the package outside its own definition
    tops = []
    for rel, tree in _modules():
        for stmt in tree.body:
            nodes = list(ast.walk(stmt))
            refs = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            refs |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            refs |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            tops.append((rel, stmt, refs))
    dead = [f"{rel}: {stmt.name}" for rel, stmt, _ in tops
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not any(stmt.name in refs for _, other, refs in tops if other is not stmt)]
    assert not dead, f"private definitions nothing references: {dead}"


def _module_name(rel):
    """Dotted name of a package file: "harness/cli.py" -> "equiflow.harness.cli"."""
    parts = rel[:-len(".py")].split(os.sep)
    return ".".join(["equiflow"] + [p for p in parts if p != "__init__"])


def _import_base(node, name, rel):
    """The absolute module an `ImportFrom` node of the file rel (module name) imports from."""
    if not node.level:
        return node.module
    pkg = name if rel.endswith("__init__.py") else name.rsplit(".", 1)[0]
    pkg = pkg.rsplit(".", node.level - 1)[0] if node.level > 1 else pkg
    return f"{pkg}.{node.module}" if node.module else pkg


def _aliases(tree, name, rel):
    """The dotted names a file's local names stand for: its top-level
    definitions, the modules it imports and the names it imports."""
    alias = {stmt.name: f"{name}.{stmt.name}" for stmt in tree.body
             if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.split(".")[0]
                alias[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, name, rel)
            for a in node.names:
                alias[a.asname or a.name] = f"{base}.{a.name}"
    return alias


def _dotted(node, alias):
    """The dotted name an expression reads, a local name or an attribute chain
    on one resolved through alias (None for any other expression)."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in alias:
        return ".".join([alias[node.id]] + chain[::-1])
    return None


def _reads(tree, name, rel):
    """Dotted names of the package a file reads: the modules and names it
    imports, and the names and attributes it reads through them."""
    alias, out = _aliases(tree, name, rel), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, name, rel)
            out |= {base} | {f"{base}.{a.name}" for a in node.names}
        elif isinstance(node, (ast.Name, ast.Attribute)) and _dotted(node, alias):
            out.add(_dotted(node, alias))
    return out


def _sources():
    """(module name, path relative to the package, parsed file) of every
    package module, then of every benchmark file."""
    out = [(_module_name(rel), rel, tree) for rel, tree in _modules()]
    bench = os.path.join(os.path.dirname(os.path.dirname(_SRC)), "perfbench")
    for fname in sorted(os.listdir(bench)):
        if fname.endswith(".py"):
            with open(os.path.join(bench, fname)) as fh:
                out.append((fname[:-3], fname, ast.parse(fh.read())))
    return out


def _origins(files):
    """Re-exported dotted name -> the dotted name of its origin."""
    return {f"{name}.{a.asname or a.name}": f"{_import_base(stmt, name, rel)}.{a.name}"
            for name, (rel, tree) in files.items()
            for stmt in tree.body if isinstance(stmt, ast.ImportFrom) for a in stmt.names}


# Exported names that no other module of the package and no benchmark file
# reads, each with the reason it stays public.
_UNREACHED_EXPORTS = {
    # records that public routes return or accept
    "equiflow.eta_zeta.SpectralOperator": "accepted by every eta_zeta operator route",
    "equiflow.spectra.BranchSet": "returned by track_blocks and winding_events",
    "equiflow.specflow.GridPartition": "returned by good_partition, accepted by spectral_flow",
    "equiflow.specflow.Interval": "the record GridPartition holds",
    "equiflow.specflow.FlowResult": "returned by spectral_flow and crossing_oracle",
    "equiflow.specflow.Crossing": "listed in the FlowResult of crossing_oracle",
    "equiflow.specflow.BottLoop": "returned by bott_loop",
    "equiflow.symplectic.PairReport": "returned by pair_report",
    "equiflow.winding.CanonicalContraction": "returned by canonical_path",
    "equiflow.harness.suites.SuiteResult": "returned by run_suite",
    # paper constructs
    "equiflow.maslov.in_maslov_cycle": "the Maslov cycle predicate",
    "equiflow.symplectic.canonical_determinant": "the finite canonical determinant",
    "equiflow.winding.canonical_path": "the canonical contraction path",
    "equiflow.winding.relative_double_index": "the relative double index",
    # references that tests or suites compare against
    "equiflow.harness.serialize.jsonable": "the reference dump_report is compared with byte "
                                           "for byte",
    "equiflow.dirac_models.regularized_signed_sum": "the cutoff sum over an eigenvalue list, "
                                                    "named by the benchmark's per-layer metrics",
    # package metadata
    "equiflow.__version__": "the version string of the package",
}


def test_every_export_is_reached():
    # each name in a module's __all__ is read by another module of the
    # package (the CLI and the suites among them) or by the benchmark, or
    # is listed above with its reason; a listed name that is read is stale
    files = {_module_name(rel): (rel, tree) for rel, tree in _modules()}
    reads = {name: _reads(tree, name, rel) for name, rel, tree in _sources()}
    origin = _origins(files)
    unreached = set()
    for name, (rel, tree) in files.items():
        # a re-exported name is reached where its origin is read
        for export in (f"{name}.{x}" for x in _exported(tree)):
            keys = {export, origin.get(export)}
            if not any(keys & r for other, r in reads.items() if other != name):
                unreached.add(export)
    assert unreached - set(_UNREACHED_EXPORTS) == set(), "exported, reached by nothing"
    assert set(_UNREACHED_EXPORTS) - unreached == set(), "listed, but reached or not exported"
    assert all(_UNREACHED_EXPORTS.values())
    # in a module with __all__, each top-level name without a leading
    # underscore is in it; the suite functions registered by `_register` are
    # reached through `run_suite`, and their module does not export them
    unlisted = []
    for name, (rel, tree) in files.items():
        exported = _exported(tree)
        for stmt in tree.body if exported else ():
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if any(getattr(getattr(d, "func", None), "id", None) == "_register"
                       for d in stmt.decorator_list):
                    continue
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unlisted += [f"{name}.{x}" for x in names
                         if not x.startswith("_") and x not in exported]
    assert not unlisted, f"public by name, not in __all__: {unlisted}"


# Defaulted parameters of exported functions that no call in the package or
# the benchmark sets, each with the reason it stays a parameter.
_UNSET_OPTIONS = {
    # the actor of the paper constructs that stay public
    "equiflow.symplectic.pair_report.h": "the actor of the pair diagnostics",
    "equiflow.symplectic.canonical_determinant.h": "the actor of the canonical determinant",
    "equiflow.winding.canonical_path.a": "the actor of the canonical contraction",
    "equiflow.winding.relative_double_index.a": "the actor of the relative double index",
    # inputs of a case the routes of the package never build
    "equiflow.symplectic.aps_projection.L": "the kernel Lagrangian of a boundary operator "
                                            "with a kernel",
    # references that tests compare against
    "equiflow.dirac_models.enumerated_eta.reduced": "the reference tests compare "
                                                    "_exact_eta(reduced=True) against",
}


def test_every_option_is_set():
    # each defaulted parameter of an exported function is passed a value
    # other than its default (by source text, by keyword or by position) by
    # some call in the package or the benchmark, or is listed above with its
    # reason; a listed parameter that is set is stale.  Callees resolve as in
    # `_reads`, so a method of the same name is no caller.
    files = {_module_name(rel): (rel, tree) for rel, tree in _modules()}
    functions = {f"{name}.{stmt.name}": stmt for name, (rel, tree) in files.items()
                 for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name in _exported(tree)}
    defaults = {}
    for key, fn in functions.items():
        args = fn.args.posonlyargs + fn.args.args
        pairs = list(zip(args[len(args) - len(fn.args.defaults):], fn.args.defaults))
        pairs += [(a, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
        # a TolerancePolicy is no option of one route: every route takes the
        # one source of thresholds, which a config's `tolerances` sets
        defaults.update({f"{key}.{a.arg}": ast.unparse(d) for a, d in pairs
                         if getattr(a.annotation, "id", None) != "TolerancePolicy"})
    origin = _origins(files)
    given = set()
    for name, rel, tree in _sources():
        alias = _aliases(tree, name, rel)
        for node in ast.walk(tree):
            callee = _dotted(node.func, alias) if isinstance(node, ast.Call) else None
            callee = origin.get(callee, callee)
            if callee not in functions:
                continue
            fn = functions[callee]
            positional = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
            passed = dict(zip([a.arg for a in fn.args.posonlyargs + fn.args.args], positional))
            passed.update({k.arg: k.value for k in node.keywords if k.arg})
            given |= {f"{callee}.{p}" for p, value in passed.items()
                      if ast.unparse(value) != defaults.get(f"{callee}.{p}", ast.unparse(value))}
    unset = set(defaults) - given
    assert not unset - set(_UNSET_OPTIONS), f"options no caller sets: {unset - set(_UNSET_OPTIONS)}"
    assert not set(_UNSET_OPTIONS) - unset, "listed, but set or not an option"
    assert all(_UNSET_OPTIONS.values())


def _checkout_trees():
    """(path relative to the checkout, parsed file) of every file under
    src/, tests/ and perfbench/."""
    root = os.path.dirname(os.path.dirname(_SRC))
    out = []
    for top in ("src", "tests", "perfbench"):
        for base, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path) as fh:
                        out.append((os.path.relpath(path, root), ast.parse(fh.read())))
    return out


def test_every_member_is_read():
    """Each method, property and dataclass field of a class of the package
    (dunders excluded) is read somewhere in src/, tests/ or perfbench/.  A read
    is an attribute in load context (`x.name`) or the string a `getattr` or
    `hasattr` call names.  The match is by name only: a read of the same name
    on any object counts, so a member that shares its name with a read one
    passes unread."""
    read = set()
    for _, tree in _checkout_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  in ("getattr", "hasattr") and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = []
    for rel, tree in _modules():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            is_dataclass = any(ast.unparse(d).startswith("dataclass")
                               for d in cls.decorator_list)
            names = [s.name for s in cls.body if isinstance(s, ast.FunctionDef)]
            names += [s.target.id for s in cls.body if is_dataclass
                      and isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            unread += [f"{rel}: {cls.name}.{x}" for x in names
                       if not (x.startswith("__") and x.endswith("__")) and x not in read]
    assert not unread, f"members nothing reads: {unread}"


def test_every_parameter_is_read():
    # each parameter of an exported function is read in its body (nested
    # functions and lambdas included)
    unread = []
    for rel, tree in _modules():
        exported = _exported(tree)
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in exported):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{_module_name(rel)}.{fn.name}.{p.arg}" for p in params
                       if p.arg not in read]
    assert not unread, f"parameters never read: {unread}"


def test_every_error_is_raised():
    # each class of errors.py is raised in another module of the package, or
    # handed to a check that raises it, or is a base of such a class
    trees = dict(_modules())
    raised = set()
    for rel, tree in trees.items():
        if rel == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) != "isinstance":
                raised |= {a.id for a in node.args + [k.value for k in node.keywords]
                           if isinstance(a, ast.Name)}
            elif isinstance(node, ast.ClassDef):
                raised |= {b.id for b in node.bases if isinstance(b, ast.Name)}
    classes = [c for c in trees["errors.py"].body if isinstance(c, ast.ClassDef)]
    for c in reversed(classes):  # a base is defined before its subclasses
        if c.name in raised:
            raised |= {b.id for b in c.bases if isinstance(b, ast.Name)}
    unused = [c.name for c in classes if c.name not in raised]
    assert not unused, f"error classes nothing raises: {unused}"


def test_every_export_resolves():
    names = ["equiflow"] + [m.name for m in pkgutil.walk_packages(equiflow.__path__, "equiflow.")]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"


_FOOTPRINT = """
import importlib, json, math, pkgutil, sys
import numpy as np
import equiflow

for m in pkgutil.walk_packages(equiflow.__path__, "equiflow."):
    importlib.import_module(m.name)
import equiflow.harness.cli
from equiflow import spectra
from equiflow.eta_zeta import truncated_eta
from equiflow.harness import generators as gen
from equiflow.maslov import LagrangianPath, maslov_index
from equiflow.specflow import bott_loop, crossing_oracle, spectral_flow
from equiflow.winding import winding_events, winding_number

solves = []
assign = spectra._assign
spectra._assign = lambda C: solves.append(C.shape[0]) or assign(C)


def loaded():
    return sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules)


out = {"imported": loaded()}
body, _ = equiflow.harness.cli.run_config({"kind": "split", "generator": {"name": "model",
    "params": {"v": [0.25], "boundary": {"calderon": True}}}})
out["split"] = all(r["passed"] for r in body["results"].values())
f, a = gen.commuting_unitary_path(3, 3, gen.rng_for(4))
out["winding"] = winding_number(f, a)
T, S, b = gen.lagrangian_loop_pair(2, 3, gen.rng_for(7))
out["maslov"] = maslov_index(LagrangianPath(2, T), LagrangianPath(2, S), b, mode="grid")
out["ran"] = loaded()
# every link of this path matches by the identity screen
path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(9))
out["screened"] = crossing_oracle(path, h).value
out["screened_solves"] = len(solves)
# each block's eigenvalues are doubled, so tracking them needs the assignment
# solve, on the Hermitian loop and on its unitary image
loop = bott_loop([np.exp(2j * np.pi / 3)] * 2, (2, 2))
path, h = loop.hermitian_path, loop.h
out["oracle"], out["sf"] = crossing_oracle(path, h).value, spectral_flow(path, h).value
out["oracle_solves"] = len(solves)
out["events"] = len(winding_events(loop.unitary_path, h)[1])
out["tracked"] = loaded()
out["event_solves"] = len(solves)
lam = [-1.3, 0.2, 0.7, 2.5]
out["eta"] = truncated_eta(np.diag(lam), eps=0.8)
out["eta_ref"] = sum(math.copysign(math.erfc(math.sqrt(0.8) * abs(x)), x) for x in lam)
out["used"] = loaded()
print(json.dumps({k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in out.items()}))
"""


def test_import_footprint():
    # no route loads scipy.optimize: a fresh process that imports the whole
    # library and runs the Dirac, winding, grid-Maslov and branch-tracking
    # routes never loads it, also where tracking solves assignments (the
    # doubled-eigenvalue Bott loop, Hermitian and unitary); scipy.special is
    # imported where it is used (a truncated eta), which still gives its value
    src = os.path.dirname(os.path.dirname(equiflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["imported"] == [] and out["ran"] == [] and out["tracked"] == []
    assert out["split"]
    w3 = complex(-0.5, 3 ** 0.5 / 2)
    assert abs(complex(*out["winding"]) - (2 + 3 * w3)) < 1e-9
    assert abs(complex(*out["maslov"]) - w3) < 1e-9
    assert abs(complex(*out["screened"]) + w3) < 1e-9
    assert out["screened_solves"] == 0 < out["oracle_solves"] < out["event_solves"]
    assert out["events"] > 0
    assert out["used"] == ["scipy.special"]
    assert abs(complex(*out["oracle"]) - 2 * w3) < 1e-9
    assert abs(complex(*out["oracle"]) - complex(*out["sf"])) < 1e-9
    assert abs(complex(*out["eta"]) - out["eta_ref"]) < 1e-14


def test_no_module_imports_scipy_optimize():
    # the assignment solve of branch matching is the library's own
    # (`spectra._assign`); no package module imports scipy.optimize, at top
    # level or inside a function
    found = []
    for rel, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
            else:
                continue
            found += [f"{rel}:{node.lineno}" for name in names
                      if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert not found, f"scipy.optimize imported at {found}"
