import ast
import importlib
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
from equiflow.eta_zeta import truncated_eta
from equiflow.harness import generators as gen
from equiflow.maslov import LagrangianPath, maslov_index
from equiflow.specflow import bott_loop, crossing_oracle, spectral_flow
from equiflow.winding import winding_number


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
# every link of this path matches by the identity screen, and tracking it
# still loads the assignment solve, so a process's memory does not depend
# on the path
path, h = gen.commuting_hermitian_path(4, 3, gen.rng_for(9))
out["screened"] = crossing_oracle(path, h).value
out["tracked"] = loaded()
# each block's eigenvalues are doubled, so tracking them needs the assignment solve
loop = bott_loop([np.exp(2j * np.pi / 3)] * 2, (2, 2))
path, h = loop.hermitian_path, loop.h
out["oracle"], out["sf"] = crossing_oracle(path, h).value, spectral_flow(path, h).value
lam = [-1.3, 0.2, 0.7, 2.5]
out["eta"] = truncated_eta(np.diag(lam), eps=0.8)
out["eta_ref"] = sum(math.copysign(math.erfc(math.sqrt(0.8) * abs(x)), x) for x in lam)
out["used"] = loaded()
print(json.dumps({k: [v.real, v.imag] if isinstance(v, complex) else v for k, v in out.items()}))
"""


def test_import_footprint():
    # scipy.optimize and scipy.special are imported where they are used: a
    # fresh process that imports the whole library and runs the Dirac,
    # winding and grid-Maslov routes never loads them, and the routes that
    # use them (branch tracking of blocks with two or more eigenpairs, a
    # truncated eta) load them and still give their values
    src = os.path.dirname(os.path.dirname(equiflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["imported"] == [] and out["ran"] == []
    assert out["split"]
    w3 = complex(-0.5, 3 ** 0.5 / 2)
    assert abs(complex(*out["winding"]) - (2 + 3 * w3)) < 1e-9
    assert abs(complex(*out["maslov"]) - w3) < 1e-9
    assert "scipy.optimize" in out["tracked"]
    assert abs(complex(*out["screened"]) + w3) < 1e-9
    assert out["used"] == ["scipy.optimize", "scipy.special"]
    assert abs(complex(*out["oracle"]) - 2 * w3) < 1e-9
    assert abs(complex(*out["oracle"]) - complex(*out["sf"])) < 1e-9
    assert abs(complex(*out["eta"]) - out["eta_ref"]) < 1e-14
