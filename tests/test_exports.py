import importlib
import pkgutil

import equiflow


def test_every_export_resolves():
    names = ["equiflow"] + [m.name for m in pkgutil.walk_packages(equiflow.__path__, "equiflow.")]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names {missing}"
