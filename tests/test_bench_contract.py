"""The traced benchmark's contract with the package.

``bench/spans.py`` wraps every (module, qualified name) that
``bench/layers.py`` lists: a method only when it is an attribute of its own
class (so each named band layout must bind ``matvec`` in its own body), a
function as a module attribute. A name that stops resolving drops out of the
traced run as absent, so it is pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _specs():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPECS


def test_traced_names_resolve():
    specs = _specs()
    assert specs
    unresolved = []
    for _, module_name, qualname, _ in specs:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = isinstance(owner, type) and vars(owner).get(attr) is not None
        else:
            found = getattr(module, attr, None) is not None
        if not found:
            unresolved.append(f"{module_name}.{qualname}")
    assert unresolved == []
