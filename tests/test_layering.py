"""Module layering: each nsch module imports only modules of lower layers.

The layers, lowest first; modules in one layer do not import each other.
``__init__`` re-exports the public names and is exempt.  Imports inside
functions count too.
"""

import ast
import os

import pytest

LAYERS = (
    ("errors",),
    ("grid",),
    ("mac", "constitutive"),
    ("state",),
    ("linearized", "adjoint", "snapshots"),
    ("control",),
    ("config", "verification"),
    ("cli",),
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nsch")
MODULES = sorted(
    name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def nsch_imports(source: str) -> set[str]:
    """The nsch modules that a module's ``source`` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("nsch."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 or node.module == "nsch" or (node.module or "").startswith("nsch."):
                # "from .x import y" / "from nsch.x import y" name module x;
                # "from . import x" / "from nsch import x" name module x in the list
                base = (node.module or "").removeprefix("nsch").lstrip(".")
                if base:
                    found.add(base.split(".")[0])
                else:
                    found.update(a.name for a in node.names)
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_lower_layers(module):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        imported = nsch_imports(fh.read())
    upward = {m for m in imported if RANK.get(m, len(LAYERS)) >= RANK[module]}
    assert not upward, f"{module} (layer {RANK[module]}) imports {sorted(upward)}"


def test_every_import_form_is_seen():
    source = (
        "import numpy\n"
        "from .grid import laplacian\n"
        "from . import mac as m\n"
        "import nsch.state\n"
        "from nsch.control import optimize\n"
        "def f():\n"
        "    from nsch import config\n"
        "    from .adjoint import solve_adjoint\n"
    )
    assert nsch_imports(source) == {"grid", "mac", "state", "control", "config", "adjoint"}
