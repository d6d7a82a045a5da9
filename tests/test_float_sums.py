"""No nsch module sums floats with the builtin ``sum`` or ``math.fsum``.

From Python 3.12 on the builtin ``sum`` of floats is compensated, so it
gives other bits than on 3.10 and 3.11; ``math.fsum`` is compensated on
all of them.  ``control.ordered_sum`` (left to right) is the one float
sum, and array sums go through numpy.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nsch")
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def compensated_sums(source: str) -> list[int]:
    """The lines of ``source`` that call ``sum(...)`` or ``fsum(...)``
    (bare or as an attribute, e.g. ``math.fsum``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id in ("sum", "fsum")) or (
                    isinstance(f, ast.Attribute) and f.attr == "fsum"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_no_builtin_float_sum(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert compensated_sums(fh.read()) == [], module


def test_every_call_form_is_seen():
    source = (
        "import math\n"
        "a = sum(x)\n"
        "b = math.fsum(x)\n"
        "c = ordered_sum(x) + x.sum() + np.sum(x)\n"
        "def f():\n"
        "    return sum(t for t in x)\n"
    )
    assert compensated_sums(source) == [2, 3, 6]
