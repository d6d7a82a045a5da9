"""A trajectory's nodes are read only through the trajectory.

``state.Trajectory`` is the one place that knows its nodes sit in the list
``states``; every other reader uses ``traj[n]``, iteration, ``len`` and
``final``, so the node store can change behind those four without touching
a reader.  Scanned: ``src/nsch`` (but ``state.py``), ``demos/`` and
``tests/``.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scanned_files() -> list[str]:
    files = []
    for folder in (os.path.join("src", "nsch"), "demos", "tests"):
        for name in sorted(os.listdir(os.path.join(ROOT, folder))):
            if name.endswith(".py") and (folder, name) != (os.path.join("src", "nsch"), "state.py"):
                files.append(os.path.join(folder, name))
    return files


def states_reads(source: str) -> list[int]:
    """The lines of ``source`` that read an attribute named ``states``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "states"
        and isinstance(node.ctx, ast.Load)
    )


@pytest.mark.parametrize("path", scanned_files())
def test_no_states_read(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert states_reads(fh.read()) == [], path


def test_every_read_form_is_seen():
    source = (
        "a = traj.states[0]\n"
        "for s in base.states:\n"
        "    pass\n"
        "n = len(traj)\n"
        "b = [s.phi for s in problem.base.states]\n"
        "c = traj[0].phi + traj.final.phi\n"
    )
    assert states_reads(source) == [1, 2, 5]


def test_the_scan_covers_the_readers():
    files = scanned_files()
    for path in ("src/nsch/adjoint.py", "src/nsch/snapshots.py",
                 "demos/01_forward_bubble.py", "tests/oracles.py"):
        assert path.replace("/", os.sep) in files
    assert os.path.join("src", "nsch", "state.py") not in files
