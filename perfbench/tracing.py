"""Span tracing of the public nsch functions, installed from outside the package.

Each traced function is replaced by a wrapper in *every* ``nsch`` module
namespace that holds it: ``from .grid import laplacian`` gives ``state``,
``constitutive``, ``adjoint`` and ``linearized`` their own binding, and a
wrapper installed only on ``nsch.grid`` would miss those calls.

Spans are kept in memory as ``[name, start, end, parent]`` rows (``parent``
is the index of the enclosing span, -1 at the top) and written out by the
caller when the run ends.  The nsch solvers are single threaded, so one
stack of open spans is enough.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs that make up the per-layer metrics.
TARGETS = (
    ("state", "simulate"),
    ("state", "ns_step"),
    ("state", "ch_step"),
    ("state", "_node_diagnostics"),
    ("grid", "laplacian"),
    ("grid", "helmholtz_poly_solve"),
    ("grid", "project_divergence_free"),
    ("grid", "advect_scalar"),
    ("grid", "cosine_transform"),
    ("grid", "inverse_cosine_transform"),
    ("mac", "momentum_advection"),
    ("mac", "viscous_stress_divergence"),
    ("mac", "solve_face_helmholtz"),
    ("mac", "gradient_force"),
    ("constitutive", "mu_of_phi"),
    ("constitutive", "free_energy"),
    ("constitutive", "linearized_chemical_potentials"),
    ("linearized", "solve_linearized"),
    ("linearized", "linearized_step"),
    ("adjoint", "solve_adjoint"),
    ("adjoint", "adjoint_step"),
    ("control", "optimize"),
    ("control", "evaluate_cost"),
    ("control", "project_admissible"),
    ("verification", "verify_mass"),
    ("verification", "verify_energy"),
    ("verification", "verify_frechet"),
    ("verification", "verify_duality"),
    ("verification", "verify_gradient"),
    ("config", "build_problem"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result)`` is kept per span."""
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                results[idx] = observe(out)
            return out

        return traced

    def install(self, observers: dict | None = None) -> list[str]:
        """Rebind every target in all loaded ``nsch`` modules; return missing names."""
        observers = observers or {}
        modules = [m for n, m in list(sys.modules.items()) if n == "nsch" or n.startswith("nsch.")]
        missing = []
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            owner = sys.modules.get(f"nsch.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def aggregate(spans: list[list], lo: int, hi: int) -> dict[str, list[float]]:
    """Per-name ``[calls, total_s, self_s]`` over spans ``lo:hi``.

    Self time is a span's duration minus the part its direct child spans
    cover; children of one span never overlap in a single thread.
    """
    child = [0.0] * (hi - lo)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= lo:
            child[parent - lo] += end - start
    stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for i, (name, start, end, _) in enumerate(spans[lo:hi]):
        row = stats[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return stats


def descendants(spans: list[list], root: int, name: str) -> list[int]:
    """Indices of spans called ``name`` that lie inside span ``root``."""
    out = []
    inside = {root}
    for idx in range(root + 1, len(spans)):
        parent = spans[idx][3]
        if parent in inside:
            inside.add(idx)
            if spans[idx][0] == name:
                out.append(idx)
    return out
