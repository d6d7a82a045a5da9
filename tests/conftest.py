import numpy as np
import pytest

from nsch import FaceField, GridSpec, PhysParams, ScalarField, laplacian


@pytest.fixture
def grid6():
    # rectangular cells on purpose: hx != hy flushes out axis mix-ups
    return GridSpec(6, 6, 1.5, 1.2)


@pytest.fixture
def grid65():
    return GridSpec(6, 5, 1.5, 1.2)


@pytest.fixture
def params():
    return PhysParams()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_scalar(grid, rng, scale=1.0):
    return ScalarField(grid, scale * rng.standard_normal((grid.nx, grid.ny)))


def random_face(grid, rng, scale=1.0, noslip=True):
    f = FaceField(
        grid,
        scale * rng.standard_normal((grid.nx + 1, grid.ny)),
        scale * rng.standard_normal((grid.nx, grid.ny + 1)),
    )
    return f.zero_boundary_normal() if noslip else f


def random_solenoidal(grid, rng, scale=1.0):
    """Discretely divergence-free no-slip field from a random stream function."""
    from nsch.mac import stream_function_velocity

    psi = np.zeros((grid.nx + 1, grid.ny + 1))
    psi[1:-1, 1:-1] = scale * rng.standard_normal((grid.nx - 1, grid.ny - 1))
    return stream_function_velocity(grid, psi)


def reachable_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through attributes, the
    variables a function closes over, lists, tuples and dicts (each object
    walked once)."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        yield obj
    elif id(obj) not in seen and hasattr(obj, "__dict__"):
        seen.add(id(obj))
        cells = getattr(obj, "__closure__", None) or ()
        for value in [*vars(obj).values(), *(c.cell_contents for c in cells)]:
            yield from reachable_arrays(value, seen)
    elif isinstance(obj, (list, tuple, dict)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from reachable_arrays(value, seen)


def stack_faces(faces):
    """One batched face field whose members are ``faces``."""
    return FaceField(faces[0].grid, np.stack([f.x for f in faces]), np.stack([f.y for f in faces]))


def stored(series) -> FaceField:
    """A step-built series stacked into a stored one."""
    return stack_faces(list(series))


def max_abs(f):
    """Largest absolute value of one cell or face field."""
    arrays = (f.values,) if isinstance(f, ScalarField) else (f.x, f.y)
    return float(max(np.abs(a).max() for a in arrays))


def l2_norm(f):
    """Discrete L2 norm of a cell field, sqrt(sum f^2 * cell_volume)."""
    return float(np.sqrt((f.values**2).sum() * f.grid.cell_volume))


def apply_poly_laplacian(a0, a1, a2, a3, f):
    """Apply a0*I + a1*(-Lap) + a2*Lap^2 + a3*(-Lap)^3 by repeated stencils,
    the residual check of the spectral polynomial solves."""
    out = a0 * f.values
    lap = f
    for sign, a in ((-1.0, a1), (1.0, a2), (-1.0, a3)):
        lap = laplacian(lap)
        out = out + sign * a * lap.values
    return ScalarField(f.grid, out)
