"""Uniform-grid discrete calculus on a rectangle.

The domain is a rectangle [0, lx] x [0, ly] covered by nx*ny equal cells in
a marker-and-cell (MAC) layout: scalars (phase field, chemical potentials,
pressure, ...) live at cell centers ((i+1/2)hx, (j+1/2)hy); vector fields
(velocity, controls, body forces) live on cell faces, x-components at
(i*hx, (j+1/2)hy) and y-components at ((i+1/2)hx, j*hy).  The walls obey
three rules:

* cell scalars are mirrored (homogeneous Neumann: ghost = inside value);
* normal face values are pinned to zero;
* tangential velocity is reflected (no-slip: ghost = -inside value).

Every cell/face/node stencil here and in :mod:`nsch.mac` is built from
three primitives that take the axis (0 = x, 1 = y) and slice only the two
trailing axes, so a leading batch axis passes through untouched:
:func:`mid` (neighbour average) and :func:`diff` (neighbour difference)
map n points to the n-1 between them, and :func:`to_walls` extends either
onto the n+1 points that include the two walls, where the mirror or
reflection ghost gives the wall value.  Only :func:`laplacian` and
``mac.center_to_corners`` spell out their ghosts, to keep the operation
order of their tuned sums.  The solves also act on the trailing axes only.
A ufunc over row slices runs its inner loop once per row, so the passes
along y of :func:`to_walls`, the Laplacian's second difference and
``mac._quad_mean`` run once over the flat buffer and drop the entries that
mix two rows.

With this layout the 5-point Laplacian factors exactly as
``laplacian = divergence_of_faces o gradient_to_faces`` and those two
operators are exact negative transposes of each other in the uniform
cell/face inner products, which the conservation tests rely on.

Neumann elliptic operators are diagonalized by the type-II discrete cosine
transform: the eigenvalue of the 5-point mirror Laplacian on the (j, k)
cosine mode is

    lambda_{jk} = -[(2 - 2 cos(pi j / nx)) / hx^2 + (2 - 2 cos(pi k / ny)) / hy^2]

which is nonpositive and vanishes only on the constant (0, 0) mode.  All
pure-derivative solves fix that gauge mode by returning the zero-mean
solution.

The inverse symbols of the direct solves here and in :mod:`nsch.mac` are
built, checked and cached once per (grid, coefficients) key by
``functools.cache``; a build that raises stores nothing, so its checks run
on every call.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import ConfigError, IncompatibleMeanError, SingularSymbolError


def workers_from_env() -> int:
    """FFT worker count from NSCH_THREADS (1 when unset); a value that is not
    a positive integer raises a ConfigError naming it."""
    raw = os.environ.get("NSCH_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"NSCH_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


# Worker count for scipy.fft calls, read once at import (deterministic per
# run).  A bad NSCH_THREADS falls back to one worker here; the CLI reports it.
try:
    _FFT_WORKERS = workers_from_env()
except ConfigError:
    _FFT_WORKERS = 1


def fft_workers() -> int:
    return _FFT_WORKERS


def set_fft_workers(n: int) -> None:
    global _FFT_WORKERS
    if n < 1:
        raise ValueError("worker count must be at least 1")
    _FFT_WORKERS = n


# Smallest cell size whose h**-6, the scale of the sixth-order phase symbol, is
# finite, and largest whose h**2, the scale of the second difference, is (which
# also keeps hx*hy finite).
MIN_CELL_SIZE = np.finfo(float).max ** (-1.0 / 6.0)
MAX_CELL_SIZE = np.finfo(float).max ** 0.5
# Largest domain edge.  Its square bounds the area lx*ly, which turns a cell
# sum into an integral (mass, energy, L2 norms), the Poisson inverse symbol
# 1/lambda_min ~ (l/pi)**2 and a squared distance in the domain; the square
# stays 1e4 below the float maximum, so integrands up to 1e4 stay finite.
MAX_DOMAIN_EDGE = 1e-2 * np.finfo(float).max ** 0.5


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: nx*ny cells on [0, lx] x [0, ly]."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid must have at least 4x4 cells, got {self.nx}x{self.ny}")
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError("domain edge lengths must be positive")
        for name, h in (("lx/nx", self.hx), ("ly/ny", self.hy)):
            if not h > MIN_CELL_SIZE:
                raise ValueError(f"cell size {name} = {h:.3g} is too small: h**-6 overflows")
            if not h <= MAX_CELL_SIZE:
                raise ValueError(f"cell size {name} = {h:.3g} is too large: h**2 overflows")
        for name, edge in (("lx", self.lx), ("ly", self.ly)):
            if not edge <= MAX_DOMAIN_EDGE:
                raise ValueError(f"domain edge {name} = {edge:.3g} is too large: "
                                 f"the limit is {MAX_DOMAIN_EDGE:.3g}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy

    def cell_centers(self):
        """Return (X, Y) arrays of shape (nx, ny) with cell-center coordinates."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class ScalarField:
    """Cell-centered scalar field; ``values`` has shape (..., nx, ny), batch axes first."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2:] != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"scalar field shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def __getitem__(self, m) -> "ScalarField":  # member m of a batch, a view
        return ScalarField(self.grid, self.values[m])

    def mean(self) -> float:
        _require_single(self.values)
        return float(self.values.mean())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(self.grid, self.values - other.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * float(other))

    __rmul__ = __mul__


@dataclass
class FaceField:
    """Staggered vector field: x on (..., nx+1, ny) x-faces, y on (..., nx, ny+1) y-faces;
    leading axes hold batch members or the steps of a force series."""

    grid: GridSpec
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape[-2:] != (self.grid.nx + 1, self.grid.ny):
            raise ValueError(f"x-face shape {self.x.shape} does not match grid")
        if self.y.shape[-2:] != (self.grid.nx, self.grid.ny + 1):
            raise ValueError(f"y-face shape {self.y.shape} does not match grid")

    @classmethod
    def zeros(cls, grid: GridSpec, *lead: int) -> "FaceField":
        return cls(grid, np.zeros((*lead, grid.nx + 1, grid.ny)),
                   np.zeros((*lead, grid.nx, grid.ny + 1)))

    def copy(self) -> "FaceField":
        return FaceField(self.grid, self.x.copy(), self.y.copy())

    def __getitem__(self, m) -> "FaceField":  # member or step m, a view; iterating walks them
        return FaceField(self.grid, self.x[m], self.y[m])

    def __setitem__(self, m, value: "FaceField") -> None:  # store member or step m
        self.x[m], self.y[m] = value.x, value.y

    def zero_boundary_normal(self) -> "FaceField":
        """Return a copy with vanishing normal components on the walls."""
        out = self.copy()
        out.x[_FIRST[0]] = out.x[_LAST[0]] = 0.0
        out.y[_FIRST[1]] = out.y[_LAST[1]] = 0.0
        return out

    def __add__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.grid, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "FaceField") -> "FaceField":
        return FaceField(self.grid, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "FaceField":
        return FaceField(self.grid, -self.x, -self.y)

    def __mul__(self, scale) -> "FaceField":  # a number, or an array over the leading axes
        return FaceField(self.grid, self.x * scale, self.y * scale)

    __rmul__ = __mul__


def eigenvalues_1d(modes: np.ndarray, n: int, h: float) -> np.ndarray:
    """-(2 - 2 cos(pi k / n)) / h^2: the 1-D second difference on cell size h
    acting on the cosine or sine mode k of an n-cell line, for k in ``modes``."""
    return -(2.0 - 2.0 * np.cos(np.pi * modes / n)) / h**2


def laplacian_eigenvalues(grid: GridSpec) -> np.ndarray:
    """Eigenvalues of the 5-point Neumann Laplacian on the cosine basis.

    lambda_{jk} <= 0 with equality exactly at the constant (0, 0) mode.
    """
    lx = eigenvalues_1d(np.arange(grid.nx), grid.nx, grid.hx)
    ly = eigenvalues_1d(np.arange(grid.ny), grid.ny, grid.hy)
    lam = lx[:, None] + ly[None, :]
    lam[0, 0] = 0.0
    return lam


# Low / high / inner / first / last points along the x (0) or y (1) axis,
# indexed from the end so that leading batch axes pass through; plain
# slices keep every stencil output C-contiguous.
_LO = (np.s_[..., :-1, :], np.s_[..., :-1])
_HI = (np.s_[..., 1:, :], np.s_[..., 1:])
_INNER = (np.s_[..., 1:-1, :], np.s_[..., 1:-1])
_FIRST = (np.s_[..., 0, :], np.s_[..., 0])
_SECOND = (np.s_[..., 1, :], np.s_[..., 1])
_PENULT = (np.s_[..., -2, :], np.s_[..., -2])
_LAST = (np.s_[..., -1, :], np.s_[..., -1])


def mid(a: np.ndarray, axis: int) -> np.ndarray:
    """Neighbour average along ``axis``: n points to the n-1 between them."""
    return 0.5 * (a[_HI[axis]] + a[_LO[axis]])


def diff(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Neighbour difference over ``h`` along ``axis``: n points to n-1."""
    return (a[_HI[axis]] - a[_LO[axis]]) / h


def to_walls(a: np.ndarray, axis: int, ghost: int, h: float | None = None) -> np.ndarray:
    """:func:`mid` (``h`` None) or :func:`diff` of ``a`` along ``axis`` onto
    the n+1 points between and beyond its n values, with the ghost value
    ``ghost * a`` past each end: +1 mirrors, -1 reflects.

    The wall values are exact: a mirrored mean is the end value, a reflected
    mean and a mirrored difference are zero, and a reflected difference is
    2a/h at the low wall and -2a/h at the high one.
    """
    shape = list(a.shape)
    shape[axis - 2] += 1
    out = np.empty(shape)
    inner, first, last = out[_INNER[axis]], _FIRST[axis], _LAST[axis]
    pair = np.add if h is None else np.subtract
    if axis == 0:  # whole rows: one pass writes the inner points
        pairs = pair(a[_HI[0]], a[_LO[0]], out=inner)
    else:
        # along the rows, one flat pass (neighbours 1 apart) into a buffer
        # shaped like ``a``; the last entry of each row mixes two rows and is
        # dropped by the one strided copy into the inner points
        flat, buf = a.ravel(), np.empty(a.shape)
        pairs = pair(flat[1:], flat[:-1], out=buf.ravel()[:-1])
    if h is None:
        pairs *= 0.5
        walls = (a[first], a[last]) if ghost > 0 else (0.0, 0.0)
    else:
        pairs /= h
        walls = (0.0, 0.0) if ghost > 0 else (2.0 * a[first] / h, -2.0 * a[last] / h)
    if axis == 1:
        np.copyto(inner, buf[..., :-1])
    out[first], out[last] = walls
    return out


def _second_difference(u: np.ndarray, two_u: np.ndarray, axis: int, h2: float) -> np.ndarray:
    # (u[i-1] - 2u[i] + u[i+1]) / h2 along ``axis`` with mirror ghosts
    # u[-1] = u[0], u[n] = u[n-1], in the operation order of a padded stencil;
    # one flat pass (neighbours ``step`` apart) covers the inner points, and
    # the ghost rule overwrites the ends, where that pass mixes rows or members
    step = u.shape[-1] if axis == 0 else 1
    out = np.empty(u.shape)
    flat_u, flat_2u, flat_out = u.ravel(), two_u.ravel(), out.ravel()
    np.subtract(flat_u[: -2 * step], flat_2u[step:-step], out=flat_out[step:-step])
    flat_out[step:-step] += flat_u[2 * step:]
    first, last = _FIRST[axis], _LAST[axis]
    out[first] = u[first] - two_u[first] + u[_SECOND[axis]]
    out[last] = u[_PENULT[axis]] - two_u[last] + u[last]
    out /= h2
    return out


def laplacian(f: ScalarField) -> ScalarField:
    """5-point Laplacian with mirror ghost cells; output has zero mean."""
    u = f.values
    two_u = 2.0 * u
    lap = _second_difference(u, two_u, 0, f.grid.hx**2)
    lap += _second_difference(u, two_u, 1, f.grid.hy**2)
    return ScalarField(f.grid, lap)


def gradient_to_faces(f: ScalarField) -> FaceField:
    """Centered face differences; boundary-face normal components are zero."""
    grid = f.grid
    return FaceField(grid, to_walls(f.values, 0, 1, grid.hx), to_walls(f.values, 1, 1, grid.hy))


def divergence_of_faces(w: FaceField) -> ScalarField:
    """Per-cell net flux divided by the cell volume."""
    grid = w.grid
    return ScalarField(grid, diff(w.x, 0, grid.hx) + diff(w.y, 1, grid.hy))


def helmholtz_poly_solve(
    a0: float, a1: float, a2: float, a3: float, rhs: ScalarField, check_mean: bool = True
) -> ScalarField:
    """Solve (a0*I + a1*(-Lap) + a2*Lap^2 + a3*(-Lap)^3) x = rhs spectrally.

    The symbol must be nonzero on every nonconstant mode.  If it vanishes on
    the constant mode each batch member of the right-hand side must have
    (numerically) zero mean against its own L2 norm and the zero-mean
    solution is returned.  ``check_mean=False`` silently drops the gauge
    mode instead (for callers that guarantee compatibility analytically
    and only feed roundoff into the mean).

    Raises
    ------
    SingularSymbolError
        If the symbol vanishes on a nonconstant mode.
    IncompatibleMeanError
        If the constant-mode symbol is zero but mean(rhs) is not.
    """
    grid = rhs.grid
    inv_symbol, gauge = _poly_inverse_symbol(grid, a0, a1, a2, a3)
    workers = fft_workers()
    axes = (-2, -1)
    d = fft.dctn(rhs.values, type=2, norm="ortho", axes=axes, workers=workers)
    if gauge and check_mean:
        mean = np.abs(d[..., 0, 0]) / np.sqrt(grid.nx * grid.ny)
        norm = np.sqrt((rhs.values**2).sum(axis=axes) * grid.cell_volume)
        bad = mean[mean > 1e-10 * np.maximum(norm, 1e-300)]
        if bad.size:
            raise IncompatibleMeanError(
                f"incompatible mean: |mean(rhs)|={bad.max():.3e} with a "
                "pure-derivative operator; right-hand side must have zero mean"
            )
    d *= inv_symbol
    out = fft.idctn(d, type=2, norm="ortho", axes=axes, workers=workers, overwrite_x=True)
    return ScalarField(grid, out)


@functools.cache
def _poly_inverse_symbol(grid: GridSpec, a0, a1, a2, a3) -> tuple[np.ndarray, bool]:
    # (1/symbol, gauge); the inverse is zero on a singular constant mode.  A
    # mode is singular when its terms cancel to roundoff, judged against the
    # size of that mode's own terms (a 1/max|symbol| scale would flag the
    # constant mode of a well-posed symbol once the other modes grow large)
    lam = laplacian_eigenvalues(grid)
    symbol = a0 + a1 * (-lam) + a2 * lam**2 + a3 * (-lam) ** 3
    size = abs(a0) + abs(a1) * np.abs(lam) + abs(a2) * lam**2 + abs(a3) * np.abs(lam) ** 3
    singular = np.abs(symbol) <= 1e-14 * size
    if singular[1:, :].any() or singular[0, 1:].any():
        raise SingularSymbolError(
            f"singular symbol: coefficients ({a0}, {a1}, {a2}, {a3}) vanish on a nonzero mode"
        )
    inv = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=~singular)
    return inv, bool(singular[0, 0])


def poisson_neumann(rhs: ScalarField, check_mean: bool = True) -> ScalarField:
    """Zero-mean solution of -Lap p = rhs; rhs must have compatible (zero) mean."""
    return helmholtz_poly_solve(0.0, 1.0, 0.0, 0.0, rhs, check_mean=check_mean)


def advect_scalar(v: FaceField, f: ScalarField) -> ScalarField:
    """Conservative transport term div(v f) with centered face interpolation.

    Boundary faces carry zero flux, so the discrete mean of the output is
    exactly zero for any no-slip v; with div v = 0 this is the discrete
    form of v . grad f.
    """
    # the reflected mean is zero on the wall faces, so they carry no flux
    fx = to_walls(f.values, 0, -1)
    fx *= v.x
    fy = to_walls(f.values, 1, -1)
    fy *= v.y
    return divergence_of_faces(FaceField(f.grid, fx, fy))


def project_divergence_free(v: FaceField, dt: float) -> tuple[FaceField, ScalarField]:
    """Leray projection: return (v - dt*grad p, p) with div of the result ~ 0.

    The pressure p is the zero-mean solution of the face-consistent Poisson
    problem, so the projected field is discretely divergence-free to solver
    precision and the projection is idempotent.  The divergence mean is
    exactly zero for fields with no normal boundary flux, so the gauge mode
    carries only roundoff and is dropped without a compatibility check.
    """
    div = divergence_of_faces(v)
    div.values /= -dt
    p = poisson_neumann(div, check_mean=False)
    out = gradient_to_faces(p)
    for vc, oc in ((v.x, out.x), (v.y, out.y)):
        np.subtract(vc, np.multiply(oc, dt, out=oc), out=oc)
    return out, p


def _require_single(*arrays: np.ndarray) -> None:  # a sum over a leading axis mixes members
    if any(a.ndim > 2 for a in arrays):
        raise ValueError("reductions take single fields; index the batch member or step first")


def scalar_inner(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2(Omega) inner product of cell fields without leading axes."""
    _require_single(f.values, g.values)
    return float((f.values * g.values).sum() * f.grid.cell_volume)


def face_inner(a: FaceField, b: FaceField) -> float:
    """Discrete L2(Omega) inner product of face fields without leading axes.

    Faces carry weight hx*hy except the boundary normal faces, which carry
    half of it (each borders only one cell).  Fields with no-slip walls are
    insensitive to the boundary weight; constant fields integrate exactly.
    """
    _require_single(a.x, b.x)
    vol = a.grid.cell_volume
    px = a.x * b.x
    py = a.y * b.y
    total = px[1:-1, :].sum() + 0.5 * (px[0, :].sum() + px[-1, :].sum())
    total += py[:, 1:-1].sum() + 0.5 * (py[:, 0].sum() + py[:, -1].sum())
    return float(total * vol)
