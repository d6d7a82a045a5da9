"""Staggered (MAC) velocity calculus for no-slip boxes.

Everything here operates on :class:`~nsch.grid.FaceField` velocity layouts
and follows the three wall rules stated in :mod:`nsch.grid`, through its
stencil primitives ``mid``, ``diff`` and ``to_walls``.

The momentum terms read each field through a :class:`Stencils` bundle,
whose cell/node values and first differences are each built once, on first
read; a term of a field with itself takes one bundle twice.  A step builds a
bundle just before the terms that share it and drops it as soon as they are
formed, before any solve, and nothing stores one: on large grids a temporary
held past its terms slows the allocations that follow it.

The per-component Helmholtz solves (I - c*Lap) used by the semi-implicit
viscous step are diagonalized exactly: sine transforms of type I along the
component's own direction (Dirichlet at wall faces) and of type II along
the transverse direction (reflection ghosts).  Their inverse symbols
1/(1 - c*lam) are cached once per (grid, c) key (``functools.cache``).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import fft

from .grid import FaceField, GridSpec, ScalarField, diff, eigenvalues_1d, mid
from .grid import fft_workers, gradient_to_faces, to_walls


# ---------------------------------------------------------------------------
# node averages and products


def _quad_mean(g: np.ndarray) -> np.ndarray:
    # mean of each 2x2 block, (m, n) -> (m-1, n-1), in one fixed sum order:
    # one flat pass (neighbours n, 1 and n+1 apart) into a buffer shaped like
    # g, whose last row and column mix rows or members and are dropped by the
    # one strided copy out
    n, flat, buf = g.shape[-1], g.ravel(), np.empty(g.shape)
    s = buf.ravel()[: flat.size - n - 1]
    np.add(flat[: s.size], flat[n:-1], out=s)
    s += flat[1 : 1 + s.size]
    s += flat[n + 1 :]
    s *= 0.25
    return np.ascontiguousarray(buf[..., :-1, :-1])


def center_to_corners(c: np.ndarray) -> np.ndarray:
    """Average cell values to grid nodes; mirror ghosts outside the walls."""
    g = np.empty(c.shape[:-2] + (c.shape[-2] + 2, c.shape[-1] + 2))
    g[..., 1:-1, 1:-1] = c
    g[..., 0, 1:-1], g[..., -1, 1:-1] = c[..., 0, :], c[..., -1, :]
    g[..., 0], g[..., -1] = g[..., 1], g[..., -2]  # the corners copy their edge rows
    return _quad_mean(g)


def face_dot_to_cells(a: FaceField, b: FaceField) -> ScalarField:
    """Cell-centered a . b, averaging each face product to its two cells."""
    return ScalarField(a.grid, mid(a.x * b.x, 0) + mid(a.y * b.y, 1))


# ---------------------------------------------------------------------------
# nonlinear / variable-coefficient momentum terms


class _piece:
    # a bundle piece: built on first read, then a plain attribute (before
    # Python 3.12 functools.cached_property takes a lock on each first read)
    def __init__(self, build):
        self.build, self.name = build, build.__name__

    def __get__(self, bundle, owner=None):
        value = bundle.__dict__[self.name] = self.build(bundle)
        return value


class Stencils:
    """The cell and node values and the first differences of one face field,
    each built on first read (see the module docstring for its lifetime)."""

    def __init__(self, v: FaceField):
        self.field = v
        self.grid = v.grid

    @_piece
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        # both components at the cell centers
        return mid(self.field.x, 0), mid(self.field.y, 1)

    @_piece
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        # both components at the grid nodes, where reflection zeroes them on
        # the walls they run along
        return to_walls(self.field.x, 1, -1), to_walls(self.field.y, 0, -1)

    @_piece
    def normal(self) -> tuple[np.ndarray, np.ndarray]:
        # d(vx)/dx and d(vy)/dy at the cell centers
        return diff(self.field.x, 0, self.grid.hx), diff(self.field.y, 1, self.grid.hy)

    @_piece
    def cross(self) -> tuple[np.ndarray, np.ndarray]:
        # d(vx)/dy and d(vy)/dx at the grid nodes, reflected tangential ghosts
        v, grid = self.field, self.grid
        return to_walls(v.x, 1, -1, grid.hy), to_walls(v.y, 0, -1, grid.hx)

    @_piece
    def shear(self) -> np.ndarray:
        # d(vx)/dy + d(vy)/dx at the grid nodes
        dxy, dyx = self.cross
        return dxy + dyx


def momentum_advection(carrier: Stencils, q: Stencils) -> FaceField:
    """Conservative div(carrier (x) q); equals (carrier . grad) q when
    carrier is discretely divergence-free."""
    grid = carrier.grid
    (cx_c, cy_c), (cx_n, cy_n) = carrier.cells, carrier.nodes
    (qx_c, qy_c), (qx_n, qy_n) = q.cells, q.nodes

    # the mirrored differences of the center fluxes pin the wall faces to
    # zero, and the node fluxes vanish along those walls
    out_x = to_walls(cx_c * qx_c, 0, 1, grid.hx)
    out_x += diff(cy_n * qx_n, 1, grid.hy)
    out_y = to_walls(cy_c * qy_c, 1, 1, grid.hy)
    out_y += diff(cx_n * qy_n, 0, grid.hx)
    return FaceField(grid, out_x, out_y)


def transpose_gradient_term(v: Stencils, a: Stencils) -> FaceField:
    """(a . grad^T) v, i.e. component i equals sum_j (d_i v_j) a_j."""
    (vxx, vyy), (vxy, vyx), (ax_n, ay_n) = v.normal, v.cross, a.nodes
    # x-component (dx vx) ax + (dx vy) ay on x-faces, y-component
    # (dy vx) ax + (dy vy) ay on y-faces; the reflected means of the cell
    # derivative and of a's node values zero both products on the wall faces
    out_x = to_walls(vxx, 0, -1)
    out_x *= a.field.x
    out_x += mid(vyx, 1) * mid(ay_n, 1)
    out_y = to_walls(vyy, 1, -1)
    out_y *= a.field.y
    out_y += mid(vxy, 0) * mid(ax_n, 0)
    return FaceField(v.grid, out_x, out_y)


def viscous_stress_divergence(coeff: np.ndarray, v: Stencils) -> FaceField:
    """div(2 c D(v)) for a cell-centered coefficient c and symmetric D(v)."""
    grid = v.grid
    vxx, vyy = v.normal
    # the mirrored differences pin the wall faces to zero; the shear stress,
    # nonzero on the walls, enters the interior faces only (read last, so
    # its pieces are held for the shortest stretch)
    out_x = to_walls(2.0 * coeff * vxx, 0, 1, grid.hx)
    out_y = to_walls(2.0 * coeff * vyy, 1, 1, grid.hy)
    txy = center_to_corners(coeff)
    txy *= v.shear
    out_x[..., 1:-1, :] += diff(txy[..., 1:-1, :], 1, grid.hy)
    out_y[..., 1:-1] += diff(txy[..., 1:-1], 0, grid.hx)
    return FaceField(grid, out_x, out_y)


def strain_contraction(v: Stencils, w: Stencils) -> np.ndarray:
    """Cell-centered D(v) : D(w) (full tensor contraction)."""
    (vxx, vyy), (wxx, wyy) = v.normal, w.normal
    return vxx * wxx + vyy * wyy + 2.0 * _quad_mean((0.5 * v.shear) * (0.5 * w.shear))


# ---------------------------------------------------------------------------
# implicit component solves


@functools.cache
def _face_inverse_symbols(grid: GridSpec, c: float):
    # 1/(1 - c*lam) for the x- and y-component Laplacians
    nx, ny = grid.nx, grid.ny
    # x-component: DST-I over interior x-faces, DST-II across cells
    lx_d1 = eigenvalues_1d(np.arange(1, nx), nx, grid.hx)
    ly_d2 = eigenvalues_1d(np.arange(1, ny + 1), ny, grid.hy)
    lam_x = lx_d1[:, None] + ly_d2[None, :]
    # y-component mirrored
    lx_d2 = eigenvalues_1d(np.arange(1, nx + 1), nx, grid.hx)
    ly_d1 = eigenvalues_1d(np.arange(1, ny), ny, grid.hy)
    lam_y = lx_d2[:, None] + ly_d1[None, :]
    return 1.0 / (1.0 - c * lam_x), 1.0 / (1.0 - c * lam_y)


def solve_face_helmholtz(rhs: FaceField, c: float) -> FaceField:
    """Solve (I - c*Lap) u = rhs per velocity component with no-slip walls.

    The component Laplacian uses zero boundary faces in the normal
    direction and reflection ghosts in the tangential direction; both are
    diagonalized exactly by sine transforms, so the solve is direct.
    """
    inv_x, inv_y = _face_inverse_symbols(rhs.grid, c)
    out = FaceField(rhs.grid, np.zeros(rhs.x.shape), np.zeros(rhs.y.shape))
    workers = fft_workers()
    # DST-I along the component's own axis (wall faces), DST-II across it
    for b, target, inv, (wall, across) in (
        (rhs.x[..., 1:-1, :], out.x[..., 1:-1, :], inv_x, (-2, -1)),
        (rhs.y[..., 1:-1], out.y[..., 1:-1], inv_y, (-1, -2)),
    ):
        b = fft.dst(b, type=1, axis=wall, norm="ortho", workers=workers)
        b = fft.dst(b, type=2, axis=across, norm="ortho", workers=workers, overwrite_x=True)
        b *= inv
        b = fft.idst(b, type=2, axis=across, norm="ortho", workers=workers, overwrite_x=True)
        b = fft.idst(b, type=1, axis=wall, norm="ortho", workers=workers, overwrite_x=True)
        target[...] = b
    return out


def gradient_force(coeff_cells: np.ndarray, f: ScalarField) -> FaceField:
    """Face force (avg coeff) * grad f, e.g. the capillary term mu grad phi."""
    g = gradient_to_faces(f)
    g.x *= to_walls(coeff_cells, 0, 1)
    g.y *= to_walls(coeff_cells, 1, 1)
    return g


def stream_function_velocity(grid: GridSpec, psi_nodes: np.ndarray) -> FaceField:
    """Discretely divergence-free velocity from a node-based stream function.

    vx = d(psi)/dy, vy = -d(psi)/dx with psi given on the (nx+1, ny+1)
    grid nodes; constant psi along the boundary yields a no-slip field.
    """
    if psi_nodes.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("stream function must live on grid nodes")
    return FaceField(grid, diff(psi_nodes, 1, grid.hy), -diff(psi_nodes, 0, grid.hx))
