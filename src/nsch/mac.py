"""Staggered (MAC) velocity calculus for no-slip boxes.

Everything here operates on :class:`~nsch.grid.FaceField` velocity layouts
and follows the three wall rules stated in :mod:`nsch.grid`, through its
stencil primitives ``mid``, ``diff`` and ``to_walls``.

The per-component Helmholtz solves (I - c*Lap) used by the semi-implicit
viscous step are diagonalized exactly: sine transforms of type I along the
component's own direction (Dirichlet at wall faces) and of type II along
the transverse direction (reflection ghosts).  Their inverse symbols
1/(1 - c*lam) are cached once per (grid, c) key in :mod:`nsch.grid`.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

from .grid import FaceField, GridSpec, ScalarField, cached_symbol, diff, eigenvalues_1d, mid
from .grid import fft_workers, gradient_to_faces, to_walls


# ---------------------------------------------------------------------------
# node averages and products


def _quad_mean(g: np.ndarray) -> np.ndarray:
    # mean of each 2x2 block, (m, n) -> (m-1, n-1), in one fixed sum order
    return 0.25 * (g[..., :-1, :-1] + g[..., 1:, :-1] + g[..., :-1, 1:] + g[..., 1:, 1:])


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


def _corner_shear(v: FaceField) -> np.ndarray:
    # d(vx)/dy + d(vy)/dx at the grid nodes, reflected tangential ghosts
    return to_walls(v.x, 1, -1, v.grid.hy) + to_walls(v.y, 0, -1, v.grid.hx)


# ---------------------------------------------------------------------------
# nonlinear / variable-coefficient momentum terms


def momentum_advection(carrier: FaceField, q: FaceField) -> FaceField:
    """Conservative div(carrier (x) q); equals (carrier . grad) q when
    carrier is discretely divergence-free."""
    grid = carrier.grid
    hx, hy = grid.hx, grid.hy

    # components at cell centers, and at grid nodes where reflection zeroes
    # them on the walls they run along
    cx_c, cy_c = mid(carrier.x, 0), mid(carrier.y, 1)
    cx_n, cy_n = to_walls(carrier.x, 1, -1), to_walls(carrier.y, 0, -1)
    if q is carrier:
        qx_c, qy_c, qx_n, qy_n = cx_c, cy_c, cx_n, cy_n
    else:
        qx_c, qy_c = mid(q.x, 0), mid(q.y, 1)
        qx_n, qy_n = to_walls(q.x, 1, -1), to_walls(q.y, 0, -1)

    # the mirrored differences of the center fluxes pin the wall faces to
    # zero, and the node fluxes vanish along those walls
    out_x = to_walls(cx_c * qx_c, 0, 1, hx)
    out_x += diff(cy_n * qx_n, 1, hy)
    out_y = to_walls(cy_c * qy_c, 1, 1, hy)
    out_y += diff(cx_n * qy_n, 0, hx)
    return FaceField(grid, out_x, out_y)


def transpose_gradient_term(v: FaceField, a: FaceField) -> FaceField:
    """(a . grad^T) v, i.e. component i equals sum_j (d_i v_j) a_j."""
    hx, hy = v.grid.hx, v.grid.hy
    # x-component (dx vx) ax + (dx vy) ay on x-faces, y-component
    # (dy vx) ax + (dy vy) ay on y-faces; the reflected means of the cell
    # derivative and of a's node values zero both products on the wall faces
    out_x = to_walls(diff(v.x, 0, hx), 0, -1)
    out_x *= a.x
    out_x += mid(to_walls(v.y, 0, -1, hx), 1) * mid(to_walls(a.y, 0, -1), 1)
    out_y = to_walls(diff(v.y, 1, hy), 1, -1)
    out_y *= a.y
    out_y += mid(to_walls(v.x, 1, -1, hy), 0) * mid(to_walls(a.x, 1, -1), 0)
    return FaceField(v.grid, out_x, out_y)


def viscous_stress_divergence(coeff: np.ndarray, v: FaceField) -> FaceField:
    """div(2 c D(v)) for a cell-centered coefficient c and symmetric D(v)."""
    grid = v.grid
    hx, hy = grid.hx, grid.hy
    txx = 2.0 * coeff * diff(v.x, 0, hx)
    tyy = 2.0 * coeff * diff(v.y, 1, hy)
    txy = center_to_corners(coeff) * _corner_shear(v)

    # the mirrored differences pin the wall faces to zero; the shear stress,
    # nonzero on the walls, enters the interior faces only
    out_x = to_walls(txx, 0, 1, hx)
    out_x[..., 1:-1, :] += diff(txy[..., 1:-1, :], 1, hy)
    out_y = to_walls(tyy, 1, 1, hy)
    out_y[..., 1:-1] += diff(txy[..., 1:-1], 0, hx)
    return FaceField(grid, out_x, out_y)


def strain_contraction(v: FaceField, w: FaceField) -> np.ndarray:
    """Cell-centered D(v) : D(w) (full tensor contraction)."""
    hx, hy = v.grid.hx, v.grid.hy
    vxx, vyy, ev = diff(v.x, 0, hx), diff(v.y, 1, hy), 0.5 * _corner_shear(v)
    if w is v:
        wxx, wyy, ew = vxx, vyy, ev
    else:
        wxx, wyy, ew = diff(w.x, 0, hx), diff(w.y, 1, hy), 0.5 * _corner_shear(w)
    return vxx * wxx + vyy * wyy + 2.0 * _quad_mean(ev * ew)


# ---------------------------------------------------------------------------
# implicit component solves


@cached_symbol
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
