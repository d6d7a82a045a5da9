"""Staggered (MAC) velocity calculus for no-slip boxes.

Everything here operates on :class:`~nsch.grid.FaceField` velocity layouts:
x-components on vertical faces, y-components on horizontal faces, walls at
the rectangle boundary.  No-slip enters through two conventions:

* normal face values on the boundary are genuine unknowns pinned to zero;
* tangential ghost values are reflections (ghost = -first interior value),
  so the interpolated wall velocity vanishes.

Cell-centered quantities (viscosity, phase field) reach faces and corners
by arithmetic averaging with mirror ghosts.

The per-component Helmholtz solves (I - c*Lap) used by the semi-implicit
viscous step are diagonalized exactly: sine transforms of type I along the
component's own direction (Dirichlet at wall faces) and of type II along
the transverse direction (reflection ghosts).  Their inverse symbols
1/(1 - c*lam) are cached once per (grid, c) key in :mod:`nsch.grid`.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

from .grid import FaceField, GridSpec, ScalarField, cached_symbol, eigenvalues_1d
from .grid import fft_workers, gradient_to_faces


# ---------------------------------------------------------------------------
# interpolation helpers


def center_to_xface(c: np.ndarray) -> np.ndarray:
    """Average cell values to x-faces; mirror ghosts at the walls."""
    nx, ny = c.shape
    out = np.empty((nx + 1, ny))
    out[1:-1, :] = 0.5 * (c[1:, :] + c[:-1, :])
    out[0, :] = c[0, :]
    out[-1, :] = c[-1, :]
    return out


def center_to_yface(c: np.ndarray) -> np.ndarray:
    nx, ny = c.shape
    out = np.empty((nx, ny + 1))
    out[:, 1:-1] = 0.5 * (c[:, 1:] + c[:, :-1])
    out[:, 0] = c[:, 0]
    out[:, -1] = c[:, -1]
    return out


def xface_to_center(vx: np.ndarray) -> np.ndarray:
    return 0.5 * (vx[1:, :] + vx[:-1, :])


def yface_to_center(vy: np.ndarray) -> np.ndarray:
    return 0.5 * (vy[:, 1:] + vy[:, :-1])


def center_to_corners(c: np.ndarray) -> np.ndarray:
    """Average cell values to grid nodes; mirror ghosts outside the walls."""
    g = np.pad(c, 1, mode="edge")
    return 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:])


def xcomp_at_corners(vx: np.ndarray) -> np.ndarray:
    """x-velocity at grid nodes; tangential reflection makes wall rows zero."""
    nx1, ny = vx.shape
    out = np.zeros((nx1, ny + 1))
    out[:, 1:-1] = 0.5 * (vx[:, 1:] + vx[:, :-1])
    # reflection ghost: 0.5*(vx - vx) = 0 on the walls
    return out


def ycomp_at_corners(vy: np.ndarray) -> np.ndarray:
    nx, ny1 = vy.shape
    out = np.zeros((nx + 1, ny1))
    out[1:-1, :] = 0.5 * (vy[1:, :] + vy[:-1, :])
    return out


def face_dot_to_cells(a: FaceField, b: FaceField) -> ScalarField:
    """Cell-centered a . b, averaging each face product to its two cells."""
    px = a.x * b.x
    py = a.y * b.y
    vals = 0.5 * (px[1:, :] + px[:-1, :]) + 0.5 * (py[:, 1:] + py[:, :-1])
    return ScalarField(a.grid, vals)


# ---------------------------------------------------------------------------
# first derivatives of velocity components


def _dvx_dx(v: FaceField) -> np.ndarray:
    # at cell centers
    return (v.x[1:, :] - v.x[:-1, :]) / v.grid.hx


def _dvy_dy(v: FaceField) -> np.ndarray:
    return (v.y[:, 1:] - v.y[:, :-1]) / v.grid.hy


def _dvx_dy_corners(v: FaceField) -> np.ndarray:
    # at grid nodes, with no-slip reflection ghosts above/below the walls
    nx1, ny = v.x.shape
    hy = v.grid.hy
    out = np.empty((nx1, ny + 1))
    out[:, 1:-1] = (v.x[:, 1:] - v.x[:, :-1]) / hy
    out[:, 0] = 2.0 * v.x[:, 0] / hy
    out[:, -1] = -2.0 * v.x[:, -1] / hy
    return out


def _dvy_dx_corners(v: FaceField) -> np.ndarray:
    nx, ny1 = v.y.shape
    hx = v.grid.hx
    out = np.empty((nx + 1, ny1))
    out[1:-1, :] = (v.y[1:, :] - v.y[:-1, :]) / hx
    out[0, :] = 2.0 * v.y[0, :] / hx
    out[-1, :] = -2.0 * v.y[-1, :] / hx
    return out


# ---------------------------------------------------------------------------
# nonlinear / variable-coefficient momentum terms


def momentum_advection(carrier: FaceField, q: FaceField) -> FaceField:
    """Conservative div(carrier (x) q); equals (carrier . grad) q when
    carrier is discretely divergence-free."""
    grid = carrier.grid
    hx, hy = grid.hx, grid.hy

    cx_c = xface_to_center(carrier.x)
    cy_c = yface_to_center(carrier.y)
    cx_n = xcomp_at_corners(carrier.x)
    cy_n = ycomp_at_corners(carrier.y)
    if q is carrier:
        qx_c, qy_c, qx_n, qy_n = cx_c, cy_c, cx_n, cy_n
    else:
        qx_c, qy_c = xface_to_center(q.x), yface_to_center(q.y)
        qx_n, qy_n = xcomp_at_corners(q.x), ycomp_at_corners(q.y)

    out = FaceField.zeros(grid)
    fxx = cx_c * qx_c  # (nx, ny) at centers
    fxy = cy_n * qx_n  # (nx+1, ny+1) at nodes
    out.x[1:-1, :] = (fxx[1:, :] - fxx[:-1, :]) / hx + (fxy[1:-1, 1:] - fxy[1:-1, :-1]) / hy

    fyx = cx_n * qy_n
    fyy = cy_c * qy_c
    out.y[:, 1:-1] = (fyx[1:, 1:-1] - fyx[:-1, 1:-1]) / hx + (fyy[:, 1:] - fyy[:, :-1]) / hy
    return out


def transpose_gradient_term(v: FaceField, a: FaceField) -> FaceField:
    """(a . grad^T) v, i.e. component i equals sum_j (d_i v_j) a_j."""
    grid = v.grid
    dvxdx = _dvx_dx(v)
    dvydy = _dvy_dy(v)
    dvxdy_n = _dvx_dy_corners(v)
    dvydx_n = _dvy_dx_corners(v)
    ax_n = xcomp_at_corners(a.x)
    ay_n = ycomp_at_corners(a.y)

    out = FaceField.zeros(grid)
    # x-component: (dx vx) ax + (dx vy) ay on x-faces
    t1 = center_to_xface(dvxdx) * a.x
    t2 = 0.5 * (dvydx_n[:, 1:] + dvydx_n[:, :-1]) * 0.5 * (ay_n[:, 1:] + ay_n[:, :-1])
    out.x[1:-1, :] = t1[1:-1, :] + t2[1:-1, :]
    # y-component: (dy vx) ax + (dy vy) ay on y-faces
    t3 = 0.5 * (dvxdy_n[1:, :] + dvxdy_n[:-1, :]) * 0.5 * (ax_n[1:, :] + ax_n[:-1, :])
    t4 = center_to_yface(dvydy) * a.y
    out.y[:, 1:-1] = t3[:, 1:-1] + t4[:, 1:-1]
    return out


def viscous_stress_divergence(coeff: np.ndarray, v: FaceField) -> FaceField:
    """div(2 c D(v)) for a cell-centered coefficient c and symmetric D(v)."""
    grid = v.grid
    hx, hy = grid.hx, grid.hy
    txx = 2.0 * coeff * _dvx_dx(v)
    tyy = 2.0 * coeff * _dvy_dy(v)
    txy = center_to_corners(coeff) * (_dvx_dy_corners(v) + _dvy_dx_corners(v))

    out = FaceField.zeros(grid)
    out.x[1:-1, :] = (txx[1:, :] - txx[:-1, :]) / hx + (txy[1:-1, 1:] - txy[1:-1, :-1]) / hy
    out.y[:, 1:-1] = (txy[1:, 1:-1] - txy[:-1, 1:-1]) / hx + (tyy[:, 1:] - tyy[:, :-1]) / hy
    return out


def strain_contraction(v: FaceField, w: FaceField) -> np.ndarray:
    """Cell-centered D(v) : D(w) (full tensor contraction)."""
    diag = _dvx_dx(v) * _dvx_dx(w) + _dvy_dy(v) * _dvy_dy(w)
    ev = 0.5 * (_dvx_dy_corners(v) + _dvy_dx_corners(v))
    ew = ev if w is v else 0.5 * (_dvx_dy_corners(w) + _dvy_dx_corners(w))
    prod = ev * ew
    off = 0.25 * (prod[:-1, :-1] + prod[1:, :-1] + prod[:-1, 1:] + prod[1:, 1:])
    return diag + 2.0 * off


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
    out = FaceField.zeros(rhs.grid)
    workers = fft_workers()
    # DST-I along the component's own axis (wall faces), DST-II across it
    for b, target, inv, (wall, across) in (
        (rhs.x[1:-1, :], out.x[1:-1, :], inv_x, (0, 1)),
        (rhs.y[:, 1:-1], out.y[:, 1:-1], inv_y, (1, 0)),
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
    g.x[1:-1, :] *= 0.5 * (coeff_cells[1:, :] + coeff_cells[:-1, :])
    g.y[:, 1:-1] *= 0.5 * (coeff_cells[:, 1:] + coeff_cells[:, :-1])
    return g


def stream_function_velocity(grid: GridSpec, psi_nodes: np.ndarray) -> FaceField:
    """Discretely divergence-free velocity from a node-based stream function.

    vx = d(psi)/dy, vy = -d(psi)/dx with psi given on the (nx+1, ny+1)
    grid nodes; constant psi along the boundary yields a no-slip field.
    """
    if psi_nodes.shape != (grid.nx + 1, grid.ny + 1):
        raise ValueError("stream function must live on grid nodes")
    vx = (psi_nodes[:, 1:] - psi_nodes[:, :-1]) / grid.hy
    vy = -(psi_nodes[1:, :] - psi_nodes[:-1, :]) / grid.hx
    return FaceField(grid, vx, vy)
