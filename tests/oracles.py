"""Independent loop-based reference implementations.

Everything here is written with explicit Python loops and its own ghost
conventions (mirror ghosts for cell scalars, zero boundary faces plus
reflected tangential ghosts for velocities), deliberately sharing no code
with the vectorized package.  Dense operator matrices are assembled by
applying the loop stencils to unit vectors.

The full-state sweeps are the exception: they run the package's own
sensitivity and adjoint steps exactly as ``solve_linearized`` and
``solve_adjoint`` do, and keep the state each step carries, where the
solvers return only the psi and va series.  So is the stored-series
optimizer at the end, the projected-gradient loop kept as it was when it
held whole series, on the package's cost, projection, adjoint and
ordered sum.
"""

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from nsch.adjoint import require_unit_mobility, solve_adjoint
from nsch.constitutive import CostSpec
from nsch.control import (
    ControlBounds, ControlProblem, OptimizerOptions, OptimReport, StopReason,
    bound_violation, evaluate_cost, ordered_sum, project_admissible,
)
from nsch.errors import ConfigError
from nsch.grid import FaceField, face_inner


# ---------------------------------------------------------------------------
# cell-scalar calculus


def cell_ghost(f):
    """Mirror-extend a (nx, ny) array by one ghost layer."""
    nx, ny = f.shape
    g = np.zeros((nx + 2, ny + 2))
    g[1:-1, 1:-1] = f
    g[0, 1:-1] = f[0, :]
    g[-1, 1:-1] = f[-1, :]
    g[1:-1, 0] = f[:, 0]
    g[1:-1, -1] = f[:, -1]
    g[0, 0], g[0, -1], g[-1, 0], g[-1, -1] = f[0, 0], f[0, -1], f[-1, 0], f[-1, -1]
    return g


def loop_laplacian(f, hx, hy):
    nx, ny = f.shape
    g = cell_ghost(f)
    out = np.zeros_like(f)
    for i in range(nx):
        for j in range(ny):
            out[i, j] = (g[i, j + 1] - 2 * g[i + 1, j + 1] + g[i + 2, j + 1]) / hx**2 + (
                g[i + 1, j] - 2 * g[i + 1, j + 1] + g[i + 1, j + 2]
            ) / hy**2
    return out


def loop_gradient(f, hx, hy):
    nx, ny = f.shape
    gx = np.zeros((nx + 1, ny))
    gy = np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            gx[i, j] = (f[i, j] - f[i - 1, j]) / hx
    for i in range(nx):
        for j in range(1, ny):
            gy[i, j] = (f[i, j] - f[i, j - 1]) / hy
    return gx, gy


def loop_divergence(vx, vy, hx, hy):
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    out = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            out[i, j] = (vx[i + 1, j] - vx[i, j]) / hx + (vy[i, j + 1] - vy[i, j]) / hy
    return out


def loop_advect(vx, vy, f, hx, hy):
    """div(v f) with centered interpolation and zero boundary flux."""
    nx, ny = f.shape
    fx = np.zeros((nx + 1, ny))
    fy = np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            fx[i, j] = vx[i, j] * 0.5 * (f[i, j] + f[i - 1, j])
    for i in range(nx):
        for j in range(1, ny):
            fy[i, j] = vy[i, j] * 0.5 * (f[i, j] + f[i, j - 1])
    return loop_divergence(fx, fy, hx, hy)


# ---------------------------------------------------------------------------
# velocity ghosts and derivatives


def xghost(vx):
    """x-velocity with reflected tangential ghosts above/below the walls."""
    nx1, ny = vx.shape
    g = np.zeros((nx1, ny + 2))
    g[:, 1:-1] = vx
    g[:, 0] = -vx[:, 0]
    g[:, -1] = -vx[:, -1]
    return g


def yghost(vy):
    nx, ny1 = vy.shape
    g = np.zeros((nx + 2, ny1))
    g[1:-1, :] = vy
    g[0, :] = -vy[0, :]
    g[-1, :] = -vy[-1, :]
    return g


def loop_face_laplacian(vx, vy, hx, hy):
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    gx = xghost(vx)
    outx = np.zeros_like(vx)
    for i in range(1, nx):
        for j in range(ny):
            outx[i, j] = (vx[i - 1, j] - 2 * vx[i, j] + vx[i + 1, j]) / hx**2 + (
                gx[i, j] - 2 * gx[i, j + 1] + gx[i, j + 2]
            ) / hy**2
    gy = yghost(vy)
    outy = np.zeros_like(vy)
    for i in range(nx):
        for j in range(1, ny):
            outy[i, j] = (gy[i, j] - 2 * gy[i + 1, j] + gy[i + 2, j]) / hx**2 + (
                vy[i, j - 1] - 2 * vy[i, j] + vy[i, j + 1]
            ) / hy**2
    return outx, outy


def face_laplacian(vx, vy, hx, hy):
    """Slice form of :func:`loop_face_laplacian`: the component-wise
    Laplacian whose inverse ``mac.solve_face_helmholtz`` applies."""
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    hx2, hy2 = hx**2, hy**2
    outx, outy = np.zeros_like(vx), np.zeros_like(vy)

    gx = np.empty((nx + 1, ny + 2))
    gx[:, 1:-1] = vx
    gx[:, 0] = -vx[:, 0]
    gx[:, -1] = -vx[:, -1]
    outx[1:-1, :] = (gx[:-2, 1:-1] - 2.0 * gx[1:-1, 1:-1] + gx[2:, 1:-1]) / hx2 + (
        gx[1:-1, :-2] - 2.0 * gx[1:-1, 1:-1] + gx[1:-1, 2:]
    ) / hy2

    gy = np.empty((nx + 2, ny + 1))
    gy[1:-1, :] = vy
    gy[0, :] = -vy[0, :]
    gy[-1, :] = -vy[-1, :]
    outy[:, 1:-1] = (gy[:-2, 1:-1] - 2.0 * gy[1:-1, 1:-1] + gy[2:, 1:-1]) / hx2 + (
        gy[1:-1, :-2] - 2.0 * gy[1:-1, 1:-1] + gy[1:-1, 2:]
    ) / hy2
    return outx, outy


def loop_corner_shear(vx, vy, hx, hy):
    """(d vx / dy + d vy / dx) at the (nx+1, ny+1) grid nodes."""
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    gx = xghost(vx)
    gy = yghost(vy)
    out = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            out[i, j] = (gx[i, j + 1] - gx[i, j]) / hy + (gy[i + 1, j] - gy[i, j]) / hx
    return out


def loop_corner_coeff(a):
    """Cell coefficient averaged to grid nodes with mirror ghosts."""
    g = cell_ghost(a)
    nx, ny = a.shape
    out = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            out[i, j] = 0.25 * (g[i, j] + g[i + 1, j] + g[i, j + 1] + g[i + 1, j + 1])
    return out


def loop_stress_divergence(a, vx, vy, hx, hy):
    """div(2 a D(v)) with cell txx/tyy and nodal txy."""
    nx, ny = a.shape
    txx = np.zeros((nx, ny))
    tyy = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            txx[i, j] = 2 * a[i, j] * (vx[i + 1, j] - vx[i, j]) / hx
            tyy[i, j] = 2 * a[i, j] * (vy[i, j + 1] - vy[i, j]) / hy
    txy = loop_corner_coeff(a) * loop_corner_shear(vx, vy, hx, hy)
    outx = np.zeros_like(vx)
    outy = np.zeros_like(vy)
    for i in range(1, nx):
        for j in range(ny):
            outx[i, j] = (txx[i, j] - txx[i - 1, j]) / hx + (txy[i, j + 1] - txy[i, j]) / hy
    for i in range(nx):
        for j in range(1, ny):
            outy[i, j] = (txy[i + 1, j] - txy[i, j]) / hx + (tyy[i, j] - tyy[i, j - 1]) / hy
    return outx, outy


def loop_strain_contraction(vx, vy, wx, wy, hx, hy):
    """Cell-centered D(v) : D(w)."""
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    sv = loop_corner_shear(vx, vy, hx, hy)
    sw = loop_corner_shear(wx, wy, hx, hy)
    out = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            dvx = (vx[i + 1, j] - vx[i, j]) / hx
            dvy = (vy[i, j + 1] - vy[i, j]) / hy
            dwx = (wx[i + 1, j] - wx[i, j]) / hx
            dwy = (wy[i, j + 1] - wy[i, j]) / hy
            shear = 0.25 * (
                0.5 * sv[i, j] * 0.5 * sw[i, j]
                + 0.5 * sv[i + 1, j] * 0.5 * sw[i + 1, j]
                + 0.5 * sv[i, j + 1] * 0.5 * sw[i, j + 1]
                + 0.5 * sv[i + 1, j + 1] * 0.5 * sw[i + 1, j + 1]
            )
            out[i, j] = dvx * dwx + dvy * dwy + 2.0 * shear
    return out


def loop_momentum_advection(cx, cy, qx, qy, hx, hy):
    """Conservative div(c (x) q) on the staggered layout."""
    nx, ny = cx.shape[0] - 1, cx.shape[1]
    # x-momentum: d/dx (cx qx) at centers, d/dy (cy qx) at nodes
    fxx = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            fxx[i, j] = 0.5 * (cx[i, j] + cx[i + 1, j]) * 0.5 * (qx[i, j] + qx[i + 1, j])
    gqx = xghost(qx)
    fxy = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            cyn = 0.0
            if 1 <= i <= nx - 1:
                cyn = 0.5 * (cy[i - 1, j] + cy[i, j])
            qxn = 0.5 * (gqx[i, j] + gqx[i, j + 1])
            fxy[i, j] = cyn * qxn
    outx = np.zeros_like(qx)
    for i in range(1, nx):
        for j in range(ny):
            outx[i, j] = (fxx[i, j] - fxx[i - 1, j]) / hx + (fxy[i, j + 1] - fxy[i, j]) / hy

    fyy = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            fyy[i, j] = 0.5 * (cy[i, j] + cy[i, j + 1]) * 0.5 * (qy[i, j] + qy[i, j + 1])
    gqy = yghost(qy)
    fyx = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            cxn = 0.0
            if 1 <= j <= ny - 1:
                cxn = 0.5 * (cx[i, j - 1] + cx[i, j])
            qyn = 0.5 * (gqy[i, j] + gqy[i + 1, j])
            fyx[i, j] = cxn * qyn
    outy = np.zeros_like(qy)
    for i in range(nx):
        for j in range(1, ny):
            outy[i, j] = (fyx[i + 1, j] - fyx[i, j]) / hx + (fyy[i, j] - fyy[i, j - 1]) / hy
    return outx, outy


def loop_transpose_gradient(vx, vy, ax, ay, hx, hy):
    """Component i = sum_j (d_i v_j) a_j on faces."""
    nx, ny = vx.shape[0] - 1, vx.shape[1]
    dvxdx = np.zeros((nx, ny))
    dvydy = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            dvxdx[i, j] = (vx[i + 1, j] - vx[i, j]) / hx
            dvydy[i, j] = (vy[i, j + 1] - vy[i, j]) / hy
    gvx = xghost(vx)
    gvy = yghost(vy)
    dvydx_n = np.zeros((nx + 1, ny + 1))
    dvxdy_n = np.zeros((nx + 1, ny + 1))
    for i in range(nx + 1):
        for j in range(ny + 1):
            dvydx_n[i, j] = (gvy[i + 1, j] - gvy[i, j]) / hx
            dvxdy_n[i, j] = (gvx[i, j + 1] - gvx[i, j]) / hy

    def a_y_at_xface(i, j):
        # 4-point average of ay around x-face (i, j); wall nodes are zero
        tot = 0.0
        for jj in (j, j + 1):
            if 1 <= i <= nx - 1:
                tot += 0.5 * (ay[i - 1, jj] + ay[i, jj])
        return 0.5 * tot

    def a_x_at_yface(i, j):
        tot = 0.0
        for ii in (i, i + 1):
            if 1 <= j <= ny - 1:
                tot += 0.5 * (ax[ii, j - 1] + ax[ii, j])
        return 0.5 * tot

    outx = np.zeros_like(vx)
    for i in range(1, nx):
        for j in range(ny):
            d1 = 0.5 * (dvxdx[i - 1, j] + dvxdx[i, j])
            d2 = 0.5 * (dvydx_n[i, j] + dvydx_n[i, j + 1])
            outx[i, j] = d1 * ax[i, j] + d2 * a_y_at_xface(i, j)
    outy = np.zeros_like(vy)
    for i in range(nx):
        for j in range(1, ny):
            d1 = 0.5 * (dvxdy_n[i, j] + dvxdy_n[i + 1, j])
            d2 = 0.5 * (dvydy[i, j - 1] + dvydy[i, j])
            outy[i, j] = d1 * a_x_at_yface(i, j) + d2 * ay[i, j]
    return outx, outy


# ---------------------------------------------------------------------------
# dense matrices


def cell_matrix(op, nx, ny):
    """Dense matrix of a cells->cells loop operator."""
    mat = np.zeros((nx * ny, nx * ny))
    for k in range(nx * ny):
        e = np.zeros(nx * ny)
        e[k] = 1.0
        mat[:, k] = op(e.reshape(nx, ny)).ravel()
    return mat


def face_vec(vx, vy):
    return np.concatenate([vx.ravel(), vy.ravel()])


def face_unvec(z, nx, ny):
    kx = (nx + 1) * ny
    return z[:kx].reshape(nx + 1, ny), z[kx:].reshape(nx, ny + 1)


def face_matrix(op, nx, ny):
    """Dense matrix of a faces->faces loop operator."""
    dim = (nx + 1) * ny + nx * (ny + 1)
    mat = np.zeros((dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        vx, vy = face_unvec(e, nx, ny)
        ox, oy = op(vx, vy)
        mat[:, k] = face_vec(ox, oy)
    return mat


def grad_matrix(nx, ny, hx, hy):
    """Dense cells->faces gradient."""
    dim_f = (nx + 1) * ny + nx * (ny + 1)
    mat = np.zeros((dim_f, nx * ny))
    for k in range(nx * ny):
        e = np.zeros(nx * ny)
        e[k] = 1.0
        gx, gy = loop_gradient(e.reshape(nx, ny), hx, hy)
        mat[:, k] = face_vec(gx, gy)
    return mat


def div_matrix(nx, ny, hx, hy):
    """Dense faces->cells divergence."""
    dim_f = (nx + 1) * ny + nx * (ny + 1)
    mat = np.zeros((nx * ny, dim_f))
    for k in range(dim_f):
        e = np.zeros(dim_f)
        e[k] = 1.0
        vx, vy = face_unvec(e, nx, ny)
        mat[:, k] = loop_divergence(vx, vy, hx, hy).ravel()
    return mat


def solve_poisson_zero_mean(lap_mat, rhs_flat):
    """Zero-mean solution of -Lap p = rhs using a dense pseudo-inverse."""
    n = lap_mat.shape[0]
    a = np.vstack([-lap_mat, np.ones((1, n))])
    b = np.concatenate([rhs_flat, [0.0]])
    p, *_ = np.linalg.lstsq(a, b, rcond=None)
    return p - p.mean()


def dense_projection(nx, ny, hx, hy):
    """Return a function projecting a stacked face vector, and the pressure."""
    lap = cell_matrix(lambda f: loop_laplacian(f, hx, hy), nx, ny)
    gmat = grad_matrix(nx, ny, hx, hy)
    dmat = div_matrix(nx, ny, hx, hy)

    def project(z, dt):
        rhs = -(dmat @ z) / dt
        p = solve_poisson_zero_mean(lap, rhs)
        return z - dt * (gmat @ p), p

    return project


# ---------------------------------------------------------------------------
# full-state sweeps


class LinearizedNode(NamedTuple):
    w: object  # FaceField
    psi: object  # ScalarField
    theta: object  # ScalarField


def full_linearized_sweep(base, h, params):
    """(w, psi, theta) at every node of ``solve_linearized(base, h, params)``:
    theta is what the step leaving the node reads (at the final node, what a
    further step would read)."""
    from nsch import FaceField, ScalarField, linearized_step
    from nsch.constitutive import linearized_chemical_potentials, mu_of_phi

    b0 = base[0]
    w = FaceField.zeros(base.grid, *b0.phi.values.shape[:-2])
    psi = ScalarField(base.grid, np.zeros_like(b0.phi.values))
    nodes = []
    for n, b in enumerate(base):
        mu, omega = mu_of_phi(b.phi, params)
        nodes.append(LinearizedNode(w, psi, linearized_chemical_potentials(psi, b.phi, omega, params)))
        if n < base.time.n_steps:
            h_n = h[n] if h is not None else None
            w, psi = linearized_step(b, base[n + 1], *nodes[-1], mu, h_n, base.time.dt,
                                     params)
    return nodes


class AdjointNode(NamedTuple):
    va: object  # FaceField
    phia: object  # ScalarField


def full_adjoint_sweep(base, cost, params):
    """The pair (va, phia) that ``solve_adjoint(base, cost, params)`` carries
    at every node t_0..t_N; the terminal one includes the half-weighted final
    tracking source, as the sweep carries it."""
    from nsch import ScalarField, adjoint_step, adjoint_terminal
    from nsch.state import trapezoid_weights

    n_steps, dt = base.time.n_steps, base.time.dt
    weights = trapezoid_weights(n_steps)

    def source(n):
        if cost.alpha1 == 0.0:
            return None
        misfit = base[n].phi - cost.phi_q[n]
        return ScalarField(base.grid, cost.alpha1 * weights[n] * misfit.values)

    va, phia = adjoint_terminal(base.final.phi, cost)
    s_n = source(n_steps)
    if s_n is not None:
        phia = ScalarField(base.grid, phia.values + dt * s_n.values)
    nodes = [AdjointNode(va, phia)]
    for n in range(n_steps - 1, -1, -1):
        nodes.append(AdjointNode(*adjoint_step(base[n], base[n + 1], *nodes[-1],
                                               source(n), dt, params)))
    return nodes[::-1]


# ---------------------------------------------------------------------------
# stored-series optimizer
#
# ``control.optimize`` and its helpers as they were when the optimizer held
# every control, gradient and va series whole (with the stopping rule
# against the first residual); the step-by-step optimizer must reproduce
# them bit for bit.


def inner_q(a: Iterable[FaceField], b: Iterable[FaceField], dt: float) -> float:
    """dt times the sum over steps of the L2(Omega) products of two series, or
    of any iterables of step fields: a difference is reduced one step at a
    time, since a freed whole-series temporary leaves a heap hole that the
    solvers' per-step arrays fragment (it raised the optimizer's peak RSS)."""
    return dt * ordered_sum(face_inner(a_n, b_n) for a_n, b_n in zip(a, b))


def norm_q(a: FaceField, dt: float) -> float:
    return float(np.sqrt(inner_q(a, a, dt)))


def reduced_gradient(
    u: FaceField, adj: Sequence[FaceField], cost: CostSpec
) -> FaceField:
    """Gradient series alpha3*u_n + va(t_n) of the reduced cost, from the
    adjoint velocity series ``adj`` of ``solve_adjoint``."""
    if len(adj) != len(u.x) + 1:
        raise ConfigError(
            f"adjoint trajectory has {len(adj)} nodes, control has {len(u.x)} steps"
        )
    g = cost.alpha3 * u
    for g_n, a in zip(g, adj):  # in place: stacking the va would allocate a second series
        g_n.x += a.x
        g_n.y += a.y
    return g


def stationarity_residual(
    u: FaceField, g: FaceField, bounds: ControlBounds, dt: float
) -> float:
    """Unit-step fixed-point residual ||u - P(u - g)||_{L2(Q)}."""
    return norm_q(u - project_admissible(u - g, bounds), dt)


def optimize(
    problem: ControlProblem,
    u0: FaceField | None = None,
    options: OptimizerOptions | None = None,
) -> tuple[FaceField, OptimReport]:
    """Spectral projected gradient descent with Armijo backtracking in the
    problem's box.

    Each line search starts from the Barzilai-Borwein (BB2) step
    <du, dg>_Q / <dg, dg>_Q, with du = u_k - u_{k-1} and dg = g_k - g_{k-1},
    capped at step0 = 1/alpha3 (1 when alpha3 = 0).  The first line search
    starts from step0, and one after a pair with <du, dg>_Q <= 0 from twice
    the last accepted step, capped at step0.  The step is halved until the
    projected trial u_s = P(u - s g) passes the Armijo test
    J(u_s) <= J(u) - c1 <g, u - u_s>_Q, which is J(u) - c1 s ||g||^2
    where no bound is active.  The loop stops (``OptimReport.reason``) when
    the unit-step fixed-point residual falls below tol times its first
    value, after max_iter accepted iterations, when backtrack_max halvings
    find no acceptable step, or when a rejected trial's Armijo decrease is
    below what J resolves (J minus it rounds to J).

    A line search holds one trajectory at a time: the accepted trajectory
    is released once its gradient is formed, a rejected trial before the
    next one is simulated.
    """
    opts = options or OptimizerOptions()
    cost, bounds, dt = problem.cost, problem.bounds, problem.time.dt
    require_unit_mobility(problem.params, "the optimizer")
    report = OptimReport()

    def evaluate(u: FaceField):
        traj = problem.simulate(u)
        report.n_simulations += 1
        return (traj, *evaluate_cost(traj, cost))

    if u0 is None:
        u0 = FaceField.zeros(problem.grid, problem.time.n_steps)
    u = project_admissible(u0, bounds)
    u0 = None  # not held through the run: only its projection is read
    report.max_bound_violation = bound_violation(u, bounds)
    traj, j, comps = evaluate(u)

    step0 = 1.0 / cost.alpha3 if cost.alpha3 > 0 else 1.0
    s, last_step = step0, 0.0
    u_prev = g_prev = None
    for it in range(opts.max_iter + 1):
        g = reduced_gradient(u, solve_adjoint(traj, cost), cost)
        traj = None
        if u_prev is not None:
            bb = _bb2_step(u, u_prev, g, g_prev, dt)
            u_prev = g_prev = None
            s = min(2.0 * last_step if bb is None else bb, step0)
        g_norm = norm_q(g, dt)
        residual = stationarity_residual(u, g, bounds, dt)
        if it == 0:
            residual0 = residual
        report.add(
            iter=it, J=j, J_track=comps["track"], J_terminal=comps["terminal"],
            J_control=comps["control"], grad_norm=g_norm, stationarity=residual,
            step=last_step, accepted=1,
        )
        if residual <= opts.tol * residual0:
            report.reason = StopReason.CONVERGED
            return u, report
        if it == opts.max_iter:
            report.reason = StopReason.MAX_ITER
            return u, report

        for _ in range(opts.backtrack_max + 1):
            u_trial = project_admissible(u - s * g, bounds)
            traj_trial, j_trial, comps_trial = evaluate(u_trial)
            target = j - opts.armijo_c1 * inner_q(g, (a - b for a, b in zip(u, u_trial)), dt)
            if j_trial <= target:
                break
            report.add(
                iter=it + 1, J=j_trial, J_track=comps_trial["track"],
                J_terminal=comps_trial["terminal"], J_control=comps_trial["control"],
                grad_norm=g_norm, stationarity=residual, step=s, accepted=0,
            )
            if target == j:  # shorter steps decrease J even less
                report.reason = StopReason.ROUNDOFF
                return u, report
            u_trial = traj_trial = None
            s *= 0.5
        else:
            report.reason = StopReason.LINE_SEARCH_FAILED
            return u, report

        u_prev, g_prev, last_step = u, g, s
        u, traj, j, comps = u_trial, traj_trial, j_trial, comps_trial
        u_trial = traj_trial = None
        report.max_bound_violation = max(report.max_bound_violation, bound_violation(u, bounds))


def _bb2_step(
    u: FaceField, u_prev: FaceField, g: FaceField, g_prev: FaceField, dt: float
) -> float | None:
    """Barzilai-Borwein step <du, dg>_Q / <dg, dg>_Q of the last iterate pair,
    or None when <du, dg>_Q <= 0 (no positive curvature along du)."""
    dg = [a - b for a, b in zip(g, g_prev)]
    curvature = inner_q((a - b for a, b in zip(u, u_prev)), dg, dt)
    return curvature / inner_q(dg, dg, dt) if curvature > 0 else None
