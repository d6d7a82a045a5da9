"""Grid calculus: transforms, stencils, solves, transport, projection."""

import numpy as np
import pytest

from nsch import (
    FaceField,
    GridSpec,
    IncompatibleMeanError,
    ScalarField,
    SingularSymbolError,
    advect_scalar,
    divergence_of_faces,
    face_inner,
    gradient_to_faces,
    helmholtz_poly_solve,
    laplacian,
    laplacian_eigenvalues,
    poisson_neumann,
    project_divergence_free,
    scalar_inner,
)
from nsch.grid import MAX_CELL_SIZE, MAX_DOMAIN_EDGE, MIN_CELL_SIZE, diff, mid, to_walls

from conftest import apply_poly_laplacian, l2_norm, random_face, random_scalar, random_solenoidal
from conftest import max_abs, stack_faces
import oracles


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 6, 1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(6, 6, -1.0, 1.0)
    # a cell whose h**-6 overflows would make the sixth-order symbol infinite
    with pytest.raises(ValueError, match=r"lx/nx = 1.25e-301 is too small: h\*\*-6 overflows"):
        GridSpec(8, 8, 1e-300, 1.0)
    with pytest.raises(ValueError, match="ly/ny"):
        GridSpec(8, 8, 1.0, 8 * MIN_CELL_SIZE)
    assert np.isfinite(GridSpec(8, 8, 1.0, 16 * MIN_CELL_SIZE).hy ** -6)
    # and one whose h**2 overflows the second difference's scale
    with pytest.raises(ValueError, match=r"lx/nx = 1.25e\+299 is too large: h\*\*2 overflows"):
        GridSpec(8, 8, 1e300, 1.0)
    with pytest.raises(ValueError, match="ly/ny"):
        GridSpec(8, 8, 1.0, 16 * MAX_CELL_SIZE)
    # and a domain whose area or squared edge overflows
    with pytest.raises(ValueError, match=r"domain edge lx = 1.07e\+155 is too large"):
        GridSpec(8, 8, 8 * MAX_CELL_SIZE, 8 * MAX_CELL_SIZE)
    with pytest.raises(ValueError, match="domain edge ly"):
        GridSpec(8, 8, 1.0, 1.01 * MAX_DOMAIN_EDGE)
    g = GridSpec(8, 8, MAX_DOMAIN_EDGE, MAX_DOMAIN_EDGE)
    assert np.isfinite(1e3 * g.lx * g.ly) and np.isfinite(g.hx ** 2) and np.isfinite(g.cell_volume)
    g = GridSpec(8, 4, 2.0, 1.0)
    assert g.hx == pytest.approx(0.25)
    assert g.hy == pytest.approx(0.25)
    assert g.cell_volume > 0


class TestLaplacian:
    def test_constant_in_kernel(self, grid6):
        out = laplacian(ScalarField.full(grid6, 7.0))
        assert np.abs(out.values).max() < 1e-12

    def test_zero_mean(self, grid65, rng):
        out = laplacian(random_scalar(grid65, rng))
        assert abs(out.mean()) < 1e-13

    def test_matches_loop_oracle(self, grid65, rng):
        f = random_scalar(grid65, rng)
        ref = oracles.loop_laplacian(f.values, grid65.hx, grid65.hy)
        assert np.abs(laplacian(f).values - ref).max() < 1e-11

    def test_cosine_eigenfunction(self, grid6):
        # eigenvalue read off by applying the stencil to one sampled column
        X, _ = grid6.cell_centers()
        f = ScalarField(grid6, np.cos(np.pi * X / grid6.lx))
        lam = -(2 - 2 * np.cos(np.pi / grid6.nx)) / grid6.hx**2
        assert np.abs(laplacian(f).values - lam * f.values).max() < 1e-11
        assert laplacian_eigenvalues(grid6)[1, 0] == pytest.approx(lam, rel=1e-14)

    @pytest.mark.parametrize("shape", [(6, 6), (6, 5), (17, 9)])
    def test_matches_mirror_pad_formula(self, shape, rng):
        grid = GridSpec(shape[0], shape[1], 1.5, 1.2)
        f = random_scalar(grid, rng)
        g = np.pad(f.values, 1, mode="edge")
        ref = (g[:-2, 1:-1] - 2.0 * g[1:-1, 1:-1] + g[2:, 1:-1]) / grid.hx**2
        ref += (g[1:-1, :-2] - 2.0 * g[1:-1, 1:-1] + g[1:-1, 2:]) / grid.hy**2
        # same operations in the same order: equal, not merely close
        assert np.array_equal(laplacian(f).values, ref)

    def test_factors_through_grad_div(self, grid65, rng):
        f = random_scalar(grid65, rng)
        composed = divergence_of_faces(gradient_to_faces(f))
        assert np.abs(composed.values - laplacian(f).values).max() < 1e-11


class TestGradDiv:
    def test_gradient_of_constant(self, grid6):
        g = gradient_to_faces(ScalarField.full(grid6, 2.0))
        assert max_abs(g) == 0.0

    def test_gradient_exact_for_linears(self, grid6):
        X, _ = grid6.cell_centers()
        g = gradient_to_faces(ScalarField(grid6, 3.0 * X))
        assert np.abs(g.x[1:-1, :] - 3.0).max() < 1e-12
        assert np.abs(g.x[0, :]).max() == 0.0  # Neumann boundary faces
        assert np.abs(g.y).max() < 1e-12

    def test_duality_transpose_identity(self, grid6):
        # <grad f, w> = -<f, div w> as an exact matrix identity on 6x6,
        # on the interior-face degrees of freedom (boundary faces are not
        # unknowns: gradients vanish there and no-slip fields are zero)
        nx, ny, hx, hy = grid6.nx, grid6.ny, grid6.hx, grid6.hy
        gmat = oracles.grad_matrix(nx, ny, hx, hy)
        dmat = oracles.div_matrix(nx, ny, hx, hy)
        bx = np.zeros((nx + 1, ny), dtype=bool)
        bx[1:-1, :] = True
        by = np.zeros((nx, ny + 1), dtype=bool)
        by[:, 1:-1] = True
        interior = np.concatenate([bx.ravel(), by.ravel()])
        assert np.abs(gmat[interior] + dmat.T[interior]).max() < 1e-12
        # gradient rows on boundary faces vanish identically
        assert np.abs(gmat[~interior]).max() == 0.0

    def test_duality_on_random_fields(self, grid65, rng):
        f = random_scalar(grid65, rng)
        w = random_face(grid65, rng)
        lhs = face_inner(gradient_to_faces(f), w)
        rhs = -scalar_inner(f, divergence_of_faces(w))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_divergence_boundary_cells(self):
        # uniform interior w, zero boundary faces: hand stencil on 4x4
        grid = GridSpec(4, 4, 1.0, 1.0)
        w = FaceField.zeros(grid)
        w.x[1:-1, :] = 1.0
        div = divergence_of_faces(w)
        h = grid.hx
        expect = np.zeros((4, 4))
        expect[0, :] = 1.0 / h
        expect[-1, :] = -1.0 / h
        assert np.abs(div.values - expect).max() < 1e-13


def loop_stencil(g, axis, h=None):
    """Loop-coded mean (h None) or difference over h of neighbouring values
    of the ghost-extended array g along axis."""
    g = np.moveaxis(g, axis, 0)
    out = np.empty((g.shape[0] - 1,) + g.shape[1:])
    for i in range(out.shape[0]):
        out[i] = 0.5 * (g[i + 1] + g[i]) if h is None else (g[i + 1] - g[i]) / h
    return np.moveaxis(out, 0, axis)


class TestStencilPrimitives:
    # the ghost-extended arrays of the independent oracles, per wall rule and
    # axis: cell scalars are mirrored, tangential velocities reflected
    @staticmethod
    def ghosted(grid, rng, ghost, axis):
        nx, ny = grid.nx, grid.ny
        if ghost > 0:
            a = rng.standard_normal((nx, ny))
            g = oracles.cell_ghost(a)
            return a, g[:, 1:-1] if axis == 0 else g[1:-1, :]
        if axis == 0:
            a = rng.standard_normal((nx, ny + 1))  # y-velocity across x-walls
            return a, oracles.yghost(a)
        a = rng.standard_normal((nx + 1, ny))  # x-velocity across y-walls
        return a, oracles.xghost(a)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("ghost", [1, -1])
    @pytest.mark.parametrize("stencil", ["mid", "diff"])
    def test_to_walls_matches_ghost_oracle(self, grid65, rng, stencil, ghost, axis):
        a, g = self.ghosted(grid65, rng, ghost, axis)
        h = None if stencil == "mid" else (grid65.hx, grid65.hy)[axis]
        out = to_walls(a, axis, ghost, h)
        assert out.flags.c_contiguous
        # exact, wall values included: a, 0 or +-2a/h
        assert np.array_equal(out, loop_stencil(g, axis, h))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_mid_and_diff_are_the_interior(self, grid65, rng, axis):
        a = rng.standard_normal((grid65.nx, grid65.ny))
        h = (grid65.hx, grid65.hy)[axis]
        inner = np.s_[1:-1, :] if axis == 0 else np.s_[:, 1:-1]
        for out, step in ((mid(a, axis), None), (diff(a, axis, h), h)):
            assert out.flags.c_contiguous
            assert np.array_equal(out, loop_stencil(a, axis, step))
            assert np.array_equal(out, to_walls(a, axis, 1, step)[inner])

    @pytest.mark.parametrize("ghost", [1, -1])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_leading_batch_axis(self, grid65, rng, axis, ghost):
        batch = rng.standard_normal((3, grid65.nx, grid65.ny))
        h = (grid65.hx, grid65.hy)[axis]
        for op in (
            lambda a: mid(a, axis),
            lambda a: diff(a, axis, h),
            lambda a: to_walls(a, axis, ghost),
            lambda a: to_walls(a, axis, ghost, h),
        ):
            out = op(batch)
            assert out.flags.c_contiguous
            assert np.array_equal(out, np.stack([op(a) for a in batch]))


def padded_to_walls(a, axis, ghost, h=None):
    """to_walls by its slice formula: mean or difference of neighbours of a
    padded with the ghost values ghost * a past each end."""
    if axis == 0:
        g = np.concatenate([ghost * a[..., :1, :], a, ghost * a[..., -1:, :]], axis=-2)
        hi, lo = g[..., 1:, :], g[..., :-1, :]
    else:
        g = np.concatenate([ghost * a[..., :1], a, ghost * a[..., -1:]], axis=-1)
        hi, lo = g[..., 1:], g[..., :-1]
    return 0.5 * (hi + lo) if h is None else (hi - lo) / h


class TestRowFreeStencils:
    """The trailing-axis passes run over the flat buffer and drop the entries
    that cross a row; the results equal the slice formulas bit for bit."""

    shapes = [(4, 4), (5, 7), (3, 5, 7)]

    @pytest.mark.parametrize("shape", shapes)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("ghost", [1, -1])
    @pytest.mark.parametrize("h", [None, 0.7])
    def test_to_walls_matches_slice_formula(self, rng, shape, axis, ghost, h):
        a = rng.standard_normal(shape)
        out = to_walls(a, axis, ghost, h)
        assert out.flags.c_contiguous
        assert np.array_equal(out, padded_to_walls(a, axis, ghost, h))

    @pytest.mark.parametrize("shape", shapes)
    def test_quad_mean_matches_slice_formula(self, rng, shape):
        from nsch.mac import _quad_mean

        g = rng.standard_normal(shape)
        out = _quad_mean(g)
        assert out.flags.c_contiguous
        ref = 0.25 * (g[..., :-1, :-1] + g[..., 1:, :-1] + g[..., :-1, 1:] + g[..., 1:, 1:])
        assert np.array_equal(out, ref)


class TestHelmholtzPolySolve:
    def test_identity_coefficients(self, grid6, rng):
        f = random_scalar(grid6, rng)
        x = helmholtz_poly_solve(1.0, 0.0, 0.0, 0.0, f)
        assert np.abs(x.values - f.values).max() < 1e-12

    def test_round_trip_second_order(self, grid6, rng):
        f = random_scalar(grid6, rng)
        rhs = apply_poly_laplacian(1.0, 1.0, 0.0, 0.0, f)
        x = helmholtz_poly_solve(1.0, 1.0, 0.0, 0.0, rhs)
        assert np.abs(x.values - f.values).max() < 1e-10

    def test_sixth_order_residual(self, rng):
        grid = GridSpec(64, 64, 16.0, 16.0)
        f = random_scalar(grid, rng)
        x = helmholtz_poly_solve(1.0, 0.0, 2e-3, 1e-3, f)
        res = apply_poly_laplacian(1.0, 0.0, 2e-3, 1e-3, x) - f
        assert l2_norm(res) <= 1e-10 * l2_norm(f)

    def test_zero_mode_gauge(self, grid6, rng):
        f = random_scalar(grid6, rng)
        f = ScalarField(grid6, f.values - f.values.mean())
        x = helmholtz_poly_solve(0.0, 1.0, 0.0, 0.0, f)
        assert abs(x.mean()) < 1e-12
        res = apply_poly_laplacian(0.0, 1.0, 0.0, 0.0, x) - f
        assert l2_norm(res) <= 1e-10 * l2_norm(f)

    def test_singular_symbol_rejected(self, grid6, rng):
        # every call raises: a singular symbol is never cached
        lam = laplacian_eigenvalues(grid6)[1, 0]
        for _ in range(3):
            with pytest.raises(SingularSymbolError, match="singular symbol"):
                helmholtz_poly_solve(lam, 1.0, 0.0, 0.0, random_scalar(grid6, rng))

    def test_incompatible_mean_rejected(self, grid6, rng):
        # the mean check runs on every call, also once the symbol is cached
        f = random_scalar(grid6, rng)
        poisson_neumann(ScalarField(grid6, f.values - f.values.mean()))
        for _ in range(3):
            with pytest.raises(IncompatibleMeanError, match="incompatible mean"):
                poisson_neumann(ScalarField.full(grid6, 1.0))


class TestPoissonNeumann:
    def test_zero_rhs(self, grid6):
        p = poisson_neumann(ScalarField.zeros(grid6))
        assert max_abs(p) == 0.0

    def test_round_trip(self, grid6, rng):
        f = random_scalar(grid6, rng)
        f = ScalarField(grid6, f.values - f.values.mean())
        p = poisson_neumann(ScalarField(grid6, -laplacian(f).values))
        assert np.abs(p.values - f.values).max() < 1e-10

    def test_output_mean_zero(self, grid65, rng):
        f = random_scalar(grid65, rng)
        rhs = ScalarField(grid65, -laplacian(f).values)
        assert abs(poisson_neumann(rhs).mean()) < 1e-12


class TestAdvectScalar:
    def test_zero_velocity(self, grid6, rng):
        out = advect_scalar(FaceField.zeros(grid6), random_scalar(grid6, rng))
        assert max_abs(out) == 0.0

    def test_constant_scalar_divfree(self, grid6, rng):
        v = random_solenoidal(grid6, rng)
        out = advect_scalar(v, ScalarField.full(grid6, 4.0))
        assert max_abs(out) < 1e-12 * max(1.0, max_abs(v))

    def test_mean_zero_by_direct_summation(self, grid65, rng):
        v = random_solenoidal(grid65, rng)
        f = random_scalar(grid65, rng)
        out = advect_scalar(v, f)
        assert abs(out.values.sum() * grid65.cell_volume) < 1e-13

    def test_matches_loop_oracle(self, grid65, rng):
        v = random_face(grid65, rng)
        f = random_scalar(grid65, rng)
        ref = oracles.loop_advect(v.x, v.y, f.values, grid65.hx, grid65.hy)
        assert np.abs(advect_scalar(v, f).values - ref).max() < 1e-12


class TestProjection:
    def test_fixed_point_on_divfree(self, grid6, rng):
        v = random_solenoidal(grid6, rng)
        w, p = project_divergence_free(v, 0.1)
        assert np.abs(w.x - v.x).max() < 1e-11
        assert max_abs(p) < 1e-10

    def test_annihilates_gradients(self, grid6, rng):
        f = random_scalar(grid6, rng)
        v = gradient_to_faces(f)
        w, p = project_divergence_free(v, 1.0)
        assert max_abs(w) < 1e-11 * max(1.0, max_abs(v))
        assert np.abs(p.values - (f.values - f.values.mean())).max() < 1e-10

    def test_idempotent(self, grid65, rng):
        v = random_face(grid65, rng)
        w1, _ = project_divergence_free(v, 0.3)
        w2, p2 = project_divergence_free(w1, 0.3)
        assert np.abs(w2.x - w1.x).max() < 1e-10
        assert np.abs(w2.y - w1.y).max() < 1e-10
        assert max_abs(divergence_of_faces(w1)) < 1e-10 * max_abs(v) / grid65.hx

    def test_never_increases_kinetic_norm(self, grid65, rng):
        for _ in range(5):
            v = random_face(grid65, rng)
            w, _ = project_divergence_free(v, 0.7)
            assert face_inner(w, w) <= face_inner(v, v) * (1 + 1e-12)


class TestBatchedKernels:
    # a leading batch axis gives every member's own result bit for bit, on
    # a non-square grid so an axis mix-up shows
    grid = GridSpec(12, 9, 3.0, 2.0)

    def test_laplacian(self, rng):
        f = ScalarField(self.grid, rng.standard_normal((3, 12, 9)))
        out = laplacian(f).values
        assert out.flags.c_contiguous
        assert np.array_equal(out, np.stack([laplacian(f[m]).values for m in range(3)]))
        # a strided view gives the result of its contiguous copy
        view = ScalarField(self.grid, np.asfortranarray(f.values[1]))
        assert np.array_equal(laplacian(view).values, out[1])

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 2e-3, 1e-3), (0.0, 1.0, 0.0, 0.0)])
    def test_helmholtz_poly_solve(self, rng, coeffs):
        values = rng.standard_normal((3, 12, 9))
        rhs = ScalarField(self.grid, values - values.mean(axis=(-2, -1), keepdims=True))
        out = helmholtz_poly_solve(*coeffs, rhs).values
        assert np.array_equal(out, np.stack([helmholtz_poly_solve(*coeffs, rhs[m]).values
                                             for m in range(3)]))

    def test_incompatible_mean_judged_per_member(self, rng):
        # member 1's mean is far below the batch's norm but not its own
        values = rng.standard_normal((3, 12, 9))
        values -= values.mean(axis=(-2, -1), keepdims=True)
        values[0] *= 1e12
        values[1] += 1e-3
        rhs = ScalarField(self.grid, values)
        with pytest.raises(IncompatibleMeanError, match="incompatible mean"):
            poisson_neumann(rhs)
        with pytest.raises(IncompatibleMeanError):
            poisson_neumann(rhs[1])
        poisson_neumann(rhs[[0, 2]])

    def test_project_divergence_free(self, rng):
        faces = [random_face(self.grid, rng, noslip=False) for _ in range(3)]
        w, p = project_divergence_free(stack_faces(faces), 0.3)
        single = [project_divergence_free(f, 0.3) for f in faces]
        assert np.array_equal(w.x, np.stack([s[0].x for s in single]))
        assert np.array_equal(w.y, np.stack([s[0].y for s in single]))
        assert np.array_equal(p.values, np.stack([s[1].values for s in single]))

    def test_zero_boundary_normal(self, rng):
        faces = [random_face(self.grid, rng, noslip=False) for _ in range(3)]
        out = stack_faces(faces).zero_boundary_normal()
        single = stack_faces([f.zero_boundary_normal() for f in faces])
        assert np.array_equal(out.x, single.x) and np.array_equal(out.y, single.y)

    def test_inner_products_reject_leading_axes(self, rng):
        # they sum over every axis, so a batch or step axis would mix members
        members = [random_face(self.grid, rng) for _ in range(3)]
        faces = stack_faces(members)
        cells = ScalarField(self.grid, rng.standard_normal((3, 12, 9)))
        with pytest.raises(ValueError, match="index the batch member or step first"):
            face_inner(faces, faces)
        with pytest.raises(ValueError, match="index the batch member or step first"):
            scalar_inner(cells, cells)
        assert face_inner(faces[1], faces[1]) == face_inner(members[1], members[1])
        assert scalar_inner(cells[2], cells[2]) == scalar_inner(cells[2].copy(), cells[2].copy())

    def test_reductions_reject_leading_axes(self, rng):
        # one joint value over a 3-member batch would hide which member it is
        cells = ScalarField(self.grid, rng.standard_normal((3, 12, 9)))
        with pytest.raises(ValueError, match="index the batch member or step first"):
            cells.mean()
        assert cells[1].mean() == cells.values[1].mean()

    def test_shape_checks_read_the_trailing_axes(self):
        ScalarField(self.grid, np.zeros((2, 12, 9)))
        FaceField(self.grid, np.zeros((2, 13, 9)), np.zeros((2, 12, 10)))
        with pytest.raises(ValueError, match="does not match grid"):
            ScalarField(self.grid, np.zeros((2, 9, 12)))
        with pytest.raises(ValueError, match="does not match grid"):
            FaceField(self.grid, np.zeros((2, 12, 10)), np.zeros((2, 13, 9)))
