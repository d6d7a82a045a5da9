"""Staggered velocity calculus against loop oracles and symmetry properties."""

import numpy as np
import pytest

from nsch import FaceField, GridSpec, ScalarField, divergence_of_faces, face_inner
from nsch import mac
from nsch.grid import to_walls

from conftest import max_abs, random_face, random_scalar, random_solenoidal, stack_faces
import oracles


class TestInterpolation:
    def test_center_to_faces_mirror(self, grid65, rng):
        c = random_scalar(grid65, rng).values
        fx = to_walls(c, 0, 1)
        assert np.abs(fx[0, :] - c[0, :]).max() == 0.0
        assert np.abs(fx[3, :] - 0.5 * (c[2, :] + c[3, :])).max() < 1e-15
        fy = to_walls(c, 1, 1)
        assert np.abs(fy[:, -1] - c[:, -1]).max() == 0.0

    def test_corner_values_vanish_on_walls(self, grid65, rng):
        v = random_face(grid65, rng)
        xc = to_walls(v.x, 1, -1)
        assert np.abs(xc[:, 0]).max() == 0.0
        assert np.abs(xc[:, -1]).max() == 0.0
        yc = to_walls(v.y, 0, -1)
        assert np.abs(yc[0, :]).max() == 0.0

    def test_face_dot_consistent_with_face_inner(self, grid65, rng):
        # the cell-averaged dot integrates to the half-weighted boundary
        # quadrature of face_inner, for arbitrary (not only no-slip) fields
        a = random_face(grid65, rng, noslip=False)
        b = random_face(grid65, rng, noslip=False)
        cells = mac.face_dot_to_cells(a, b)
        assert cells.values.sum() * grid65.cell_volume == pytest.approx(
            face_inner(a, b), rel=1e-12
        )


class TestStencils:
    def test_one_bundle_twice_matches_two_bundles(self, grid65, rng):
        # a term of a field with itself reads one bundle for both operands
        v = random_face(grid65, rng)
        one = mac.Stencils(v)
        adv = mac.momentum_advection(one, one)
        ref = mac.momentum_advection(mac.Stencils(v), mac.Stencils(v))
        assert np.array_equal(adv.x, ref.x) and np.array_equal(adv.y, ref.y)
        assert np.array_equal(
            mac.strain_contraction(one, one),
            mac.strain_contraction(mac.Stencils(v), mac.Stencils(v)),
        )


class TestMomentumAdvection:
    def test_matches_loop_oracle(self, grid65, rng):
        c = random_face(grid65, rng)
        q = random_face(grid65, rng)
        out = mac.momentum_advection(mac.Stencils(c), mac.Stencils(q))
        ox, oy = oracles.loop_momentum_advection(c.x, c.y, q.x, q.y, grid65.hx, grid65.hy)
        assert np.abs(out.x - ox).max() < 1e-12
        assert np.abs(out.y - oy).max() < 1e-12

    def test_advection_of_uniform_flow_interior(self):
        # carrier divergence-free, transported field constant on faces:
        # conservative form reduces to boundary-layer terms only
        grid = GridSpec(8, 8, 2.0, 2.0)
        rng = np.random.default_rng(3)
        c = random_solenoidal(grid, rng)
        q = FaceField.zeros(grid)
        q.x[:, :] = 1.0
        q.x[0, :] = 0.0
        q.x[-1, :] = 0.0
        out = mac.momentum_advection(mac.Stencils(c), mac.Stencils(q))
        # interior x-faces away from walls see div(c)*1 = 0
        assert np.abs(out.x[2:-2, 2:-2]).max() < 1e-12


class TestStressDivergence:
    def test_matches_loop_oracle(self, grid65, rng):
        a = random_scalar(grid65, rng).values
        v = random_face(grid65, rng)
        out = mac.viscous_stress_divergence(a, mac.Stencils(v))
        ox, oy = oracles.loop_stress_divergence(a, v.x, v.y, grid65.hx, grid65.hy)
        assert np.abs(out.x - ox).max() < 1e-12
        assert np.abs(out.y - oy).max() < 1e-12

    def test_symmetric_bilinear_form(self, grid65, rng):
        # <div(2aDv), w> = <v, div(2aDw)>: exact integration by parts
        a = 1.0 + 0.5 * np.tanh(random_scalar(grid65, rng).values)
        v = random_face(grid65, rng)
        w = random_face(grid65, rng)
        lhs = face_inner(mac.viscous_stress_divergence(a, mac.Stencils(v)), w)
        rhs = face_inner(v, mac.viscous_stress_divergence(a, mac.Stencils(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dissipation_pairing(self, grid65, rng):
        # <div(2aDv), v> = -int 2a D(v):D(v)
        a = 1.0 + 0.5 * np.tanh(random_scalar(grid65, rng).values)
        v = random_face(grid65, rng)
        vs = mac.Stencils(v)
        lhs = face_inner(mac.viscous_stress_divergence(a, vs), v)
        rhs = -(2.0 * a * mac.strain_contraction(vs, vs)).sum() * grid65.cell_volume
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_strain_contraction_matches_loop(self, grid65, rng):
        v = random_face(grid65, rng)
        w = random_face(grid65, rng)
        ref = oracles.loop_strain_contraction(v.x, v.y, w.x, w.y, grid65.hx, grid65.hy)
        assert np.abs(mac.strain_contraction(mac.Stencils(v), mac.Stencils(w)) - ref).max() < 1e-12


class TestTransposeGradient:
    def test_matches_loop_oracle(self, grid65, rng):
        v = random_face(grid65, rng)
        a = random_face(grid65, rng)
        out = mac.transpose_gradient_term(mac.Stencils(v), mac.Stencils(a))
        ox, oy = oracles.loop_transpose_gradient(v.x, v.y, a.x, a.y, grid65.hx, grid65.hy)
        assert np.abs(out.x - ox).max() < 1e-12
        assert np.abs(out.y - oy).max() < 1e-12

    def test_pairing_identity_with_advection(self, grid65, rng):
        # <(w . grad) v, a> = <(a . grad^T) v, w> for divergence-free w
        # (the continuous identity; discrete forms agree to O(h^2), so
        # check consistency on smooth low-mode fields instead of random)
        grid = GridSpec(48, 48, 2.0, 2.0)
        x = np.arange(grid.nx + 1) * grid.hx
        yc = (np.arange(grid.ny) + 0.5) * grid.hy
        xc = (np.arange(grid.nx) + 0.5) * grid.hx
        y = np.arange(grid.ny + 1) * grid.hy

        def smooth_face(k):
            fx = np.sin(np.pi * x / grid.lx)[:, None] * np.cos(
                (k + 1) * np.pi * yc / grid.ly
            )[None, :]
            fy = np.sin(np.pi * y / grid.ly)[None, :] * np.cos(
                (k + 2) * np.pi * xc / grid.lx
            )[:, None]
            return FaceField(grid, fx, fy)

        rng2 = np.random.default_rng(7)
        psi = np.sin(np.pi * x / grid.lx)[:, None] ** 2 * np.sin(np.pi * y / grid.ly)[None, :] ** 2
        w = mac.stream_function_velocity(grid, psi)
        v = smooth_face(0)
        a = smooth_face(1)
        lhs = face_inner(mac.momentum_advection(mac.Stencils(w), mac.Stencils(v)), a)
        rhs = face_inner(mac.transpose_gradient_term(mac.Stencils(v), mac.Stencils(a)), w)
        assert lhs == pytest.approx(rhs, rel=2e-2)


class TestFaceHelmholtz:
    def test_residual_against_loop_laplacian(self, grid65, rng):
        rhs = random_face(grid65, rng)
        c = 0.37
        u = mac.solve_face_helmholtz(rhs, c)
        lx, ly = oracles.loop_face_laplacian(u.x, u.y, grid65.hx, grid65.hy)
        res_x = u.x - c * lx - rhs.x
        res_y = u.y - c * ly - rhs.y
        # boundary normal faces are pinned, compare interiors
        assert np.abs(res_x[1:-1, :]).max() < 1e-11 * max(1.0, max_abs(rhs))
        assert np.abs(res_y[:, 1:-1]).max() < 1e-11 * max(1.0, max_abs(rhs))
        assert np.abs(u.x[0, :]).max() == 0.0
        assert np.abs(u.y[:, -1]).max() == 0.0

    def test_apply_matches_loop(self, grid65, rng):
        v = random_face(grid65, rng)
        out_x, out_y = oracles.face_laplacian(v.x, v.y, grid65.hx, grid65.hy)
        ox, oy = oracles.loop_face_laplacian(v.x, v.y, grid65.hx, grid65.hy)
        assert np.abs(out_x - ox).max() < 1e-12
        assert np.abs(out_y - oy).max() < 1e-12

    def test_identity_limit(self, grid65, rng):
        rhs = random_face(grid65, rng)
        u = mac.solve_face_helmholtz(rhs, 0.0)
        assert np.abs(u.x[1:-1] - rhs.x[1:-1]).max() < 1e-12


class TestStreamFunction:
    def test_divergence_free_and_noslip(self, grid65, rng):
        v = random_solenoidal(grid65, rng)
        assert max_abs(divergence_of_faces(v)) < 1e-12 * max(1.0, max_abs(v) / grid65.hx)
        assert np.abs(v.x[0, :]).max() == 0.0
        assert np.abs(v.y[:, 0]).max() == 0.0

    def test_shape_validation(self, grid65):
        with pytest.raises(ValueError):
            mac.stream_function_velocity(grid65, np.zeros((3, 3)))


class TestGradientForce:
    def test_constant_phase_no_force(self, grid65, rng):
        mu = random_scalar(grid65, rng)
        out = mac.gradient_force(mu.values, ScalarField.full(grid65, 1.0))
        assert max_abs(out) == 0.0

    def test_product_rule_exact(self, grid65, rng):
        # avg(a) grad(b) + avg(b) grad(a) telescopes to grad(ab) exactly
        from nsch.grid import gradient_to_faces

        a = random_scalar(grid65, rng)
        b = random_scalar(grid65, rng)
        lhs = mac.gradient_force(a.values, b) + mac.gradient_force(b.values, a)
        rhs = gradient_to_faces(a * b)
        assert np.abs(lhs.x - rhs.x).max() < 1e-12
        assert np.abs(lhs.y - rhs.y).max() < 1e-12


class TestBatchedKernels:
    # a leading batch axis gives every member's own result bit for bit, on
    # a non-square grid so an axis mix-up shows
    grid = GridSpec(12, 9, 3.0, 2.0)

    def test_solve_face_helmholtz(self, rng):
        faces = [random_face(self.grid, rng) for _ in range(3)]
        out = mac.solve_face_helmholtz(stack_faces(faces), 0.37)
        single = stack_faces([mac.solve_face_helmholtz(f, 0.37) for f in faces])
        assert np.array_equal(out.x, single.x) and np.array_equal(out.y, single.y)

    def test_center_to_corners(self, rng):
        cells = rng.standard_normal((3, 12, 9))
        out = mac.center_to_corners(cells)
        assert out.shape == (3, 13, 10)
        assert np.array_equal(out, np.stack([mac.center_to_corners(c) for c in cells]))
        # the 2x2 mean of the edge-padded cells, in the same sum order
        g = np.pad(cells[1], 1, mode="edge")
        assert np.array_equal(out[1], 0.25 * (g[:-1, :-1] + g[1:, :-1] + g[:-1, 1:] + g[1:, 1:]))
