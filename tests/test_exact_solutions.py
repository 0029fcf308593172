"""Closed-form benchmark solutions audited by finite differences and
independent quadrature oracles."""

import warnings

import numpy as np
import pytest

from dpgelast.material import MaterialParams, stiffness_apply_array
from dpgelast.mesh import Mesh, build_lshape_mesh
from dpgelast.quadrature import triangle_rule, map_to_physical, graded_triangle_rule
from dpgelast.forms import bc_from_exact
from dpgelast.dpg_solver import solve_dpg
from dpgelast.spaces import evaluate_field, evaluate_field_gradient
from dpgelast.exact_solutions import (
    ExactSolution,
    smooth_solution_2d,
    singular_solution,
    solve_singularity_exponent,
    _exponent_residual,
    error_norms,
)


def fd_gradient(f, pts, h=1e-6):
    out = np.zeros(pts.shape[:-1] + (2, 2))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = h
        out[..., :, j] = (f(pts + dp) - f(pts - dp)) / (2 * h)
    return out


def fd_divergence(stress, pts, h=1e-6):
    out = np.zeros(pts.shape[:-1] + (2,))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = h
        out += (stress(pts + dp)[..., :, j] - stress(pts - dp)[..., :, j]) / (2 * h)
    return out


@pytest.fixture(scope="module")
def smooth():
    return smooth_solution_2d()


@pytest.fixture(scope="module")
def singular():
    return singular_solution()


def interior_points(rng, n, box):
    (x0, x1), (y0, y1) = box
    return np.column_stack(
        [rng.uniform(x0, x1, size=n), rng.uniform(y0, y1, size=n)]
    )


class TestSmooth:
    def test_gradient_consistent(self, smooth):
        rng = np.random.default_rng(0)
        pts = interior_points(rng, 200, ((0.05, 0.95), (0.05, 0.95)))
        fd = fd_gradient(smooth.displacement, pts)
        assert np.abs(fd - smooth.displacement_gradient(pts)).max() < 1e-8

    def test_stress_is_stiffness_of_strain(self, smooth):
        rng = np.random.default_rng(1)
        pts = interior_points(rng, 200, ((0.05, 0.95), (0.05, 0.95)))
        g = smooth.displacement_gradient(pts)
        assert np.abs(smooth.stress(pts) - stiffness_apply_array(g, smooth.material)).max() < 1e-13

    def test_momentum_balance(self, smooth):
        # div sigma + f = 0 pointwise, stress divergence by finite differences
        rng = np.random.default_rng(2)
        pts = interior_points(rng, 100, ((0.1, 0.9), (0.1, 0.9)))
        resid = fd_divergence(smooth.stress, pts) + smooth.body_force(pts)
        assert np.abs(resid).max() < 1e-7

    def test_boundary_displacement_vanishes(self, smooth):
        t = np.linspace(0, 1, 33)
        for pts in (
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([t, np.ones_like(t)]),
            np.column_stack([np.zeros_like(t), t]),
            np.column_stack([np.ones_like(t), t]),
        ):
            assert np.abs(smooth.displacement(pts)).max() < 1e-14


class TestSingularityExponent:
    def test_value_near_steel_poisson(self):
        params = solve_singularity_exponent(0.304)
        assert abs(params.a - 0.5946) < 5e-4

    def test_residual_at_root(self):
        nu = 0.304
        params = solve_singularity_exponent(nu)
        assert abs(_exponent_residual(params.a, nu)) <= 1e-12

    def test_exponent_monotone_range(self):
        # exponents for physical Poisson ratios stay in the expected window
        for nu in (0.2, 0.25, 0.3, 0.35, 0.4):
            params = solve_singularity_exponent(nu)
            assert 0.5 < params.a < 0.8
            assert abs(_exponent_residual(params.a, nu)) <= 1e-12


def scalar_scan_exponent(nu):
    """(a, C1) of the exponent solve with one scalar residual call per scan
    point and a loop over the scan for the first admissible sign change."""
    grid = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    vals = [_exponent_residual(g, nu) for g in grid]
    i = next(i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0 and not grid[i] < 1 / 3 < grid[i + 1])
    lo, hi = grid[i], grid[i + 1]
    flo = _exponent_residual(lo, nu)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        fmid = _exponent_residual(mid, nu)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    a = 0.5 * (lo + hi)
    th = 0.75 * np.pi
    return a, (4.0 * (1.0 - nu) - (a + 1)) * np.sin((a - 1) * th) / ((a + 1) * np.sin((a + 1) * th))


class TestSingularityExponentScan:
    @pytest.mark.parametrize("nu", np.linspace(0.0, 0.499, 12))
    def test_matches_scalar_scan_bitwise(self, nu):
        params = solve_singularity_exponent(nu)
        assert (params.a, params.C1) == scalar_scan_exponent(nu)


class TestSingular:
    def test_material_is_steel_like(self, singular):
        assert abs(singular.material.nu - 0.304) < 5e-4

    def test_displacement_vanishes_on_reentrant_rays(self, singular):
        t = np.linspace(1e-3, 1.0, 50)
        ray1 = np.column_stack([np.zeros_like(t), t])  # {0} x (0, 1]
        ray2 = np.column_stack([-t, np.zeros_like(t)])  # [-1, 0) x {0}
        assert np.abs(singular.displacement(ray1)).max() < 1e-13
        assert np.abs(singular.displacement(ray2)).max() < 1e-13

    def test_gradient_consistent(self, singular):
        rng = np.random.default_rng(3)
        pts = interior_points(rng, 150, ((0.2, 0.9), (0.2, 0.9)))
        fd = fd_gradient(singular.displacement, pts, h=1e-7)
        g = singular.displacement_gradient(pts)
        assert np.abs(fd - g).max() / np.abs(g).max() < 1e-6

    def test_stress_matches_strain(self, singular):
        rng = np.random.default_rng(4)
        pts = np.concatenate(
            [
                interior_points(rng, 100, ((0.1, 0.95), (0.1, 0.95))),
                interior_points(rng, 100, ((-0.95, -0.1), (0.1, 0.95))),
                interior_points(rng, 100, ((0.1, 0.95), (-0.95, -0.1))),
            ]
        )
        g = singular.displacement_gradient(pts)
        s = stiffness_apply_array(g, singular.material)
        assert np.abs(singular.stress(pts) - s).max() / np.abs(s).max() < 1e-12

    def test_divergence_free(self, singular):
        rng = np.random.default_rng(5)
        pts = interior_points(rng, 100, ((0.2, 0.9), (0.2, 0.9)))
        resid = fd_divergence(singular.stress, pts, h=1e-7)
        assert np.abs(resid).max() < 1e-5

    def test_stress_symmetric(self, singular):
        rng = np.random.default_rng(6)
        pts = interior_points(rng, 100, ((0.05, 0.95), (0.05, 0.95)))
        s = singular.stress(pts)
        assert np.abs(s - np.swapaxes(s, -1, -2)).max() < 1e-12

    def test_stress_scaling_exponent(self, singular):
        # |sigma| ~ r^(a-1) along a fixed direction into the domain
        a = singular.params.a
        d = np.array([np.cos(0.7), np.sin(0.7)])
        r = np.array([1e-3, 1e-2, 1e-1])
        mags = np.linalg.norm(
            singular.stress(r[:, None] * d[None, :]).reshape(3, -1), axis=1
        )
        rates = np.log(mags[1:] / mags[:-1]) / np.log(r[1:] / r[:-1])
        assert np.abs(rates - (a - 1)).max() < 1e-10

    def test_fields_homogeneous_about_corner(self, singular):
        # u(lam x) = lam^a u(x), grad u and sigma scale with lam^(a-1): the
        # property error_norms uses to spread strip-0 values over the strips
        a = singular.params.a
        rng = np.random.default_rng(8)
        pts = np.concatenate(
            [
                interior_points(rng, 50, ((0.05, 0.95), (0.05, 0.95))),
                interior_points(rng, 50, ((-0.95, -0.05), (0.05, 0.95))),
                interior_points(rng, 50, ((0.05, 0.95), (-0.95, -0.05))),
            ]
        )
        for fn, s in (
            (singular.displacement, a),
            (singular.displacement_gradient, a - 1),
            (singular.stress, a - 1),
        ):
            base = fn(pts)
            for level in range(45):
                lam = 0.5**level
                want = lam**s * base
                assert np.abs(fn(lam * pts) - want).max() <= 1e-13 * np.abs(want).max()

    def test_displacement_at_corner_is_zero(self, singular):
        # Dirichlet data and interpolation evaluate it at the corner vertex
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = singular.displacement(np.zeros((3, 2)))
        assert np.array_equal(u, np.zeros((3, 2)))

    def test_singular_corner_needs_params(self, singular):
        fields = dict(
            displacement=singular.displacement,
            displacement_gradient=singular.displacement_gradient,
            stress=singular.stress,
            body_force=singular.body_force,
            material=singular.material,
        )
        with pytest.raises(ValueError):
            ExactSolution(**fields, singular_corner=np.zeros(2))
        with pytest.raises(ValueError):
            ExactSolution(**fields, params=singular.params)

    def test_body_force_zero(self, singular):
        pts = np.array([[0.3, 0.4], [-0.2, 0.5]])
        assert np.abs(singular.body_force(pts)).max() == 0.0

    def test_traction_contract(self, singular):
        pts = np.array([[0.5, 0.25], [0.5, 0.75]])
        n = np.array([1.0, 0.0])
        tr = singular.traction(pts, n)
        sig = singular.stress(pts)
        assert np.allclose(tr, np.einsum("qij,j->qi", sig, n), atol=1e-14)


def corner_indices(mesh, corner):
    """Local index of the corner vertex in each triangle touching it, -1
    elsewhere."""
    d = np.linalg.norm(mesh.triangle_vertices() - corner, axis=-1)
    return np.where(d.min(axis=1) < 1e-12, np.argmin(d, axis=1), -1)


def reference_norms(fields, exact, degree):
    """error_norms summed element by element: the graded rule of each
    corner element built on its physical vertices, the plain rule
    elsewhere, fields through the one-element evaluators."""
    mesh = fields.mesh
    verts = mesh.triangle_vertices()
    plain_pts, plain_wts = map_to_physical(triangle_rule(degree), verts)
    k = corner_indices(mesh, exact.singular_corner)
    u, x = fields.spaces["u"], fields.coeffs["u"]
    err2 = ref2 = sig2 = 0.0
    for e in range(mesh.num_triangles):
        if k[e] >= 0:
            pts, wts = graded_triangle_rule(verts[e], k[e], max(degree, 16), levels=44)
        else:
            pts, wts = plain_pts[e], plain_wts[e]
        ue = exact.displacement(pts)
        d = evaluate_field(u, x, e, pts) - ue
        err2 += np.sum(wts * np.sum(d * d, axis=-1))
        ref2 += np.sum(wts * np.sum(ue * ue, axis=-1))
        if u.kind == "H1":
            ge = exact.displacement_gradient(pts)
            dg = evaluate_field_gradient(u, x, e, pts) - ge
            err2 += np.sum(wts * np.sum(dg * dg, axis=(-1, -2)))
            ref2 += np.sum(wts * np.sum(ge * ge, axis=(-1, -2)))
        if "sigma" in fields.spaces:
            ds = evaluate_field(fields.spaces["sigma"], fields.coeffs["sigma"], e, pts) - exact.stress(pts)
            sig2 += np.sum(wts * np.sum(ds * ds, axis=(-1, -2)))
    return np.sqrt(err2 / ref2), np.sqrt(sig2)


class TestErrorNorms:
    @pytest.fixture(scope="class")
    def rotated_lshape(self, singular):
        """L-shape whose corner triangles hold the singular corner at local
        vertex 0, 1 and 2; rotating a row keeps it counterclockwise."""
        m = build_lshape_mesh(2)
        tris = m.triangles.copy()
        k = corner_indices(m, singular.singular_corner)
        for n, t in enumerate(np.flatnonzero(k >= 0)):
            tris[t] = np.roll(tris[t], n % 3 - k[t])
        rotated = Mesh(m.vertices, tris, m.boundary_tags)
        assert set(corner_indices(rotated, singular.singular_corner)) == {-1, 0, 1, 2}
        return rotated

    @pytest.mark.parametrize("spec", ["primal", "strong"])
    def test_corner_groups_match_per_element_sum(self, singular, rotated_lshape, spec):
        fields = solve_dpg(spec, rotated_lshape, singular.material, 2, bc=bc_from_exact(singular))
        rel, slots = error_norms(fields, singular, quad_degree=10)
        ref_rel, ref_sig = reference_norms(fields, singular, 10)
        assert abs(rel - ref_rel) <= 1e-12 * ref_rel
        if spec == "strong":
            assert abs(slots["sigma"] - ref_sig) <= 1e-12 * ref_sig
