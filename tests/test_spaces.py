"""Discrete space tests: dof counts, interpolation exactness, normal-trace
continuity, broken embeddings, and the discrete exact sequence."""

import numpy as np
import pytest

from dpgelast.mesh import GAMMA1, Mesh, build_square_mesh, build_lshape_mesh, refine, skeleton
from dpgelast.quadrature import triangle_rule, edge_rule
from dpgelast.forms import gram_blocks
from dpgelast.spaces import (
    h1_space,
    broken_h1_space,
    hdiv_space,
    broken_hdiv_space,
    l2_space,
    trace_spaces,
    volume_basis,
    field_values,
    edge_reference,
    edge_points,
    interpolate,
    evaluate_field,
    evaluate_field_gradient,
    evaluate_trace_field,
    ortho_modal_eval,
    legendre01_eval,
    embed_in_broken,
    to_reference,
    _edge_moments,
    _lagrange_matrix,
    _mono_eval,
    _mono_exps,
)


@pytest.fixture(scope="module")
def mesh():
    """Nonuniform mesh so no accidental structure hides bugs."""
    m = build_square_mesh(2)
    m = refine(m, {0, 3})
    m = refine(m, {1})
    return m


class PolyField:
    """Polynomial manufactured field used as an interpolation oracle."""

    def __init__(self, deg):
        self.deg = deg

    def displacement(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        if self.deg == 1:
            u1, u2 = 0.3 + x - 2 * y, -1.0 + 0.5 * x + y
        else:
            u1, u2 = x**2 - y + 0.25 * x * y, 0.5 * y**2 + x
        return np.stack([u1, u2], axis=-1)

    def displacement_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        g = np.zeros(pts.shape[:-1] + (2, 2))
        if self.deg == 1:
            g[..., 0, 0], g[..., 0, 1] = 1.0, -2.0
            g[..., 1, 0], g[..., 1, 1] = 0.5, 1.0
        else:
            g[..., 0, 0], g[..., 0, 1] = 2 * x + 0.25 * y, -1.0 + 0.25 * x
            g[..., 1, 0], g[..., 1, 1] = 1.0, y
        return g

    def stress(self, pts):
        # any symmetric polynomial tensor of matching degree
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        s = np.zeros(pts.shape[:-1] + (2, 2))
        if self.deg == 1:
            s[..., 0, 0] = 1.0 + x
            s[..., 1, 1] = 2.0 - y
            s[..., 0, 1] = s[..., 1, 0] = 0.5 * (x + y)
        else:
            s[..., 0, 0] = x * y
            s[..., 1, 1] = 1.0 + y**2
            s[..., 0, 1] = s[..., 1, 0] = x**2 - y
        return s

    def traction(self, pts, normal):
        return np.einsum("...ij,j->...i", self.stress(pts), np.asarray(normal))


def random_phys_points(mesh, e, rng, n=15):
    v = mesh.triangle_vertices()[e]
    b = rng.dirichlet(np.ones(3), size=n)
    return b @ v


class TestCounts:
    def test_h1_square_n1(self):
        m = build_square_mesh(1)
        assert h1_space(m, 1).ndof == 2 * 4
        assert h1_space(m, 2).ndof == 2 * 9

    def test_trace_counts_square_n1(self):
        m = build_square_mesh(1)
        th12, thm12 = trace_spaces(m, 1)
        assert th12.ndof == 2 * 4  # vertices only at p=1
        assert thm12.ndof == 2 * 5  # one mode per edge

    def test_broken_h1_counts(self, mesh):
        b = broken_h1_space(mesh, 2)
        assert b.ndof == 2 * 6 * mesh.num_triangles

    def test_l2_counts(self, mesh):
        assert l2_space(mesh, 1, "L2vec").ndof == 2 * 3 * mesh.num_triangles
        assert l2_space(mesh, 0, "L2sym").ndof == 3 * mesh.num_triangles
        assert l2_space(mesh, 0, "L2skew").ndof == mesh.num_triangles

    def test_hdiv_counts(self):
        m = build_square_mesh(1)
        # order 1: one normal moment per edge, two tensor rows
        assert hdiv_space(m, 1).ndof == 2 * m.num_edges

    def test_gamma0_constraints_cover_boundary(self):
        m = build_square_mesh(2)
        s = h1_space(m, 2, gamma0_constrained=True)
        # 16 boundary nodes at p=2 on the 2x2 square, two components
        assert len(s.constrained_dofs) == 2 * 16

    def test_invalid_orders_rejected(self, mesh):
        with pytest.raises(ValueError):
            h1_space(mesh, 0)
        with pytest.raises(ValueError):
            hdiv_space(mesh, 0)
        with pytest.raises(ValueError):
            l2_space(mesh, -1, "L2vec")
        with pytest.raises(ValueError):
            l2_space(mesh, 0, "bogus")


class TestInterpolation:
    @pytest.mark.parametrize("p,deg", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_h1_reproduces_polynomials(self, mesh, p, deg):
        field = PolyField(deg)
        space = h1_space(mesh, p)
        coeffs = interpolate(space, field)
        rng = np.random.default_rng(10)
        for e in (0, mesh.num_triangles // 2, mesh.num_triangles - 1):
            pts = random_phys_points(mesh, e, rng)
            assert np.abs(evaluate_field(space, coeffs, e, pts) - field.displacement(pts)).max() < 1e-11
            assert (
                np.abs(
                    evaluate_field_gradient(space, coeffs, e, pts)
                    - field.displacement_gradient(pts)
                ).max()
                < 1e-10
            )

    @pytest.mark.parametrize("p,deg", [(2, 1), (3, 2)])
    def test_hdiv_reproduces_polynomial_stress(self, mesh, p, deg):
        # order p reproduces tensor polynomials of degree p-1
        field = PolyField(deg)
        space = hdiv_space(mesh, p)
        coeffs = interpolate(space, field)
        rng = np.random.default_rng(11)
        for e in (0, mesh.num_triangles - 1):
            pts = random_phys_points(mesh, e, rng)
            assert np.abs(evaluate_field(space, coeffs, e, pts) - field.stress(pts)).max() < 1e-10

    def test_l2_projection_reproduces_polynomials(self, mesh):
        field = PolyField(2)
        for kind, exactf in (
            ("L2vec", field.displacement),
            ("L2sym", field.stress),
            ("L2skew", lambda pts: skew_part(field.displacement_gradient(pts))),
        ):
            space = l2_space(mesh, 2, kind)
            coeffs = interpolate(space, field)
            rng = np.random.default_rng(12)
            for e in (1, mesh.num_triangles - 2):
                pts = random_phys_points(mesh, e, rng)
                assert np.abs(evaluate_field(space, coeffs, e, pts) - exactf(pts)).max() < 1e-11

    def test_trace_h12_matches_conforming_trace(self, mesh):
        # trace of an H1-conforming discrete field lies exactly in TraceH12
        field = PolyField(2)
        p = 2
        space = h1_space(mesh, p)
        coeffs = interpolate(space, field)
        th12, _ = trace_spaces(mesh, p)
        tc = interpolate(th12, field)
        t = np.linspace(0, 1, 9)
        for eid in range(0, mesh.num_edges, 3):
            e = mesh.edge_tris[eid, 0]
            a, b = mesh.edges[eid]
            pts = mesh.vertices[a][None] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])[None]
            v1 = evaluate_field(space, coeffs, e, pts)
            v2 = evaluate_trace_field(th12, tc, eid, t)
            assert np.abs(v1 - v2).max() < 1e-11

    def test_trace_hm12_moments(self, mesh):
        field = PolyField(1)
        sk = skeleton(mesh)
        _, thm12 = trace_spaces(mesh, 2)
        coeffs = interpolate(thm12, field)
        t, w = edge_rule(8)
        for eid in (0, mesh.num_edges - 1):
            a, b = mesh.edges[eid]
            pts = mesh.vertices[a][None] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])[None]
            exact = field.traction(pts, sk.normals[eid])
            got = evaluate_trace_field(thm12, coeffs, eid, t)
            assert np.abs(got - exact).max() < 1e-11


class TestConformity:
    def test_hdiv_normal_trace_continuity(self, mesh):
        space = hdiv_space(mesh, 2)
        rng = np.random.default_rng(13)
        coeffs = rng.standard_normal(space.ndof)
        t = np.linspace(0.05, 0.95, 7)
        sk = skeleton(mesh)
        for eid in range(mesh.num_edges):
            t0, t1 = mesh.edge_tris[eid]
            if t1 == -1:
                continue
            pts = edge_points(mesh, eid, t)
            # the stress of each side at the edge points, against the fixed normal
            v0 = evaluate_field(space, coeffs, t0, pts) @ sk.normals[eid]
            v1 = evaluate_field(space, coeffs, t1, pts) @ sk.normals[eid]
            assert np.abs(v0 - v1).max() < 1e-9

    def test_h1_single_valued_at_shared_nodes(self, mesh):
        space = h1_space(mesh, 2)
        rng = np.random.default_rng(14)
        coeffs = rng.standard_normal(space.ndof)
        t = np.linspace(0, 1, 5)
        for eid in range(0, mesh.num_edges, 2):
            t0, t1 = mesh.edge_tris[eid]
            if t1 == -1:
                continue
            a, b = mesh.edges[eid]
            pts = mesh.vertices[a][None] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])[None]
            v0 = evaluate_field(space, coeffs, t0, pts)
            v1 = evaluate_field(space, coeffs, t1, pts)
            assert np.abs(v0 - v1).max() < 1e-10

    def test_conforming_embeds_into_broken(self, mesh):
        conf = h1_space(mesh, 2)
        brok = broken_h1_space(mesh, 2)
        rng = np.random.default_rng(15)
        x = rng.standard_normal(conf.ndof)
        xb = np.zeros(brok.ndof)
        xb[brok.elt_dofs] = x[conf.elt_dofs]
        pts = random_phys_points(mesh, 2, rng)
        assert np.allclose(
            evaluate_field(conf, x, 2, pts), evaluate_field(brok, xb, 2, pts), atol=1e-12
        )
        # and back losslessly
        xr = np.zeros(conf.ndof)
        xr[conf.elt_dofs] = xb[brok.elt_dofs]
        assert np.array_equal(xr, x)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_hdiv_conforming_embeds_into_broken(self, mesh, p):
        # the dual-basis coefficients map into the pushed-forward basis through C
        conf, brok = hdiv_space(mesh, p), broken_hdiv_space(mesh, p)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(conf.ndof)
        xb = embed_in_broken(conf, brok, x)
        for e in range(0, mesh.num_triangles, 3):
            pts = random_phys_points(mesh, e, rng)
            v = evaluate_field(conf, x, e, pts)
            assert np.abs(evaluate_field(brok, xb, e, pts) - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_h1_edge_values_match_per_edge_pullback(self, p):
        # the reference edge traces picked by each local edge's orientation
        # give the values of pulling back the physical edge points of that
        # edge; the pull-back carries the rounding of J^-1 (2e-14 at p = 4)
        m = corner_refined_lshape()
        elems = np.arange(m.num_triangles)
        t = edge_rule(2 * p + 4)[0]
        ev = edge_reference("H1", p, t)[np.arange(3), m.edge_flips[elems]].swapaxes(1, 2)
        geom = m.geometry
        for loc in range(3):
            a, b = m.vertices[m.edges[m.tri_edges[:, loc]]].transpose(1, 0, 2)
            ref = to_reference(geom, elems, a[:, None] + t[:, None] * (b - a)[:, None])
            lag = np.einsum("nl,neq->elq", _lagrange_matrix(p), _mono_eval(_mono_exps(p), ref))
            assert np.abs(ev[:, 0::2, loc, :, 0] - lag).max() <= 1e-13
            assert np.array_equal(ev[:, 0::2, loc, :, 0], ev[:, 1::2, loc, :, 1])
            assert not ev[:, 0::2, loc, :, 1].any() and not ev[:, 1::2, loc, :, 0].any()


class TestDualBasis:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_dual_basis_inverts_physical_moments(self, p):
        # C, built from reference moments, inverts the RT dofs of the
        # pushed-forward basis taken at physical points element by element:
        # edge moments against the fixed normal in the global edge parameter,
        # then area-averaged moments against the reference modal basis,
        # orthonormal in the area-averaged inner product
        m = corner_refined_lshape()
        sk, geom, k = skeleton(m), m.geometry, p - 1
        C = hdiv_space(m, p).C
        brok = broken_hdiv_space(m, p)
        tq, twq = edge_rule(2 * p + 2)
        rule = triangle_rule(2 * p + 2)
        for e in range(m.num_triangles):
            dofs = []
            for loc in range(3):
                eid = m.tri_edges[e, loc]
                ref = to_reference(geom, np.array([e]), edge_points(m, np.array([eid]), tq))[0]
                row = volume_basis(brok, [e], ref).val[0, 0::2, :, 0]  # (N, nq, 2)
                dofs.append(np.einsum("q,mq,lq->ml", twq, legendre01_eval(p, tq), row @ sk.normals[eid]))
            if k >= 1:
                row = volume_basis(brok, [e], rule.points).val[0, 0::2, :, 0]
                qm = ortho_modal_eval(k - 1, rule.points) * np.sqrt(0.5)
                dofs += [2.0 * np.einsum("q,mq,lq->ml", rule.weights, qm, row[..., c]) for c in range(2)]
            ref = np.linalg.inv(np.concatenate(dofs))
            assert np.abs(C[e] - ref).max() <= 1e-13 * np.abs(ref).max()


    def test_dual_basis_condition_flat_in_p(self):
        # the modal interior moments keep C well conditioned at high order
        # (the scaled monomial moments gave 5.2e6 at p = 7)
        C = hdiv_space(build_square_mesh(1), 7).C
        assert np.linalg.cond(C).max() < 1e3


class TestExactSequence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("make", [hdiv_space, broken_hdiv_space])
    def test_div_maps_into_l2(self, mesh, make, p):
        # div of every H(div) basis function lies in the order p-1 L2 space
        space = make(mesh, p)
        rule = triangle_rule(2 * p + 4)
        elems = np.arange(mesh.num_triangles)
        basis = volume_basis(space, elems, rule.points)
        geom = mesh.geometry
        modal = ortho_modal_eval(p - 1, rule.points)
        wts = np.abs(geom.det)[:, None] * rule.weights[None, :]
        scal = modal[None] / np.sqrt(np.abs(geom.det))[:, None, None]
        for c in range(2):
            d = basis.div[..., c]  # (nelt, nloc, nq)
            proj = np.einsum("eq,emq,elq->elm", wts, scal, d)
            recon = np.einsum("elm,emq->elq", proj, scal)
            assert np.abs(recon - d).max() <= 1e-11 * np.abs(d).max()


class TestGramAndQuadrature:
    def test_l2_mass_is_identity(self, mesh):
        space = l2_space(mesh, 2, "L2sym")
        rule = triangle_rule(8)
        elems = np.arange(mesh.num_triangles)
        basis = volume_basis(space, elems, rule.points)
        geom = mesh.geometry
        wts = np.abs(geom.det)[:, None] * rule.weights[None, :]
        v = basis.val.reshape(basis.val.shape[:3] + (-1,))
        M = np.einsum("eq,emqk,enqk->emn", wts, v, v)
        eye = np.eye(M.shape[1])
        assert np.abs(M - eye[None]).max() < 1e-12

    def test_broken_hdiv_gram_condition_flat_in_p(self):
        # the orthonormal reference basis leaves only the mesh size and shape
        # in the element Gram, so its condition does not grow with p
        m = corner_refined_lshape(16)
        elems = np.arange(m.num_triangles)
        cond = []
        for p in range(1, 7):
            G = gram_blocks(broken_hdiv_space(m, p), elems, 2 * p + 2, "Hdiv")
            cond.append(np.linalg.cond(G).max())
        assert cond[-1] <= 1.1 * cond[0]
        assert max(cond) < 1e6

    @pytest.mark.parametrize("p,dp", [(1, 1), (2, 1), (3, 2)])
    def test_assembly_quadrature_degree(self, p, dp):
        # rules of exactness degree >= 2(p+dp)+2 integrate those monomials
        degree = 2 * (p + dp) + 2
        rule = triangle_rule(degree)
        import math

        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                val = np.sum(rule.weights * rule.points[:, 0] ** i * rule.points[:, 1] ** j)
                exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
                assert abs(val - exact) < 1e-13


class TestConstraints:
    def test_gamma1_traction_constraint_values(self):
        m = build_lshape_mesh()
        field = PolyField(1)
        space = hdiv_space(m, 2, traction_fn=field.traction)
        coeffs = interpolate(space, field)
        x = space.constraint_vector()
        assert np.abs(x[space.constrained_dofs] - coeffs[space.constrained_dofs]).max() < 1e-12

    def test_gamma0_displacement_constraint_values(self):
        m = build_lshape_mesh()
        field = PolyField(1)
        space = h1_space(m, 2, gamma0_constrained=True, bc_fn=field.displacement)
        coeffs = interpolate(space, field)
        assert np.abs(coeffs[space.constrained_dofs] - space.constrained_values).max() < 1e-12


def skew_part(g):
    return 0.5 * (g - np.swapaxes(g, -1, -2))


def scaled_mesh(mesh, factor):
    return Mesh(mesh.vertices * factor, mesh.triangles, mesh.boundary_tags)


def corner_refined_lshape(rounds=3):
    """L-shape refined adaptively towards the re-entrant corner at the origin."""
    m = build_lshape_mesh()
    for _ in range(rounds):
        centroids = m.triangle_vertices().mean(axis=1)
        m = refine(m, np.argsort(np.linalg.norm(centroids, axis=1))[:4])
    return m


class TestTopologicalNumbering:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_h1_counts_on_tiny_mesh(self, p):
        # nodes 1e-11 apart stay distinct: numbering does not look at coordinates
        m = scaled_mesh(build_square_mesh(2), 1e-11)
        s = h1_space(m, p)
        nscalar = m.num_vertices + (p - 1) * m.num_edges + (p - 1) * (p - 2) // 2 * m.num_triangles
        assert s.ndof == 2 * nscalar
        assert len(np.unique(s.elt_dofs)) == s.ndof

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_h1_gamma0_constraints_equal_trace_h12(self, p):
        m = scaled_mesh(build_square_mesh(2), 1e-11)
        field = PolyField(1)
        s = h1_space(m, p, gamma0_constrained=True, bc_fn=field.displacement)
        th12, _ = trace_spaces(m, p, u0_fn=field.displacement)
        assert len(th12.constrained_dofs) == 2 * 4 * 2 * p
        assert np.array_equal(s.constrained_dofs, th12.constrained_dofs)
        assert np.array_equal(s.constrained_values, th12.constrained_values)

    @pytest.mark.parametrize("p", [2, 3])
    def test_h1_edge_ids_equal_trace_h12(self, p):
        m = corner_refined_lshape()
        s = h1_space(m, p)
        th12, _ = trace_spaces(m, p)
        ref = np.array([[i / p, j / p] for j in range(p + 1) for i in range(p + 1 - j)])
        geom = m.geometry
        t = np.arange(p + 1) / p
        for e in range(m.num_triangles):
            lattice = geom.origin[e] + ref @ geom.J[e].T
            h = geom.hscale[e]
            for eid in m.tri_edges[e]:
                a, b = m.vertices[m.edges[eid]]
                for i, ti in enumerate(t):
                    dist = np.linalg.norm(lattice - (a + ti * (b - a)), axis=1)
                    l = int(np.argmin(dist))
                    assert dist[l] < 1e-9 * h
                    assert np.array_equal(s.elt_dofs[e, 2 * l : 2 * l + 2], th12.edge_dofs[eid, 2 * i : 2 * i + 2])

    def test_edge_moments_match_per_edge_oracle(self):
        # one call of fn per distinct edge normal, on the points of all the
        # edges sharing it, gives the moments of one call per edge
        m = corner_refined_lshape()
        sk = skeleton(m)
        field = PolyField(2)
        shapes = []

        def traction(pts, normal):
            shapes.append(pts.shape)
            return field.traction(pts, normal)

        tq, twq = edge_rule(12)
        leg = legendre01_eval(3, tq)
        for eids in (np.arange(m.num_edges), m.boundary_edge_ids(GAMMA1)):
            shapes.clear()
            mom = _edge_moments(m, eids, 3, 12, traction)
            pts = edge_points(m, eids, tq)
            for n, eid in enumerate(eids):
                ref = np.einsum("q,mq,qc->mc", twq, leg, field.traction(pts[n], sk.normals[eid]))
                assert np.array_equal(mom[n], ref)
            assert len(shapes) == len(np.unique(sk.normals[eids], axis=0)) < len(eids)
            assert sum(shape[0] for shape in shapes) == len(eids)

    def test_trace_hm12_traction_constraint_values(self):
        m = build_lshape_mesh()
        field = PolyField(1)
        _, thm12 = trace_spaces(m, 2, traction_fn=field.traction)
        coeffs = interpolate(thm12, field)
        assert len(thm12.constrained_dofs) > 0
        assert np.array_equal(coeffs[thm12.constrained_dofs], thm12.constrained_values)


class TestEmptyElementList:
    # an element filter that selects nothing gives empty arrays of the
    # usual trailing shapes
    SPACES = {
        "H1": lambda m: h1_space(m, 2),
        "BrokenH1": lambda m: broken_h1_space(m, 2),
        "Hdiv": lambda m: hdiv_space(m, 2),
        "BrokenHdiv": lambda m: broken_hdiv_space(m, 2),
        "L2vec": lambda m: l2_space(m, 1, "L2vec"),
        "L2sym": lambda m: l2_space(m, 1, "L2sym"),
        "L2skew": lambda m: l2_space(m, 1, "L2skew"),
    }
    PTS = np.array([[0.2, 0.3], [0.1, 0.6], [0.5, 0.25]])

    @pytest.mark.parametrize("kind", SPACES)
    def test_field_values(self, kind):
        space = self.SPACES[kind](build_square_mesh(2))
        x = np.random.default_rng(0).standard_normal(space.ndof)
        empty, some = field_values(space, x, [], self.PTS), field_values(space, x, [0, 3], self.PTS)
        for deriv in ("val", "grad", "div"):
            ref = getattr(some, deriv)
            assert (getattr(empty, deriv) is None) if ref is None else getattr(empty, deriv).shape == (0,) + ref.shape[1:]

    @pytest.mark.parametrize("kind", SPACES)
    def test_volume_basis(self, kind):
        space = self.SPACES[kind](build_square_mesh(2))
        empty, some = volume_basis(space, [], self.PTS), volume_basis(space, [0, 3], self.PTS)
        for deriv in ("val", "grad", "div"):
            ref = getattr(some, deriv)
            assert (getattr(empty, deriv) is None) if ref is None else getattr(empty, deriv).shape == (0,) + ref.shape[1:]
