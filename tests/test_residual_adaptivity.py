"""Residual estimator and marking tests with independent quadrature
oracles for the first-order-system residual."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpgelast.material import MaterialParams, stiffness_apply_array
from dpgelast.mesh import Mesh, GAMMA1, build_square_mesh, build_lshape_mesh, uniform_refine, refine
from dpgelast.quadrature import triangle_rule, map_to_physical
from dpgelast.spaces import volume_basis
from dpgelast.exact_solutions import smooth_solution_2d, singular_solution, error_norms
from dpgelast.forms import (
    FORMULATION_IDS,
    BCData,
    bc_from_exact,
    formulation,
    build_test_spaces,
    assemble_local_blocks,
    class_chunks,
    element_trial_dofs,
    l2_slot_residual_ops,
)
from dpgelast import mesh as mesh_module, residual_adaptivity
from dpgelast.dpg_solver import assemble_and_solve, solve_dpg, solve_hybrid_mixed
from dpgelast.residual_adaptivity import (
    P_RES,
    ResidualReport,
    element_residuals,
    mark,
    adaptive_loop,
    local_conservation_defect,
)
from test_forms import perturbed_mesh

MAT = MaterialParams(lam=1.0, mu=1.0)


class TestMarking:
    def test_bulk_threshold(self):
        rep = ResidualReport(eta=np.array([1.0, 0.6, 0.4]), p_res=4)
        assert sorted(mark(rep)) == [0, 1]

    def test_all_equal_marks_all(self):
        rep = ResidualReport(eta=np.full(5, 0.3), p_res=4)
        assert sorted(mark(rep)) == [0, 1, 2, 3, 4]

    def test_threshold_is_strict(self):
        rep = ResidualReport(eta=np.array([1.0, 0.5]), p_res=4)
        assert sorted(mark(rep)) == [0]

    def test_zero_eta_marks_argmax(self):
        rep = ResidualReport(eta=np.zeros(4), p_res=4)
        assert list(mark(rep)) == [0]

    def test_custom_theta(self):
        rep = ResidualReport(eta=np.array([1.0, 0.6, 0.4]), p_res=4)
        assert sorted(mark(rep, theta=0.3)) == [0, 1, 2]

    def test_total(self):
        rep = ResidualReport(eta=np.array([3.0, 4.0]), p_res=4)
        assert abs(rep.total - 5.0) < 1e-15


class LinearField:
    A = np.array([[0.4, -0.3], [0.2, 0.8]])

    def displacement(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.A.T

    def displacement_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(self.A, pts.shape[:-1] + (2, 2)).copy()

    def stress(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(stiffness_apply_array(self.A[None], MAT)[0], pts.shape[:-1] + (2, 2)).copy()

    def body_force(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1] + (2,))

    def traction(self, pts, normal):
        return np.einsum("...ij,j->...i", self.stress(pts), np.asarray(normal))

    singular_corner = None


class TestEstimator:
    @pytest.mark.parametrize("spec", ["strong", "ultraweak", "mixed", "primal"])
    def test_zero_for_representable_solution(self, spec):
        field = LinearField()
        bc = BCData(f=field.body_force, g=field.traction, u0=field.displacement)
        f = solve_dpg(spec, build_square_mesh(2), MAT, 2, bc=bc)
        rep = element_residuals(f)
        assert rep.eta.max() < 1e-10

    def test_strong_eta_matches_direct_quadrature(self):
        # for the strong setting all test slots carry the L2 norm, so
        # eta_K is exactly the L2 norm of the pointwise residual
        smooth = smooth_solution_2d()
        f = solve_dpg("strong", build_square_mesh(4), smooth.material, 2, bc=bc_from_exact(smooth))
        rep = element_residuals(f)

        rule = triangle_rule(16)
        mesh = f.mesh
        elems = np.arange(mesh.num_triangles)
        verts = mesh.vertices[mesh.triangles[elems]]
        phys, pwts = map_to_physical(rule, verts)

        sig_space, u_space = f.spaces["sigma"], f.spaces["u"]
        bs = volume_basis(sig_space, elems, rule.points)
        bu = volume_basis(u_space, elems, rule.points)
        cs = f.coeffs["sigma"][sig_space.elt_dofs[elems]]
        cu = f.coeffs["u"][u_space.elt_dofs[elems]]
        sig = np.einsum("el,elqij->eqij", cs, bs.val)
        dsig = np.einsum("el,elqi->eqi", cs, bs.div)
        gu = np.einsum("el,elqij->eqij", cu, bu.grad)

        Cgu = stiffness_apply_array(gu.reshape(-1, 2, 2), smooth.material).reshape(gu.shape)
        sym = 0.5 * (sig + np.swapaxes(sig, -1, -2))
        skw = 0.5 * (sig - np.swapaxes(sig, -1, -2))
        r1 = sym - Cgu
        r2 = dsig + smooth.body_force(phys)
        dens = (
            np.sum(r1 * r1, axis=(-1, -2))
            + np.sum(r2 * r2, axis=-1)
            + np.sum(skw * skw, axis=(-1, -2))
        )
        direct = np.sqrt(np.sum(dens * pwts, axis=1))
        assert np.abs(direct - rep.eta).max() < 1e-8 * rep.eta.max()

    def test_reuses_the_solve_trial_spaces(self, monkeypatch):
        # only the enriched test spaces are built; the trial spaces and
        # their layout come from the solve
        import dpgelast.forms as forms
        import dpgelast.residual_adaptivity as ra
        import dpgelast.spaces as spaces

        smooth = smooth_solution_2d()
        f = solve_dpg("ultraweak", build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth))
        eta = element_residuals(f).eta

        def fail(*args, **kwargs):
            raise AssertionError("trial space rebuilt")

        for mod in (forms, ra):
            monkeypatch.setattr(mod, "formulation", fail)
        for name in ("h1_space", "hdiv_space", "trace_spaces"):
            monkeypatch.setattr(forms, name, fail)
        monkeypatch.setattr(spaces, "trace_spaces", fail)
        assert np.array_equal(element_residuals(f).eta, eta)

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_reuses_the_solve_geometry_classes(self, monkeypatch, spec):
        import dpgelast.forms as forms

        calls = []
        classes = forms.geometry_classes
        monkeypatch.setattr(forms, "geometry_classes", lambda *args: calls.append(args) or classes(*args))
        smooth = smooth_solution_2d()
        element_residuals(solve_dpg(spec, build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth)))
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_blocks_only_the_gram_inverted_slots(self, monkeypatch, spec):
        # the L2-identified test slots are integrated pointwise, so the
        # p_res formulation leaves them out; strong builds no blocks at all
        import dpgelast.residual_adaptivity as ra

        smooth = smooth_solution_2d()
        f = solve_dpg(spec, build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth))
        seen = set()
        blocks = ra.assemble_local_blocks
        monkeypatch.setattr(ra, "assemble_local_blocks", lambda form, *a: seen.add(tuple(form.test_spaces)) or blocks(form, *a))
        element_residuals(f)
        desc = f.form.desc
        inverted = tuple(n for n, _ in desc.test_slots if desc.test_norms[n] != "L2")
        assert seen == ({inverted} if inverted else set())

    def test_p_res_below_trial_order_raises(self):
        smooth = smooth_solution_2d()
        f = solve_dpg("primal", build_square_mesh(2), smooth.material, 3, bc=bc_from_exact(smooth))
        with pytest.raises(ValueError, match="p_res=2 .* p=3"):
            element_residuals(f, p_res=2)

    def test_default_p_res_lies_above_the_trial_order(self):
        # p_res defaults to max(P_RES, p + 1), so a p = 5 call needs no p_res
        smooth = smooth_solution_2d()
        f = solve_dpg("primal", build_square_mesh(2), smooth.material, 5, bc=bc_from_exact(smooth))
        rep = element_residuals(f)
        assert rep.p_res == 6
        assert np.array_equal(rep.eta, element_residuals(f, p_res=6).eta)
        assert element_residuals(solve_dpg("primal", build_square_mesh(2), smooth.material, 2, bc=bc_from_exact(smooth))).p_res == P_RES

    def test_eta_decreases_under_uniform_refinement(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        m = build_square_mesh(2)
        totals = []
        for _ in range(3):
            f = solve_dpg("primal", m, smooth.material, 1, bc=bc)
            totals.append(element_residuals(f).total)
            m = uniform_refine(m)
        assert totals[1] < totals[0] and totals[2] < totals[1]


def test_solve_and_estimate_read_one_geometry(monkeypatch):
    # every volume space of the solve and every test space of its estimate
    # reads the mesh's one affine map, built once
    built, estimated, make = [], [], mesh_module.Geometry
    monkeypatch.setattr(mesh_module, "Geometry", lambda **maps: built.append(make(**maps)) or built[-1])
    monkeypatch.setattr(
        residual_adaptivity, "assemble_local_blocks", lambda form, *a, **k: estimated.append(form) or assemble_local_blocks(form, *a, **k)
    )
    m = build_square_mesh(2)
    smooth = smooth_solution_2d()
    form = formulation("ultraweak", m, smooth.material, 2, bc=bc_from_exact(smooth))
    element_residuals(assemble_and_solve(form))
    spaces = [*form.field_spaces.values(), *form.test_spaces.values(), *(s for f in estimated for s in f.test_spaces.values())]
    volume = [s for s in spaces if s.elt_dofs is not None]
    assert estimated and len(volume) == 5 + 2 * len(estimated)
    assert all(s.mesh.geometry is m.geometry for s in volume)
    assert built == [m.geometry]


def dense_eta(fields, p_res=P_RES):
    """The estimator through the assembled element blocks: r = B x - l from
    assemble_local_blocks on the enriched test spaces, G^{-1} r by a dense
    solve, and the L2-identified slots from their pointwise representers."""
    form = fields.form
    dp_res = max(p_res - form.p, 0)
    form_res = replace(form, dp=dp_res, test_spaces=build_test_spaces(form.desc, form.mesh, form.p, dp_res))
    elems = np.arange(form.mesh.num_triangles)
    xloc = fields.full_vector()[element_trial_dofs(form_res, fields.layout, elems)]
    blocks = assemble_local_blocks(form_res, elems)
    r = np.einsum("etm,em->et", blocks.M[blocks.cls], xloc) - blocks.l
    eta2 = np.zeros(len(elems))
    for name, _ in form.desc.test_slots:
        if form.desc.test_norms[name] != "L2":
            s, c = blocks.test_slices[name], blocks.test_copies[name]
            G1 = blocks.G[name][blocks.cls]  # the Gram is G1 kron I_c on the interleaved copies
            G = np.einsum("elm,ab->elamb", G1, np.eye(c)).reshape(len(elems), G1.shape[1] * c, -1)
            eta2 += np.einsum("et,et->e", r[:, s], np.linalg.solve(G, r[:, s, None])[..., 0])
    wts, reps, load_reps, _ = l2_slot_residual_ops(form_res, elems, quad_degree=max(2 * p_res + 2, 16))
    for name, rep in reps.items():
        R = np.einsum("enq...,en->eq...", rep, xloc[:, : rep.shape[1]])
        if load_reps[name] is not None:
            R = R - load_reps[name]
        R = R.reshape(R.shape[:2] + (-1,))
        eta2 += np.einsum("eq,eqk,eqk->e", wts, R, R)
    return np.sqrt(eta2)


def assert_matches_dense(fields):
    ref = dense_eta(fields)
    rep = element_residuals(fields)
    assert np.all(np.abs(rep.eta - ref) <= 1e-11 * ref)
    total = np.sqrt(np.sum(ref**2))
    assert abs(rep.total - total) <= 1e-13 * total


class TestDenseOracle:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_matches_assembled_blocks(self, domain, spec, p):
        # the estimator forms B x - l class by class with its elements side
        # by side, in another order than the dense einsum, so the cancelling
        # difference agrees to rounding, not bitwise
        exact, mesh = (
            (smooth_solution_2d(), build_square_mesh(4)) if domain == "square" else (singular_solution(), build_lshape_mesh(2))
        )
        assert_matches_dense(solve_dpg(spec, mesh, exact.material, p, bc=bc_from_exact(exact)))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_matches_with_one_element_per_class(self, spec, p):
        smooth = smooth_solution_2d()
        mesh = perturbed_mesh(uniform_refine(build_square_mesh(4)))
        assert_matches_dense(solve_dpg(spec, mesh, smooth.material, p, bc=bc_from_exact(smooth)))

    @pytest.mark.parametrize("spec", ["primal", "ultraweak"])
    def test_matches_across_class_chunks(self, spec):
        # 2 048 triangles in 25 geometry classes, estimated in 5 chunks
        smooth = smooth_solution_2d()
        mesh = build_square_mesh(2)
        for _ in range(4):
            mesh = uniform_refine(mesh)
        f = solve_dpg(spec, mesh, smooth.material, 1, bc=bc_from_exact(smooth))
        assert len(list(class_chunks(f.form.classes))) == 5
        assert_matches_dense(f)

    def test_non_spd_gram_raises(self, monkeypatch):
        # the estimator's Grams come from forms.assemble_local_blocks, which
        # the solve uses too, so solve before patching
        import dpgelast.forms as forms

        smooth = smooth_solution_2d()
        f = solve_dpg("ultraweak", build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth))
        gram = forms.gram_blocks
        monkeypatch.setattr(forms, "gram_blocks", lambda *args: -gram(*args))
        with pytest.raises(ValueError, match="not SPD"):
            element_residuals(f)

    def test_eta_stable_under_one_ulp_gram_perturbation(self, monkeypatch):
        # a symmetric one-ulp relative perturbation of every element Gram
        # moves eta_K only by rounding when the test bases are well
        # conditioned; an H(div) Gram with cond ~ 1e12 moves it by ~1e-11
        import dpgelast.forms as forms

        smooth = smooth_solution_2d()
        mesh = build_square_mesh(2)
        for _ in range(3):
            mesh = uniform_refine(mesh)
        f = solve_dpg("ultraweak", mesh, smooth.material, 2, bc=bc_from_exact(smooth))
        eta = element_residuals(f).eta
        gram, rng = forms.gram_blocks, np.random.default_rng(0)

        def perturbed(*args):
            G = gram(*args)
            P = rng.standard_normal(G.shape)
            return G * (1.0 + np.finfo(float).eps * 0.5 * (P + np.swapaxes(P, 1, 2)))

        monkeypatch.setattr(forms, "gram_blocks", perturbed)
        assert np.all(np.abs(element_residuals(f).eta - eta) <= 1e-13 * eta)


class TestAdaptiveLoop:
    def test_structure_and_growth(self):
        sing = singular_solution()
        steps = adaptive_loop("primal", build_lshape_mesh(), sing.material, 1, bc_from_exact(sing), steps=4)
        assert len(steps) == 4
        dofs = [s.ndofs for s in steps]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))
        assert all(s.report.eta.shape[0] == s.mesh.num_triangles for s in steps)

    def test_marked_elements_touch_corner(self):
        sing = singular_solution()
        steps = adaptive_loop("primal", build_lshape_mesh(), sing.material, 1, bc_from_exact(sing), steps=5)
        last = steps[-1]
        marked = mark(last.report)
        cent = last.mesh.vertices[last.mesh.triangles[marked]].mean(axis=1)
        r = np.linalg.norm(cent, axis=1)
        assert r.min() < 0.2


class TestConservation:
    def test_defect_shape_and_reference_norm(self):
        smooth = smooth_solution_2d()
        f = solve_hybrid_mixed(build_square_mesh(3), smooth.material, 1, bc=bc_from_exact(smooth))
        defect, fnorm = local_conservation_defect(f)
        assert defect.shape == (f.mesh.num_triangles,)
        assert fnorm > 0
        assert np.all(defect >= 0)

    def test_defect_zero_for_representable(self):
        field = LinearField()
        bc = BCData(f=field.body_force, g=field.traction, u0=field.displacement)
        f = solve_hybrid_mixed(build_square_mesh(2), MAT, 2, bc=bc)
        defect, _ = local_conservation_defect(f)
        assert defect.max() < 1e-11

    @pytest.mark.parametrize("p", [1, 2])
    def test_conservative_lshape_with_traction(self, p):
        # Gamma1 carries traction data, so constrained normal-trace dofs of
        # sigma enter the constraint rows and move to the right-hand side
        sing = singular_solution()
        f = solve_hybrid_mixed(build_lshape_mesh(2), sing.material, p, bc=bc_from_exact(sing), conservative=True)
        assert len(f.layout.constrained) > 0
        defect, _ = local_conservation_defect(f)
        assert defect.max() <= 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_conservative_error_matches_default(self, n):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        mesh = build_square_mesh(n)
        plain = solve_hybrid_mixed(mesh, smooth.material, 1, bc=bc)
        cons = solve_hybrid_mixed(mesh, smooth.material, 1, bc=bc, conservative=True)
        e_plain, _ = error_norms(plain, smooth)
        e_cons, _ = error_norms(cons, smooth)
        assert abs(e_cons - e_plain) <= 0.01 * e_plain
        defect, fnorm = local_conservation_defect(cons)
        assert defect.max() <= 1e-8 * fnorm

    def test_conservative_reproduces_representable(self):
        field = LinearField()
        bc = BCData(f=field.body_force, g=field.traction, u0=field.displacement)
        f = solve_hybrid_mixed(build_square_mesh(2), MAT, 2, bc=bc, conservative=True)
        rel, slots = error_norms(f, field)
        assert rel < 1e-10 and slots["sigma"] < 1e-10
        defect, _ = local_conservation_defect(f)
        assert defect.max() < 1e-11

    def test_conservative_singular_system_raises_without_fallback(self, monkeypatch):
        # with no Gamma0 edge every boundary normal flux is prescribed, so the
        # element balances sum to a fixed total and two constraint rows are
        # dependent; rigid motions also leave the functional singular. The
        # missing Gamma0 edge is caught before anything is factored.
        def no_lu(*args, **kwargs):
            raise AssertionError("a system with no Gamma0 edge must not be factored")

        monkeypatch.setattr(spla, "splu", no_lu)
        sq = build_square_mesh(3)
        mesh = Mesh(
            vertices=sq.vertices, triangles=sq.triangles, boundary_tags={k: GAMMA1 for k in sq.boundary_tags}
        )
        smooth = smooth_solution_2d()
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_hybrid_mixed(mesh, smooth.material, 1, bc=bc_from_exact(smooth), conservative=True)

    def test_conservative_failed_factorization_raises_without_fallback(self, monkeypatch):
        def failed_lu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", failed_lu)
        smooth = smooth_solution_2d()
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_hybrid_mixed(build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth), conservative=True)
