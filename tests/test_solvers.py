"""Solver tests: condensation oracles, path equivalences, exact
reproduction of representable solutions, and benchmark error behavior."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpgelast.material import MaterialParams, stiffness_apply_array
from dpgelast.mesh import Mesh, GAMMA1, build_square_mesh, build_lshape_mesh, uniform_refine, refine, skeleton
from dpgelast.quadrature import edge_rule
from dpgelast.spaces import h1_space, edge_points, edge_reference
from dpgelast.exact_solutions import smooth_solution_2d, singular_solution, error_norms
from dpgelast.forms import (
    BCData,
    bc_from_exact,
    formulation,
    FORMULATION_IDS,
    assemble_local_blocks,
    volume_blocks,
    basis_pairing,
    element_quadrature,
    op_matrix,
    slot_layout,
    CHUNK,
    trial_layout,
    element_trial_dofs,
    scatter_blocks,
    l2_slot_residual_ops,
)
from dpgelast import dpg_solver
from dpgelast.dpg_solver import (
    _solve_constrained,
    assemble_normal_equations,
    backward_substitution,
    cholesky_cond_bound,
    condense_local,
    forward_substitution,
    SOLVE_PATHS,
    assemble_and_solve,
    solve,
    solve_saddle_point,
)
from test_forms import corner_graded_lshape

MAT = MaterialParams(lam=1.0, mu=1.0)


class FakeBlocks:
    """M = [B | Bhat] and l over all test rows and one Gram per test slot; a
    single slot "v" with one copy by default. Each element is its own class."""

    def __init__(self, B, Bhat, G, l, test_slices=None, test_copies=None):
        self.M, self.l = np.concatenate([B, Bhat], axis=2), l
        self.cls = np.arange(len(l))
        self.G = G if isinstance(G, dict) else {"v": G}
        self.test_slices = test_slices or {"v": slice(0, B.shape[1])}
        self.test_copies = test_copies or {name: 1 for name in self.G}


def padded_gram(G1, c):
    """The Gram G1 kron I_c (nelt, c n, c n) of c interleaved copies."""
    E, n, _ = G1.shape
    return np.einsum("elm,ab->elamb", G1, np.eye(c)).reshape(E, n * c, n * c)


class LinearField:
    """Affine displacement with constant stress; representable at p=1."""

    A = np.array([[0.4, -0.3], [0.2, 0.8]])
    b = np.array([0.1, -0.2])

    def __init__(self, material=MAT):
        self.material = material
        eps = 0.5 * (self.A + self.A.T)
        self.sig = stiffness_apply_array(eps, material)

    def displacement(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.A.T + self.b

    def displacement_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(self.A, pts.shape[:-1] + (2, 2)).copy()

    def stress(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(self.sig, pts.shape[:-1] + (2, 2)).copy()

    def body_force(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1] + (2,))

    def traction(self, pts, normal):
        return np.einsum("...ij,j->...i", self.stress(pts), np.asarray(normal))

    singular_corner = None


class TestCondenseLocal:
    def test_identity_blocks(self):
        n = 4
        blocks = FakeBlocks(
            B=np.eye(n)[None], Bhat=np.zeros((1, n, 0)), G=np.eye(n)[None], l=np.zeros((1, n))
        )
        A, b = condense_local(blocks)
        assert np.allclose(A[0], np.eye(n), atol=1e-14)
        assert np.allclose(b, 0.0)

    def test_zero_b(self):
        blocks = FakeBlocks(
            B=np.zeros((1, 4, 3)),
            Bhat=np.zeros((1, 4, 0)),
            G=np.eye(4)[None],
            l=np.ones((1, 4)),
        )
        A, b = condense_local(blocks)
        assert np.all(A == 0) and np.all(b == 0)

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((1, 6, 4))
        l = rng.standard_normal((1, 6))
        R = rng.standard_normal((6, 6))
        G = (R @ R.T + 6 * np.eye(6))[None]
        blocks = FakeBlocks(B=B, Bhat=np.zeros((1, 6, 0)), G=G, l=l)
        A, b = condense_local(blocks)
        Ginv = np.linalg.inv(G[0])
        assert np.abs(A[0] - B[0].T @ Ginv @ B[0]).max() < 1e-10
        assert np.abs(b[0] - B[0].T @ Ginv @ l[0]).max() < 1e-10

    def test_non_spd_gram_rejected(self):
        blocks = FakeBlocks(
            B=np.eye(2)[None], Bhat=np.zeros((1, 2, 0)), G=-np.eye(2)[None], l=np.zeros((1, 2))
        )
        with pytest.raises(ValueError):
            condense_local(blocks)

    @staticmethod
    def _random_blocks(ne, ntest, nfield, ntrace, seed=1):
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((ne, ntest, ntest))
        return FakeBlocks(
            B=rng.standard_normal((ne, ntest, nfield)),
            Bhat=rng.standard_normal((ne, ntest, ntrace)),
            G=R @ np.swapaxes(R, 1, 2) + ntest * np.eye(ntest),
            l=rng.standard_normal((ne, ntest)),
        )

    def test_exactly_symmetric(self):
        A, _ = condense_local(self._random_blocks(7, 12, 5, 4))
        assert np.array_equal(A, A.swapaxes(1, 2))

    def test_copies_against_dense_inverse_oracle(self):
        # a two-copy slot beside a one-copy slot: G1 kron I_2 inverted densely
        rng = np.random.default_rng(2)
        R1, R2 = rng.standard_normal((4, 4, 4)), rng.standard_normal((4, 3, 3))
        G = {"tau": R1 @ np.swapaxes(R1, 1, 2) + 4 * np.eye(4), "w": R2 @ np.swapaxes(R2, 1, 2) + 3 * np.eye(3)}
        blocks = FakeBlocks(
            B=rng.standard_normal((4, 11, 5)), Bhat=rng.standard_normal((4, 11, 2)), G=G, l=rng.standard_normal((4, 11)),
            test_slices={"tau": slice(0, 8), "w": slice(8, 11)}, test_copies={"tau": 2, "w": 1},
        )
        A, b = condense_local(blocks)
        Gfull = np.zeros((4, 11, 11))
        Gfull[:, :8, :8], Gfull[:, 8:, 8:] = padded_gram(G["tau"], 2), G["w"]
        for e in range(4):
            M = blocks.M[e]
            Ginv = np.linalg.inv(Gfull[e])
            assert np.abs(A[e] - M.T @ Ginv @ M).max() < 1e-10
            assert np.abs(b[e] - M.T @ Ginv @ blocks.l[e]).max() < 1e-10
        assert np.array_equal(A, A.swapaxes(1, 2))

    @pytest.mark.parametrize("spec", ["ultraweak", "mixed"])
    def test_real_chunk_against_padded_gram(self, spec):
        # M^T G^{-1} M with G the padded Gram formed the old way, as the sum
        # of the val and grad or div kernels over all copies
        smooth = smooth_solution_2d()
        form = formulation(spec, build_square_mesh(4), smooth.material, 2, bc=bc_from_exact(smooth))
        elems = np.arange(0, 32, 3)
        blocks = assemble_local_blocks(form, elems)
        derivs = {"L2": ("val",), "H1": ("val", "grad"), "Hdiv": ("val", "div")}
        Gfull = np.zeros((len(elems),) + blocks.M.shape[1:2] * 2)
        for name, s in blocks.test_slices.items():
            space = form.test_spaces[name]
            Gfull[:, s, s] = sum(volume_blocks(space, d, space, d, elems, form.quad_degree()) for d in derivs[form.desc.test_norms[name]])
        A, b = condense_local(blocks)
        for e in range(len(elems)):
            k = blocks.cls[e]
            M = blocks.M[k]
            Ginv = np.linalg.inv(Gfull[e])
            Aref, bref = M.T @ Ginv @ M, M.T @ Ginv @ blocks.l[e]
            assert np.abs(A[k] - Aref).max() <= 1e-10 * np.abs(Aref).max()
            assert np.abs(b[e] - bref).max() <= 1e-10 * np.abs(bref).max()


class TestForwardSubstitution:
    @pytest.mark.parametrize("nelt,n,k", [(5, 7, 1), (5, 15, 98), (0, 6, 3)])
    def test_matches_dense_solve(self, nelt, n, k):
        rng = np.random.default_rng(n)
        R = rng.standard_normal((nelt, n, n))
        L = np.linalg.cholesky(R @ np.swapaxes(R, 1, 2) + n * np.eye(n))
        X = rng.standard_normal((nelt, n, k))
        Y = forward_substitution(L, X)
        assert Y.shape == X.shape
        if nelt:
            ref = np.linalg.solve(L, X)
            assert np.abs(Y - ref).max() <= 1e-13 * np.abs(ref).max()


class TestBackwardSubstitution:
    @pytest.mark.parametrize("nelt,n,k", [(5, 7, 1), (5, 18, 31), (4, 1, 2), (0, 6, 3)])
    def test_matches_dense_solve(self, nelt, n, k):
        rng = np.random.default_rng(n)
        R = rng.standard_normal((nelt, n, n))
        L = np.linalg.cholesky(R @ np.swapaxes(R, 1, 2) + n * np.eye(n))
        X = rng.standard_normal((nelt, n, k))
        Y = backward_substitution(L, X)
        assert Y.shape == X.shape
        if nelt:
            ref = np.linalg.solve(np.swapaxes(L, 1, 2), X)
            assert np.abs(Y - ref).max() <= 1e-13 * np.abs(ref).max()


def uncondensed_solve(form):
    """The normal equations on every trial dof, the element-local L2 fields
    included, scattered and solved whole."""
    layout = trial_layout(form)
    elems = np.arange(form.mesh.num_triangles)
    blocks = assemble_local_blocks(form, elems)
    A, b = condense_local(blocks)
    gdofs = element_trial_dofs(form, layout, elems)
    rhs = np.zeros(layout.ndof)
    np.add.at(rhs, gdofs.ravel(), b.ravel())
    K = scatter_blocks([(gdofs, gdofs, A[blocks.cls])], (layout.ndof, layout.ndof))
    return _solve_constrained(K, rhs, layout.constrained, layout.values)[0]


class TestStaticCondensation:
    # ultraweak, mixed and dualmixed eliminate their L2 fields per element;
    # strong and primal have none, so their system is the uncondensed one
    ELIMINATED = ("ultraweak", "mixed", "dualmixed")

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_matches_uncondensed_on_square(self, spec, p):
        smooth = smooth_solution_2d()
        form = formulation(spec, build_square_mesh(8), smooth.material, p, bc=bc_from_exact(smooth))
        x = assemble_and_solve(form).full_vector()
        ref = uncondensed_solve(form)
        if spec in self.ELIMINATED:
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        else:
            assert np.array_equal(x, ref)

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_matches_uncondensed_on_lshape(self, spec):
        sing = singular_solution()
        form = formulation(spec, build_lshape_mesh(2), sing.material, 1, bc=bc_from_exact(sing))
        x = assemble_and_solve(form).full_vector()
        ref = uncondensed_solve(form)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_interface_system(self, spec, monkeypatch):
        scattered = []

        def keep_blocks(triples, shape):
            scattered.extend(b for _, _, b, _ in triples)
            return scatter_blocks(triples, shape)

        monkeypatch.setattr(dpg_solver, "scatter_blocks", keep_blocks)
        smooth = smooth_solution_2d()
        form = formulation(spec, build_square_mesh(3), smooth.material, 2, bc=bc_from_exact(smooth))
        system = assemble_normal_equations(form, chunk=7)
        K, layout = system.K, system.layout
        # every class's Schur complement is exactly symmetric
        (S,) = scattered
        assert len(S) == form.mesh.classes.max() + 1
        assert np.array_equal(S, np.swapaxes(S, 1, 2))
        eliminated = [n for n, k in form.desc.field_slots if k.startswith("L2")]
        assert bool(eliminated) == (spec in self.ELIMINATED)
        nlocal = sum(form.field_spaces[n].ndof for n in eliminated)
        assert K.shape[0] == len(system.iface) == layout.ndof - nlocal
        assert system.ldofs.size == nlocal
        assert np.all(np.isin(layout.constrained, system.iface))

    def test_interface_scatter_peak_memory(self):
        # the class Schur complements are scattered without a copy per element
        # or COO index arrays; with both, the peak is about 66.7 MB
        smooth = smooth_solution_2d()
        form = formulation("ultraweak", converge_n32_mesh(), smooth.material, 2, bc=bc_from_exact(smooth))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assemble_normal_equations(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48e6


def _no_gamma0_mesh():
    sq = build_square_mesh(3)
    return Mesh(vertices=sq.vertices, triangles=sq.triangles, boundary_tags={k: GAMMA1 for k in sq.boundary_tags})


class TestSingularSystems:
    # with every boundary edge in Gamma1 the rigid motions are unconstrained,
    # so each system is singular; none may return a null-space mix, and the
    # missing Gamma0 edge is caught before anything is factored
    SOLVES = {
        "hybrid_mixed": lambda m, mat, bc: solve("hybrid_mixed", m, mat, 1, bc=bc),
        "primal": lambda m, mat, bc: solve("primal", m, mat, 1, bc=bc),
        "mixed": lambda m, mat, bc: solve("mixed", m, mat, 1, bc=bc),
        "dualmixed": lambda m, mat, bc: solve("dualmixed", m, mat, 1, bc=bc),
        "ultraweak": lambda m, mat, bc: solve("ultraweak", m, mat, 1, bc=bc),
        "fosls": lambda m, mat, bc: solve("fosls", m, mat, 1, bc=bc),
        "galerkin": lambda m, mat, bc: solve("galerkin", m, mat, 1, bc=bc),
        "saddle_primal": lambda m, mat, bc: solve_saddle_point(formulation("primal", m, mat, 1, bc=bc)),
        "saddle_ultraweak": lambda m, mat, bc: solve_saddle_point(formulation("ultraweak", m, mat, 1, bc=bc)),
    }

    @pytest.mark.parametrize("path", sorted(SOLVES))
    def test_no_gamma0_raises_without_fallback(self, path, monkeypatch):
        def no_lu(*args, **kwargs):
            raise AssertionError("a system with no Gamma0 edge must not be factored")

        monkeypatch.setattr(spla, "splu", no_lu)
        smooth = smooth_solution_2d()
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            self.SOLVES[path](_no_gamma0_mesh(), smooth.material, bc_from_exact(smooth))


def corner_bisected_lshape(rounds=28):
    """build_lshape_mesh(2) with the triangles at the re-entrant corner
    bisected `rounds` times: 192 triangles, h_min 2.2e-5 at 28 rounds."""
    m = build_lshape_mesh(2)
    for _ in range(rounds):
        m = refine(m, np.flatnonzero((m.triangle_vertices() == 0).all(axis=2).any(axis=1)))
    return m


class TestGradedRegime:
    # a strongly graded mesh is well posed however ill conditioned its
    # system: the solve is accurate, so it must not be judged singular
    @pytest.fixture(scope="class")
    def graded(self):
        return corner_bisected_lshape()

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_graded_corner_solves(self, graded, spec):
        assert graded.num_triangles == 192
        sing = singular_solution()
        f = solve(spec, graded, sing.material, 2, bc=bc_from_exact(sing))
        info = f.extras["solver"]
        assert info["residual"] <= 1e-11
        assert all(np.isfinite(c).all() for c in f.coeffs.values())


class TestHighOrderHdiv:
    # strong and mixed carry a conforming H(div) stress, whose dual basis
    # stays well conditioned at high order
    @pytest.fixture(scope="class")
    def errors(self):
        smooth = smooth_solution_2d()
        out = {}
        for spec in ("ultraweak", "strong", "mixed"):
            f = solve(spec, build_square_mesh(8), smooth.material, 7, bc=bc_from_exact(smooth))
            out[spec] = (f.extras["solver"]["residual"], error_norms(f, smooth)[0])
        return out

    @pytest.mark.parametrize("spec", ["strong", "mixed"])
    def test_p7_square(self, errors, spec):
        residual, err = errors[spec]
        assert residual <= 1e-10
        assert err <= 2.0 * errors["ultraweak"][1]


def converge_n32_mesh():
    """The finest mesh of the converge study: build_square_mesh(2) refined 4 times."""
    m = build_square_mesh(2)
    for _ in range(4):
        m = uniform_refine(m)
    return m


class TestSolverRecord:
    def test_assemble_and_solve_records_the_solve(self):
        smooth = smooth_solution_2d()
        form = formulation("ultraweak", build_square_mesh(3), smooth.material, 2, bc=bc_from_exact(smooth))
        f = assemble_and_solve(form)
        info = f.extras["solver"]
        assert info["residual"] < 1e-10
        assert info["free_dofs"] == f.num_free_dofs()
        # the L2 fields are eliminated per element; only the interface is factored
        assert info["factored_dofs"] == f.num_free_dofs() - sum(f.coeffs[n].size for n in ("sigma", "u", "omega"))
        assert info["lu_nnz"] >= info["free_dofs"]

    @pytest.mark.parametrize(
        "spec, mesh, bound",
        [
            ("ultraweak", converge_n32_mesh, 2.7e6),  # 3 695 334 with relaxed supernodes
            ("primal", lambda: build_lshape_mesh(8), 479_320),  # fill with relaxed supernodes
        ],
        ids=["ultraweak_converge_n32", "primal_lshape8"],
    )
    def test_interface_lu_fill(self, spec, mesh, bound):
        smooth = smooth_solution_2d()
        f = solve(spec, mesh(), smooth.material, 2, bc=bc_from_exact(smooth))
        assert f.extras["solver"]["lu_nnz"] <= bound

    def test_geometry_classes_and_gram_condition_recorded(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        square = assemble_and_solve(formulation("primal", build_square_mesh(4), smooth.material, 2, bc=bc))
        m = build_lshape_mesh()
        for _ in range(5):  # graded towards the re-entrant corner
            m = refine(m, np.argsort(np.linalg.norm(m.triangle_vertices().mean(axis=1), axis=1))[:4])
        form = formulation("primal", m, smooth.material, 2, bc=bc)
        graded = assemble_and_solve(form)
        info = graded.extras["solver"]
        assert info["geometry_classes"] == form.mesh.classes.max() + 1 < m.num_triangles
        assert square.extras["solver"]["geometry_classes"] == 4
        # the bound is a lower bound on every class's Gram condition number
        G1 = assemble_local_blocks(form).G["v"]
        bound = cholesky_cond_bound(np.linalg.cholesky(G1))
        assert np.all(bound <= np.linalg.cond(G1))
        assert (info["gram_cond_min"], info["gram_cond_max"]) == (bound.min(), bound.max())
        assert 1.0 <= info["gram_cond_min"] <= info["gram_cond_max"]
        assert info["gram_cond_max"] > square.extras["solver"]["gram_cond_max"]

    def test_conservative_hybrid_factors_interface_and_multipliers(self):
        # u and omega are eliminated per element; sigma, uhat and the two
        # momentum multipliers per element are factored
        smooth = smooth_solution_2d()
        m = build_square_mesh(2)
        h = solve("hybrid_mixed_conservative", m, smooth.material, 1, bc=bc_from_exact(smooth))
        eliminated = h.coeffs["u"].size + h.coeffs["omega"].size
        assert h.extras["solver"]["factored_dofs"] == h.num_free_dofs() - eliminated + 2 * m.num_triangles

    def test_factored_dofs_without_elimination(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        m = build_square_mesh(2)
        f = solve("primal", m, smooth.material, 1, bc=bc)
        assert f.extras["solver"]["factored_dofs"] == f.extras["solver"]["free_dofs"] == f.num_free_dofs()
        s = solve_saddle_point(formulation("primal", m, smooth.material, 1, bc=bc))
        assert s.extras["solver"]["factored_dofs"] == s.num_free_dofs() + s.extras["psi"].size

    @pytest.mark.parametrize(
        "solve",
        [
            lambda m, mat, bc: solve("primal", m, mat, 1, bc=bc),
            lambda m, mat, bc: solve("hybrid_mixed_conservative", m, mat, 1, bc=bc),
            lambda m, mat, bc: solve_saddle_point(formulation("primal", m, mat, 1, bc=bc)),
        ],
        ids=["spd", "kkt", "saddle_point"],
    )
    def test_failed_factorization_raises(self, solve, monkeypatch):
        # one solve path: a factorization that fails is an error, with no fallback
        def failed_lu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", failed_lu)
        smooth = smooth_solution_2d()
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve(build_square_mesh(2), smooth.material, bc_from_exact(smooth))

    def test_large_residual_raises(self, monkeypatch):
        # a solve whose residual is far off raises instead of returning
        class WrongLU:
            nnz = 0

            def solve(self, b):
                return np.zeros_like(b)

        monkeypatch.setattr(dpg_solver, "_factor_checked", lambda *args, **kwargs: WrongLU())
        smooth = smooth_solution_2d()
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            solve("primal", build_square_mesh(2), smooth.material, 1, bc=bc_from_exact(smooth))

    @pytest.mark.parametrize(
        "solve",
        [
            lambda m, mat, bc: solve("ultraweak", m, mat, 1, bc=bc),
            lambda m, mat, bc: solve_saddle_point(formulation("primal", m, mat, 1, bc=bc)),
            lambda m, mat, bc: solve("galerkin", m, mat, 1, bc=bc),
        ],
        ids=["assemble_and_solve", "saddle_point", "galerkin"],
    )
    def test_one_solve_per_factorization(self, solve, monkeypatch):
        # a factorization serves the one solve it was made for and nothing else
        solves, factor = [], dpg_solver._factor_checked

        class CountingLU:
            def __init__(self, lu):
                self.lu, self.nnz = lu, lu.nnz
                solves.append(0)

            def solve(self, *args, **kwargs):
                solves[-1] += 1
                return self.lu.solve(*args, **kwargs)

        monkeypatch.setattr(dpg_solver, "_factor_checked", lambda *args, **kwargs: CountingLU(factor(*args, **kwargs)))
        smooth = smooth_solution_2d()
        solve(build_square_mesh(2), smooth.material, bc_from_exact(smooth))
        assert solves == [1]


class TestHomogeneous:
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_zero_data_zero_solution(self, spec):
        f = solve(spec, build_square_mesh(2), MAT, 1, bc=BCData())
        for name, c in f.coeffs.items():
            assert np.abs(c).max() < 1e-12, name

    def test_fosls_galerkin_hybrid_zero(self):
        m = build_square_mesh(2)
        for f in (
            solve("fosls", m, MAT, 1, bc=BCData()),
            solve("galerkin", m, MAT, 1, bc=BCData()),
            solve("hybrid_mixed", m, MAT, 1, bc=BCData()),
        ):
            for c in f.coeffs.values():
                assert np.abs(c).max() < 1e-12


class TestRepresentable:
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_linear_solution_reproduced(self, spec):
        # at p = 2 every slot (including the order p-1 L2 fields of the
        # ultraweak and mixed settings) contains the affine solution
        field = LinearField()
        bc = BCData(f=field.body_force, g=field.traction, u0=field.displacement)
        f = solve(spec, build_square_mesh(2), MAT, 2, bc=bc)
        rel, _ = error_norms(f, field)
        assert rel < 1e-10


class TestSolveByName:
    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_result_named_by_its_path(self, path):
        f = solve(path, build_square_mesh(2), MAT, 1, bc=BCData())
        assert f.spec_name == path
        assert (f.form is None) == (path == "galerkin")

    @pytest.mark.parametrize("path", ["fosls", "hybrid_mixed", "hybrid_mixed_conservative", "galerkin"])
    def test_fixed_enrichment_path_rejects_dp(self, path):
        with pytest.raises(ValueError, match="dp=2"):
            solve(path, build_square_mesh(2), MAT, 1, dp=2, bc=BCData())

    def test_data_is_keyword_only(self):
        # positional data would land in dp, which fosls ignores
        with pytest.raises(TypeError):
            solve("fosls", build_square_mesh(2), MAT, 1, BCData())

    def test_unknown_path_lists_the_paths(self):
        with pytest.raises(ValueError, match=re.escape(str(SOLVE_PATHS))):
            solve("hybrid", build_square_mesh(2), MAT, 1)


class TestPathEquivalences:
    @pytest.mark.parametrize("p", [1, 2])
    def test_fosls_equals_strong(self, p):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        m = build_square_mesh(4)
        a = solve("strong", m, smooth.material, p, bc=bc)
        b = solve("fosls", m, smooth.material, p, bc=bc)
        for k in ("u", "sigma"):
            d = np.linalg.norm(a.coeffs[k] - b.coeffs[k]) / np.linalg.norm(a.coeffs[k])
            assert d < 1e-8, k

    def test_saddle_point_matches_condensed(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        form = formulation("ultraweak", build_square_mesh(3), smooth.material, 2, bc=bc)
        a = assemble_and_solve(form)
        b = solve_saddle_point(form)
        for k in a.coeffs:
            d = np.linalg.norm(a.coeffs[k] - b.coeffs[k]) / max(np.linalg.norm(a.coeffs[k]), 1e-30)
            assert d < 1e-9, k

    def test_saddle_point_orthogonality(self):
        # b(du, psi) = 0: free columns of the trial operator annihilate psi
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        form = formulation("primal", build_square_mesh(3), smooth.material, 1, bc=bc)
        sol = solve_saddle_point(form)
        psi = sol.extras["psi"]
        from dpgelast.forms import assemble_local_blocks, trial_layout, element_trial_dofs

        layout = sol.layout
        elems = np.arange(form.mesh.num_triangles)
        blocks = assemble_local_blocks(form, elems)
        gdofs = element_trial_dofs(form, layout, elems)
        M = blocks.M[blocks.cls]
        Btpsi = np.zeros(layout.ndof)
        np.add.at(Btpsi, gdofs.ravel(), np.einsum("etm,et->em", M, psi).ravel())
        free = np.setdiff1d(np.arange(layout.ndof), layout.constrained)
        assert np.abs(Btpsi[free]).max() < 1e-9

    def test_saddle_point_psi_zero_for_representable(self):
        field = LinearField()
        bc = BCData(f=field.body_force, g=field.traction, u0=field.displacement)
        form = formulation("primal", build_square_mesh(2), MAT, 1, bc=bc)
        sol = solve_saddle_point(form)
        assert np.abs(sol.extras["psi"]).max() < 1e-10


def pointwise_l2_solve(form, C=None, d=None):
    """The exact-L2 least-squares solve assembled from pointwise residual
    representers: each L2 test slot's squared residual integrated exactly
    over the field columns, the Gram-inverted slots condensed, and the
    normal equations solved on every trial dof."""
    layout = trial_layout(form)
    elems = np.arange(form.mesh.num_triangles)
    gdofs = element_trial_dofs(form, layout, elems)
    A = np.zeros((len(elems),) + gdofs.shape[1:] * 2)
    b = np.zeros(gdofs.shape)
    inverted = [n for n, _ in form.desc.test_slots if form.desc.test_norms[n] != "L2"]
    if inverted:
        blocks = assemble_local_blocks(form, elems)
        Acls, b[:] = condense_local(dataclasses.replace(blocks, G={n: blocks.G[n] for n in inverted}))
        A[:] = Acls[blocks.cls]
    wts, reps, load_reps, _ = l2_slot_residual_ops(form, elems)
    for name, rep in reps.items():
        r = rep.reshape(rep.shape[:3] + (-1,))
        nfield = r.shape[1]
        A[:, :nfield, :nfield] += np.einsum("eq,emqk,enqk->emn", wts, r, r)
        lr = load_reps[name]
        if lr is not None:
            b[:, :nfield] += np.einsum("eq,eqk,emqk->em", wts, lr.reshape(lr.shape[:2] + (-1,)), r)
    rhs = np.zeros(layout.ndof)
    np.add.at(rhs, gdofs.ravel(), b.ravel())
    K = scatter_blocks([(gdofs, gdofs, A)], (layout.ndof, layout.ndof))
    return _solve_constrained(K, rhs, layout.constrained, layout.values, C, d)[0]


class TestExactL2:
    # FOSLS and the hybrid mixed solve are condensed DPG solves whose L2 test
    # spaces hold the residual, so they reproduce the pointwise assembly
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("path", ["fosls", "hybrid", "hybrid_conservative"])
    def test_matches_pointwise_assembly(self, path, p):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        m = build_square_mesh(4)
        if path == "fosls":
            x = solve("fosls", m, smooth.material, p, bc=bc).full_vector()
            ref = pointwise_l2_solve(formulation("strong", m, smooth.material, p, dp=0, bc=bc))
        else:
            conservative = path == "hybrid_conservative"
            x = solve("hybrid_mixed_conservative" if conservative else "hybrid_mixed", m, smooth.material, p, bc=bc).full_vector()
            form = formulation("mixed", m, smooth.material, p, dp=1, bc=bc)
            C, d = dpg_solver._momentum_constraints(form) if conservative else (None, None)
            ref = pointwise_l2_solve(form, C, d)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_constraint_on_eliminated_dof_rejected(self):
        # a row on a u dof of the mixed formulation, which is eliminated per element
        form = formulation("mixed", build_square_mesh(2), MAT, 1, bc=BCData())
        layout = trial_layout(form)
        C = sp.csr_matrix(([1.0], ([0], [layout.offsets["u"]])), shape=(1, layout.ndof))
        with pytest.raises(ValueError, match="element-local"):
            assemble_and_solve(form, C, np.zeros(1))


def galerkin_loop_system(mesh, material, p, bc):
    """K, rhs and the H1 space of the Galerkin primal method by a loop over
    chunks of elements, volume_blocks and basis_pairing on the H1 space
    itself, and the traction on Gamma1 edge by edge: the assembly that
    preceded the blocks of the unbroken primal pair."""
    space = h1_space(mesh, p, gamma0_constrained=True, bc_fn=bc.u0)
    n, nelt = space.ndof, mesh.num_triangles
    rhs, triples = np.zeros(n), []
    for start in range(0, nelt, CHUNK):
        elems = np.arange(start, min(start + CHUNK, nelt))
        _, _, pts = element_quadrature(space.mesh.geometry, elems, 2 * p + 2)
        A = volume_blocks(space, "grad", space, "grad", elems, 2 * p + 2, op_matrix("C", material))
        b = basis_pairing(space, "val", elems, 2 * p + 2, bc.body_force(pts))
        gdofs = space.elt_dofs[elems]
        triples.append((gdofs, gdofs, A))
        np.add.at(rhs, gdofs.ravel(), b.ravel())
    K = scatter_blocks(triples, (n, n))
    sk = skeleton(mesh)
    tq, twq = edge_rule(2 * p + 6)
    ref = edge_reference("H1", p, tq)
    for eid in mesh.boundary_edge_ids(GAMMA1):
        t0 = mesh.edge_tris[eid, 0]
        loc = int(np.where(mesh.tri_edges[t0] == eid)[0][0])
        gv = np.asarray(bc.g(edge_points(mesh, eid, tq), sk.normals[eid]), dtype=float)
        ev = ref[loc, mesh.edge_flips[t0, loc]]
        np.add.at(rhs, space.elt_dofs[t0], sk.lengths[eid] * np.einsum("q,qc,lqc->l", twq, gv, ev))
    return K, rhs, space


class TestGalerkinOracle:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_element_loop_bitwise(self, monkeypatch, p):
        # the unbroken primal pair's class blocks gathered by element, on a
        # corner-graded L-shape with traction on Gamma1
        sing = singular_solution()
        bc, mesh = bc_from_exact(sing), corner_graded_lshape()
        seen = {}
        solve_constrained = dpg_solver._solve_constrained

        def spy(K, rhs, *args):
            seen.update(K=K, rhs=rhs)
            return solve_constrained(K, rhs, *args)

        monkeypatch.setattr(dpg_solver, "_solve_constrained", spy)
        f = solve("galerkin", mesh, sing.material, p, bc=bc)
        K, rhs, space = galerkin_loop_system(mesh, sing.material, p, bc)
        layout = slot_layout({"u": space})
        x, _ = solve_constrained(K, rhs, layout.constrained, layout.values)
        for a, b in ((seen["K"].indptr, K.indptr), (seen["K"].indices, K.indices), (seen["K"].data, K.data)):
            assert np.array_equal(a, b)
        assert np.array_equal(seen["rhs"], rhs)
        assert np.array_equal(f.coeffs["u"], x)
        assert np.array_equal(f.layout.constrained, layout.constrained)


class TestGalerkinTraction:
    def test_one_call_of_g_per_gamma1_normal(self):
        # the traction load on Gamma1 evaluates g once per distinct edge
        # normal, on the points of all the edges sharing it
        sing = singular_solution()
        bc, mesh = bc_from_exact(sing), build_lshape_mesh(2)
        shapes = []

        def g(pts, normal):
            shapes.append(pts.shape)
            return bc.g(pts, normal)

        solve("galerkin", mesh, sing.material, 2, bc=dataclasses.replace(bc, g=g))
        g1 = mesh.boundary_edge_ids(GAMMA1)
        assert len(shapes) == len(np.unique(skeleton(mesh).normals[g1], axis=0)) == 4
        assert sum(shape[0] for shape in shapes) == len(g1)


class TestBenchmarkErrors:
    def test_primal_p2_rate(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        errs = []
        m = build_square_mesh(2)
        for _ in range(3):
            f = solve("primal", m, smooth.material, 2, bc=bc)
            errs.append(error_norms(f, smooth)[0])
            m = uniform_refine(m)
        # error drops by about 2^-p = 1/4 per refinement
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 < 0.4 * e0

    def test_galerkin_within_factor_three_of_dpg_primal(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        for p in (1, 2):
            m = build_square_mesh(4)
            e_dpg = error_norms(solve("primal", m, smooth.material, p, bc=bc), smooth)[0]
            e_gal = error_norms(solve("galerkin", m, smooth.material, p, bc=bc), smooth)[0]
            assert e_dpg / e_gal < 3.0 and e_gal / e_dpg < 3.0

    def test_constrained_dofs_carry_prescribed_values(self):
        smooth = smooth_solution_2d()
        bc = bc_from_exact(smooth)
        form = formulation("ultraweak", build_square_mesh(2), smooth.material, 1, bc=bc)
        f = assemble_and_solve(form)
        layout = f.layout
        x = f.full_vector()
        assert np.array_equal(x[layout.constrained], layout.values)
