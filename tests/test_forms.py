"""Local assembly tests: Gram structure, trace pairings, loads, and
exact-solution consistency of the formulation blocks."""

import numpy as np
import pytest
import scipy.sparse as sp

from dpgelast.material import MaterialParams
from dpgelast.mesh import Mesh, build_square_mesh, build_lshape_mesh, uniform_refine, skeleton, refine
from dpgelast.quadrature import triangle_rule, map_to_physical, edge_rule
from dpgelast.spaces import (
    interpolate,
    volume_basis,
    to_reference,
    edge_points,
    trace_edge_basis,
    h1_space,
    hdiv_space,
    l2_space,
    broken_h1_space,
    broken_hdiv_space,
    row_copies,
    edge_flips,
)
from dpgelast.exact_solutions import smooth_solution_2d
from dpgelast.forms import (
    DESCRIPTORS,
    FORMULATION_IDS,
    BCData,
    bc_from_exact,
    formulation,
    unbroken_formulation,
    build_test_spaces,
    assemble_local_blocks,
    element_quadrature,
    gram_blocks,
    volume_blocks,
    scatter_blocks,
    gram_copies,
    free_ids,
    trial_term_values,
    trial_layout,
    slot_layout,
    element_dofs,
    element_trial_dofs,
    geometry_classes,
    class_chunks,
    ClassGroups,
)
from dpgelast.dpg_solver import condense_local
from dpgelast.infsup_lab import _infsup_operators
from dpgelast.residual_adaptivity import P_RES


MAT = MaterialParams(lam=1.0, mu=1.0)


def corner_graded_lshape(rounds=3):
    """L-shape refined adaptively towards the re-entrant corner at the origin."""
    m = build_lshape_mesh()
    for _ in range(rounds):
        m = refine(m, np.argsort(np.linalg.norm(m.triangle_vertices().mean(axis=1), axis=1))[:4])
    return m


def contraction(wts, a, b):
    """sum_q w_q <a_t, b_u> over the trailing value axes of padded basis
    arrays (nelt, n, nq, ...): the test-side quadrature reference of the
    element kernels."""
    E, nq = wts.shape
    a, b = a.reshape(E, a.shape[1], nq, -1), b.reshape(E, b.shape[1], nq, -1)
    return np.einsum("eq,etqk,euqk->etu", wts, a, b, optimize=True)


def padded_gram(G1, c):
    """The Gram G1 kron I_c (nelt, c n, c n) of c interleaved copies."""
    E, n, _ = G1.shape
    return np.einsum("elm,ab->elamb", G1, np.eye(c)).reshape(E, n * c, n * c)


def field_trace_split(form, M):
    """The field and trace columns B and Bhat of M = [B | Bhat]."""
    nf = sum(s.nloc for s in form.field_spaces.values())
    return M[..., :nf], M[..., nf:]


def full_gram(blocks):
    """The block-diagonal element Gram over all test rows from the one-copy
    Grams of the slots."""
    n = blocks.M.shape[1]
    G = np.zeros((len(blocks.elems), n, n))
    for name, s in blocks.test_slices.items():
        G[:, s, s] = padded_gram(blocks.G[name][blocks.cls], blocks.test_copies[name])
    return G


def quadrature_gram(wts, basis, norm):
    G = contraction(wts, basis.val, basis.val)
    if norm == "H1":
        G += contraction(wts, basis.grad, basis.grad)
    elif norm == "Hdiv":
        G += contraction(wts, basis.div, basis.div)
    return G


def quadrature_blocks(form, degree):
    """B, Bhat, G and l of a formulation on all elements by test-side
    quadrature: padded volume_basis arrays contracted by einsum, and the
    traces of the test basis at physical edge points pulled back to the
    reference triangle element by element and edge by edge."""
    mesh, desc = form.mesh, form.desc
    elems = np.arange(mesh.num_triangles)
    rule, wts, pts = element_quadrature(form.mesh.geometry, elems, degree)
    layout = assemble_local_blocks(form, elems[:1], degree)
    ts, fs = layout.test_slices, layout.trial_slices
    M = np.zeros((len(elems),) + layout.M.shape[1:])
    G = np.zeros((len(elems),) + layout.M.shape[1:2] * 2)
    l = np.zeros((len(elems),) + layout.l.shape[1:])
    tb = {n: volume_basis(form.test_spaces[n], elems, rule.points) for n, _ in desc.test_slots}
    fb = {n: volume_basis(form.field_spaces[n], elems, rule.points) for n, _ in desc.field_slots}
    for term in desc.terms:
        uarr = trial_term_values(term, fb, form.material)
        M[:, ts[term.test], fs[term.trial]] += term.sign * contraction(wts, getattr(tb[term.test], term.test_deriv), uarr)
    for name, _ in desc.test_slots:
        G[:, ts[name], ts[name]] = quadrature_gram(wts, tb[name], desc.test_norms[name])
    l[:, ts[desc.load_slot]] = np.einsum("eq,eqc,elqc->el", wts, form.bc.body_force(pts), tb[desc.load_slot].val)
    geom, sk = mesh.geometry, skeleton(mesh)
    tq, twq = edge_rule(degree)
    for tt in desc.trace_terms:
        test, trace = form.test_spaces[tt.test], form.trace_spaces[tt.trace]
        tbasis = trace_edge_basis(trace.kind, trace.order, tq)
        nm = tbasis.shape[0]
        for e in elems:
            for k in range(3):
                eid = mesh.tri_edges[e, k]
                ref = to_reference(geom, np.array([e]), edge_points(mesh, np.array([eid]), tq))[0]
                val = volume_basis(test, [e], ref).val[0]
                sign = sk.tri_signs[e, k]
                trace_of_test = val if test.kind == "BrokenH1" else val @ (sign * sk.normals[eid])
                fac = sk.lengths[eid] * (sign if trace.kind == "TraceHm12" else 1.0)
                pair = fac * np.einsum("q,tqc,mqc->tm", twq, trace_of_test, tbasis)
                c0 = fs[tt.trace].start + k * nm
                M[e, ts[tt.test], c0 : c0 + nm] += tt.sign * pair
    return (*field_trace_split(form, M), G, l)


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.fixture(scope="module")
def smooth():
    return smooth_solution_2d()


def interpolant_vector(form, exact):
    """Full trial vector interpolating the exact solution in every slot."""
    layout = trial_layout(form)
    x = np.zeros(layout.ndof)
    for name, space in form.trial_spaces.items():
        off = layout.offsets[name]
        x[off : off + space.ndof] = interpolate(space, exact)
    return x, layout


def perturbed_mesh(m, seed=5):
    """m with every interior vertex moved at random by up to 15% of the
    smallest edge, so no two elements share a geometry key."""
    rng = np.random.default_rng(seed)
    v = m.vertices.copy()
    interior = np.ones(len(v), bool)
    interior[m.edges[m.edge_tris[:, 1] == -1].ravel()] = False
    h = skeleton(m).lengths.min()
    v[interior] += rng.uniform(-0.15, 0.15, (interior.sum(), 2)) * h
    return Mesh(vertices=v, triangles=m.triangles, boundary_tags=m.boundary_tags)


def mesh_classes(m):
    return geometry_classes(m)


class TestGeometryClasses:
    def test_square_has_two_shapes_four_classes(self):
        # two (J, flips) shapes; the elements with an edge on the boundary,
        # where the element owns the fixed normal, carry other trace signs
        m = build_square_mesh(32)
        flips = edge_flips(m, slice(None))
        keys = np.concatenate([m.geometry.J.reshape(-1, 4).view(np.int64), flips], axis=1)
        assert len(np.unique(keys, axis=0)) == 2
        assert np.array_equal(np.bincount(mesh_classes(m)), [992, 992, 32, 32])

    def test_refined_square_has_25(self):
        m = build_square_mesh(2)
        for _ in range(4):
            m = uniform_refine(m)
        assert mesh_classes(m).max() + 1 == 25

    def test_perturbed_mesh_one_element_per_class(self):
        m = perturbed_mesh(uniform_refine(build_square_mesh(4)))
        assert np.array_equal(mesh_classes(m), np.arange(m.num_triangles))

    @pytest.mark.parametrize("mesh", ["square", "lshape"])
    def test_members_share_key_bitwise(self, mesh):
        m = uniform_refine(build_square_mesh(3)) if mesh == "square" else corner_graded_lshape(5)
        cls, geom, sk = mesh_classes(m), m.geometry, skeleton(m)
        flips = edge_flips(m, slice(None))
        counts = np.bincount(cls)
        assert np.all(np.diff(counts) <= 0)  # numbered largest first
        for k in range(len(counts)):
            members = np.flatnonzero(cls == k)
            for a in (geom.J.view(np.int64), flips, sk.tri_signs):
                assert np.all(a[members] == a[members[0]])
        # different classes differ somewhere in the key
        first = np.unique(cls, return_index=True)[1]
        keys = np.concatenate([geom.J[first].reshape(-1, 4).view(np.int64), flips[first], sk.tri_signs[first]], axis=1)
        assert len(np.unique(keys, axis=0)) == len(first)

    def test_chunks_hold_whole_classes(self):
        m = build_square_mesh(2)
        for _ in range(4):
            m = uniform_refine(m)
        cls = mesh_classes(m)
        chunks = list(class_chunks(cls, 512))
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(m.num_triangles))
        for elems in chunks:
            ks = np.unique(cls[elems])
            assert np.sum(np.isin(cls, ks)) == len(elems)
            assert len(ks) == 1 or len(elems) <= 512

    @pytest.mark.parametrize("sizes", [[9, 7, 7, 6, 6, 5], [30, 1, 1, 1, 1, 1], [1] * 6])
    def test_groups_round_trip(self, sizes):
        rng = np.random.default_rng(0)
        cls = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        X = rng.standard_normal((len(cls), 3, 2))
        groups = ClassGroups(cls)
        P = groups.pack(X)
        assert P.shape == (len(groups.cls), 3, 2 * groups.index.shape[1])
        assert groups.index.size <= 2 * len(cls) + len(sizes)  # padding at most about doubles
        assert np.array_equal(groups.unpack(P, 2), X)
        # one matrix per class applied to its elements' columns
        M = rng.standard_normal((len(sizes), 4, 3))
        ref = np.einsum("eij,ejk->eik", M[cls], X)
        assert np.abs(groups.unpack(groups.take(M) @ P, 2) - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(groups.first(groups.take(M)), M)

    @pytest.mark.parametrize("mesh", ["square", "lshape"])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_class_blocks_match_single_element(self, spec, mesh):
        # every element's class blocks and condensed blocks against those
        # assembled from the element alone
        m = build_square_mesh(4) if mesh == "square" else corner_graded_lshape(5)
        smooth = smooth_solution_2d()
        form = formulation(spec, m, smooth.material, 2, bc=bc_from_exact(smooth))
        blocks = assemble_local_blocks(form)
        assert len(blocks.reps) < m.num_triangles
        A, b = condense_local(blocks)
        for e in range(m.num_triangles):
            one, k = assemble_local_blocks(form, [e]), blocks.cls[e]
            A1, b1 = condense_local(one)
            (B, Bhat), (B1, Bhat1) = field_trace_split(form, blocks.M), field_trace_split(form, one.M)
            assert rel_err(B[k], B1[0]) <= 1e-13
            if Bhat1.size:
                assert rel_err(Bhat[k], Bhat1[0]) <= 1e-13
            for name in one.G:
                assert rel_err(blocks.G[name][k], one.G[name][0]) <= 1e-13
            assert np.abs(blocks.l[e] - one.l[0]).max() <= 1e-13 * np.abs(one.l[0]).max()
            assert rel_err(A[k], A1[0]) <= 1e-10
            assert rel_err(b[e], b1[0]) <= 1e-10


class TestRegistry:
    def test_all_five_descriptors(self):
        assert set(FORMULATION_IDS) == {"strong", "ultraweak", "dualmixed", "mixed", "primal"}

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            formulation("bogus", build_square_mesh(1), MAT, 1)

    def test_invalid_orders_rejected(self):
        m = build_square_mesh(1)
        with pytest.raises(ValueError):
            formulation("primal", m, MAT, 0)
        with pytest.raises(ValueError):
            formulation("primal", m, MAT, 1, dp=-1)

    def test_slot_structure(self):
        d = DESCRIPTORS["ultraweak"]
        assert [k for _, k in d.field_slots] == ["L2sym", "L2vec", "L2skew"]
        assert [k for _, k in d.trace_slots] == ["TraceH12", "TraceHm12"]
        assert [k for _, k in d.test_slots] == ["BrokenHdiv", "BrokenH1"]
        assert DESCRIPTORS["strong"].trace_slots == ()
        assert DESCRIPTORS["primal"].test_norms == {"v": "H1"}


class TestGram:
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_symmetric_spd(self, spec):
        form = formulation(spec, build_square_mesh(2), MAT, 2)
        G = full_gram(assemble_local_blocks(form, [3]))[0]
        assert np.abs(G - G.T).max() < 1e-13 * max(1.0, np.abs(G).max())
        assert np.linalg.eigvalsh(G).min() > 0

    def test_l2_slots_identity(self):
        # orthonormal L2 test bases make their Gram block the identity
        form = formulation("strong", build_square_mesh(2), MAT, 1)
        G = full_gram(assemble_local_blocks(form, [0]))[0]
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-12

    def test_broken_h1_constant_energy_is_area(self):
        form = formulation("primal", build_square_mesh(2), MAT, 1)
        blocks = assemble_local_blocks(form, [0])
        space = form.test_spaces["v"]
        # coefficients of the constant function (1, 0)
        c = np.zeros(space.nloc)
        c[0::2] = 1.0
        area = form.mesh.areas()[0]
        assert abs(c @ full_gram(blocks)[0] @ c - area) < 1e-13


class TestGramKernel:
    # the reference-kernel Gram against the quadrature contraction of the
    # full zero-padded basis arrays
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["H1", "BrokenH1", "Hdiv", "BrokenHdiv"])
    def test_one_copy_matches_padded_contraction(self, kind, p):
        m = build_lshape_mesh(1)
        space = {
            "H1": lambda: h1_space(m, p),
            "BrokenH1": lambda: broken_h1_space(m, p),
            "Hdiv": lambda: hdiv_space(m, p),
            "BrokenHdiv": lambda: broken_hdiv_space(m, p),
        }[kind]()
        elems = np.arange(m.num_triangles)
        rule, wts, _ = element_quadrature(space.mesh.geometry, elems, 2 * p + 2)
        norm = "H1" if kind.endswith("H1") else "Hdiv"
        ref = quadrature_gram(wts, volume_basis(space, elems, rule.points), norm)
        G = padded_gram(gram_blocks(space, elems, 2 * p + 2, norm), row_copies(space))
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["L2vec", "L2sym", "L2skew", "BrokenH1", "BrokenHdiv"])
    def test_l2_norm_is_the_contraction(self, kind):
        # the L2 Gram is the val kernel alone, and that matches the contraction
        m = build_square_mesh(2)
        space = {
            "BrokenH1": lambda: broken_h1_space(m, 2),
            "BrokenHdiv": lambda: broken_hdiv_space(m, 2),
        }.get(kind, lambda: l2_space(m, 2, kind))()
        elems = np.arange(m.num_triangles)
        rule, wts, _ = element_quadrature(space.mesh.geometry, elems, 6)
        basis = volume_basis(space, elems, rule.points)
        c = row_copies(space)
        G = padded_gram(gram_blocks(space, elems, 6, "L2"), c)
        assert np.array_equal(G, volume_blocks(space, "val", space, "val", elems, 6))
        ref = contraction(wts, basis.val, basis.val)
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_unknown_norm_rejected(self):
        m = build_square_mesh(1)
        with pytest.raises(ValueError, match="unknown norm"):
            gram_blocks(broken_h1_space(m, 1), np.arange(m.num_triangles), 4, "H2")


class TestOneCopyGram:
    # the padded Gram formed the old way, as the sum of the padded val and
    # grad or div kernels, is I_2 kron one block: its cross-copy blocks are
    # exact zeros, its copy blocks equal (bitwise but for one ulp at
    # BrokenHdiv p=3 on the L-shape, where the padded matmul sums the two
    # copies' terms in a different order), and that block is the one-copy Gram
    DERIVS = {"L2": ("val",), "H1": ("val", "grad"), "Hdiv": ("val", "div")}

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["BrokenH1", "BrokenHdiv", "L2vec"])
    @pytest.mark.parametrize("domain", ["square", "lshape"])
    def test_padded_gram_is_two_equal_copies(self, domain, kind, p):
        m = build_square_mesh(4) if domain == "square" else corner_graded_lshape()
        space, norm = {
            "BrokenH1": lambda: (broken_h1_space(m, p), "H1"),
            "BrokenHdiv": lambda: (broken_hdiv_space(m, p), "Hdiv"),
            "L2vec": lambda: (l2_space(m, p, "L2vec"), "L2"),
        }[kind]()
        elems, degree = np.arange(m.num_triangles), 2 * p + 2
        padded = sum(volume_blocks(space, d, space, d, elems, degree) for d in self.DERIVS[norm])
        assert row_copies(space) == 2
        assert np.all(padded[:, 0::2, 1::2] == 0) and np.all(padded[:, 1::2, 0::2] == 0)
        assert np.abs(padded[:, 0::2, 0::2] - padded[:, 1::2, 1::2]).max() <= 1e-15 * np.abs(padded).max()
        G1 = gram_blocks(space, elems, degree, norm)
        assert np.abs(G1 - padded[:, 0::2, 0::2]).max() <= 1e-14 * np.abs(G1).max()


class TestReferenceKernels:
    # every test-side block from the reference tensors against test-side
    # quadrature on a corner-graded mesh (shape-varied, graded elements)
    @pytest.fixture(scope="class")
    def mesh(self):
        return corner_graded_lshape()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_local_blocks_match_quadrature(self, mesh, spec, p):
        smooth = smooth_solution_2d()
        form = formulation(spec, mesh, smooth.material, p, bc=bc_from_exact(smooth))
        blocks = assemble_local_blocks(form)
        refs = quadrature_blocks(form, form.quad_degree())
        for got, ref in zip((*field_trace_split(form, blocks.M[blocks.cls]), full_gram(blocks), blocks.l), refs):
            if ref.size:
                assert rel_err(got, ref) <= 1e-13

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_infsup_operators_match_quadrature(self, mesh, spec, p):
        q = p + 1
        desc = DESCRIPTORS[spec]
        B, GY, GX = _infsup_operators(desc, mesh, MAT, p, q)
        form = unbroken_formulation(desc, mesh, MAT, p, q)
        degree = 2 * (q + 1) + 2
        Bq, _, Gq, _ = quadrature_blocks(form, degree)
        elems = np.arange(mesh.num_triangles)
        tests = {n: form.test_spaces[n] for n, _ in desc.test_slots}
        fields = {n: form.field_spaces[n] for n, _ in desc.field_slots}
        test, trial = slot_layout(tests), slot_layout(fields)
        rows, tfree, ntest = element_dofs(tests, test, elems), test.free, test.ndof
        cols, ufree, ntrial = element_dofs(fields, trial, elems), trial.free, trial.ndof
        rule, wts, _ = element_quadrature(form.mesh.geometry, elems, degree)
        gx, off = [], 0
        for name, _ in desc.field_slots:
            space = form.field_spaces[name]
            s = slice(off, off + space.nloc)
            off += space.nloc
            gx.append((cols[:, s], cols[:, s], quadrature_gram(wts, volume_basis(space, elems, rule.points), desc.trial_norms[name]), None))
        for got, ref in (
            (B, scatter_blocks([(rows, cols, Bq)], (ntest, ntrial))[tfree][:, ufree]),
            (GY, scatter_blocks([(rows, rows, Gq)], (ntest, ntest))[tfree][:, tfree]),
            (GX, coo_oracle(gx, (ntrial, ntrial))[ufree][:, ufree]),
        ):
            assert rel_err(got.toarray(), ref.toarray()) <= 1e-13

    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_estimator_gram_matches_quadrature(self, mesh, spec):
        # the enriched test spaces of the estimator, order P_RES, on its rule
        desc, p = DESCRIPTORS[spec], 2
        tests = build_test_spaces(desc, mesh, p, P_RES - p)
        elems = np.arange(mesh.num_triangles)
        degree = 2 * P_RES + 2
        rule, wts, _ = element_quadrature(mesh.geometry, elems, degree)
        for name, space in tests.items():
            norm = desc.test_norms[name]
            ref = quadrature_gram(wts, volume_basis(space, elems, rule.points), norm)
            assert rel_err(padded_gram(gram_blocks(space, elems, degree, norm), row_copies(space)), ref) <= 1e-13


class TestScatterBlocks:
    def test_duplicate_entries_summed(self):
        dofs = np.array([[0, 1], [1, 2]])
        blocks = np.ones((2, 2, 2))
        K = scatter_blocks([(dofs, dofs, blocks)], (3, 3)).toarray()
        assert np.array_equal(K, [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])

    def test_rectangular_shape(self):
        rows = np.array([[0], [3]])
        cols = np.array([[1, 0], [0, 1]])
        blocks = np.array([[[2.0, 3.0]], [[5.0, 7.0]]])
        K = scatter_blocks([(rows, cols, blocks)], (4, 2))
        assert K.shape == (4, 2)
        assert np.array_equal(K.toarray(), [[3.0, 2.0], [0.0, 0.0], [0.0, 0.0], [5.0, 7.0]])

    def test_matches_dense_reference_over_several_triples(self):
        rng = np.random.default_rng(5)
        shape = (9, 7)
        triples = []
        for ne, m, n in ((4, 3, 3), (5, 2, 3), (3, 1, 3)):
            rows = rng.integers(shape[0], size=(ne, m))
            cols = rng.integers(shape[1], size=(ne, n))
            triples.append((rows, cols, rng.standard_normal((ne, m, n))))
        ref = np.zeros(shape)
        for rows, cols, blocks in triples:
            np.add.at(ref, (rows[:, :, None], cols[:, None, :]), blocks)
        K = scatter_blocks(triples, shape)
        assert np.abs(K.toarray() - ref).max() < 1e-14

    @pytest.mark.parametrize("transposed", [False, True])
    def test_single_triple_leaves_its_blocks_unchanged(self, transposed):
        # the blocks are read and never written, contiguous or strided
        rng = np.random.default_rng(6)
        rows, cols = rng.integers(5, size=(6, 3)), rng.integers(5, size=(6, 3))
        blocks = rng.standard_normal((6, 3, 3))
        if transposed:
            blocks = np.swapaxes(blocks, 1, 2)
        kept = blocks.copy()
        ref = np.zeros((5, 5))
        np.add.at(ref, (rows[:, :, None], cols[:, None, :]), blocks)
        K = scatter_blocks([(rows, cols, blocks)], (5, 5))
        assert np.abs(K.toarray() - ref).max() < 1e-14
        assert np.array_equal(blocks, kept)


def coo_oracle(triples, shape):
    """The sum of the triples by a COO to CSR conversion, every class
    block copied out to its elements first."""
    rows, cols, vals = [], [], []
    for r, c, b, cls in triples:
        b = b if cls is None else b[cls]
        rows.append(np.broadcast_to(r[:, :, None], b.shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], b.shape).ravel())
        vals.append(b.ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape).tocsr()


class TestClassScatter:
    # class blocks scattered straight into CSR give the COO conversion's matrix
    # bit for bit: the same entries, in the same order, with the same sums

    @staticmethod
    def assert_bitwise(K, ref):
        assert K.shape == ref.shape
        for got, want in ((K.indptr, ref.indptr), (K.indices, ref.indices), (K.data, ref.data)):
            assert np.array_equal(got, want)

    @staticmethod
    def assert_compact(K):
        assert len(K.data) == len(K.indices) == K.nnz
        assert K.data.base is None and K.indices.base is None

    def test_one_class_triple(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(40, size=(300, 6))
        triples = [(rows, rows, rng.standard_normal((4, 6, 6)), rng.integers(4, size=300))]
        K = scatter_blocks(triples, (40, 40))
        self.assert_bitwise(K, coo_oracle(triples, (40, 40)))
        self.assert_compact(K)

    def test_several_equal_width_triples(self):
        # the copies of a vector Gram, with a per-element triple among them
        rng = np.random.default_rng(12)
        dofs, cls = rng.integers(30, size=(50, 8)), rng.integers(3, size=50)
        triples = gram_copies(dofs, rng.standard_normal((3, 4, 4)), 2, cls)
        triples.append((dofs[:, :4], dofs[:, 4:], rng.standard_normal((50, 4, 4)), None))
        K = scatter_blocks(triples, (30, 30))
        self.assert_bitwise(K, coo_oracle(triples, (30, 30)))
        self.assert_compact(K)

    def test_mixed_widths_non_square(self):
        # triples of mixed row counts and class layouts, with the one column width a call takes
        rng = np.random.default_rng(13)
        shape = (17, 23)
        triples = []
        for ne, m, n, ncls in ((20, 3, 5, 2), (15, 4, 5, None), (10, 2, 5, 3)):
            rows, cols = rng.integers(shape[0], size=(ne, m)), rng.integers(shape[1], size=(ne, n))
            blocks = rng.standard_normal((ne if ncls is None else ncls, m, n))
            cls = None if ncls is None else rng.integers(ncls, size=ne)
            triples += [(rows, cols, blocks, cls), (rows, cols, -blocks, cls)]
        K = scatter_blocks(triples, shape)
        ref = coo_oracle(triples, shape)
        # the negated copies leave stored zeros and rounding residue, each set by the summation order
        assert np.any(ref.data == 0) and np.any(ref.data != 0)
        self.assert_bitwise(K, ref)
        self.assert_compact(K)

    def test_few_duplicates_leave_no_view(self):
        # 24 of 28 entries survive the sum, more than half: scipy keeps views of
        # the buffers there, and the arrays are copied out all the same
        rows = np.arange(12).reshape(6, 2)
        triples = [
            (rows, rows, np.arange(8.0).reshape(2, 2, 2), np.array([0, 1, 0, 1, 0, 1])),
            (rows[:1], rows[:1], np.ones((1, 2, 2)), None),
        ]
        K = scatter_blocks(triples, (12, 12))
        self.assert_bitwise(K, coo_oracle(triples, (12, 12)))
        assert K.nnz == 24
        self.assert_compact(K)

    @pytest.mark.parametrize("bad", ["col", "row", "class", "negative_class", "cls_length", "mixed_width"])
    def test_bad_index_raises(self, bad):
        # an id past the shape, or a class index past the blocks, would otherwise
        # leave an invalid matrix or read another triple's block; a call takes one
        # column width
        rows, cls = np.arange(6).reshape(3, 2), np.array([0, 1, 0])
        cols = rows.copy()
        if bad == "col":
            cols[2, 1] = 6
        elif bad == "row":
            rows[1, 0] = 6
        elif bad != "mixed_width":
            cls = {"class": np.array([0, 2, 0]), "negative_class": np.array([0, -1, 0]), "cls_length": cls[:2]}[bad]
        triples = [(rows, cols, np.ones((2, 2, 2)), cls), (rows, rows, np.ones((2, 2, 2)), np.zeros(3, int))]
        if bad == "mixed_width":
            triples.append((rows, rows[:, :1], np.ones((1, 2, 1)), np.zeros(3, int)))
        with pytest.raises(ValueError):
            scatter_blocks(triples, (6, 6))


class TestFreeIds:
    @pytest.mark.parametrize(
        "n, constrained",
        [(10, [7, 2, 2, 9, 0, 7]), (10, []), (10, np.empty(0, dtype=np.int64)), (0, []), (4, [3, 2, 1, 0]), (6, np.array([5, 1], dtype=np.int32))],
    )
    def test_matches_setdiff1d(self, n, constrained):
        # duplicate, unsorted and empty constrained ids, and an empty range
        free, ref = free_ids(n, constrained), np.setdiff1d(np.arange(n), constrained)
        assert free.dtype == ref.dtype
        assert np.array_equal(free, ref)


class TestTraceBlocks:
    def test_strong_zero_width(self):
        form = formulation("strong", build_square_mesh(2), MAT, 1)
        assert field_trace_split(form, assemble_local_blocks(form, [0]).M)[1][0].shape[1] == 0

    def test_constant_trace_against_constant_tensor(self):
        # <uhat, tau.n> for constant uhat and constant tau is
        # uhat . (boundary integral of tau n) = uhat . (int div tau) = 0
        m = build_square_mesh(2)
        form = formulation("ultraweak", m, MAT, 1)
        e = 2
        blocks = assemble_local_blocks(form, [e])
        tb = blocks.M[0]  # xhat below vanishes on the field columns
        # uhat == (1, 0): nodal trace dofs all 1 in the x component
        uh_cols = blocks.trial_slices["uhat"]
        nloc_e = form.trace_spaces["uhat"].edge_dofs.shape[1]
        xhat = np.zeros(tb.shape[1])
        base = uh_cols.start
        for k in range(base, base + 3 * nloc_e, 2):
            xhat[k] = 1.0
        # constant tau = identity tensor, projected onto the H(div) test basis
        class ConstTensor:
            def stress(self, pts):
                pts = np.asarray(pts, dtype=float)
                out = np.zeros(pts.shape[:-1] + (2, 2))
                out[..., 0, 0] = out[..., 1, 1] = 1.0
                return out

        tau_space = form.test_spaces["tau"]
        tau = interpolate(tau_space, ConstTensor())[tau_space.elt_dofs[e]]
        y = np.zeros(tb.shape[0])
        y[blocks.test_slices["tau"]] = tau
        assert abs(y @ tb @ xhat) < 1e-12

    def test_conforming_test_annihilated_by_free_traces(self):
        # summed pairing of an embedded conforming test function with any
        # admissible (unconstrained) trace dof vanishes
        m = build_lshape_mesh()
        form = formulation("primal", m, MAT, 2)
        shat = form.trace_spaces["shat"]
        layout = trial_layout(form)
        elems = np.arange(m.num_triangles)
        blocks = assemble_local_blocks(form, elems)
        gdofs = element_trial_dofs(form, layout, elems)

        # conforming H1 test member vanishing on Gamma0, embedded elementwise
        from dpgelast.spaces import h1_space

        conf = h1_space(m, form.p + form.dp, gamma0_constrained=True)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(conf.ndof)
        y[conf.constrained_dofs] = 0.0

        total = np.zeros(layout.ndof)
        for i, e in enumerate(elems):
            ye = y[conf.elt_dofs[e]]
            k = blocks.cls[i]
            total[gdofs[i]] += ye @ blocks.M[k]
        off = layout.offsets["shat"]
        free = np.setdiff1d(np.arange(shat.ndof), shat.constrained_dofs)
        assert np.abs(total[off + free]).max() < 1e-11


class TestLoads:
    def test_zero_data_zero_load(self):
        form = formulation("ultraweak", build_square_mesh(2), MAT, 1, bc=BCData())
        assert np.abs(assemble_local_blocks(form, [0]).l[0]).max() == 0.0

    def test_constant_force_constant_test_entry(self):
        # unit-area element, orthonormal constant test mode: entry = sqrt(area)
        m = build_square_mesh(1)
        form = formulation("strong", m, MAT, 1, bc=BCData(f=lambda p: np.broadcast_to([1.0, 0.0], np.asarray(p).shape)))
        blocks = assemble_local_blocks(form, [0])
        l = blocks.l[0][blocks.test_slices["v"]]
        area = m.areas()[0]
        # the first v mode is the constant 1/sqrt(area) in the x component
        assert abs(l[0] - np.sqrt(area)) < 1e-13
        assert np.abs(l[1:]).max() < 1e-13

    def test_smooth_load_matches_reference_quadrature(self, smooth):
        m = build_square_mesh(3)
        form = formulation("primal", m, MAT, 2, bc=bc_from_exact(smooth))
        e = 5
        blocks = assemble_local_blocks(form, [e])
        ref = assemble_local_blocks(form, [e], quad_degree=2 * form.quad_degree())
        assert np.abs(blocks.l[0] - ref.l[0]).max() < 1e-10


class TestFieldBlocks:
    def test_primal_rigid_translation_column_zero(self):
        form = formulation("primal", build_square_mesh(2), MAT, 2)
        blocks = assemble_local_blocks(form, [1])
        u_space = form.field_spaces["u"]
        c = np.zeros(u_space.nloc)
        c[0::2] = 1.0  # constant displacement (1, 0)
        assert np.abs(field_trace_split(form, blocks.M)[0][0] @ c).max() < 1e-13

    def test_ultraweak_skew_pairing_oracle(self):
        # (omega, tau) for constant skew omega and constant tau = area * omega:tau
        m = build_square_mesh(2)
        form = formulation("ultraweak", m, MAT, 1)
        e = 4
        blocks = assemble_local_blocks(form, [e])
        w = np.array([[0.0, 0.7], [-0.7, 0.0]])
        tau_mat = np.array([[0.2, 1.3], [-0.4, 0.5]])

        class WField:
            def displacement_gradient(self, pts):
                pts = np.asarray(pts, dtype=float)
                return np.broadcast_to(w, pts.shape[:-1] + (2, 2)).copy()

        class TField:
            def stress(self, pts):
                pts = np.asarray(pts, dtype=float)
                return np.broadcast_to(tau_mat, pts.shape[:-1] + (2, 2)).copy()

        omega_space = form.field_spaces["omega"]
        xw = interpolate(omega_space, WField())[omega_space.elt_dofs[e]]
        tau_space = form.test_spaces["tau"]
        ytau = interpolate(tau_space, TField())[tau_space.elt_dofs[e]]
        y = np.zeros(blocks.M.shape[1])
        y[blocks.test_slices["tau"]] = ytau
        got = y @ blocks.M[0][:, blocks.trial_slices["omega"]] @ xw
        area = m.areas()[e]
        expected = area * np.sum(w * tau_mat)
        assert abs(got - expected) < 1e-12

    def test_strong_weak_symmetry_rows(self):
        # symmetric polynomial stress interpolates exactly, so the skew
        # test rows annihilate it
        form = formulation("strong", build_square_mesh(2), MAT, 2)

        class SymField:
            def stress(self, pts):
                pts = np.asarray(pts, dtype=float)
                x, y = pts[..., 0], pts[..., 1]
                s = np.zeros(pts.shape[:-1] + (2, 2))
                s[..., 0, 0] = 1 + x
                s[..., 1, 1] = y
                s[..., 0, 1] = s[..., 1, 0] = x - 2 * y
                return s

        sig_space = form.field_spaces["sigma"]
        coeffs = interpolate(sig_space, SymField())
        blocks = assemble_local_blocks(form, np.arange(form.mesh.num_triangles))
        for i in range(form.mesh.num_triangles):
            xs = coeffs[sig_space.elt_dofs[i]]
            rows = blocks.M[blocks.cls[i]][blocks.test_slices["w"], blocks.trial_slices["sigma"]]
            assert np.abs(rows @ xs).max() < 1e-11


class TestConsistency:
    @pytest.mark.parametrize("spec", FORMULATION_IDS)
    def test_exact_interpolant_residual_decreases(self, spec, smooth):
        bc = bc_from_exact(smooth)
        norms = []
        m = build_square_mesh(2)
        for _ in range(2):
            form = formulation(spec, m, smooth.material, 2, bc=bc)
            x, layout = interpolant_vector(form, smooth)
            elems = np.arange(m.num_triangles)
            blocks = assemble_local_blocks(form, elems)
            gdofs = element_trial_dofs(form, layout, elems)
            M = blocks.M[blocks.cls]
            r = np.einsum("etm,em->et", M, x[gdofs]) - blocks.l
            norms.append(np.abs(r).max())
            m = uniform_refine(m)
        assert norms[0] < 3.0
        assert norms[1] < 0.3 * norms[0]


class TestTractionData:
    def test_hm12_gamma1_values_match_projection(self, smooth):
        # the singular benchmark drives nonzero tractions; check the
        # moment lifting against direct interpolation on a smooth field
        from dpgelast.exact_solutions import singular_solution

        sing = singular_solution()
        m = build_lshape_mesh()
        form = formulation("primal", m, sing.material, 2, bc=bc_from_exact(sing))
        shat = form.trace_spaces["shat"]
        direct = interpolate(shat, sing)
        assert len(shat.constrained_dofs) > 0
        assert np.abs(direct[shat.constrained_dofs] - shat.constrained_values).max() < 1e-10
