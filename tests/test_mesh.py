"""Mesh construction, refinement, and skeleton tests."""

import hashlib

import numpy as np
import pytest

from dpgelast.mesh import (
    GAMMA0,
    GAMMA1,
    Mesh,
    build_square_mesh,
    build_lshape_mesh,
    refine,
    uniform_refine,
    skeleton,
    find_hanging_vertices,
    write_vtk,
)
from dpgelast.quadrature import triangle_rule


def test_square_n1_counts():
    m = build_square_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5
    assert len(m.boundary_tags) == 4
    assert all(t == GAMMA0 for t in m.boundary_tags.values())


def test_square_n2_counts():
    m = build_square_mesh(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_square_euler(n):
    m = build_square_mesh(n)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    assert abs(m.areas().sum() - 1.0) < 1e-13


def test_square_rejects_zero():
    with pytest.raises(ValueError):
        build_square_mesh(0)


def test_lshape_basics():
    m = build_lshape_mesh()
    assert abs(m.areas().sum() - 3.0) < 1e-13
    assert m.num_vertices - m.num_edges + m.num_triangles == 1
    g0_len = 0.0
    for (a, b), tag in m.boundary_tags.items():
        if tag == GAMMA0:
            g0_len += np.linalg.norm(m.vertices[a] - m.vertices[b])
            mid = 0.5 * (m.vertices[a] + m.vertices[b])
            on_vertical = abs(mid[0]) < 1e-12 and mid[1] > 0
            on_horizontal = abs(mid[1]) < 1e-12 and mid[0] < 0
            assert on_vertical or on_horizontal
    assert abs(g0_len - 2.0) < 1e-13


def test_lshape_has_corner_vertex():
    m = build_lshape_mesh(2)
    d = np.linalg.norm(m.vertices, axis=1)
    assert d.min() < 1e-14
    assert abs(m.areas().sum() - 3.0) < 1e-13


def test_refine_empty_is_identity():
    m = build_square_mesh(2)
    assert refine(m, set()) is m


def test_refine_all():
    m = build_square_mesh(2)
    r = refine(m, range(m.num_triangles))
    assert r.num_triangles >= 2 * m.num_triangles
    assert not find_hanging_vertices(r)
    assert abs(r.areas().sum() - 1.0) < 1e-13


def test_refine_single_conforming():
    m = build_square_mesh(2)
    r = refine(m, {0})
    assert not find_hanging_vertices(r)
    assert r.num_triangles > m.num_triangles
    assert abs(r.areas().sum() - 1.0) < 1e-13


def test_edge_flips_and_classes_built_on_first_use_and_kept(tmp_path):
    # dump-mesh builds, refines and writes a mesh, and none of its element facts
    m = uniform_refine(build_lshape_mesh(2))
    write_vtk(m, tmp_path / "mesh.vtk")
    assert not {"geometry", "skeleton", "edge_flips", "classes"} & set(vars(m))
    flips, cls = m.edge_flips, m.classes
    assert m.edge_flips is flips and m.classes is cls
    # local edge k runs from vertex k to vertex k+1, the global one from its lower vertex
    assert np.array_equal(flips, m.triangles > np.roll(m.triangles, -1, axis=1))


def test_geometry_is_built_on_first_use_and_kept():
    # building and refining never form the affine maps, which hold about
    # 96 bytes per triangle
    m = refine(build_lshape_mesh(2), [0])
    assert "geometry" not in vars(m)
    g = m.geometry
    assert m.geometry is g
    assert np.array_equal(g.det, 2 * m.areas())
    assert np.array_equal(g.origin + g.J[:, :, 0], m.triangle_vertices()[:, 1])


@pytest.mark.parametrize("degree", [4, 10, 16])
def test_to_physical_matches_einsum_bitwise(degree):
    # origin + J xref as two broadcast products, on the converge meshes and an L-shape
    pts = triangle_rule(degree).points
    m = build_square_mesh(2)
    meshes = [m, build_lshape_mesh(4)]
    for _ in range(4):
        m = uniform_refine(m)
        meshes.append(m)
    for m in meshes:
        g, elems = m.geometry, np.arange(0, m.num_triangles, 3)
        assert np.array_equal(g.to_physical(pts), g.origin[:, None, :] + np.einsum("eij,qj->eqi", g.J, pts))
        assert np.array_equal(g.to_physical(pts, elems), g.origin[elems][:, None, :] + np.einsum("eij,qj->eqi", g.J[elems], pts))


def test_uniform_refine_quarters():
    m = build_square_mesh(2)
    r = uniform_refine(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert not find_hanging_vertices(r)
    # every triangle halves its diameter, so min angle is preserved exactly
    assert abs(r.min_angle() - m.min_angle()) < 1e-12


def test_random_refinement_stays_conforming_and_shape_regular():
    rng = np.random.default_rng(11)
    m = build_square_mesh(2)
    angle_floor = m.min_angle() / 2.0 - 1e-12
    for _ in range(20):
        k = int(rng.integers(1, min(m.num_triangles, 8) + 1))
        marked = rng.choice(m.num_triangles, size=k, replace=False)
        m = refine(m, marked)
        assert m.min_angle() > angle_floor
    assert not find_hanging_vertices(m)
    assert abs(m.areas().sum() - 1.0) < 1e-12


def test_boundary_tags_inherited():
    m = build_lshape_mesh()
    for _ in range(3):
        m = refine(m, range(m.num_triangles))
    for (a, b), tag in m.boundary_tags.items():
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        x, y = mid
        reentrant = (abs(x) < 1e-12 and y > 0) or (abs(y) < 1e-12 and x < 0)
        assert tag == (GAMMA0 if reentrant else GAMMA1)


def test_skeleton_square_n1():
    m = build_square_mesh(1)
    sk = skeleton(m)
    assert len(sk.normals) == 5
    interior = [eid for eid in range(m.num_edges) if m.edge_tris[eid, 1] != -1]
    assert len(interior) == 1
    assert np.allclose(np.linalg.norm(sk.normals, axis=1), 1.0, atol=1e-14)
    assert np.allclose(np.linalg.norm(sk.tangents, axis=1), 1.0, atol=1e-14)
    # normals are perpendicular to their edges
    assert np.allclose(np.sum(sk.normals * sk.tangents, axis=1), 0.0, atol=1e-14)


def test_skeleton_incidence_count():
    m = build_square_mesh(3)
    n_interior = sum(1 for e in m.edge_tris if e[1] != -1)
    n_boundary = sum(1 for e in m.edge_tris if e[1] == -1)
    assert 3 * m.num_triangles == 2 * n_interior + n_boundary


def test_skeleton_signs_opposite_on_interior_edges():
    m = build_square_mesh(2)
    sk = skeleton(m)
    for eid in range(m.num_edges):
        t0, t1 = m.edge_tris[eid]
        locs0 = [l for l in range(3) if m.tri_edges[t0, l] == eid]
        assert sk.tri_signs[t0, locs0[0]] == 1
        if t1 != -1:
            locs1 = [l for l in range(3) if m.tri_edges[t1, l] == eid]
            assert sk.tri_signs[t1, locs1[0]] == -1


def test_outward_normal_on_boundary():
    m = build_square_mesh(1)
    sk = skeleton(m)
    for eid in m.boundary_edge_ids():
        a, b = m.edges[eid]
        mid = 0.5 * (m.vertices[a] + m.vertices[b])
        outward_ref = mid - np.array([0.5, 0.5])
        assert np.dot(sk.normals[eid], outward_ref) > 0


def test_vtk_dump(tmp_path):
    m = build_square_mesh(2)
    path = tmp_path / "mesh.vtk"
    write_vtk(m, path, cell_data={"eta": np.arange(m.num_triangles, dtype=float)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 2.0")
    assert f"POINTS {m.num_vertices} double" in text
    assert f"CELLS {m.num_triangles}" in text
    assert "SCALARS eta double 1" in text


def test_vtk_matches_per_line_formatting(tmp_path):
    m = refine(build_square_mesh(3), [0, 3])  # thirds need all 17 digits
    eta = np.sqrt(np.arange(m.num_triangles) + 0.1)
    eta[0] = 0.1 + 0.2  # needs all 17 significant digits
    path = tmp_path / "mesh.vtk"
    write_vtk(m, path, cell_data={"eta": eta})
    nt = m.num_triangles
    expected = [
        "# vtk DataFile Version 2.0",
        f"triangle mesh generation {m.generation}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {m.num_vertices} double",
        *(f"{x:.17g} {y:.17g} 0" for x, y in m.vertices),
        f"CELLS {nt} {4 * nt}",
        *(f"3 {a} {b} {c}" for a, b, c in m.triangles),
        f"CELL_TYPES {nt}",
        *["5"] * nt,
        f"CELL_DATA {nt}",
        "SCALARS eta double 1",
        "LOOKUP_TABLE default",
        *(f"{float(v):.17g}" for v in eta),
    ]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert float(path.read_text().splitlines()[-nt]) == 0.1 + 0.2


def row_by_row_write_vtk(mesh, path, cell_data=None):
    """The writer write_vtk replaced: one formatted string per row."""
    lines = [
        "# vtk DataFile Version 2.0",
        f"triangle mesh generation {mesh.generation}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    lines.extend(["%.17g %.17g 0" % (x, y) for x, y in mesh.vertices.tolist()])
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines.extend(["3 %d %d %d" % (a, b, c) for a, b, c in mesh.triangles.tolist()])
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    if cell_data:
        lines.append(f"CELL_DATA {nt}")
        for name, arr in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(["%.17g" % v for v in np.asarray(arr, dtype=float).tolist()])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def vtk_cases():
    lshape = build_lshape_mesh(2)
    for _ in range(3):
        lshape = uniform_refine(lshape)
    lshape = refine(lshape, range(0, lshape.num_triangles, 7))
    rng = np.random.default_rng(5)
    eta = {"eta": rng.random(lshape.num_triangles), "level": np.arange(lshape.num_triangles) % 5}
    thirds = refine(build_square_mesh(3), [0, 3])  # thirds print all 17 digits
    return {"lshape_cell_data": (lshape, eta), "non_dyadic": (thirds, None), "empty_cell_data": (thirds, {})}


@pytest.mark.parametrize("case", ["lshape_cell_data", "non_dyadic", "empty_cell_data"])
def test_vtk_bytes_match_row_by_row_writer(tmp_path, case):
    m, cell_data = vtk_cases()[case]
    write_vtk(m, tmp_path / "new.vtk", cell_data=cell_data)
    row_by_row_write_vtk(m, tmp_path / "old.vtk", cell_data=cell_data)
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


# ---------------------------------------------------------------------------
# The array-based connectivity and refinement against recorded meshes and an
# independent per-triangle reference.


def mesh_digest(m):
    """sha256 of a mesh up to vertex renumbering.

    Hashes the vertex coordinates sorted lexicographically, then every
    triangle in order as its coordinate triple, then the boundary tags as
    (sorted coordinate pair, tag) entries in sorted order.
    """
    h = hashlib.sha256()
    v = m.vertices
    h.update(np.ascontiguousarray(v[np.lexsort((v[:, 1], v[:, 0]))]).tobytes())
    h.update(np.ascontiguousarray(v[m.triangles]).tobytes())
    pairs = sorted(
        (*sorted((tuple(v[a].tolist()), tuple(v[b].tolist()))), tag)
        for (a, b), tag in m.boundary_tags.items()
    )
    for p, q, tag in pairs:
        h.update(np.array(p + q).tobytes())
        h.update(tag.encode())
    return h.hexdigest()


def lshape_uniform3():
    m = build_lshape_mesh(2)
    for _ in range(3):
        m = uniform_refine(m)
    return m


def square_random20():
    rng = np.random.default_rng(11)
    m = build_square_mesh(2)
    for _ in range(20):
        k = int(rng.integers(1, min(m.num_triangles, 8) + 1))
        m = refine(m, rng.choice(m.num_triangles, size=k, replace=False))
    return m


# Recorded from the per-triangle Python implementation this module replaced.
RECORDED = {
    lshape_uniform3: (833, 1536, "9b09235de710d0d70f894a938adf0b8655449e0d96f2140f8619855983124b02"),
    square_random20: (114, 202, "ca832ea942097e29a5b3bab3fabc0add68b746ef759471cee604185147ec7eed"),
}


@pytest.mark.parametrize("build", list(RECORDED), ids=lambda f: f.__name__)
def test_refined_mesh_matches_recorded(build):
    m = build()
    nv, nt, digest = RECORDED[build]
    assert (m.num_vertices, m.num_triangles) == (nv, nt)
    assert mesh_digest(m) == digest


def reference_connectivity(mesh):
    """Edges numbered by first appearance, one triangle at a time."""
    index, edges, edge_tris = {}, [], []
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for t, tri in enumerate(mesh.triangles.tolist()):
        for loc in range(3):
            key = tuple(sorted((tri[loc], tri[(loc + 1) % 3])))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
                edge_tris.append([t, -1])
            else:
                edge_tris[index[key]][1] = t
            tri_edges[t, loc] = index[key]
    return np.array(edges), np.array(edge_tris), tri_edges


def reference_skeleton(mesh):
    """Fixed normals out of each edge's first triangle, signs by dot product."""
    verts, tris = mesh.vertices, mesh.triangles
    normals = np.empty((mesh.num_edges, 2))
    for eid, (a, b) in enumerate(mesh.edges):
        tri = tris[mesh.edge_tris[eid, 0]]
        k = [i for i in range(3) if tri[i] not in (a, b)][0]
        d = verts[tri[(k + 2) % 3]] - verts[tri[(k + 1) % 3]]
        n = np.array([d[1], -d[0]])
        normals[eid] = n / np.linalg.norm(n)
    signs = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for t, tri in enumerate(tris):
        for loc in range(3):
            d = verts[tri[(loc + 1) % 3]] - verts[tri[loc]]
            outward = np.array([d[1], -d[0]])
            signs[t, loc] = 1 if outward @ normals[mesh.tri_edges[t, loc]] > 0 else -1
    return normals, signs


@pytest.mark.parametrize("build", list(RECORDED), ids=lambda f: f.__name__)
def test_connectivity_and_skeleton_match_reference_loop(build):
    m = build()
    edges, edge_tris, tri_edges = reference_connectivity(m)
    assert np.array_equal(m.edges, edges)
    assert np.array_equal(m.edge_tris, edge_tris)
    assert np.array_equal(m.tri_edges, tri_edges)
    sk = skeleton(m)
    normals, signs = reference_skeleton(m)
    assert np.array_equal(sk.normals, normals)
    assert np.array_equal(sk.tri_signs, signs)
    vecs = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
    assert np.array_equal(sk.lengths, np.linalg.norm(vecs, axis=1))
    assert np.array_equal(sk.tangents, vecs / sk.lengths[:, None])
    boundary = [e for e in range(m.num_edges) if edge_tris[e, 1] == -1]
    assert m.boundary_edge_ids().tolist() == boundary
    for tag in (GAMMA0, GAMMA1):
        expected = [e for e in boundary if m.boundary_tags[tuple(edges[e].tolist())] == tag]
        assert m.boundary_edge_ids(tag).tolist() == expected


def test_deep_lshape_refinement_stays_conforming():
    m = build_lshape_mesh(2)
    for _ in range(5):
        m = uniform_refine(m)
    assert m.num_triangles >= 24576
    for _ in range(5):
        r = np.linalg.norm(m.vertices[m.triangles].mean(axis=1), axis=1)
        m = refine(m, np.nonzero(r < 4 * r.min())[0])
    assert m.generation == 15
    assert not find_hanging_vertices(m)
    assert abs(m.areas().sum() - 3.0) < 1e-12
    sk = skeleton(m)
    t0, t1 = m.edge_tris.T
    interior = np.nonzero(t1 != -1)[0]
    loc0 = np.argmax(m.tri_edges[t0[interior]] == interior[:, None], axis=1)
    loc1 = np.argmax(m.tri_edges[t1[interior]] == interior[:, None], axis=1)
    assert np.all(sk.tri_signs[t0[interior], loc0] == 1)
    assert np.all(sk.tri_signs[t1[interior], loc1] == -1)


def hanging_mesh(s=0.5):
    """Unit square whose lower-right triangle is split at (s, s) on the
    diagonal while the upper-left one is not: that vertex hangs on
    triangle 1."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [s, s]])
    tris = np.array([[1, 2, 4], [0, 2, 3], [0, 1, 4]])
    return verts, tris


@pytest.mark.parametrize("s", [0.5, 0.1, 0.9])
def test_find_hanging_vertices_reports_vertex_on_edge(s):
    verts, tris = hanging_mesh(s)
    tags = dict.fromkeys([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 4), (0, 4)], GAMMA0)
    m = Mesh(vertices=verts, triangles=tris, boundary_tags=tags)
    assert find_hanging_vertices(m) == [(4, 1)]


def test_hanging_vertex_rejected_without_tags_on_its_edges():
    verts, tris = hanging_mesh()
    tags = {(0, 1): GAMMA0, (1, 2): GAMMA0, (2, 3): GAMMA0, (0, 3): GAMMA0}
    with pytest.raises(ValueError, match="boundary tags"):
        Mesh(vertices=verts, triangles=tris, boundary_tags=tags)


def test_edge_with_three_triangles_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="more than two incident triangles"):
        Mesh(vertices=verts, triangles=tris, boundary_tags={})


def test_clockwise_triangle_rejected():
    m = build_square_mesh(1)
    with pytest.raises(ValueError, match="counterclockwise"):
        Mesh(vertices=m.vertices, triangles=m.triangles[:, ::-1], boundary_tags=m.boundary_tags)


def test_unknown_tag_rejected():
    m = build_square_mesh(1)
    tags = dict.fromkeys(m.boundary_tags, "g2")
    with pytest.raises(ValueError, match="unknown boundary tag"):
        Mesh(vertices=m.vertices, triangles=m.triangles, boundary_tags=tags)


@pytest.mark.parametrize("marked", [[-1], [8], [0, 99]])
def test_refine_rejects_invalid_ids(marked):
    with pytest.raises(ValueError, match="invalid triangle ids"):
        refine(build_square_mesh(2), marked)
