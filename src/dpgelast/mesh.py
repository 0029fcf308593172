"""Conforming triangle meshes with newest-vertex bisection refinement.

Triangles are stored as index triples (a, b, c) in counterclockwise
orientation where (a, b) is the refinement edge and c is the newest
vertex. Bisection inserts the midpoint m of (a, b) and produces the
children (c, a, m) and (b, c, m), which preserves orientation and the
newest-vertex bookkeeping. A marked-edge closure pass keeps the mesh
conforming (no hanging vertices).

Boundary edges carry one of two tags: "g0" (displacement boundary) or
"g1" (traction boundary). Tags are inherited by the child halves of a
split boundary edge and never change class.

Every element is affine; the mesh owns their maps (Mesh.geometry) and its
skeleton (Mesh.skeleton), each built on first use and shared by every
space and formulation on the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

GAMMA0 = "g0"
GAMMA1 = "g1"


def _connectivity(tris: np.ndarray):
    """Edge numbering of a triangle array, by first appearance.

    Local edge k of triangle t runs from tris[t, k] to tris[t, (k + 1) % 3];
    edges are numbered in the order their first copy appears when the
    local edges are read triangle by triangle. Returns edges (ne, 2) as
    sorted vertex pairs, edge_tris (ne, 2) holding the first and second
    incident triangle (-1 where there is none) and tri_edges (nt, 3).
    """
    nt = len(tris)
    ends = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
    ends.sort(axis=1)
    stride = int(ends.max()) + 1 if nt else 1
    _, first, inverse = np.unique(
        ends[:, 0] * stride + ends[:, 1], return_index=True, return_inverse=True
    )
    counts = np.bincount(inverse, minlength=len(first))
    if np.any(counts > 2):
        key = tuple(ends[first[np.argmax(counts > 2)]].tolist())
        raise ValueError(f"edge {key} has more than two incident triangles")
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    flat_eid = rank[inverse]
    edge_tris = np.full((len(order), 2), -1, dtype=np.int64)
    edge_tris[:, 0] = first[order] // 3
    second = np.nonzero(first[inverse] != np.arange(3 * nt))[0]
    edge_tris[flat_eid[second], 1] = second // 3
    return ends[first[order]], edge_tris, flat_eid.reshape(nt, 3)


@dataclass(frozen=True)
class Geometry:
    """Affine maps of all elements: x = origin + J xref."""

    origin: np.ndarray  # (nelt, 2)
    J: np.ndarray  # (nelt, 2, 2)
    Jinv: np.ndarray
    det: np.ndarray  # (nelt,), positive
    hscale: np.ndarray  # (nelt,), sqrt of twice the area

    def to_physical(self, ref, elems=slice(None)) -> np.ndarray:
        """Physical points (nelt, nq, 2) of reference points ref (nq, 2) on elems."""
        J = self.J[elems][:, None]
        return self.origin[elems][:, None] + (J[..., 0] * ref[:, :1] + J[..., 1] * ref[:, 1:])


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming triangle mesh.

    vertices: (nv, 2) float array.
    triangles: (nt, 3) int array, rows (a, b, c): CCW, refinement edge (a, b).
    boundary_tags: {sorted vertex pair: tag} for every boundary edge.
    generation: refinement round counter (root mesh is generation 0).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_tags: dict
    generation: int = 0
    # derived connectivity, filled in __post_init__
    edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        edges, edge_tris, tri_edges = _connectivity(tris)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_tris", edge_tris)
        object.__setattr__(self, "tri_edges", tri_edges)
        self._validate()

    def _validate(self):
        v = self.vertices[self.triangles]
        cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
            v[:, 1, 1] - v[:, 0, 1]
        ) * (v[:, 2, 0] - v[:, 0, 0])
        if np.any(cross <= 0):
            bad = int(np.argmin(cross))
            raise ValueError(f"triangle {bad} is not counterclockwise (signed area {cross[bad] / 2})")
        # a hanging vertex leaves an unmatched edge pair on the boundary set
        boundary = set(map(tuple, self.edges[self.edge_tris[:, 1] == -1].tolist()))
        tagged = set(self.boundary_tags)
        if boundary != tagged:
            raise ValueError(
                "boundary tags do not cover the boundary edge set: "
                f"missing {sorted(boundary - tagged)}, extra {sorted(tagged - boundary)}"
            )
        for tag in self.boundary_tags.values():
            if tag not in (GAMMA0, GAMMA1):
                raise ValueError(f"unknown boundary tag {tag!r}")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def triangle_vertices(self) -> np.ndarray:
        """Coordinates of all triangles, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    @cached_property
    def geometry(self) -> Geometry:
        """The affine maps of the elements, built on first use."""
        verts = self.triangle_vertices()
        J = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        Jinv = np.empty_like(J)
        Jinv[:, 0, 0] = J[:, 1, 1] / det
        Jinv[:, 0, 1] = -J[:, 0, 1] / det
        Jinv[:, 1, 0] = -J[:, 1, 0] / det
        Jinv[:, 1, 1] = J[:, 0, 0] / det
        return Geometry(origin=verts[:, 0], J=J, Jinv=Jinv, det=det, hscale=np.sqrt(np.abs(det)))

    @cached_property
    def skeleton(self) -> Skeleton:
        """The skeleton of the mesh, built on first use."""
        # the builder is looked up by name, so a wrapper bound in its place sees every build
        return skeleton(self)

    def areas(self) -> np.ndarray:
        return 0.5 * np.abs(self.geometry.det)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in radians."""
        v = self.triangle_vertices()
        angles = []
        for k in range(3):
            a = v[:, (k + 1) % 3] - v[:, k]
            b = v[:, (k + 2) % 3] - v[:, k]
            dot = np.sum(a * b, axis=1)
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            angles.append(np.arccos(np.clip(dot / (na * nb), -1.0, 1.0)))
        return float(np.min(angles))

    def boundary_edge_ids(self, tag=None) -> np.ndarray:
        ids = np.nonzero(self.edge_tris[:, 1] == -1)[0]
        if tag is None:
            return ids
        keep = [self.boundary_tags[key] == tag for key in map(tuple, self.edges[ids].tolist())]
        return ids[np.array(keep, dtype=bool)]


@dataclass(frozen=True)
class Skeleton:
    """Edge set of a mesh viewed as the trace domain.

    normals[e] is the fixed unit normal of edge e, pointing out of the
    lower-indexed incident triangle. tangents[e] points from the
    lower-numbered vertex to the higher-numbered one; lengths[e] is the
    edge length. tri_signs has shape (nt, 3): +1 where the element's
    outward normal on its local edge agrees with the fixed normal.
    """

    normals: np.ndarray
    tangents: np.ndarray
    lengths: np.ndarray
    tri_signs: np.ndarray


def skeleton(mesh: Mesh) -> Skeleton:
    """Extract the skeleton with the fixed-normal convention."""
    verts = mesh.vertices
    edges = mesh.edges
    vecs = verts[edges[:, 1]] - verts[edges[:, 0]]
    lengths = np.linalg.norm(vecs, axis=1)
    tangents = vecs / lengths[:, None]
    # outward normal of the CCW triangle t0 along its own directed copy of the edge
    t0 = mesh.edge_tris[:, 0]
    loc = np.argmax(mesh.tri_edges[t0] == np.arange(len(edges))[:, None], axis=1)
    d = verts[mesh.triangles[t0, (loc + 1) % 3]] - verts[mesh.triangles[t0, loc]]
    outward = np.stack([d[:, 1], -d[:, 0]], axis=1)
    normals = outward / np.linalg.norm(outward, axis=1)[:, None]
    # the fixed normal is t0's outward normal, so only t0 sees +1 on the edge
    owner = mesh.edge_tris[mesh.tri_edges, 0] == np.arange(mesh.num_triangles)[:, None]
    tri_signs = np.where(owner, 1, -1)
    return Skeleton(normals=normals, tangents=tangents, lengths=lengths, tri_signs=tri_signs)


def _set_refinement_edges(vertices, triangles):
    """Rotate each triangle's vertex order so the longest edge is (a, b).

    Rotations preserve orientation. Used only on root meshes; refined
    meshes inherit refinement edges from the bisection rule.
    """
    out = []
    for tri in triangles:
        best, best_len = 0, -1.0
        for loc in range(3):
            i, j = tri[loc], tri[(loc + 1) % 3]
            ln = np.linalg.norm(vertices[i] - vertices[j])
            if ln > best_len + 1e-14:
                best, best_len = loc, ln
        out.append([tri[best], tri[(best + 1) % 3], tri[(best + 2) % 3]])
    return np.array(out, dtype=np.int64)


def _mesh_from_cells(vertices, triangles, tag_fn):
    vertices = np.asarray(vertices, dtype=float)
    tris = []
    for a, b, c in triangles:
        v = vertices[[a, b, c]]
        cross = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        tris.append([a, b, c] if cross > 0 else [a, c, b])
    tris = _set_refinement_edges(vertices, np.array(tris, dtype=np.int64))
    edges, edge_tris, _ = _connectivity(tris)
    tags = {}
    for i, j in edges[edge_tris[:, 1] == -1].tolist():
        tags[(i, j)] = tag_fn(0.5 * (vertices[i] + vertices[j]))
    return Mesh(vertices=vertices, triangles=tris, boundary_tags=tags, generation=0)


def build_square_mesh(n: int) -> Mesh:
    """Uniform mesh of the unit square: n x n cells, two triangles each.

    The whole boundary is tagged as displacement boundary (Gamma0).
    """
    if n < 1:
        raise ValueError(f"subdivision count must be at least 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    vid = lambda i, j: j * (n + 1) + i
    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return _mesh_from_cells(verts, cells, lambda mid: GAMMA0)


def build_lshape_mesh(n: int = 1) -> Mesh:
    """L-shaped domain of area 3 with the re-entrant corner at the origin.

    The domain is the union of the three unit squares (0,1)x(0,1),
    (0,1)x(-1,0), and (-1,0)x(-1,0); the missing quadrant is x<0, y>0.
    The two boundary runs meeting at the re-entrant corner ({0}x[0,1] and
    [-1,0]x{0}) are the displacement boundary Gamma0; the rest of the
    boundary carries traction data (Gamma1). n subdivides each square
    into n x n cells.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be at least 1, got {n}")
    h = 1.0 / n
    coords = {}
    verts = []

    def vid(i, j):
        key = (i, j)
        if key not in coords:
            coords[key] = len(verts)
            verts.append([i * h, j * h])
        return coords[key]

    cells = []
    for i0 in range(-n, n):
        for j0 in range(-n, n):
            # skip cells in the missing quadrant x < 0, y > 0
            if i0 < 0 and j0 >= 0:
                continue
            v00, v10 = vid(i0, j0), vid(i0 + 1, j0)
            v01, v11 = vid(i0, j0 + 1), vid(i0 + 1, j0 + 1)
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])

    def tag(mid):
        x, y = mid
        on_reentrant = (abs(x) < 1e-12 and y > 0) or (abs(y) < 1e-12 and x < 0)
        return GAMMA0 if on_reentrant else GAMMA1

    return _mesh_from_cells(np.array(verts), cells, tag)


def refine(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked triangles plus the minimal conforming closure.

    Every marked triangle is split at least once; triangles not forced by
    the closure survive unchanged. Returns a new mesh with generation + 1.
    Midpoints are numbered in the parent's edge order and each triangle's
    children (one to four) take its place in the triangle order.
    """
    ids = np.fromiter(marked, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.num_triangles):
        raise ValueError("marked set contains invalid triangle ids")
    if not ids.size:
        return mesh

    tri_edges = mesh.tri_edges
    ref_edge = tri_edges[:, 0]
    split = np.zeros(mesh.num_edges, dtype=bool)
    split[ref_edge[ids]] = True
    # closure: any triangle touching a marked edge must have its own
    # refinement edge marked too; iterate to a fixed point
    while True:
        forced = split[tri_edges].any(axis=1) & ~split[ref_edge]
        if not forced.any():
            break
        split[ref_edge[forced]] = True

    split_ids = np.nonzero(split)[0]
    ends = mesh.edges[split_ids]
    verts = np.vstack(
        [mesh.vertices, 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])]
    )
    midpoint = np.full(mesh.num_edges, -1, dtype=np.int64)
    midpoint[split_ids] = mesh.num_vertices + np.arange(len(split_ids))

    # (a, b, c) with midpoints m, m1, m2 of its edges (a, b), (b, c), (c, a):
    # bisection gives (c, a, m) and (b, c, m), and each half is bisected
    # once more at the midpoint of its own refinement edge (c, a) or (b, c)
    a, b, c = mesh.triangles.T
    m, m1, m2 = midpoint[tri_edges].T
    has0, has1, has2 = split[tri_edges].T
    slots = np.empty((mesh.num_triangles, 4, 3), dtype=np.int64)
    slots[:, 0] = np.where(has2[:, None], np.stack([m, c, m2], 1), np.stack([c, a, m], 1))
    slots[:, 1] = np.stack([a, m, m2], 1)
    slots[:, 2] = np.where(has1[:, None], np.stack([m, b, m1], 1), np.stack([b, c, m], 1))
    slots[:, 3] = np.stack([c, m, m1], 1)
    slots[~has0, 0] = mesh.triangles[~has0]
    # the closure marks (a, b) wherever (b, c) or (c, a) is marked
    keep = np.stack([np.ones_like(has0), has2, has0, has1], axis=1)

    tags = {}
    bnd = mesh.boundary_edge_ids()
    for (i, j), mid in zip(mesh.edges[bnd].tolist(), midpoint[bnd].tolist()):
        tag = mesh.boundary_tags[(i, j)]
        if mid < 0:
            tags[(i, j)] = tag
        else:
            tags[(i, mid)] = tag
            tags[(j, mid)] = tag
    return Mesh(
        vertices=verts,
        triangles=slots[keep],
        boundary_tags=tags,
        generation=mesh.generation + 1,
    )


def uniform_refine(mesh: Mesh) -> Mesh:
    """Halve the mesh size: two rounds of bisecting every triangle."""
    once = refine(mesh, range(mesh.num_triangles))
    return refine(once, range(once.num_triangles))


def find_hanging_vertices(mesh: Mesh):
    """Scan for hanging vertices; empty list means conforming.

    A vertex hangs if it lies strictly inside some triangle's edge. Such a
    vertex is within half the edge length (plus the perpendicular tolerance)
    of the edge midpoint, so only the vertices a k-d tree finds in that
    ball are tested.
    """
    # imported here: no study calls this check, and scipy.spatial would add
    # to the import time of every process that loads the mesh module
    from scipy.spatial import cKDTree

    verts = mesh.vertices
    tris = mesh.triangles
    tree = cKDTree(verts)
    hanging = []
    for loc in range(3):
        p = verts[tris[:, loc]]  # (nt, 2)
        q = verts[tris[:, (loc + 1) % 3]]
        d = q - p
        ln2 = np.sum(d * d, axis=1)
        near = tree.query_ball_point(0.5 * (p + q), 0.5 * np.sqrt(ln2) * (1 + 1e-9) + 1e-12)
        counts = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
        t = np.repeat(np.arange(len(tris)), counts)
        v = np.fromiter(chain.from_iterable(near), dtype=np.int64, count=int(counts.sum()))
        # parameter and distance of every candidate vertex along its edge
        rel0 = verts[v, 0] - p[t, 0]
        rel1 = verts[v, 1] - p[t, 1]
        s = (rel0 * d[t, 0] + rel1 * d[t, 1]) / ln2[t]
        perp = np.abs(rel0 * d[t, 1] - rel1 * d[t, 0]) / np.sqrt(ln2)[t]
        on_edge = (s > 1e-9) & (s < 1 - 1e-9) & (perp < 1e-12)
        t, v = t[on_edge], v[on_edge]
        order = np.lexsort((v, t))
        for tt, vv in zip(t[order].tolist(), v[order].tolist()):
            if vv not in tris[tt]:
                hanging.append((vv, tt))
    return hanging


def write_vtk(mesh: Mesh, path, cell_data=None):
    """Dump the mesh in legacy-VTK ASCII layout, 17 significant digits.

    cell_data is an optional {name: per-triangle array} mapping.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    parts = [
        "# vtk DataFile Version 2.0\n"
        f"triangle mesh generation {mesh.generation}\n"
        "ASCII\n"
        "DATASET UNSTRUCTURED_GRID\n"
        f"POINTS {nv} double\n",
        ("%.17g %.17g 0\n" * nv) % tuple(mesh.vertices.ravel().tolist()),
        f"CELLS {nt} {4 * nt}\n",
        ("3 %d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist()),
        f"CELL_TYPES {nt}\n",
        "5\n" * nt,
    ]
    if cell_data:
        parts.append(f"CELL_DATA {nt}\n")
        for name, arr in cell_data.items():
            values = np.asarray(arr, dtype=float).ravel().tolist()
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append(("%.17g\n" * len(values)) % tuple(values))
    with open(path, "w") as fh:
        fh.write("".join(parts))
