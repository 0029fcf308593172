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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GAMMA0 = "g0"
GAMMA1 = "g1"


def _edge_key(i: int, j: int):
    return (i, j) if i < j else (j, i)


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
    edge_index: dict = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        edge_index = {}
        edges = []
        edge_tris = []
        tri_edges = np.empty((len(tris), 3), dtype=np.int64)
        for t, (a, b, c) in enumerate(tris):
            for loc, (i, j) in enumerate(((a, b), (b, c), (c, a))):
                key = _edge_key(int(i), int(j))
                eid = edge_index.get(key)
                if eid is None:
                    eid = len(edges)
                    edge_index[key] = eid
                    edges.append(key)
                    edge_tris.append([t, -1])
                else:
                    if edge_tris[eid][1] != -1:
                        raise ValueError(f"edge {key} has more than two incident triangles")
                    edge_tris[eid][1] = t
                tri_edges[t, loc] = eid
        object.__setattr__(self, "edges", np.array(edges, dtype=np.int64))
        object.__setattr__(self, "edge_index", edge_index)
        object.__setattr__(self, "edge_tris", np.array(edge_tris, dtype=np.int64))
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
        boundary = {tuple(e) for e, (t0, t1) in zip(self.edges, self.edge_tris) if t1 == -1}
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

    def areas(self) -> np.ndarray:
        v = self.triangle_vertices()
        return 0.5 * np.abs(
            (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0])
        )

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
        ids = []
        for eid, (t0, t1) in enumerate(self.edge_tris):
            if t1 != -1:
                continue
            key = tuple(self.edges[eid])
            if tag is None or self.boundary_tags[key] == tag:
                ids.append(eid)
        return np.array(ids, dtype=np.int64)


@dataclass(frozen=True)
class Skeleton:
    """Edge set of a mesh viewed as the trace domain.

    normals[e] is the fixed unit normal of edge e, pointing out of the
    lower-indexed incident triangle. tangents[e] points from the
    lower-numbered vertex to the higher-numbered one; lengths[e] is the
    edge length. tri_signs has shape (nt, 3): +1 where the element's
    outward normal on its local edge agrees with the fixed normal.
    """

    mesh: Mesh
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
    normals = np.empty_like(tangents)
    tris = mesh.triangles
    for eid, (a, b) in enumerate(edges):
        t0 = mesh.edge_tris[eid, 0]
        tri = tris[t0]
        # outward normal of the CCW triangle t0 along the directed edge a -> b
        k = [i for i in range(3) if tri[i] not in (a, b)][0]
        i, j = tri[(k + 1) % 3], tri[(k + 2) % 3]
        d = verts[j] - verts[i]
        n = np.array([d[1], -d[0]])
        normals[eid] = n / np.linalg.norm(n)
    tri_signs = np.ones((len(tris), 3), dtype=np.int64)
    for t, tri in enumerate(tris):
        for loc in range(3):
            eid = mesh.tri_edges[t, loc]
            i, j = tri[loc], tri[(loc + 1) % 3]
            d = verts[j] - verts[i]
            outward = np.array([d[1], -d[0]])
            tri_signs[t, loc] = 1 if np.dot(outward, normals[eid]) > 0 else -1
    return Skeleton(mesh=mesh, normals=normals, tangents=tangents, lengths=lengths, tri_signs=tri_signs)


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
    # find boundary edges by counting incidences
    count = {}
    for a, b, c in tris:
        for i, j in ((a, b), (b, c), (c, a)):
            key = _edge_key(int(i), int(j))
            count[key] = count.get(key, 0) + 1
    tags = {}
    for key, cnt in count.items():
        if cnt == 1:
            mid = 0.5 * (vertices[key[0]] + vertices[key[1]])
            tags[key] = tag_fn(mid)
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
    """
    marked = set(int(t) for t in marked)
    if not marked - set(range(mesh.num_triangles)) == set():
        raise ValueError("marked set contains invalid triangle ids")
    if not marked:
        return mesh

    tris = mesh.triangles
    ref_edge = np.array([_edge_key(int(a), int(b)) for a, b, _ in tris])
    marked_edges = set()
    for t in marked:
        marked_edges.add(tuple(ref_edge[t]))
    # closure: any triangle touching a marked edge must have its own
    # refinement edge marked too; iterate to a fixed point
    changed = True
    while changed:
        changed = False
        for t, (a, b, c) in enumerate(tris):
            own = tuple(ref_edge[t])
            if own in marked_edges:
                continue
            for i, j in ((a, b), (b, c), (c, a)):
                if _edge_key(int(i), int(j)) in marked_edges:
                    marked_edges.add(own)
                    changed = True
                    break

    verts = [v for v in mesh.vertices]
    midpoint = {}
    for key in marked_edges:
        midpoint[key] = len(verts)
        verts.append(0.5 * (mesh.vertices[key[0]] + mesh.vertices[key[1]]))

    new_tris = []

    def emit(a, b, c):
        """Append triangle (a, b, c), splitting once more if its
        refinement edge (a, b) is marked."""
        key = _edge_key(int(a), int(b))
        if key in midpoint:
            m = midpoint[key]
            new_tris.append([c, a, m])
            new_tris.append([b, c, m])
        else:
            new_tris.append([a, b, c])

    for a, b, c in tris:
        key = _edge_key(int(a), int(b))
        if key not in midpoint:
            new_tris.append([a, b, c])
            continue
        m = midpoint[key]
        emit(c, a, m)
        emit(b, c, m)

    tags = {}
    for key, tag in mesh.boundary_tags.items():
        if key in midpoint:
            m = midpoint[key]
            tags[_edge_key(key[0], m)] = tag
            tags[_edge_key(key[1], m)] = tag
        else:
            tags[key] = tag
    return Mesh(
        vertices=np.array(verts),
        triangles=np.array(new_tris, dtype=np.int64),
        boundary_tags=tags,
        generation=mesh.generation + 1,
    )


def uniform_refine(mesh: Mesh) -> Mesh:
    """Halve the mesh size: two rounds of bisecting every triangle."""
    once = refine(mesh, range(mesh.num_triangles))
    return refine(once, range(once.num_triangles))


def find_hanging_vertices(mesh: Mesh):
    """Exhaustive scan for hanging vertices; empty list means conforming.

    A vertex hangs if it lies strictly inside some triangle's edge.
    """
    verts = mesh.vertices
    tris = mesh.triangles
    hanging = []
    for loc in range(3):
        p = verts[tris[:, loc]]  # (nt, 2)
        q = verts[tris[:, (loc + 1) % 3]]
        d = q - p
        ln2 = np.sum(d * d, axis=1)
        # parameter of every vertex along every edge, (nt, nv)
        rel0 = verts[None, :, 0] - p[:, None, 0]
        rel1 = verts[None, :, 1] - p[:, None, 1]
        s = (rel0 * d[:, None, 0] + rel1 * d[:, None, 1]) / ln2[:, None]
        perp = np.abs(rel0 * d[:, None, 1] - rel1 * d[:, None, 0]) / np.sqrt(ln2)[:, None]
        on_edge = (s > 1e-9) & (s < 1 - 1e-9) & (perp < 1e-12)
        for t, v in zip(*np.nonzero(on_edge)):
            if v not in tris[t]:
                hanging.append((int(v), int(t)))
    return hanging


def write_vtk(mesh: Mesh, path, cell_data=None):
    """Dump the mesh in legacy-VTK ASCII layout, 17 significant digits.

    cell_data is an optional {name: per-triangle array} mapping.
    """
    lines = [
        "# vtk DataFile Version 2.0",
        f"triangle mesh generation {mesh.generation}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    if cell_data:
        lines.append(f"CELL_DATA {nt}")
        for name, arr in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v):.17g}" for v in arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
