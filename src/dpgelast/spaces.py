"""Discrete spaces: conforming H1 and H(div), discontinuous L2, their
broken element-local variants, and the two skeleton trace spaces.

Conventions:

* Scalar structure is built first; vector or tensor dofs interleave the
  copies as global = scalar * ncopies + copy. The broken H1, L2 and
  broken H(div) spaces number their modes element by element, in one
  builder (_element_local_space).
* Continuity comes from mesh topology, never from coordinates. One
  edge-node table numbers the vertices and then the p-1 interior nodes of
  each edge, oriented from its lower- to its higher-numbered vertex; the
  H1 space and TraceH12 share it, H1 adds its cell interiors after it,
  and H1 elements read it flipped where a local edge runs against the
  global one. H1 spaces are Lagrange-type on an equispaced reference
  lattice.
* Boundary data sits on edges: Gamma0 constrains the nodes of the Gamma0
  edges to the displacement at their points (H1, TraceH12), and Gamma1
  constrains edge moments to Legendre moments of the traction (H(div),
  TraceHm12). Traction data is evaluated once per distinct skeleton
  normal (edge_values), for these moments and the Galerkin load alike.
* H(div) spaces are Raviart-Thomas-family: one orthonormal reference RT_k
  basis per order, pushed forward by the contravariant Piola map and
  scaled by sqrt(det J). Conforming spaces combine it per element into
  the dual basis of their dofs: moments of the normal trace against
  orthonormal Legendre polynomials in the global edge parameter and the
  fixed skeleton normal, so shared edge dofs match across neighbours
  without sign bookkeeping, and area-averaged interior moments against
  the reference modal basis of order k-1, orthonormal in the
  area-averaged inner product, which keeps the dual basis well
  conditioned as k grows. The stress space uses two independent rows.
* L2 spaces carry an elementwise orthonormal modal basis (the component
  tensors are Frobenius-normalized), so their mass matrices are exactly
  the identity.
* Trace spaces live on skeleton edges: continuous piecewise order-p
  nodal functions (TraceH12) and per-edge discontinuous Legendre modes of
  order p-1 measured against the fixed normal (TraceHm12).
* Every builder takes the mesh; the H(div) and trace spaces read its
  skeleton (Mesh.skeleton), H1 and the conforming H(div) space the
  orientation of each local edge (Mesh.edge_flips), and a conforming
  H(div) space keeps C and constrains its Gamma1 moments.

Every element is affine, so each basis is a reference basis and a
per-element linear map: reference_basis gives components r (nloc, nq, R)
at shared reference points, geometry_map the map P_e to physical values
from Mesh.geometry (H1 I, gradients I (x) J^-T; H(div) I (x) J / h,
divergences I / h; L2 I / h; h = sqrt(det J)), dual_rows the combination
through C of a conforming H(div) space, and edge_reference the traces on
the local edges in both orientations of the global edge parameter;
nothing is pulled back. volume_basis and field_values (coefficients
contracted with the unpadded rows of r, one copy per component, before
P_e) evaluate from them; evaluate_field wraps field_values for physical
points. _rt_dofs takes the RT dofs of reference data for the reference
basis and for C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .mesh import Geometry, Mesh, GAMMA0, GAMMA1
from .quadrature import triangle_rule, edge_rule


# ---------------------------------------------------------------------------
# reference polynomial helpers


@lru_cache(maxsize=None)
def _mono_exps(k: int):
    """Exponent pairs (i, j) with i + j <= k, graded order."""
    return tuple((i, j) for d in range(k + 1) for i in range(d + 1) for j in [d - i])


def _mono_eval(exps, pts):
    pts = np.asarray(pts, dtype=float)
    out = np.empty((len(exps),) + pts.shape[:-1])
    for n, (i, j) in enumerate(exps):
        out[n] = pts[..., 0] ** i * pts[..., 1] ** j
    return out


def _mono_grad(exps, pts):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((len(exps),) + pts.shape[:-1] + (2,))
    x, y = pts[..., 0], pts[..., 1]
    for n, (i, j) in enumerate(exps):
        if i > 0:
            out[n, ..., 0] = i * x ** (i - 1) * y**j
        if j > 0:
            out[n, ..., 1] = j * x**i * y ** (j - 1)
    return out


@lru_cache(maxsize=None)
def _ref_lattice(p: int):
    """Equispaced lattice nodes of order p on the reference triangle."""
    return np.array([[i / p, j / p] for j in range(p + 1) for i in range(p + 1 - j)])


@lru_cache(maxsize=None)
def _lagrange_matrix(p: int):
    """Inverse-Vandermonde: lagrange(pts) = Linv.T @ mono(pts)."""
    nodes = _ref_lattice(p)
    exps = _mono_exps(p)
    V = _mono_eval(exps, nodes).T  # (nnodes, nmodes)
    return np.linalg.inv(V)


@lru_cache(maxsize=None)
def _ortho_modal_coeffs(k: int):
    """Coefficients of an L2-orthonormal modal basis on the reference
    triangle in terms of monomials: modal = C @ mono."""
    exps = _mono_exps(k)
    rule = triangle_rule(2 * k + 2)
    vals = _mono_eval(exps, rule.points)
    M = np.einsum("q,nq,mq->nm", rule.weights, vals, vals)
    L = np.linalg.cholesky(M)
    return np.linalg.inv(L)


def ortho_modal_eval(k: int, pts):
    """Orthonormal reference modal basis values, shape (nmodes, nq)."""
    return _ortho_modal_coeffs(k) @ _mono_eval(_mono_exps(k), pts)


@lru_cache(maxsize=None)
def _legendre01_coeffs(n: int):
    """Orthonormal Legendre basis on [0, 1]: rows of coefficients in t^k."""
    t, w = edge_rule(2 * n + 2)
    V = np.stack([t**k for k in range(n)])
    M = np.einsum("q,nq,mq->nm", w, V, V)
    L = np.linalg.cholesky(M)
    return np.linalg.inv(L)


def legendre01_eval(n: int, t):
    """First n orthonormal Legendre polynomials on [0, 1] at t, (n, nq)."""
    t = np.asarray(t, dtype=float)
    V = np.stack([t**k for k in range(n)])
    return _legendre01_coeffs(n) @ V


# component tensors for L2 kinds (Frobenius-orthonormal)
_SYM_COMPS = np.array(
    [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0 / np.sqrt(2.0)], [1.0 / np.sqrt(2.0), 0.0]],
    ]
)
_SKEW_COMPS = np.array([[[0.0, 1.0 / np.sqrt(2.0)], [-1.0 / np.sqrt(2.0), 0.0]]])


# ---------------------------------------------------------------------------
# geometry


def to_reference(geom: Geometry, elems, pts):
    """Pull physical points (..., 2) on the given elements back to the
    reference triangle. elems broadcasts against the leading axes."""
    rel = pts - geom.origin[elems][..., None, :]
    return np.einsum("...ij,...qj->...qi", geom.Jinv[elems], rel)


# ---------------------------------------------------------------------------
# DofSpace


@dataclass
class DofSpace:
    """A discrete space over a mesh (or its skeleton, for trace kinds).

    elt_dofs maps each element to its global dofs (volume kinds);
    edge_dofs maps each skeleton edge to its global dofs (trace kinds).
    constrained_dofs / constrained_values hold essential boundary data.
    C is the dual combination of a conforming H(div) space (_rt_dual).
    """

    kind: str
    order: int
    mesh: Mesh
    ndof: int
    ncopies: int
    elt_dofs: Optional[np.ndarray] = None
    edge_dofs: Optional[np.ndarray] = None
    constrained_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    constrained_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    C: Optional[np.ndarray] = None

    @property
    def nloc(self) -> int:
        if self.elt_dofs is not None:
            return self.elt_dofs.shape[1]
        return self.edge_dofs.shape[1]

    def constraint_vector(self):
        """Full-length vector holding prescribed values on constrained dofs."""
        x = np.zeros(self.ndof)
        if len(self.constrained_dofs):
            x[self.constrained_dofs] = self.constrained_values
        return x


def _interleave(scalar_dofs, ncopies):
    """Expand scalar dof ids to interleaved vector dof ids."""
    scalar_dofs = np.asarray(scalar_dofs, dtype=np.int64)
    out = scalar_dofs[..., None] * ncopies + np.arange(ncopies)
    return out.reshape(scalar_dofs.shape[:-1] + (-1,))


def _element_local_space(kind: str, order: int, mesh: Mesh, nmodes: int, ncopies: int) -> DofSpace:
    """A space whose nmodes scalar modes per element belong to that element
    alone, element by element, each in ncopies interleaved copies."""
    nelt = mesh.num_triangles
    elt_scalar = np.arange(nelt * nmodes, dtype=np.int64).reshape(nelt, nmodes)
    return DofSpace(kind, order, mesh, ndof=ncopies * nelt * nmodes, ncopies=ncopies, elt_dofs=_interleave(elt_scalar, ncopies))


# ---------------------------------------------------------------------------
# topological node numbering and boundary data on edges


def edge_points(mesh: Mesh, eids, t):
    """Physical points at parameters t on the given edges, eids.shape +
    (nq, 2); the parameter runs from the lower- to the higher-numbered
    vertex."""
    ev = mesh.vertices[mesh.edges[eids]]
    va, vb = ev[..., 0, :], ev[..., 1, :]
    return va[..., None, :] + np.asarray(t, dtype=float)[:, None] * (vb - va)[..., None, :]


def _edge_nodes(mesh: Mesh, p: int) -> np.ndarray:
    """Scalar ids of the p+1 equispaced nodes of every edge, (ne, p+1),
    from the lower- to the higher-numbered vertex: vertex ids first, then
    nv + (p-1) * eid + i for the edge interiors."""
    ne = mesh.num_edges
    ids = np.empty((ne, p + 1), dtype=np.int64)
    ids[:, 0] = mesh.edges[:, 0]
    ids[:, p] = mesh.edges[:, 1]
    ids[:, 1:p] = mesh.num_vertices + (p - 1) * np.arange(ne)[:, None] + np.arange(p - 1)
    return ids


def _edge_node_points(mesh: Mesh, ids, eids):
    """Distinct node ids ids[eids], increasing, and their physical points.
    A node shared by two of the edges takes its point from the later one."""
    p = ids.shape[1] - 1
    sids, last = np.unique(ids[eids].ravel()[::-1], return_index=True)
    pts = edge_points(mesh, eids, np.arange(p + 1) / p).reshape(-1, 2)[::-1]
    return sids, pts[last]


def _constrain_gamma0(space: DofSpace, ids, fn):
    """Constrain the nodes ids[e] of every Gamma0 edge e to fn(points)
    (zero by default)."""
    g0 = space.mesh.boundary_edge_ids(GAMMA0)
    if not len(g0):
        return
    sids, pts = _edge_node_points(space.mesh, ids, g0)
    vals = fn(pts) if fn is not None else np.zeros((len(sids), 2))
    space.constrained_dofs = _interleave(sids[:, None], 2).ravel()
    space.constrained_values = np.asarray(vals, dtype=float).ravel()


def edge_values(mesh: Mesh, eids, t, fn):
    """Values of fn(pts, normal) at parameters t on each given edge, taken
    against its fixed skeleton normal, (len(eids), nq, 2). fn is called
    once per distinct normal, with the points of all edges sharing it,
    (nedges, nq, 2)."""
    pts = edge_points(mesh, eids, t)
    vals = np.empty(pts.shape)
    normals, which = np.unique(mesh.skeleton.normals[eids], axis=0, return_inverse=True)
    for k, normal in enumerate(normals):
        sel = which.ravel() == k
        vals[sel] = fn(pts[sel], normal)
    return vals


def _edge_moments(mesh: Mesh, eids, nmom: int, degree: int, fn):
    """Orthonormal Legendre moments of fn(pts, normal) (edge_values) on each
    given edge, (len(eids), nmom, 2); zero when fn is None."""
    if fn is None:
        return np.zeros((len(eids), nmom, 2))
    tq, twq = edge_rule(degree)
    return np.einsum("q,mq,eqc->emc", twq, legendre01_eval(nmom, tq), edge_values(mesh, eids, tq, fn))


def _constrain_gamma1(space: DofSpace, nmom: int, degree: int, fn):
    """Constrain the nmom edge-moment dofs eid * nmom + i of every Gamma1
    edge to the moments of fn(pts, normal) (zero by default)."""
    g1 = space.mesh.boundary_edge_ids(GAMMA1)
    if len(g1):
        space.constrained_dofs = _interleave(g1[:, None] * nmom + np.arange(nmom), 2).ravel()
        space.constrained_values = _edge_moments(space.mesh, g1, nmom, degree, fn).ravel()


# ---------------------------------------------------------------------------
# H1 and BrokenH1


@lru_cache(maxsize=None)
def _lattice_topology(p: int):
    """Reference-lattice indices of the nodes on each local edge k, running
    from vertex k to vertex k+1, (3, p+1), and of the cell interior."""

    def row(j):  # lattice index of node (0, j)
        return j * (p + 1) - j * (j - 1) // 2

    m = np.arange(p + 1)
    edges = np.stack([m, [row(j) + p - j for j in m], [row(p - j) for j in m]])
    inner = np.array([row(j) + i for j in range(1, p) for i in range(1, p - j)], dtype=np.int64)
    return edges, inner


def h1_space(mesh: Mesh, p: int, gamma0_constrained: bool = False, bc_fn=None) -> DofSpace:
    """Continuous vector-valued Lagrange space of order p.

    Scalar nodes are numbered from mesh topology: vertices and edge
    interiors as in TraceH12 (_edge_nodes), then cell interiors element
    by element. When gamma0_constrained is set, the nodes of the Gamma0
    edges are constrained; bc_fn(pts) -> (n, 2) supplies their values
    (zero by default).
    """
    if p < 1:
        raise ValueError(f"H1 order must be at least 1, got {p}")
    ids = _edge_nodes(mesh, p)
    edge_loc, inner = _lattice_topology(p)
    nt = mesh.num_triangles
    elt_scalar = np.empty((nt, len(_ref_lattice(p))), dtype=np.int64)
    for k in range(3):
        eids = mesh.tri_edges[:, k]
        nodes = ids[eids]
        flip = mesh.edge_flips[:, k] == 1
        nodes[flip] = nodes[flip, ::-1]
        elt_scalar[:, edge_loc[k]] = nodes
    base = mesh.num_vertices + (p - 1) * mesh.num_edges
    elt_scalar[:, inner] = base + np.arange(nt * len(inner)).reshape(nt, len(inner))
    space = DofSpace(
        kind="H1",
        order=p,
        mesh=mesh,
        ndof=2 * (base + nt * len(inner)),
        ncopies=2,
        elt_dofs=_interleave(elt_scalar, 2),
    )
    if gamma0_constrained:
        _constrain_gamma0(space, ids, bc_fn)
    return space


def broken_h1_space(mesh: Mesh, p: int) -> DofSpace:
    """Element-local vector Lagrange space (no inter-element sharing)."""
    if p < 1:
        raise ValueError(f"order must be at least 1, got {p}")
    return _element_local_space("BrokenH1", p, mesh, len(_ref_lattice(p)), 2)


# ---------------------------------------------------------------------------
# L2 spaces


_L2_KIND_COMPS = {
    "L2vec": None,  # vector valued, 2 copies
    "L2sym": _SYM_COMPS,
    "L2skew": _SKEW_COMPS,
}


def l2_space(mesh: Mesh, k: int, kind: str) -> DofSpace:
    """Discontinuous modal space of total degree <= k.

    kind is one of L2vec (2 components), L2sym (3 symmetric tensor
    components), L2skew (1 skew component). The basis is elementwise
    L2-orthonormal.
    """
    if k < 0:
        raise ValueError(f"L2 order must be nonnegative, got {k}")
    if kind not in _L2_KIND_COMPS:
        raise ValueError(f"unknown L2 kind {kind!r}")
    ncopies = 2 if kind == "L2vec" else len(_L2_KIND_COMPS[kind])
    return _element_local_space(kind, k, mesh, len(_mono_exps(k)), ncopies)


# ---------------------------------------------------------------------------
# H(div): Raviart-Thomas family from one reference basis per order


def _rt_span_eval(k, pts):
    """The RT_k span at reference points (..., 2), in monomials about the
    reference centroid: values (N, ..., 2) and divergences (N, ...)."""
    exps = _mono_exps(k)
    nm = len(exps)
    xt = np.asarray(pts, dtype=float) - 1.0 / 3.0
    mono, grad = _mono_eval(exps, xt), _mono_grad(exps, xt)
    top = [n for n, (i, j) in enumerate(exps) if i + j == k]
    val = np.zeros((2 * nm + len(top),) + xt.shape)
    val[:nm, ..., 0] = mono
    val[nm : 2 * nm, ..., 1] = mono
    div = np.concatenate([grad[..., 0], grad[..., 1], (k + 2) * mono[top]])
    val[2 * nm :] = xt * mono[top, ..., None]
    return val, div


def _rt_interior(k: int, Jh, vals, degree: int, modal: bool = True):
    """Area-averaged moments of vector fields vals (nelt, nf, nq, 2) at the
    triangle rule of the degree: (nelt, 2 * nm, nf). The conforming space's
    dofs (modal) take them against the reference modal basis of order
    k - 1, orthonormal in the area-averaged inner product (its constant mode
    is 1), as the edge dofs take length-averaged moments against orthonormal
    Legendre modes; the reference basis starts from moments against the
    monomials of degree <= k - 1 in (x - centroid) / h = Jh (xref - 1/3)."""
    rule = triangle_rule(degree)
    # the weights |det J| w_q over the area |det J| / 2
    if modal:
        qm = ortho_modal_eval(k - 1, rule.points) / ortho_modal_eval(0, rule.points) * rule.weights
        return 2.0 * np.einsum("mq,efqc->ecmf", qm, vals).reshape(len(vals), -1, vals.shape[1])
    qm = _mono_eval(_mono_exps(k - 1), (rule.points - 1.0 / 3.0) @ Jh.transpose(0, 2, 1)) * rule.weights
    return 2.0 * np.einsum("meq,efqc->ecmf", qm, vals).reshape(len(vals), -1, vals.shape[1])


def _rt_dofs(k: int, rows, Jh, scale, flips, modal: bool = True):
    """The RT_k dofs (nelt, N, N) of reference row fields rows(pts) -> (N,
    nq, 2) pushed forward by Jh = J / h: per local edge, the orthonormal
    Legendre moments of the normal trace against the skeleton normal in the
    global edge parameter, i.e. the reference moment in the edge's
    orientation flips times scale = sign h / |e| (nelt, 3); then
    _rt_interior(modal)."""
    tq, twq = edge_rule(2 * k + 2)
    vals = rows(_ref_edge_points(tq).reshape(-1, 2)).reshape(-1, 3, 2, len(tq), 2)
    ref = np.einsum("q,mq,lkoqi,ki->koml", twq, legendre01_eval(k + 1, tq), vals, _REF_NORMALS)
    M = (scale[..., None, None] * ref[np.arange(3), flips]).reshape(len(Jh), 3 * (k + 1), -1)
    if k == 0:
        return M
    vals = np.einsum("eij,lqj->elqi", Jh, rows(triangle_rule(2 * k + 2).points))
    return np.concatenate([M, _rt_interior(k, Jh, vals, 2 * k + 2, modal)], axis=1)


@lru_cache(maxsize=None)
def _rt_reference(k: int):
    """Span coefficients R of the orthonormal reference RT_k basis, psi_l =
    sum_j R[j, l] span_j: the reference dual basis of the RT dofs times the
    inverse transpose of the Cholesky factor of its H(div) Gram, twice, as
    one pass leaves a Gram error of 1e-6 at k = 6 (1e-13 after two)."""
    # outward skeleton normals and h = 1; local edge 2 runs against edge (0, 2)
    span = lambda pts: _rt_span_eval(k, pts)[0]
    R = np.linalg.inv(_rt_dofs(k, span, np.eye(2)[None], 1.0 / np.linalg.norm(_REF_EDGES, axis=1)[None], [[0, 0, 1]], False)[0])
    rule = triangle_rule(2 * k + 2)
    val, div = _rt_span_eval(k, rule.points)
    F = np.concatenate([val, div[..., None]], axis=-1).reshape(len(R), -1)  # (N, nq * 3)
    w = np.repeat(rule.weights, 3)
    for _ in range(2):
        P = R.T @ F
        L = np.linalg.cholesky((P * w) @ P.T)
        R = np.linalg.solve(L, R.T).T
    return R


def _rt_dual(space: DofSpace):
    """(nelt, N, N) inverses C[e] of the dofs of the pushed-forward basis psi
    of an H(div) space without C: the dual basis is phi_l = sum_j C[e, j,
    l] psi_j, and the psi-coefficients of a dual-basis field x are C[e] x."""
    geom, sk, k = space.mesh.geometry, space.mesh.skeleton, space.order - 1
    scale = sk.tri_signs * geom.hscale[:, None] / sk.lengths[space.mesh.tri_edges]
    Jh = geom.J / geom.hscale[:, None, None]
    rows = lambda pts: reference_basis("Hdiv", k + 1, "val", pts)[0::2, :, :2]  # one stress row
    return np.linalg.inv(_rt_dofs(k, rows, Jh, scale, space.mesh.edge_flips))


def hdiv_space(mesh: Mesh, p: int, traction_fn=None) -> DofSpace:
    """Conforming Raviart-Thomas-family tensor space (2 rows) of order p on the mesh.

    Edge normal traces have order p-1; interior edge dofs are shared
    between neighbours through the fixed-normal moment functionals. The
    normal-trace dofs on the traction boundary are constrained, with
    values projected from traction_fn(pts, normal) -> (nedges, nq, 2),
    called once per distinct edge normal on the points of its edges (zero
    by default).
    """
    if p < 1:
        raise ValueError(f"H(div) order must be at least 1, got {p}")
    nmom, ninter = p, p * (p - 1)
    nelt, ne = mesh.num_triangles, mesh.num_edges
    # edge moments eid * nmom + i, then the interior moments element by element
    edge = (mesh.tri_edges[:, :, None] * nmom + np.arange(nmom)).reshape(nelt, 3 * nmom)
    inner = ne * nmom + np.arange(nelt * ninter, dtype=np.int64).reshape(nelt, ninter)
    space = DofSpace(
        kind="Hdiv",
        order=p,
        mesh=mesh,
        ndof=2 * (ne * nmom + nelt * ninter),
        ncopies=2,
        elt_dofs=_interleave(np.concatenate([edge, inner], axis=1), 2),
    )
    space.C = _rt_dual(space)
    _constrain_gamma1(space, nmom, 2 * p + 4, traction_fn)
    return space


def broken_hdiv_space(mesh: Mesh, p: int) -> DofSpace:
    """Element-local Raviart-Thomas-family tensor space of order p on the
    mesh, spanned by the pushed-forward reference basis."""
    if p < 1:
        raise ValueError(f"order must be at least 1, got {p}")
    return _element_local_space("BrokenHdiv", p, mesh, p * (p + 2), 2)  # p (p + 2) = dim RT_{p-1}


def embed_in_broken(conf: DofSpace, brok: DofSpace, x):
    """Coefficients in the broken space brok of the field x of the
    conforming space conf (H1 or Hdiv of the same order and mesh). H1
    copies the element coefficients; Hdiv maps them through C."""
    xb = np.zeros(brok.ndof)
    xb[brok.elt_dofs] = psi_coefficients(conf, np.arange(conf.mesh.num_triangles), x[conf.elt_dofs])
    return xb


# ---------------------------------------------------------------------------
# trace spaces


def trace_spaces(mesh: Mesh, p: int, u0_fn=None, traction_fn=None):
    """Build (TraceH12, TraceHm12) on the skeleton of the mesh.

    TraceH12: continuous piecewise order-p, 2 components, numbered by
    _edge_nodes and constrained on Gamma0 with values from u0_fn(pts)
    (zero by default). TraceHm12: per-edge discontinuous order-(p-1)
    Legendre modes of the normal flux with respect to the fixed normal,
    2 components, constrained on Gamma1 to the moments of
    traction_fn(pts, normal), called as in hdiv_space (zero by default).
    """
    if p < 1:
        raise ValueError(f"trace order must be at least 1, got {p}")
    ne = mesh.num_edges
    ids = _edge_nodes(mesh, p)
    th12 = DofSpace(
        kind="TraceH12",
        order=p,
        mesh=mesh,
        ndof=2 * (mesh.num_vertices + (p - 1) * ne),
        ncopies=2,
        edge_dofs=_interleave(ids, 2),
    )
    _constrain_gamma0(th12, ids, u0_fn)
    nmom = p
    thm12 = DofSpace(
        kind="TraceHm12",
        order=p - 1,
        mesh=mesh,
        ndof=2 * ne * nmom,
        ncopies=2,
        edge_dofs=_interleave(np.arange(ne * nmom, dtype=np.int64).reshape(ne, nmom), 2),
    )
    _constrain_gamma1(thm12, nmom, 2 * nmom + 8, traction_fn)
    return th12, thm12


def trace_edge_basis(kind: str, order: int, t):
    """Vector basis of a trace space of the given kind and order on one
    edge at parameters t, (nloc, nq, 2), the same on every edge.

    The parameter runs from the lower-numbered to the higher-numbered
    edge vertex, matching the skeleton tangent convention.
    """
    t = np.asarray(t, dtype=float)
    if kind == "TraceH12":
        V = np.vander(np.arange(order + 1) / order, increasing=True)
        scalar = np.linalg.solve(V.T, np.stack([t**k for k in range(order + 1)]))  # (p+1, nq)
    elif kind == "TraceHm12":
        scalar = legendre01_eval(order + 1, t)
    else:
        raise ValueError(f"not a trace space: {kind}")
    return _copies(scalar)


# ---------------------------------------------------------------------------
# reference arrays and per-element geometry maps


@dataclass
class Basis:
    """Batched element basis arrays for one space at fixed points.

    val: (nelt, nloc, nq, 2) for vector kinds or (nelt, nloc, nq, 2, 2)
    for tensor kinds; grad: (nelt, nloc, nq, 2, 2) for H1 kinds; div:
    (nelt, nloc, nq, 2) for H(div) kinds.
    """

    val: np.ndarray
    grad: Optional[np.ndarray] = None
    div: Optional[np.ndarray] = None


# reference vertices, local edge k from vertex k to k + 1, its outward normal times its length
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_EDGES = np.roll(_REF_VERTS, -1, axis=0) - _REF_VERTS
_REF_NORMALS = _REF_EDGES[:, ::-1] * [1.0, -1.0]
_DERIV = {"H1": "grad", "Hdiv": "div"}


def _ref_edge_points(t):
    """Reference points of the three local edges at parameters t, running
    along each edge (orientation 0) or against it (1): (3, 2, nq, 2)."""
    t = np.asarray(t, dtype=float)
    return _REF_VERTS[:, None, None] + np.stack([t, 1.0 - t])[None, :, :, None] * _REF_EDGES[:, None, None]


def _copies(rows):
    """Two interleaved copies of reference rows (n, nq, ...): dof 2l + c is
    row l in component c of a new axis after the point axis."""
    out = np.zeros((2 * len(rows), rows.shape[1], 2) + rows.shape[2:])
    for c in range(2):
        out[c::2, :, c] = rows
    return out


_FULL_ROWS = ("L2sym", "L2skew")


def row_copies(space: DofSpace) -> int:
    """How many interleaved copies of its reference rows a volume space's
    basis carries: ncopies, or 1 for L2sym and L2skew, whose rows are the
    whole basis. Its element Gram is then one copy's Gram kron I_c."""
    return 1 if space.kind in _FULL_ROWS else space.ncopies


def reference_rows(fam: str, order: int, deriv: str, pts) -> np.ndarray:
    """What reference_basis is built from at reference points (nq, 2): the
    scalar or row arrays (n, nq, ...) that H1, Hdiv and L2vec carry in two
    interleaved copies; L2sym and L2skew give their full array (nloc, nq, 4)."""
    if deriv not in ("val", _DERIV.get(fam)):
        raise ValueError(f"{fam} basis has no {deriv!r} array")
    if fam == "H1":  # Lagrange: the inverse Vandermonde applied to monomials or their gradients
        return np.tensordot(_lagrange_matrix(order), (_mono_eval if deriv == "val" else _mono_grad)(_mono_exps(order), pts), (0, 0))
    if fam == "Hdiv":  # the orthonormal reference RT basis
        R, span = _rt_reference(order - 1), _rt_span_eval(order - 1, pts)[deriv == "div"]
        return (R.T @ span.reshape(len(R), -1)).reshape(span.shape)
    modal = ortho_modal_eval(order, pts)
    if fam == "L2vec":
        return modal
    return (modal[:, None, :, None] * _L2_KIND_COMPS[fam].reshape(1, -1, 1, 4)).reshape(-1, modal.shape[1], 4)


def reference_basis(fam: str, order: int, deriv: str, pts) -> np.ndarray:
    """Reference component array r (nloc, nq, R) of a kind (broken and
    conforming share one) at reference points (nq, 2): on an element, the
    deriv (val, grad or div) of basis function t at point q is P_e r[t, q]
    flattened, with P_e from geometry_map. Scalar and row bases come in two
    interleaved copies; L2sym and L2skew carry their component tensors."""
    r = reference_rows(fam, order, deriv, pts)
    r = r if fam in _FULL_ROWS else _copies(r)
    return r.reshape(r.shape[:2] + (-1,))


def geometry_map(space: DofSpace, deriv: str, elems) -> np.ndarray:
    """Per-element maps P_e (nelt, D, R) from reference_basis components to
    flattened physical values; the H(div) ones are the contravariant Piola
    map times sqrt(det J)."""
    geom, fam = space.mesh.geometry, space.kind.removeprefix("Broken")
    if fam == "H1":
        if deriv == "val":
            return np.broadcast_to(np.eye(2), (len(elems), 2, 2))
        return np.kron(np.eye(2)[None], geom.Jinv[elems].transpose(0, 2, 1))
    h = geom.hscale[elems][:, None, None]
    if fam == "Hdiv" and deriv == "val":
        return np.kron(np.eye(2)[None], geom.J[elems] / h)
    return np.eye(4 if fam in ("L2sym", "L2skew") else 2)[None] / h


def dual_rows(space: DofSpace, elems, X):
    """Arrays X (nelt, nloc, ...) over the pushed-forward reference basis
    turned into arrays over the space's basis: a conforming H(div) space
    combines them through C, phi_l = sum_j C[e, j, l] psi_j, per stress row."""
    if space.kind != "Hdiv":
        return X
    Ct = space.C[elems].transpose(0, 2, 1)
    return (Ct @ X.reshape(Ct.shape[:2] + (np.prod(X.shape[1:], dtype=int) // Ct.shape[1],))).reshape(X.shape)


def psi_coefficients(space: DofSpace, elems, xe):
    """Element coefficients xe (nelt, nloc) of a field of the space in the
    pushed-forward reference basis: C[e] x for a conforming H(div) space."""
    if space.kind != "Hdiv":
        return xe
    return (space.C[elems] @ xe.reshape(len(xe), xe.shape[1] // 2, 2)).reshape(xe.shape)


def _volume_maps(space: DofSpace, elems):
    """(deriv, P_e) for val and the derivative the kind has."""
    if space.elt_dofs is None:
        raise ValueError(f"volume basis undefined for kind {space.kind}")
    fam = space.kind.removeprefix("Broken")
    for deriv in ("val", _DERIV[fam]) if fam in _DERIV else ("val",):
        yield deriv, geometry_map(space, deriv, elems)


def volume_basis(space: DofSpace, elems, ref_pts) -> Basis:
    """Basis arrays of a volume space at shared reference points: P_e r per
    element and basis function."""
    elems = np.asarray(elems, dtype=np.int64)
    out = {}
    for deriv, P in _volume_maps(space, elems):
        r = reference_basis(space.kind.removeprefix("Broken"), space.order, deriv, ref_pts)
        a = (r.reshape(-1, r.shape[2]) @ P.transpose(0, 2, 1)).reshape((len(elems),) + r.shape[:2] + P.shape[1:2])
        out[deriv] = dual_rows(space, elems, a).reshape(a.shape[:3] + (2,) * (P.shape[1] // 2))
    return Basis(**out)


def edge_reference(fam: str, order: int, t) -> np.ndarray:
    """Traces of the reference basis of an H1 or H(div) kind on the three
    local edges at parameters t, running along (orientation 0) or against
    (1) each edge, (3, 2, nloc, nq, 2): H1 values, H(div) normal traces
    against the outward reference normal times the edge length."""
    if fam not in _DERIV:
        raise ValueError(f"edge values undefined for kind {fam}")
    r = reference_basis(fam, order, "val", _ref_edge_points(t).reshape(-1, 2))
    r = r.reshape((len(r), 3, 2, len(t), 2, -1))
    if fam == "Hdiv":
        r = np.einsum("lkoqci,ki->lkoqc", r, _REF_NORMALS)
    return np.moveaxis(r.reshape(r.shape[:5]), 0, 2)


# ---------------------------------------------------------------------------
# interpolation and field evaluation


def interpolate(space: DofSpace, exact):
    """Interpolate an exact-solution field into the space.

    exact provides displacement, displacement_gradient (L2skew) and
    stress callables (an ExactSolution or a compatible object). Returns a
    full coefficient vector.
    """
    mesh = space.mesh
    coeffs = np.zeros(space.ndof)
    geom = mesh.geometry
    if space.kind in ("H1", "BrokenH1"):
        vals = exact.displacement(geom.to_physical(_ref_lattice(space.order)))  # (nelt, nloc_s, 2)
        coeffs[space.elt_dofs[:, 0::2]] = vals[..., 0]
        coeffs[space.elt_dofs[:, 1::2]] = vals[..., 1]
        return coeffs
    if space.kind in ("L2vec", "L2sym", "L2skew"):
        # the basis is orthonormal, so the L2 projection is the weighted
        # moment of the field against it; the skew basis sees only the
        # skew part of the full displacement gradient
        rule = triangle_rule(2 * space.order + 8)
        phys = geom.to_physical(rule.points)
        wts = np.abs(geom.det)[:, None] * rule.weights[None, :]
        fn = {"L2vec": "displacement", "L2sym": "stress", "L2skew": "displacement_gradient"}[space.kind]
        f = getattr(exact, fn)(phys)
        val = volume_basis(space, np.arange(mesh.num_triangles), rule.points).val
        coeffs[space.elt_dofs] = np.einsum(
            "eq,elqk,eqk->el", wts, val.reshape(val.shape[:3] + (-1,)), f.reshape(f.shape[:2] + (-1,))
        )
        return coeffs
    if space.kind in ("Hdiv", "BrokenHdiv"):
        # the dof functionals of the two stress rows; a shared edge dof gets
        # the same value from both sides, so plain assignment is safe. The
        # broken space writes the same interpolant in its own basis.
        k = space.order - 1
        mom = _edge_moments(mesh, np.arange(mesh.num_edges), k + 1, 2 * k + 10, lambda x, n: exact.stress(x) @ n)
        F = mom[mesh.tri_edges].reshape(mesh.num_triangles, -1, 2)
        if k >= 1:
            vals = np.moveaxis(exact.stress(geom.to_physical(triangle_rule(2 * k + 10).points)), -2, 1)
            F = np.concatenate([F, _rt_interior(k, geom.J / geom.hscale[:, None, None], vals, 2 * k + 10)], axis=1)
        if space.kind == "BrokenHdiv":
            F = _rt_dual(space) @ F
        coeffs[space.elt_dofs] = F.reshape(len(F), -1)
        return coeffs
    if space.kind == "TraceH12":
        ids = _edge_nodes(mesh, space.order)
        sids, pts = _edge_node_points(mesh, ids, np.arange(mesh.num_edges))
        coeffs[_interleave(sids[:, None], 2)] = exact.displacement(pts)
        return coeffs
    if space.kind == "TraceHm12":
        nmom, eids = space.order + 1, np.arange(mesh.num_edges)
        mom = _edge_moments(mesh, eids, nmom, 2 * nmom + 8, exact.traction)
        coeffs[space.edge_dofs] = mom.reshape(len(eids), -1)
        return coeffs
    raise ValueError(f"interpolation undefined for kind {space.kind}")


def field_values(space: DofSpace, coeffs, elems, ref_pts) -> Basis:
    """A discrete volume field on the given elements at shared reference
    points, val (nelt, nq, ...) and grad or div where the kind has them:
    the element coefficients (in the pushed-forward basis) contracted with
    the reference rows, copy c with the coefficients x[:, 2 l + c], then
    mapped by P_e."""
    elems = np.asarray(elems, dtype=np.int64)
    x = psi_coefficients(space, elems, coeffs[space.elt_dofs[elems]])
    fam, nelt, nq = space.kind.removeprefix("Broken"), len(elems), len(ref_pts)
    out, nc = {}, row_copies(space)
    for deriv, P in _volume_maps(space, elems):
        rows = reference_rows(fam, space.order, deriv, ref_pts)
        v = np.swapaxes(x.reshape(nelt, len(rows), nc), 1, 2).reshape(-1, len(rows)) @ rows.reshape(len(rows), -1)
        v = np.swapaxes(v.reshape(nelt, nc, nq, P.shape[2] // nc), 1, 2).reshape(nelt, nq, P.shape[2]) @ P.transpose(0, 2, 1)
        out[deriv] = v.reshape(v.shape[:2] + (2,) * (P.shape[1] // 2))
    return Basis(**out)


def _one_element(space: DofSpace, coeffs, e: int, phys_pts) -> Basis:
    """field_values on element e at physical points (nq, 2)."""
    if space.elt_dofs is None:
        raise ValueError(f"evaluation undefined for kind {space.kind}")
    elems = np.array([e])
    ref = to_reference(space.mesh.geometry, elems, np.asarray(phys_pts, dtype=float)[None])[0]
    return field_values(space, coeffs, elems, ref)


def evaluate_field(space: DofSpace, coeffs, e: int, phys_pts):
    """Evaluate the discrete field of one element at physical points (nq, 2)."""
    return _one_element(space, coeffs, e, phys_pts).val[0]


def evaluate_field_gradient(space: DofSpace, coeffs, e: int, phys_pts):
    """Gradient of an H1-type field on one element at physical points (nq, 2)."""
    if space.kind not in ("H1", "BrokenH1"):
        raise ValueError(f"gradient evaluation needs an H1 kind, got {space.kind}")
    return _one_element(space, coeffs, e, phys_pts).grad[0]


def evaluate_trace_field(space: DofSpace, coeffs, eid: int, t):
    """Evaluate a trace field on one skeleton edge at parameters t."""
    x = coeffs[space.edge_dofs[eid]]
    return np.einsum("l,lqc->qc", x, trace_edge_basis(space.kind, space.order, t))
