"""Variational formulation descriptors and element-local assembly.

Five broken formulations of the first-order elasticity system are
described declaratively: trial slots (volume fields and skeleton
traces), broken or discontinuous test slots, bilinear volume terms,
skeleton pairing terms, an optional load slot, and test and trial norms.
A concrete Formulation binds a descriptor to a mesh, material, and orders
(p, dp), instantiating all discrete spaces; unbroken_formulation binds it
to its unbroken pair instead (conforming test spaces, no skeleton terms).
Assembly produces element-local blocks

    M = [B | Bhat] (test x trial: fields, then traces), G (test Gram), l (load)

in batched numpy arrays. Every element is affine (its map is
Mesh.geometry) and the material constant, so M and G depend on an
element only through its Jacobian J, the orientations of its edges and
the signs of its trace normals: elements with equal keys form one
geometry class (Mesh.classes, once per mesh), and M and G are built
once per class, on its first element;
only the load l is built per element. Work is chunked over whole classes
with their elements (class_chunks) to bound memory, and a product of a
class matrix with its elements' arrays runs on them side by side
(ClassGroups). G holds one copy G1 per test slot, its Gram being G1 kron
I_c (gram_blocks).

The blocks are reference tensors times geometry coefficients (Kirby and
Logg, ACM TOMS 32, 2006): a volume term's block is |det J| P_test^T O
P_trial, with O the C or S matrix, contracted with the cached reference
tensor of the two spaces' reference arrays (volume_blocks, and the Grams
as sums of such terms); a skeleton pairing scales a reference edge tensor
per local edge and orientation (trace_pairing_blocks); the load pairs
quadrature values of f with the shared reference arrays in one matmul
(basis_pairing). The solvers, the estimator, the inf-sup lab and the
Galerkin reference take their blocks from assemble_local_blocks, and no
other module calls these kernels.

Every global operator is numbered one way: slot_layout numbers slot
spaces one after another and computes their free ids once
(TrialLayout.free, from one boolean mask, free_ids); element_dofs reads
each element's ids in those slots (elt_dofs, or edge_dofs on its three
edges for a trace slot). scatter_blocks sums class blocks of one width
straight into CSR, a Gram G1 kron I_c once per copy (gram_copies);
gram_matrix sums such scatters over the slots, the one Gram scatter of the
saddle-point solve (test Gram) and the inf-sup operators (G_Y and G_X).

Boundary data enters exclusively through essential constraints: the
displacement u0 on Gamma0 constrains H1 and TraceH12 dofs, and the
traction g on Gamma1 constrains H(div) normal-trace and TraceHm12 dofs
(by edgewise moment projection); elimination then folds the data into
the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .material import MaterialParams, stiffness_apply_array, compliance_apply_array
from .mesh import Geometry, Mesh
from .quadrature import triangle_rule, edge_rule
from .spaces import (
    DofSpace,
    h1_space,
    hdiv_space,
    l2_space,
    broken_h1_space,
    broken_hdiv_space,
    trace_spaces,
    volume_basis,
    trace_edge_basis,
    reference_basis,
    reference_rows,
    row_copies,
    geometry_map,
    dual_rows,
    edge_reference,
)


@dataclass(frozen=True)
class Term:
    """One volume pairing: sign * (op(D_trial trial), D_test test)."""

    test: str
    test_deriv: str  # val | grad | div
    trial: str
    trial_deriv: str
    sign: float
    op: Optional[str] = None  # None | C | S


@dataclass(frozen=True)
class TraceTerm:
    """One skeleton pairing: sign * <trace, element trace of test>."""

    test: str
    trace: str
    sign: float


@dataclass(frozen=True)
class FormulationDescriptor:
    id: str
    field_slots: tuple  # (name, kind) with kind in {Hdiv, H1, L2sym, L2vec, L2skew}
    trace_slots: tuple  # (name, kind) with kind in {TraceH12, TraceHm12}
    test_slots: tuple  # (name, kind)
    terms: tuple
    trace_terms: tuple
    test_norms: dict  # test name -> L2 | H1 | Hdiv
    trial_norms: dict  # field name -> L2 | H1 | Hdiv, the trial Gram of the inf-sup pair
    load_slot: Optional[str] = None  # test slot receiving (f, v), if any


DESCRIPTORS = {
    "strong": FormulationDescriptor(
        id="strong",
        field_slots=(("sigma", "Hdiv"), ("u", "H1")),
        trace_slots=(),
        test_slots=(("tau", "L2sym"), ("v", "L2vec"), ("w", "L2skew")),
        terms=(
            Term("tau", "val", "sigma", "val", 1.0),
            Term("tau", "val", "u", "grad", -1.0, "C"),
            Term("v", "val", "sigma", "div", -1.0),
            Term("w", "val", "sigma", "val", 1.0),
        ),
        trace_terms=(),
        test_norms={"tau": "L2", "v": "L2", "w": "L2"},
        trial_norms={"sigma": "Hdiv", "u": "H1"},
        load_slot="v",
    ),
    "ultraweak": FormulationDescriptor(
        id="ultraweak",
        field_slots=(("sigma", "L2sym"), ("u", "L2vec"), ("omega", "L2skew")),
        trace_slots=(("uhat", "TraceH12"), ("shat", "TraceHm12")),
        test_slots=(("tau", "BrokenHdiv"), ("v", "BrokenH1")),
        terms=(
            Term("tau", "val", "sigma", "val", 1.0, "S"),
            Term("tau", "val", "omega", "val", 1.0),
            Term("tau", "div", "u", "val", 1.0),
            Term("v", "grad", "sigma", "val", 1.0),
        ),
        trace_terms=(TraceTerm("tau", "uhat", -1.0), TraceTerm("v", "shat", -1.0)),
        test_norms={"tau": "Hdiv", "v": "H1"},
        trial_norms={"sigma": "L2", "u": "L2", "omega": "L2"},
        load_slot="v",
    ),
    "dualmixed": FormulationDescriptor(
        id="dualmixed",
        field_slots=(("sigma", "L2sym"), ("u", "H1")),
        trace_slots=(("shat", "TraceHm12"),),
        test_slots=(("tau", "L2sym"), ("v", "BrokenH1")),
        terms=(
            Term("tau", "val", "sigma", "val", 1.0),
            Term("tau", "val", "u", "grad", -1.0, "C"),
            Term("v", "grad", "sigma", "val", 1.0),
        ),
        trace_terms=(TraceTerm("v", "shat", -1.0),),
        test_norms={"tau": "L2", "v": "H1"},
        trial_norms={"sigma": "L2", "u": "H1"},
        load_slot="v",
    ),
    "mixed": FormulationDescriptor(
        id="mixed",
        field_slots=(("sigma", "Hdiv"), ("u", "L2vec"), ("omega", "L2skew")),
        trace_slots=(("uhat", "TraceH12"),),
        test_slots=(("tau", "BrokenHdiv"), ("v", "L2vec"), ("w", "L2skew")),
        terms=(
            Term("tau", "val", "sigma", "val", 1.0, "S"),
            Term("tau", "val", "omega", "val", 1.0),
            Term("tau", "div", "u", "val", 1.0),
            Term("v", "val", "sigma", "div", -1.0),
            Term("w", "val", "sigma", "val", 1.0),
        ),
        trace_terms=(TraceTerm("tau", "uhat", -1.0),),
        test_norms={"tau": "Hdiv", "v": "L2", "w": "L2"},
        trial_norms={"sigma": "Hdiv", "u": "L2", "omega": "L2"},
        load_slot="v",
    ),
    "primal": FormulationDescriptor(
        id="primal",
        field_slots=(("u", "H1"),),
        trace_slots=(("shat", "TraceHm12"),),
        test_slots=(("v", "BrokenH1"),),
        terms=(Term("v", "grad", "u", "grad", 1.0, "C"),),
        trace_terms=(TraceTerm("v", "shat", -1.0),),
        test_norms={"v": "H1"},
        trial_norms={"u": "H1"},
        load_slot="v",
    ),
}

FORMULATION_IDS = tuple(DESCRIPTORS)


@dataclass
class BCData:
    """Problem data: body force f(pts), traction g(pts, normal) on
    Gamma1, and prescribed displacement u0(pts) on Gamma0.

    g returns one traction per point, (..., 2), for points with any
    leading axes: the Gamma1 moments and the Galerkin traction load call
    it once per distinct edge normal with the points of all edges sharing
    it, (nedges, nq, 2) (spaces.edge_values)."""

    f: Callable = None
    g: Callable = None
    u0: Callable = None

    def body_force(self, pts):
        if self.f is None:
            return np.zeros(np.asarray(pts).shape)
        return np.asarray(self.f(pts), dtype=float)


def bc_from_exact(exact) -> BCData:
    return BCData(f=exact.body_force, g=exact.traction, u0=exact.displacement)


def _trial_space(kind, mesh, p, bc: BCData, gamma0=True):
    if kind == "Hdiv":
        return hdiv_space(mesh, p, traction_fn=bc.g)
    if kind == "H1":
        return h1_space(mesh, p, gamma0_constrained=gamma0, bc_fn=bc.u0)
    if kind in ("L2sym", "L2vec", "L2skew"):
        return l2_space(mesh, p - 1, kind)
    raise ValueError(f"unknown trial kind {kind!r}")


def _test_space(kind, mesh, p, dp):
    if kind == "BrokenHdiv":
        return broken_hdiv_space(mesh, p + dp)
    if kind == "BrokenH1":
        return broken_h1_space(mesh, p + dp)
    if kind in ("L2sym", "L2vec", "L2skew"):
        return l2_space(mesh, p - 1 + dp, kind)
    raise ValueError(f"unknown test kind {kind!r}")


def build_test_spaces(desc: FormulationDescriptor, mesh: Mesh, p: int, dp: int) -> dict:
    """The broken test spaces of a descriptor on the mesh at trial order p enriched by dp."""
    return {n: _test_space(k, mesh, p, dp) for n, k in desc.test_slots}


@dataclass
class Formulation:
    """A descriptor bound to a mesh, material, orders, and boundary data."""

    desc: FormulationDescriptor
    mesh: Mesh
    material: MaterialParams
    p: int
    dp: int
    bc: BCData
    field_spaces: dict
    trace_spaces: dict
    test_spaces: dict

    @property
    def id(self):
        return self.desc.id

    @property
    def trial_spaces(self) -> dict:
        """Field slots, then trace slots, in descriptor order."""
        return {**self.field_spaces, **self.trace_spaces}

    def quad_degree(self):
        return 2 * (self.p + self.dp) + 2


def formulation(spec_id: str, mesh: Mesh, material: MaterialParams, p: int, dp: int = 1, bc: Optional[BCData] = None) -> Formulation:
    """Instantiate a broken formulation with all of its discrete spaces."""
    if spec_id not in DESCRIPTORS:
        raise ValueError(f"unknown formulation {spec_id!r}; options: {sorted(DESCRIPTORS)}")
    if p < 1:
        raise ValueError(f"trial order must be at least 1, got {p}")
    if dp < 0:
        raise ValueError(f"enrichment must be nonnegative, got {dp}")
    desc = DESCRIPTORS[spec_id]
    bc = bc if bc is not None else BCData()
    fields = {n: _trial_space(k, mesh, p, bc) for n, k in desc.field_slots}
    traces = {}
    if desc.trace_slots:
        th12, thm12 = trace_spaces(mesh, p, u0_fn=bc.u0, traction_fn=bc.g)
        lookup = {"TraceH12": th12, "TraceHm12": thm12}
        traces = {n: lookup[k] for n, k in desc.trace_slots}
    tests = build_test_spaces(desc, mesh, p, dp)
    return Formulation(
        desc=desc,
        mesh=mesh,
        material=material,
        p=p,
        dp=dp,
        bc=bc,
        field_spaces=fields,
        trace_spaces=traces,
        test_spaces=tests,
    )


def unbroken_formulation(desc: FormulationDescriptor, mesh: Mesh, material, p: int, q: int, bc: Optional[BCData] = None, gamma0: bool = True) -> Formulation:
    """The unbroken conforming pair of a descriptor: its trial slots on
    conforming spaces of order p with their boundary constraints (without
    gamma0, H1 slots are free on Gamma0), its test slots on their
    conforming counterparts of order q with zero data, and no skeleton
    terms, which vanish on conforming test functions."""
    bc = bc if bc is not None else BCData()
    fields = {n: _trial_space(k, mesh, p, bc, gamma0) for n, k in desc.field_slots}
    tests = {n: _trial_space(k.removeprefix("Broken"), mesh, q, BCData(), gamma0) for n, k in desc.test_slots}
    return Formulation(
        desc=replace(desc, trace_slots=(), trace_terms=()), mesh=mesh, material=material, p=p, dp=q - p, bc=bc,
        field_spaces=fields, trace_spaces={}, test_spaces=tests,
    )


# ---------------------------------------------------------------------------
# assembly


def _apply_op(arr, op, material):
    if op is None:
        return arr
    if op == "C":
        return stiffness_apply_array(arr, material)
    if op == "S":
        return compliance_apply_array(arr, material)
    raise ValueError(f"unknown tensor op {op!r}")


def trial_term_values(term: Term, bases: dict, material) -> np.ndarray:
    """op(D_trial trial) of a volume term, read from the Basis of its trial
    slot in bases: per basis function from volume_basis, or per point from
    field_values."""
    arr = getattr(bases[term.trial], term.trial_deriv)
    if arr is None:
        raise ValueError(f"basis has no {term.trial_deriv!r} array")
    return _apply_op(arr, term.op, material)


def project_to_kind(arr, kind):
    """Orthogonal projection of trailing 2x2 tensors onto an L2 test kind
    (symmetric or skew part); vectors pass unchanged."""
    if kind == "L2sym":
        return 0.5 * (arr + np.swapaxes(arr, -1, -2))
    if kind == "L2skew":
        return 0.5 * (arr - np.swapaxes(arr, -1, -2))
    return arr


# ---------------------------------------------------------------------------
# geometry classes

CHUNK = 512  # elements per assembly chunk of whole classes


def class_chunks(cls, chunk: int = CHUNK):
    """Element arrays covering the mesh, each holding whole classes of cls,
    class by class: as many classes as fit in chunk elements, or one."""
    counts = np.bincount(cls)
    members, ends = np.argsort(cls, kind="stable"), np.cumsum(counts)
    start = 0
    while start < len(counts):
        stop = max(start + 1, np.searchsorted(ends, ends[start] - counts[start] + chunk, side="right"))
        yield members[ends[start] - counts[start] : ends[stop - 1]]
        start = stop


class ClassGroups:
    """The elements of each class side by side, so that one product with the
    class's matrix serves many of them. A class is cut into pieces of at
    most g = ceil(nelt / nclass) elements, so the zero padding leaves at
    most 2 nelt + nclass element columns: pack lays per-element arrays
    (nelt, n, k) out as the columns of their piece, (npiece, n, g * k), and
    unpack reverses it; take gives each piece its class's array, and first
    each class its first piece's array. With no class cut, pieces are
    classes."""

    def __init__(self, cls):
        counts = np.bincount(cls)
        g = -(-len(cls) // len(counts))
        order = np.argsort(cls, kind="stable")
        rank = np.arange(len(cls)) - np.repeat(np.cumsum(counts) - counts, counts)  # place in its class
        npieces = -(-counts // g)
        self.firsts = np.cumsum(npieces) - npieces
        self.cls = np.repeat(np.arange(len(counts)), npieces)  # the class of each piece
        self.nelt = len(cls)
        self.index = np.full((len(self.cls), g), len(cls))  # padding reads a zero row
        self.index[self.firsts[cls[order]] + rank // g, rank % g] = order

    def take(self, M):
        """Class arrays (nclass, ...) as piece arrays (npiece, ...)."""
        return M if len(self.cls) == len(M) else M[self.cls]

    def first(self, P):
        """Piece arrays (npiece, ...) as class arrays, from each class's first piece."""
        return P if len(self.cls) == len(self.firsts) else P[self.firsts]

    def pack(self, X):
        X = np.concatenate([X, np.zeros((1,) + X.shape[1:])])[self.index]  # (npiece, g, n, k)
        p, g, n, k = X.shape
        return X.transpose(0, 2, 1, 3).reshape(p, n, g * k)

    def unpack(self, Y, k: int = 1):
        p, r = Y.shape[:2]
        Y = Y.reshape(p, r, self.index.shape[1], k).transpose(0, 2, 1, 3)
        out = np.empty((self.nelt, r, k))
        real = self.index < self.nelt
        out[self.index[real]] = Y[real]
        return out


@dataclass
class LocalBlocks:
    """The data-free blocks of the geometry classes of a set of elements,
    one row per class, and the load of each element."""

    elems: np.ndarray
    cls: np.ndarray  # (nelt,) each element's class row
    reps: np.ndarray  # (nclass,) the element each class row was built on
    M: np.ndarray  # (nclass, ntest, ntrial), [B | Bhat]
    G: dict  # test slot -> one copy of its Gram (gram_blocks), (nclass, n, n)
    l: np.ndarray  # (nelt, ntest)
    test_slices: dict  # test slot -> slice in local test index
    test_copies: dict  # test slot -> c, its Gram being G[slot] kron I_c
    trial_slices: dict  # trial slot -> slice in local trial index: fields, then traces


def _slices(sizes):
    """Consecutive slices of the given (name, size) pairs, by name, and their total size."""
    slices, off = {}, 0
    for name, n in sizes:
        slices[name] = slice(off, off + n)
        off += n
    return slices, off


def _local_layout(form: Formulation):
    """Test and trial slices of the local index, with their sizes: the trial
    index holds the fields, then each trace slot on the three edges, as
    element_dofs numbers them."""
    return (
        *_slices((n, form.test_spaces[n].nloc) for n, _ in form.desc.test_slots),
        *_slices((n, s.nloc if s.elt_dofs is not None else 3 * s.nloc) for n, s in form.trial_spaces.items()),
    )


def element_quadrature(geom: Geometry, elems, degree: int):
    """Reference rule of the given degree with its per-element weights
    |det J| w_q, (nelt, nq), and physical points, (nelt, nq, 2), from geom."""
    rule = triangle_rule(degree)
    wts = np.abs(geom.det[elems])[:, None] * rule.weights[None, :]
    return rule, wts, geom.to_physical(rule.points, elems)


# ---------------------------------------------------------------------------
# reference-tensor element kernels


def _key(space: DofSpace):
    return space.kind.removeprefix("Broken"), space.order


@lru_cache(maxsize=None)
def _rule_basis(key, deriv: str, degree: int, one_copy: bool = False) -> np.ndarray:
    """reference_basis of a (kind, order) at the points of the triangle rule,
    or with one_copy the reference_rows it copies, as (n, nq, R)."""
    pts = triangle_rule(degree).points
    r = reference_rows(*key, deriv, pts) if one_copy else reference_basis(*key, deriv, pts)
    r = r.reshape(r.shape[:2] + (-1,))
    r.flags.writeable = False
    return r


@lru_cache(maxsize=None)
def _reference_tensor(test_key, test_deriv: str, trial_key, trial_deriv: str, degree: int, one_copy: bool = False) -> np.ndarray:
    """M[a, b, t, u] = sum_q w_q r_test[t, q, a] r_trial[u, q, b] on the
    triangle rule of the degree, as (R_test * R_trial, nt * nu)."""
    rt, ru = (_rule_basis(k, d, degree, one_copy) for k, d in ((test_key, test_deriv), (trial_key, trial_deriv)))
    M = np.einsum("q,tqa,uqb->abtu", triangle_rule(degree).weights, rt, ru).reshape(rt.shape[2] * ru.shape[2], -1)
    M.flags.writeable = False
    return M


def op_matrix(op: str, material) -> np.ndarray:
    """The tensor map C or S as a matrix on row-major flattened 2x2 tensors."""
    return _apply_op(np.eye(4).reshape(4, 2, 2), op, material).reshape(4, 4).T


def volume_blocks(test: DofSpace, test_deriv: str, trial: DofSpace, trial_deriv: str, elems, degree: int, O=None, one_copy=False):
    """Element blocks sum_q w_q <D_test v_t, O D_trial u_u> (nelt, test nloc,
    trial nloc): the coefficients |det J| P_test^T O P_trial times the
    reference tensor of the pair, one matmul; O (op_matrix) defaults to I.
    With one_copy, of a space with itself and O = I, the block (nelt, n, n)
    of one copy of the reference rows, n = nloc / c for c = row_copies: the
    whole block is that kron I_c, as geometry_map is I_c kron one copy's map."""
    E, c = len(elems), row_copies(test) if one_copy else 1
    M = _reference_tensor(_key(test), test_deriv, _key(trial), trial_deriv, degree, one_copy)
    Pt, Pu = (geometry_map(s, d, elems) for s, d in ((test, test_deriv), (trial, trial_deriv)))
    Pu = Pu[:, : Pu.shape[1] // c, : Pu.shape[2] // c] if O is None else O @ Pu
    coef = Pt[:, : Pt.shape[1] // c, : Pt.shape[2] // c].transpose(0, 2, 1) @ Pu
    coef *= np.abs(test.mesh.geometry.det[elems])[:, None, None]
    blk = dual_rows(test, elems, (coef.reshape(E, -1) @ M).reshape(E, test.nloc // c, trial.nloc // c))
    return dual_rows(trial, elems, blk.transpose(0, 2, 1)).transpose(0, 2, 1)


_NORM_DERIVS = {"L2": ("val",), "H1": ("val", "grad"), "Hdiv": ("val", "div")}


def gram_blocks(space: DofSpace, elems, degree: int, norm: str) -> np.ndarray:
    """One copy G1 of the element Gram matrices of a volume space in the L2,
    H1 or Hdiv norm, the Gram being G1 kron I_c: the one-copy val kernel,
    plus the grad or div kernel."""
    if norm not in _NORM_DERIVS:
        raise ValueError(f"unknown norm {norm!r}")
    return sum(volume_blocks(space, d, space, d, elems, degree, one_copy=True) for d in _NORM_DERIVS[norm])


def basis_pairing(space: DofSpace, deriv: str, elems, degree: int, vals) -> np.ndarray:
    """sum_q w_q <D v_t, vals_q> (nelt, nloc) of the local basis with values
    vals (nelt, nq, ...) at the rule of the degree: the values mapped by
    P_e^T and weighted, against the shared reference array in one matmul."""
    E, w = len(elems), triangle_rule(degree).weights
    r = _rule_basis(_key(space), deriv, degree)
    F = vals.reshape(E, len(w), -1) @ geometry_map(space, deriv, elems)
    F *= (np.abs(space.mesh.geometry.det[elems])[:, None] * w)[..., None]
    return dual_rows(space, elems, F.reshape(E, -1) @ r.reshape(len(r), -1).T)


@lru_cache(maxsize=None)
def _edge_tensor(test_key, trace_key, degree: int) -> np.ndarray:
    """T[k, o, t, m] = sum_q w_q <trace basis m, reference trace of v_t on
    local edge k in orientation o> on the edge rule of the degree."""
    tq, twq = edge_rule(degree)
    T = np.einsum("q,kotqc,mqc->kotm", twq, edge_reference(*test_key, tq), trace_edge_basis(*trace_key, tq))
    T.flags.writeable = False
    return T


def trace_pairing_blocks(test_space: DofSpace, trace_space: DofSpace, elems, degree: int) -> np.ndarray:
    """Skeleton pairings <trace_m, element trace of test_t> on each element,
    (nelt, test nloc, 3 * trace dofs per edge), columns edge by edge: the
    reference edge tensor of each local edge's orientation times |e| for an
    H1 test space or h for an H(div) one (whose normal trace is h / |e|
    times the reference one), and by the sign that turns the stored flux of
    a TraceHm12 space to the element's outward side."""
    mesh, sk = trace_space.mesh, trace_space.mesh.skeleton
    T = _edge_tensor(_key(test_space), (trace_space.kind, trace_space.order), degree)
    fac = sk.lengths[mesh.tri_edges[elems]] if test_space.kind.endswith("H1") else test_space.mesh.geometry.hscale[elems, None]
    if trace_space.kind == "TraceHm12":
        fac = sk.tri_signs[elems] * fac
    blk = fac[..., None, None] * T[np.arange(3), mesh.edge_flips[elems]]
    return dual_rows(test_space, elems, blk.transpose(0, 2, 1, 3).reshape(len(elems), test_space.nloc, -1))


def assemble_local_blocks(form: Formulation, elems=None, quad_degree=None) -> LocalBlocks:
    """Assemble M = [B | Bhat] and G once per geometry class among the
    given elements (default: all), on the first of its elements, and l for
    every element."""
    if elems is None:
        elems = np.arange(form.mesh.num_triangles)
    elems = np.asarray(elems, dtype=np.int64)
    degree = quad_degree if quad_degree is not None else form.quad_degree()
    _, first, cls = np.unique(form.mesh.classes[elems], return_index=True, return_inverse=True)
    reps, cls = elems[first], cls.ravel()

    test_slices, ntest, trial_slices, ntrial = _local_layout(form)
    M = np.zeros((len(reps), ntest, ntrial))
    l = np.zeros((len(elems), ntest))

    for term in form.desc.terms:
        O = op_matrix(term.op, form.material) if term.op else None
        test, trial = form.test_spaces[term.test], form.field_spaces[term.trial]
        blk = volume_blocks(test, term.test_deriv, trial, term.trial_deriv, reps, degree, O)
        M[:, test_slices[term.test], trial_slices[term.trial]] += term.sign * blk

    spaces = form.test_spaces
    G = {n: gram_blocks(spaces[n], reps, degree, form.desc.test_norms[n]) for n, _ in form.desc.test_slots}

    load = form.desc.load_slot  # (f, v)
    if load is not None:
        _, _, pts = element_quadrature(form.mesh.geometry, elems, degree)
        l[:, test_slices[load]] = basis_pairing(form.test_spaces[load], "val", elems, degree, form.bc.body_force(pts))

    for tt in form.desc.trace_terms:
        pair = trace_pairing_blocks(form.test_spaces[tt.test], form.trace_spaces[tt.trace], reps, degree)
        M[:, test_slices[tt.test], trial_slices[tt.trace]] += tt.sign * pair

    return LocalBlocks(elems, cls, reps, M, G, l, test_slices, {n: row_copies(spaces[n]) for n in G}, trial_slices)


# ---------------------------------------------------------------------------
# global numbering of slot spaces


@dataclass
class TrialLayout:
    """Concatenated global numbering of slot spaces (slot_layout): the
    trial slots of a formulation, or any other slots, such as the test
    slots of an unbroken pair."""

    offsets: dict  # slot name -> global offset
    ndof: int
    constrained: np.ndarray  # global constrained dof ids, sorted
    values: np.ndarray
    free: np.ndarray  # global unconstrained dof ids, sorted


def trial_layout(form: Formulation) -> TrialLayout:
    return slot_layout(form.trial_spaces)


def slot_layout(spaces: dict) -> TrialLayout:
    """Number the given slot spaces one after another, in dict order."""
    offsets = {}
    off = 0
    cons = []
    vals = []
    for name, space in spaces.items():
        offsets[name] = off
        if len(space.constrained_dofs):
            cons.append(space.constrained_dofs + off)
            vals.append(space.constrained_values)
        off += space.ndof
    cons = np.concatenate(cons) if cons else np.empty(0, dtype=np.int64)
    vals = np.concatenate(vals) if vals else np.empty(0)
    order = np.argsort(cons)
    return TrialLayout(offsets=offsets, ndof=off, constrained=cons[order], values=vals[order], free=free_ids(off, cons))


def free_ids(n: int, constrained) -> np.ndarray:
    """The ids of range(n) not in constrained, increasing: one boolean mask,
    no sort."""
    free = np.ones(n, bool)
    free[np.asarray(constrained, dtype=np.int64)] = False
    return np.flatnonzero(free)


def element_dofs(spaces: dict, layout: TrialLayout, elems) -> np.ndarray:
    """Global ids of each element's dofs in the given slot spaces, numbered
    by layout, (nelt, sum of local sizes): a volume slot's elt_dofs, a trace
    slot's edge_dofs on the element's three edges, edge by edge.

    Trace columns repeat a global dof when a vertex dof appears on two of
    the element's edges; scatter-adds accumulate correctly.
    """
    elems = np.asarray(elems, dtype=np.int64)
    cols = []
    for name, space in spaces.items():
        dofs = space.elt_dofs[elems] if space.elt_dofs is not None else space.edge_dofs[space.mesh.tri_edges[elems]]
        cols.append(dofs.reshape(len(elems), -1) + layout.offsets[name])
    return np.concatenate(cols, axis=1)


def element_trial_dofs(form: Formulation, layout: TrialLayout, elems) -> np.ndarray:
    """Global column ids of each element's trial dofs, (nelt, nfield+ntrace)."""
    return element_dofs(form.trial_spaces, layout, elems)


def scatter_blocks(triples, shape) -> sp.csr_matrix:
    """Sum blocks into one CSR matrix of the given shape. A triple (row_dofs
    (ne, m), col_dofs (ne, n), blocks, cls) adds blocks[cls[e], i, j] at
    (row_dofs[e, i], col_dofs[e, j]), one block per class; with cls None or
    left out, blocks is (ne, m, n); all triples have one width n. The element
    rows (e, i), stably sorted by global row, go whole straight into a CSR
    with duplicates in the entry order of a COO to CSR conversion, whose sums
    one sum_duplicates gives bit for bit, explicit zeros kept: no per-element
    block or COO index array is built. The arrays are compact, int32 indices
    if they fit. Mixed widths or shapes, and ids outside the shape or blocks
    raise ValueError."""
    parts, bo, co, width = [], 0, 0, None
    for r, c, b, *k in triples:  # per element row: global row, row in the flat blocks and in col_dofs
        r, c, b = np.asarray(r), np.asarray(c), np.asarray(b, dtype=float)
        (ne, m), n = r.shape, c.shape[1]
        width = n if width is None else width
        k = np.asarray(k[0]) if k and k[0] is not None else np.arange(ne)
        if n != width or k.shape != (ne,) or len(c) != ne or b.shape[1:] != (m, n) or any(np.any((a < 0) | (a >= hi)) for a, hi in ((k, len(b)), (r, shape[0]), (c, shape[1]))):
            raise ValueError("scatter_blocks: triple widths or shapes disagree, or a row, column or class id is out of range")
        parts.append((r.ravel(), bo + (k[:, None] * m + np.arange(m)).ravel(), co + np.repeat(np.arange(ne), m), b.ravel(), c.ravel()))
        bo, co = bo + len(b) * m, co + ne
    keys, bsrc, csrc, B, C = map(np.concatenate, zip(*parts))
    total = keys.size * width
    if total == 0:
        return sp.csr_matrix(shape)
    idx = np.int32 if max(*shape, total) < 2**31 else np.int64
    order, C = np.argsort(keys, kind="stable"), C.astype(idx)
    indptr = np.r_[0, np.cumsum(np.bincount(keys, minlength=shape[0]) * width)].astype(idx)
    data, indices = np.empty(total), np.empty(total, idx)
    # whole rows through 2-D views; "clip" fills out unbuffered, and every id was checked
    np.take(B.reshape(-1, width), bsrc[order], axis=0, out=data.reshape(-1, width), mode="clip")
    np.take(C.reshape(-1, width), csrc[order], axis=0, out=indices.reshape(-1, width), mode="clip")
    del parts, keys, bsrc, csrc, order  # freed before the sum, which copies the entries it keeps
    K = sp.csr_matrix((data, indices, indptr), shape=shape)
    K.sum_duplicates()
    if K.data.base is not None:  # scipy keeps views of the buffers when over half of them is kept
        K.data, K.indices = K.data.copy(), K.indices.copy()
    return K


def gram_copies(dofs, G1, c: int, cls) -> list:
    """scatter_blocks triples of G1 kron I_c, G1 per class of cls (or element
    if None), on element dofs (nelt, c n): row l's copy j sits on c l + j."""
    return [(dofs[:, j::c], dofs[:, j::c], G1, cls) for j in range(c)]


def gram_matrix(dofs, slices, G, copies, cls, n: int) -> sp.csr_matrix:
    """The sparse (n, n) Gram of slots whose one-copy Grams G[slot] (one per
    class of cls) sit on the element dofs (nelt, ...) in columns
    slices[slot], each kron I_c with c = copies[slot]: one scatter per slot,
    whose copies share one width; the slots own disjoint rows, a sum merges them."""
    return sum(scatter_blocks(gram_copies(dofs[:, slices[k]], g, copies[k], cls), (n, n)) for k, g in G.items())


# ---------------------------------------------------------------------------
# pointwise residual representations for the exact-L2 paths


def l2_slot_residual_ops(form: Formulation, elems, quad_degree=None):
    """Pointwise residual representers of the L2-identified test slots.

    For every test slot whose norm is L2, the functional r(v) = (R, v)
    has an explicit representer R built from the trial basis. Returns
    (wts, reps, load_reps, field_slices) where reps[name] has shape
    (nelt, nfield, nq, ...) giving the representer of each trial basis
    function, and load_reps[name] the representer of the load (or None).
    """
    elems = np.asarray(elems, dtype=np.int64)
    degree = quad_degree if quad_degree is not None else form.quad_degree()
    rule, wts, pts = element_quadrature(form.mesh.geometry, elems, degree)
    field_bases = {n: volume_basis(form.field_spaces[n], elems, rule.points) for n, _ in form.desc.field_slots}
    field_slices, nfield = _slices((n, form.field_spaces[n].nloc) for n, _ in form.desc.field_slots)
    reps = {}
    load_reps = {}
    nelt, nq = wts.shape
    for name, kind in form.desc.test_slots:
        if form.desc.test_norms[name] != "L2":
            continue
        shape = (nelt, nfield, nq, 2) if kind == "L2vec" else (nelt, nfield, nq, 2, 2)
        rep = np.zeros(shape)
        for term in form.desc.terms:
            if term.test != name:
                continue
            uarr = trial_term_values(term, field_bases, form.material)
            rep[:, field_slices[term.trial]] += term.sign * project_to_kind(uarr, kind)
        reps[name] = rep
        load_reps[name] = form.bc.body_force(pts) if name == form.desc.load_slot else None
    return wts, reps, load_reps, field_slices


# ---------------------------------------------------------------------------
# elementwise momentum balance of an H(div) stress


MOMENTUM_QUAD_DEGREE = 12


def element_momentum_integrals(
    space: DofSpace, bc: Optional[BCData], elems, quad_degree: int = MOMENTUM_QUAD_DEGREE
):
    """Element integrals behind the momentum balance int_K (div sigma + f).

    Returns (div_int, f_int, f_sq): div_int[e, l, c] is the integral of
    component c of div phi_l over element elems[e] for the H(div) stress
    basis, f_int[e, c] the integral of component c of the body force,
    and f_sq[e] the integral of |f|^2. The conservative mixed solve
    builds its constraint rows from these, and the conservation check
    evaluates its defects from them, on the same quadrature rule.
    """
    elems = np.asarray(elems, dtype=np.int64)
    _, wts, pts = element_quadrature(space.mesh.geometry, elems, quad_degree)
    fv = bc.body_force(pts) if bc is not None else np.zeros(pts.shape)
    div_int = np.stack([basis_pairing(space, "div", elems, quad_degree, np.broadcast_to(e, pts.shape)) for e in np.eye(2)], -1)
    f_int = np.einsum("eq,eqc->ec", wts, fv)
    f_sq = np.einsum("eq,eqc,eqc->e", wts, fv, fv)
    return div_int, f_int, f_sq
