"""Variational formulation descriptors and element-local assembly.

Five broken formulations of the first-order elasticity system are
described declaratively: trial slots (volume fields and skeleton
traces), broken or discontinuous test slots, bilinear volume terms,
skeleton pairing terms, load slots, and test norms. A concrete
Formulation binds a descriptor to a mesh, material, and orders (p, dp),
instantiating all discrete spaces; assembly produces per-element blocks

    B (test x field), Bhat (test x trace), G (test Gram), l (load)

in batched numpy arrays, chunked over elements to bound memory. The
element kernels (quadrature, norm Grams, skeleton pairings) and the
scatter of element blocks into global sparse matrices are shared with
the solvers and the inf-sup lab.

Boundary data enters exclusively through essential constraints: the
displacement u0 on Gamma0 constrains H1 and TraceH12 dofs, and the
traction g on Gamma1 constrains H(div) normal-trace and TraceHm12 dofs
(by edgewise moment projection); elimination then folds the data into
the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .material import MaterialParams, stiffness_apply_array, compliance_apply_array
from .mesh import Mesh, Skeleton, skeleton as make_skeleton
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
    element_edge_values,
    trace_edge_basis,
    geometry,
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
    load_slot: str  # test slot receiving (f, v)


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
        load_slot="v",
    ),
}

FORMULATION_IDS = tuple(DESCRIPTORS)


@dataclass
class BCData:
    """Problem data: body force f(pts), traction g(pts, normal) on
    Gamma1, and prescribed displacement u0(pts) on Gamma0."""

    f: Callable = None
    g: Callable = None
    u0: Callable = None

    def body_force(self, pts):
        if self.f is None:
            return np.zeros(np.asarray(pts).shape)
        return np.asarray(self.f(pts), dtype=float)


def bc_from_exact(exact) -> BCData:
    return BCData(f=exact.body_force, g=exact.traction, u0=exact.displacement)


def _trial_space(kind, sk, p, bc: BCData):
    if kind == "Hdiv":
        return hdiv_space(sk, p, gamma1_constrained=True, traction_fn=bc.g)
    if kind == "H1":
        return h1_space(sk.mesh, p, gamma0_constrained=True, bc_fn=bc.u0)
    if kind in ("L2sym", "L2vec", "L2skew"):
        return l2_space(sk.mesh, p - 1, kind)
    raise ValueError(f"unknown trial kind {kind!r}")


def _test_space(kind, sk, p, dp):
    if kind == "BrokenHdiv":
        return broken_hdiv_space(sk, p + dp)
    if kind == "BrokenH1":
        return broken_h1_space(sk.mesh, p + dp)
    if kind in ("L2sym", "L2vec", "L2skew"):
        return l2_space(sk.mesh, p - 1 + dp, kind)
    raise ValueError(f"unknown test kind {kind!r}")


def build_test_spaces(desc: FormulationDescriptor, sk: Skeleton, p: int, dp: int) -> dict:
    """The broken test spaces of a descriptor at trial order p enriched by
    dp, on the mesh of the skeleton sk."""
    return {n: _test_space(k, sk, p, dp) for n, k in desc.test_slots}


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
    skeleton: object

    @property
    def id(self):
        return self.desc.id

    def trial_slot_names(self):
        return [n for n, _ in self.desc.field_slots] + [n for n, _ in self.desc.trace_slots]

    def trial_space(self, name):
        return self.field_spaces.get(name) or self.trace_spaces[name]

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
    sk = make_skeleton(mesh)
    fields = {n: _trial_space(k, sk, p, bc) for n, k in desc.field_slots}
    traces = {}
    if desc.trace_slots:
        th12, thm12 = trace_spaces(sk, p, u0_fn=bc.u0, traction_fn=bc.g)
        lookup = {"TraceH12": th12, "TraceHm12": thm12}
        traces = {n: lookup[k] for n, k in desc.trace_slots}
    tests = build_test_spaces(desc, sk, p, dp)
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
        skeleton=sk,
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


def _slot_array(basis, deriv):
    arr = getattr(basis, deriv)
    if arr is None:
        raise ValueError(f"basis has no {deriv!r} array")
    return arr


def trial_term_values(term: Term, bases: dict, material) -> np.ndarray:
    """op(D_trial trial) of a volume term, read from the Basis of its trial
    slot in bases: per basis function from volume_basis, or per point from
    field_values."""
    return _apply_op(_slot_array(bases[term.trial], term.trial_deriv), term.op, material)


def project_to_kind(arr, kind):
    """Orthogonal projection of trailing 2x2 tensors onto an L2 test kind
    (symmetric or skew part); vectors pass unchanged."""
    if kind == "L2sym":
        return 0.5 * (arr + np.swapaxes(arr, -1, -2))
    if kind == "L2skew":
        return 0.5 * (arr - np.swapaxes(arr, -1, -2))
    return arr


def _contract(wts, test_arr, trial_arr):
    """sum_q w_q <test, trial> over trailing value axes."""
    E, nt, nq = test_arr.shape[:3]
    nu = trial_arr.shape[1]
    t = test_arr.reshape(E, nt, nq, -1)
    u = trial_arr.reshape(E, nu, nq, -1)
    return np.einsum("eq,etqk,euqk->etu", wts, t, u, optimize=True)


@dataclass
class LocalBlocks:
    """Batched per-element blocks for a chunk of elements."""

    elems: np.ndarray
    B: np.ndarray  # (nelt, ntest, nfield)
    Bhat: np.ndarray  # (nelt, ntest, ntrace)
    G: np.ndarray  # (nelt, ntest, ntest)
    l: np.ndarray  # (nelt, ntest)
    test_slices: dict  # test slot -> slice in local test index
    field_slices: dict
    trace_slices: dict


def _local_layout(form: Formulation):
    test_slices, off = {}, 0
    for name, _ in form.desc.test_slots:
        n = form.test_spaces[name].nloc
        test_slices[name] = slice(off, off + n)
        off += n
    ntest = off
    field_slices, off = {}, 0
    for name, _ in form.desc.field_slots:
        n = form.field_spaces[name].nloc
        field_slices[name] = slice(off, off + n)
        off += n
    nfield = off
    trace_slices, off = {}, 0
    for name, _ in form.desc.trace_slots:
        n = 3 * form.trace_spaces[name].edge_dofs.shape[1]
        trace_slices[name] = slice(off, off + n)
        off += n
    return test_slices, ntest, field_slices, nfield, trace_slices, off


def element_quadrature(mesh: Mesh, elems, degree: int):
    """Reference rule of the given degree with its per-element weights
    |det J| w_q, (nelt, nq), and physical points, (nelt, nq, 2)."""
    rule = triangle_rule(degree)
    geom = geometry(mesh)
    wts = np.abs(geom.det[elems])[:, None] * rule.weights[None, :]
    pts = geom.origin[elems][:, None, :] + np.einsum("eij,qj->eqi", geom.J[elems], rule.points)
    return rule, wts, pts


def gram_blocks(wts, basis, norm: str) -> np.ndarray:
    """Element Gram matrices of a basis in the L2, H1 or Hdiv norm.

    H1 and H(div) bases interleave two copies of one scalar or row basis,
    dof 2l+c carrying component c, so their Gram is two equal blocks: the
    block of copy 0 is one weighted matmul over its values and gradient
    or divergence, written into both. The L2 norm keeps the general
    contraction, since the L2sym and L2skew copies are not interleaved
    this way.
    """
    if norm == "L2":
        return _contract(wts, basis.val, basis.val)
    if norm == "H1":
        deriv = basis.grad[:, 0::2, :, 0, :]
    elif norm == "Hdiv":
        deriv = basis.div[:, 0::2, :, 0, None]
    else:
        raise ValueError(f"unknown norm {norm!r}")
    E, n, nq = deriv.shape[:3]
    F = np.concatenate([basis.val[:, 0::2, :, 0].reshape(E, n, nq, -1), deriv], axis=3)
    G0 = (F * wts[:, None, :, None]).reshape(E, n, -1) @ F.reshape(E, n, -1).transpose(0, 2, 1)
    G = np.zeros((E, 2 * n, 2 * n))
    G[:, 0::2, 0::2] = G0
    G[:, 1::2, 1::2] = G0
    return G


def trace_edge_factors(trace_space: DofSpace, sk, elems) -> np.ndarray:
    """Length of each element edge, (nelt, 3), times the sign that turns
    the stored flux of a TraceHm12 space to the element's outward side."""
    lengths = sk.lengths[trace_space.mesh.tri_edges[elems]]
    if trace_space.kind == "TraceHm12":
        return sk.tri_signs[elems] * lengths
    return lengths


def trace_pairing_blocks(test_space: DofSpace, trace_space: DofSpace, sk, elems, degree: int) -> np.ndarray:
    """Skeleton pairings <trace_m, element trace of test_t> on each element,
    (nelt, test nloc, 3 * trace dofs per edge), columns edge by edge.

    The stored flux of a TraceHm12 space is flipped to the element's
    outward side.
    """
    mesh = test_space.mesh
    tq, twq = edge_rule(degree)
    tb_all = trace_edge_basis(trace_space, tq)  # (ne, nloc_e, qe, 2)
    ev = element_edge_values(test_space, elems, tq)
    fac = trace_edge_factors(trace_space, sk, elems)  # (nelt, 3)
    nloc_e = trace_space.edge_dofs.shape[1]
    blk = np.zeros((len(elems), test_space.nloc, 3 * nloc_e))
    for loc in range(3):
        eids = mesh.tri_edges[elems, loc]
        pair = np.einsum("q,etqc,emqc->etm", twq, ev[:, :, loc], tb_all[eids], optimize=True)
        blk[:, :, loc * nloc_e : (loc + 1) * nloc_e] = fac[:, loc, None, None] * pair
    return blk


def assemble_local_blocks(form: Formulation, elems=None, quad_degree=None) -> LocalBlocks:
    """Assemble (B, Bhat, G, l) for the given elements (default: all)."""
    mesh = form.mesh
    if elems is None:
        elems = np.arange(mesh.num_triangles)
    elems = np.asarray(elems, dtype=np.int64)
    degree = quad_degree if quad_degree is not None else form.quad_degree()
    rule, wts, pts = element_quadrature(mesh, elems, degree)

    test_slices, ntest, field_slices, nfield, trace_slices, ntrace = _local_layout(form)
    nelt = len(elems)
    B = np.zeros((nelt, ntest, nfield))
    Bhat = np.zeros((nelt, ntest, ntrace))
    G = np.zeros((nelt, ntest, ntest))
    l = np.zeros((nelt, ntest))

    test_bases = {n: volume_basis(form.test_spaces[n], elems, rule.points) for n, _ in form.desc.test_slots}
    field_bases = {n: volume_basis(form.field_spaces[n], elems, rule.points) for n, _ in form.desc.field_slots}

    for term in form.desc.terms:
        tarr = _slot_array(test_bases[term.test], term.test_deriv)
        uarr = trial_term_values(term, field_bases, form.material)
        blk = term.sign * _contract(wts, tarr, uarr)
        B[:, test_slices[term.test], field_slices[term.trial]] += blk

    for name, _ in form.desc.test_slots:
        s = test_slices[name]
        G[:, s, s] = gram_blocks(wts, test_bases[name], form.desc.test_norms[name])

    # load (f, v)
    fvals = form.bc.body_force(pts)
    vload = test_bases[form.desc.load_slot]
    l[:, test_slices[form.desc.load_slot]] = np.einsum(
        "eq,eqc,elqc->el", wts, fvals, vload.val, optimize=True
    )

    for tt in form.desc.trace_terms:
        pair = trace_pairing_blocks(
            form.test_spaces[tt.test], form.trace_spaces[tt.trace], form.skeleton, elems, degree
        )
        Bhat[:, test_slices[tt.test], trace_slices[tt.trace]] += tt.sign * pair

    return LocalBlocks(
        elems=elems,
        B=B,
        Bhat=Bhat,
        G=G,
        l=l,
        test_slices=test_slices,
        field_slices=field_slices,
        trace_slices=trace_slices,
    )


# ---------------------------------------------------------------------------
# element dof maps into the concatenated global trial vector


@dataclass
class TrialLayout:
    """Concatenated global numbering over all trial slots."""

    offsets: dict  # slot name -> global offset
    ndof: int
    constrained: np.ndarray  # global constrained dof ids, sorted
    values: np.ndarray


def trial_layout(form: Formulation) -> TrialLayout:
    return slot_layout({name: form.trial_space(name) for name in form.trial_slot_names()})


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
    return TrialLayout(offsets=offsets, ndof=off, constrained=cons[order], values=vals[order])


def element_trial_dofs(form: Formulation, layout: TrialLayout, elems) -> np.ndarray:
    """Global column ids of each element's trial dofs, (nelt, nfield+ntrace).

    Trace columns repeat a global dof when a vertex dof appears on two of
    the element's edges; scatter-adds accumulate correctly.
    """
    elems = np.asarray(elems, dtype=np.int64)
    cols = []
    for name, _ in form.desc.field_slots:
        space = form.field_spaces[name]
        cols.append(space.elt_dofs[elems] + layout.offsets[name])
    for name, _ in form.desc.trace_slots:
        space = form.trace_spaces[name]
        eids = form.mesh.tri_edges[elems]  # (nelt, 3)
        ed = space.edge_dofs[eids]  # (nelt, 3, nloc_e)
        cols.append(ed.reshape(len(elems), -1) + layout.offsets[name])
    return np.concatenate(cols, axis=1)


def scatter_blocks(triples, shape) -> sp.csr_matrix:
    """Sum element blocks into one sparse matrix of the given shape.

    Each triple (row_dofs (ne, m), col_dofs (ne, n), blocks (ne, m, n))
    adds blocks[e, i, j] at (row_dofs[e, i], col_dofs[e, j]). Repeated
    entries are summed by a single COO to CSR conversion.
    """
    triples = [(np.asarray(r), np.asarray(c), np.asarray(b, dtype=float)) for r, c, b in triples]
    total = sum(b.size for _, _, b in triples)
    rows = np.empty(total, dtype=np.int64)
    cols = np.empty(total, dtype=np.int64)
    vals = np.empty(total)
    off = 0
    for r, c, b in triples:
        k = b.size
        rows[off : off + k].reshape(b.shape)[...] = r[:, :, None]
        cols[off : off + k].reshape(b.shape)[...] = c[:, None, :]
        vals[off : off + k] = b.ravel()
        off += k
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


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
    mesh = form.mesh
    elems = np.asarray(elems, dtype=np.int64)
    degree = quad_degree if quad_degree is not None else form.quad_degree()
    rule, wts, pts = element_quadrature(mesh, elems, degree)
    field_bases = {n: volume_basis(form.field_spaces[n], elems, rule.points) for n, _ in form.desc.field_slots}
    _, _, field_slices, nfield, _, _ = _local_layout(form)
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
    rule, wts, pts = element_quadrature(space.mesh, elems, quad_degree)
    basis = volume_basis(space, elems, rule.points)
    fv = bc.body_force(pts) if bc is not None else np.zeros(pts.shape)
    div_int = np.einsum("eq,elqc->elc", wts, basis.div, optimize=True)
    f_int = np.einsum("eq,eqc->ec", wts, fv)
    f_sq = np.einsum("eq,eqc,eqc->e", wts, fv, fv)
    return div_int, f_int, f_sq
